"""Plain reference search for differential tests of `drtomo.oracle`.

`reference_search` is the oracle as it was before the forcing rule ran
inside the search: pre-elimination sweeps every group until nothing
changes, then the depth-first search checks each cell it sets against its
own three groups only.  It visits cells in the same static order (bottom
row up, left to right, 0 before 1) and counts one node per vertex of its
search tree, the root included, so its solutions, their order, its count
and its `exhausted` flag are what the oracle must reproduce, and its node
count bounds the oracle's from above.
"""

import numpy as np

from drtomo.model import BinaryImage, Instance, validate_instance


class ReferenceResult:
    def __init__(self):
        self.solutions: list[BinaryImage] = []
        self.count = 0
        self.nodes = 0
        self.exhausted = True


def reference_search(
    inst: Instance, max_solutions: int, max_nodes: int, fixed=None
) -> ReferenceResult:
    """Enumerate the solutions of inst with the given cells pinned, within the caps."""
    errs = validate_instance(inst)
    if any(e.kind != "sum-mismatch" for e in errs):
        raise ValueError("; ".join(str(e) for e in errs))
    out = ReferenceResult()
    k, m, n = inst.k, inst.m, inst.n
    windows = [(r, r) for r in inst.row_sums] + [(c, c) for c in inst.col_sums]
    members = [[q * m + p for p in range(m)] for q in range(n)]
    members += [[q * m + p for q in range(n)] for p in range(m)]
    for i, j in inst.corners():
        windows.append(inst.window(i, j))
        members.append([(j - 1 + dy) * m + i - 1 + dx for dy in range(k) for dx in range(k)])
    lo = [w[0] for w in windows]
    hi = [w[1] for w in windows]
    used = [0] * len(windows)
    free = [len(cells) for cells in members]
    groups = [(q, n + p, n + m + (q // k) * (m // k) + p // k) for q in range(n) for p in range(m)]
    cell = [-1] * (m * n)

    def set_(c, bit):
        cell[c] = bit
        ok = True
        for g in groups[c]:
            free[g] -= 1
            used[g] += bit
            if used[g] > hi[g] or used[g] + free[g] < lo[g]:
                ok = False
        return ok

    def unset(c):
        bit = cell[c]
        cell[c] = -1
        for g in groups[c]:
            free[g] += 1
            used[g] -= bit

    def preeliminate():
        changed = True
        while changed:
            changed = False
            for g, cells in enumerate(members):
                if used[g] > hi[g] or used[g] + free[g] < lo[g]:
                    return False
                if free[g] and (used[g] == hi[g] or used[g] + free[g] == lo[g]):
                    bit = int(used[g] != hi[g])
                    for c in cells:
                        if cell[c] < 0:
                            set_(c, bit)
                    changed = True
        return True

    for (p, q), bit in (fixed or {}).items():
        set_((q - 1) * m + p - 1, bit)
    if errs or not preeliminate():
        return out
    order = [c for c, bit in enumerate(cell) if bit < 0]
    path: list[int] = []
    while True:
        out.nodes += 1
        if out.nodes > max_nodes:
            out.exhausted = False
            return out
        bit = 0
        if len(path) == len(order):
            out.count += 1
            out.solutions.append(BinaryImage(np.array(cell, dtype=np.uint8).reshape(n, m)))
            if out.count >= max_solutions:
                out.exhausted = False
                return out
            bit = 2
        while True:
            if bit < 2:
                c = order[len(path)]
                if set_(c, bit):
                    path.append(bit)
                    break
                unset(c)
                bit += 1
            elif path:
                bit = path.pop() + 1
                unset(order[len(path)])
            else:
                return out
