"""Exhaustive reference solver: exact answers at small scale, by search.

This is the ground truth the fast solver is measured against, and the only
way in this package to decide noisy or k > 2 instances exactly.  Nothing
here tries to be fast beyond pruning and pre-elimination.

Every row, column and block is a window group: a set of cells that must
hold between lo and hi ones (lo = hi = the line sum for a line,
``Instance.window`` for a block), and every cell lies in exactly three
groups.  A partial assignment is kept while each group can still be
completed, that is while used <= hi and used + free >= lo.
Pre-elimination applies one forcing rule to every group until nothing
changes: used == hi forces the free cells to 0, used + free == lo forces
them to 1.  The depth-first search keeps its path on an explicit stack, so
its depth is bounded by memory, not by the interpreter's recursion limit.

A malformed instance (any ``validate_instance`` finding other than a sum
mismatch) and a pin outside the grid or with a bit other than 0 or 1 raise
``ValueError``; a sum mismatch is answered as infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BinaryImage, Instance, validate_instance


@dataclass(frozen=True)
class SearchBudget:
    """Caps for a single search run."""

    max_solutions: int = 1_000_000
    max_nodes: int = 50_000_000

    def __post_init__(self):
        if self.max_solutions <= 0 or self.max_nodes <= 0:
            raise ValueError("budget caps must be positive")


class _Search:
    """One depth-first enumeration over the undecided cells of an instance.

    Cell (p, q) has index (q-1)*m + p-1.  Groups are numbered rows bottom
    up, then columns left to right, then blocks in ``Instance.corners``
    order, so both pre-elimination and search visit cells bottom row up,
    left to right.
    """

    def __init__(self, inst: Instance, budget: SearchBudget, collect: bool):
        self.inst = inst
        self.budget = budget
        self.collect = collect
        self.solutions: list[BinaryImage] = []
        self.count = 0
        self.nodes = 0
        self.exhausted = True

        k, m, n = inst.k, inst.m, inst.n
        windows = [(r, r) for r in inst.row_sums] + [(c, c) for c in inst.col_sums]
        self.members = [[q * m + p for p in range(m)] for q in range(n)]
        self.members += [[q * m + p for q in range(n)] for p in range(m)]
        for i, j in inst.corners():
            windows.append(inst.window(i, j))
            self.members.append(
                [(j - 1 + dy) * m + i - 1 + dx for dy in range(k) for dx in range(k)]
            )
        self.lo = [lo for lo, _ in windows]
        self.hi = [hi for _, hi in windows]
        self.used = [0] * len(windows)
        self.free = [len(cells) for cells in self.members]
        self.groups = [
            (q, n + p, n + m + (q // k) * (m // k) + p // k) for q in range(n) for p in range(m)
        ]
        self.cell = [-1] * (m * n)  # -1 while undecided

    def _set(self, c: int, bit: int) -> bool:
        """Fix cell c; False if one of its groups can no longer be completed."""
        self.cell[c] = bit
        used, free, lo, hi = self.used, self.free, self.lo, self.hi
        ok = True
        for g in self.groups[c]:
            free[g] -= 1
            used[g] += bit
            if used[g] > hi[g] or used[g] + free[g] < lo[g]:
                ok = False
        return ok

    def _unset(self, c: int) -> None:
        bit = self.cell[c]
        self.cell[c] = -1
        used, free = self.used, self.free
        for g in self.groups[c]:
            free[g] += 1
            used[g] -= bit

    def preeliminate(self) -> bool:
        """Fix every cell a group forces, to fixpoint; False on a contradiction."""
        changed = True
        while changed:
            changed = False
            for g, cells in enumerate(self.members):
                used, free = self.used[g], self.free[g]
                if used > self.hi[g] or used + free < self.lo[g]:
                    return False
                if free and (used == self.hi[g] or used + free == self.lo[g]):
                    bit = int(used != self.hi[g])
                    for c in cells:
                        if self.cell[c] < 0:
                            self._set(c, bit)  # a broken group is caught on the next pass
                    changed = True
        return True

    def run(self) -> None:
        """Visit the search tree in order, one node per vertex, within budget."""
        free = [c for c, bit in enumerate(self.cell) if bit < 0]
        path: list[int] = []  # path[d] is the bit set at free[d]
        set_, unset = self._set, self._unset
        while True:
            # a new vertex at depth len(path)
            self.nodes += 1
            if self.nodes > self.budget.max_nodes:
                self.exhausted = False
                return
            bit = 0
            if len(path) == len(free):
                self.count += 1
                if self.collect:
                    a = np.array(self.cell, dtype=np.uint8).reshape(self.inst.n, self.inst.m)
                    self.solutions.append(BinaryImage(a))
                if self.count >= self.budget.max_solutions:
                    self.exhausted = False
                    return
                bit = 2  # a leaf has no child to try
            # the next vertex is the first admissible untried child of the
            # deepest vertex on the path that still has one
            while True:
                if bit < 2:
                    c = free[len(path)]
                    if set_(c, bit):
                        path.append(bit)
                        break
                    unset(c)
                    bit += 1
                elif path:
                    bit = path.pop() + 1
                    unset(free[len(path)])
                else:
                    return


def _run(
    inst: Instance, budget: SearchBudget, collect: bool, fixed: dict[tuple[int, int], int]
) -> _Search:
    """Check the input, pin the fixed cells, pre-eliminate and search."""
    errs = validate_instance(inst)
    if any(e.kind != "sum-mismatch" for e in errs):
        raise ValueError("; ".join(str(e) for e in errs))
    s = _Search(inst, budget, collect)
    for (p, q), bit in fixed.items():
        if not (1 <= p <= inst.m and 1 <= q <= inst.n) or bit not in (0, 1):
            raise ValueError(f"pin ({p}, {q}) = {bit} is not a bit on the {inst.m}x{inst.n} grid")
        s._set((q - 1) * inst.m + p - 1, int(bit))  # a broken group fails pre-elimination
    if not errs and s.preeliminate():
        s.run()
    return s


def oracle_solve(
    inst: Instance, budget: SearchBudget = SearchBudget()
) -> tuple[list[BinaryImage], bool]:
    """Enumerate solutions of an arbitrary instance by pruned search.

    Returns the solutions found (deterministic order: cells are tried in
    row-major order from the bottom row up, zero before one) and a flag
    that is True iff the whole space was covered within budget, so the
    list is complete up to max_solutions.
    """
    s = _run(inst, budget, True, {})
    return s.solutions, s.exhausted


def constrained_solve(
    inst: Instance,
    fixed: dict[tuple[int, int], int],
    budget: SearchBudget = SearchBudget(),
) -> tuple[list[BinaryImage], bool]:
    """oracle_solve with some cells pinned to given bits beforehand.

    Useful when outside knowledge says certain cells must hold a known
    value in every solution; the search then only branches on the rest.
    A pin outside the grid or with a bit other than 0 or 1 raises
    ValueError.
    """
    s = _run(inst, budget, True, fixed)
    return s.solutions, s.exhausted


def oracle_count(
    inst: Instance, budget: SearchBudget = SearchBudget()
) -> tuple[int, bool]:
    """Count solutions without materializing them; same search as oracle_solve."""
    s = _run(inst, budget, False, {})
    return s.count, s.exhausted
