"""Dict-based reference of the exact solver pipeline, for differential tests.

This is the pipeline as it was before subproblems became arrays: a
subproblem is a frozenset of block corners `I` plus two dicts of pair
sums keyed by corner row and corner column, the subsolvers return
`{corner: code}` dicts, and the image is assembled from their union.
`drtomo.solver` must reproduce its images, its uniqueness verdicts and,
per value, its block codes.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_flow

from drtomo import switches
from drtomo.model import BinaryImage, Corner, Instance, _decode, validate_instance, verify_solution
from drtomo.solver import StripPermutation, properize

Codes = dict[Corner, int]
SCIPY_THRESHOLD = 64
CASE1, CASE2, CASE3, INFEASIBLE = "case1", "case2", "case3", "infeasible"


@dataclass(frozen=True)
class SubInstance:
    m: int
    n: int
    nu: int
    I: frozenset[Corner]
    pair_row_sums: dict[int, tuple[int, int]]
    pair_col_sums: dict[int, tuple[int, int]]


def _strip_blocks(sub: SubInstance) -> tuple[Counter[int], Counter[int]]:
    rho = Counter(j for _, j in sub.I)
    sigma = Counter(i for i, _ in sub.I)
    for name, blocks, sums in zip(
        ("row", "column"), (rho, sigma), (sub.pair_row_sums, sub.pair_col_sums)
    ):
        missing = blocks.keys() - sums.keys()
        if missing:
            raise ValueError(f"no {name} pair sums for strip {min(missing)}")
    return rho, sigma


class FlowNetwork:
    source = 0
    sink = 1

    def __init__(self, I, row_targets: dict[int, int], col_targets: dict[int, int]):
        rows = sorted(row_targets)
        cols = sorted(col_targets)
        self.blocks = sorted(I)
        row_node = {j: 2 + idx for idx, j in enumerate(rows)}
        col_node = {i: 2 + len(rows) + idx for idx, i in enumerate(cols)}
        first = 2 + len(rows) + len(cols)
        self.size = first + len(self.blocks)
        self.arcs = [(self.source, row_node[j], row_targets[j]) for j in rows] + [
            (self.source, col_node[i], col_targets[i]) for i in cols
        ]
        for node, (i, j) in enumerate(self.blocks, first):
            self.arcs += ((row_node[j], node, 1), (col_node[i], node, 1), (node, self.sink, 1))
        self.demand = sum(row_targets.values()) + sum(col_targets.values())


def _max_flow_python(net: FlowNetwork) -> list[int]:
    head: list[int] = []
    residual: list[int] = []
    adj: list[list[int]] = [[] for _ in range(net.size)]
    for k, (u, v, c) in enumerate(net.arcs):
        adj[u].append(2 * k)
        adj[v].append(2 * k + 1)
        head += (v, u)
        residual += (c, 0)
    while True:
        via = {net.source: -1}
        queue = deque([net.source])
        while queue and net.sink not in via:
            u = queue.popleft()
            for e in adj[u]:
                v = head[e]
                if v not in via and residual[e] > 0:
                    via[v] = e
                    queue.append(v)
        if net.sink not in via:
            return residual[1::2]
        path = []
        v = net.sink
        while v != net.source:
            path.append(via[v])
            v = head[via[v] ^ 1]
        push = min(residual[e] for e in path)
        for e in path:
            residual[e] -= push
            residual[e ^ 1] += push


def _max_flow_scipy(net: FlowNetwork) -> list[int]:
    flat = np.fromiter(chain.from_iterable(net.arcs), np.int32, 3 * len(net.arcs))
    us, vs, cs = flat.reshape(-1, 3).T
    graph = csr_matrix((cs, (us, vs)), shape=(net.size, net.size))
    return np.asarray(maximum_flow(graph, net.source, net.sink).flow[us, vs]).ravel().tolist()


def _dr1_feasible(sub: SubInstance) -> bool:
    rho, sigma = _strip_blocks(sub)
    for j, (rj, rj1) in sub.pair_row_sums.items():
        if rj < 0 or rj1 < 0 or rj + rj1 != rho[j]:
            return False
    for i, (ci, ci1) in sub.pair_col_sums.items():
        if ci < 0 or ci1 < 0 or ci + ci1 != sigma[i]:
            return False
    return True


def solve_dr1(sub: SubInstance) -> Optional[Codes]:
    if not _dr1_feasible(sub):
        return None
    by_col: dict[int, list[int]] = {}
    by_row: dict[int, list[int]] = {}
    for i, j in sub.I:
        by_col.setdefault(i, []).append(j)
        by_row.setdefault(j, []).append(i)
    dx: dict[Corner, bool] = {}
    for i, js in by_col.items():
        for rank, j in enumerate(sorted(js)):
            dx[(i, j)] = rank >= sub.pair_col_sums[i][0]
    out: Codes = {}
    for j, cols in by_row.items():
        for rank, i in enumerate(sorted(cols)):
            dy = rank >= sub.pair_row_sums[j][0]
            out[(i, j)] = 1 << (dx[(i, j)] + 2 * dy)
    return out


def unique_dr1(sub: SubInstance) -> bool:
    return all(r[0] * r[1] == 0 for r in sub.pair_row_sums.values()) and all(
        c[0] * c[1] == 0 for c in sub.pair_col_sums.values()
    )


def _invert(sub: SubInstance) -> SubInstance:
    rho, sigma = _strip_blocks(sub)
    return SubInstance(
        m=sub.m,
        n=sub.n,
        nu=1,
        I=sub.I,
        pair_row_sums={
            j: (2 * rho[j] - r[0], 2 * rho[j] - r[1]) for j, r in sub.pair_row_sums.items()
        },
        pair_col_sums={
            i: (2 * sigma[i] - c[0], 2 * sigma[i] - c[1]) for i, c in sub.pair_col_sums.items()
        },
    )


def solve_dr3(sub: SubInstance) -> Optional[Codes]:
    inner = solve_dr1(_invert(sub))
    if inner is None:
        return None
    return {corner: 15 ^ code for corner, code in inner.items()}


def unique_dr3(sub: SubInstance) -> bool:
    return unique_dr1(_invert(sub))


def _two_color_targets(sub: SubInstance) -> Optional[tuple[dict[int, int], dict[int, int]]]:
    targets = []
    for name, sums, blocks in zip(
        ("row", "column"), (sub.pair_row_sums, sub.pair_col_sums), _strip_blocks(sub)
    ):
        wanted = {}
        for s, (a, b) in sums.items():
            if a < b:
                raise ValueError(f"{name} pair sums at strip {s} not ordered")
            if (a - b) % 2 or a + b != 2 * blocks[s]:
                return None
            wanted[s] = (a - b) // 2
        targets.append(wanted)
    return targets[0], targets[1]


ZETA, ETA, DIAGONAL = 3, 5, 9


def solve_dr2(sub: SubInstance) -> Optional[Codes]:
    targets = _two_color_targets(sub)
    if targets is None:
        return None
    net = FlowNetwork(sub.I, *targets)
    if net.demand == 0:
        return dict.fromkeys(sub.I, DIAGONAL)
    flows = (_max_flow_python if len(sub.I) < SCIPY_THRESHOLD else _max_flow_scipy)(net)
    first = len(net.arcs) - 3 * len(net.blocks)
    if sum(flows[:first]) < net.demand:
        return None
    return {
        block: ZETA if zeta else ETA if eta else DIAGONAL
        for block, zeta, eta in zip(net.blocks, flows[first::3], flows[first + 1 :: 3])
    }


def unique_dr2(sub: SubInstance, codes: Codes) -> bool:
    targets = _two_color_targets(sub)
    if targets is None:
        raise ValueError("solution given for an infeasible subproblem")
    row_targets, col_targets = targets
    sink = 0
    row_node = {j: 1 + idx for idx, j in enumerate(row_targets)}
    col_node = {i: 1 + len(row_node) + idx for idx, i in enumerate(col_targets)}
    first = 1 + len(row_node) + len(col_node)
    zeta: Counter[int] = Counter()
    eta: Counter[int] = Counter()
    tails: list[int] = []
    heads: list[int] = []
    for node, (i, j) in enumerate(sub.I, first):
        code = codes.get((i, j))
        row, col = row_node[j], col_node[i]
        if code == ZETA:
            zeta[j] += 1
            tails += (node, col, sink)
            heads += (row, node, node)
        elif code == ETA:
            eta[i] += 1
            tails += (node, row, sink)
            heads += (col, node, node)
        else:
            tails += (row, col, node)
            heads += (node, node, sink)
    if any(zeta[j] != t for j, t in row_targets.items()) or any(
        eta[i] != t for i, t in col_targets.items()
    ):
        raise ValueError("solution misses the strip targets of its subproblem")
    size = first + len(sub.I)
    graph = csr_matrix((np.ones(len(tails)), (tails, heads)), shape=(size, size))
    components, _ = connected_components(graph, directed=True, connection="strong")
    return components == size


def fill_trivial(sub: SubInstance) -> Optional[Codes]:
    bit = sub.nu // 4
    rho, sigma = _strip_blocks(sub)
    for j, (rj, rj1) in sub.pair_row_sums.items():
        want = 2 * rho[j] * bit
        if rj != want or rj1 != want:
            return None
    for i, (ci, ci1) in sub.pair_col_sums.items():
        want = 2 * sigma[i] * bit
        if ci != want or ci1 != want:
            return None
    return dict.fromkeys(sub.I, 15 * bit)


@dataclass(frozen=True)
class StripCase:
    tag: str
    counts: tuple[int, int, int, int, int, int, int]


def classify_strip(rj: int, rj1: int, v1: int, v2: int, v3: int) -> StripCase:
    if rj < rj1 or rj1 < 0 or rj + rj1 != v1 + 2 * v2 + 3 * v3:
        return StripCase(INFEASIBLE, (0, 0, 0, 0, 0, 0, 0))
    if v3 <= rj1 < v2 + v3:
        return StripCase(CASE1, (v1, 0, v2 + v3 - rj1, rj1 - v3, 0, 0, v3))
    if v2 + v3 <= rj1 < v1 + v2 + v3:
        return StripCase(CASE2, (v1 + v2 + v3 - rj1, rj1 - v2 - v3, 0, v2, 0, 0, v3))
    if v1 + v2 + v3 <= rj1 <= v1 + v2 + 2 * v3:
        return StripCase(
            CASE3, (0, v1, 0, v2, 0, rj1 - v1 - v2 - v3, v1 + v2 + 2 * v3 - rj1)
        )
    return StripCase(INFEASIBLE, (0, 0, 0, 0, 0, 0, 0))


def strip_counts(inst: Instance) -> tuple[list[list[int]], list[list[int]]]:
    """Blocks of each value 0..4 per row strip and per column strip, counted from `blocks`."""
    rows = [[row.count(v) for v in range(5)] for row in inst.blocks]
    cols = [[col.count(v) for v in range(5)] for col in zip(*inst.blocks)]
    return rows, cols


def classify_all(inst: Instance) -> Optional[tuple[dict[int, StripCase], dict[int, StripCase]]]:
    found = []
    for sums, counts in zip((inst.row_sums, inst.col_sums), strip_counts(inst)):
        cases: dict[int, StripCase] = {}
        for s, (_, v1, v2, v3, v4) in enumerate(counts):
            line = 2 * s + 1
            case = classify_strip(sums[line - 1] - 2 * v4, sums[line] - 2 * v4, v1, v2, v3)
            if case.tag == INFEASIBLE:
                return None
            cases[line] = case
        found.append(cases)
    return found[0], found[1]


def derive_sub_sums(inst, h_cases, v_cases) -> dict[int, SubInstance]:
    corners: list[list[Corner]] = [[] for _ in range(5)]
    for j, row in zip(range(1, inst.n, 2), inst.blocks):
        for i, value in zip(range(1, inst.m, 2), row):
            corners[value].append((i, j))

    def pair(case: StripCase, nu: int, count: int) -> tuple[int, int]:
        a_j, a_j1, b_j, bp_j, _, g_j, g_j1 = case.counts
        if nu == 1:
            return a_j, a_j1
        if nu == 2:
            return 2 * b_j + bp_j, bp_j
        if nu == 3:
            return g_j + 2 * g_j1, 2 * g_j + g_j1
        return nu // 2 * count, nu // 2 * count

    rows, cols = strip_counts(inst)
    return {
        nu: SubInstance(
            m=inst.m,
            n=inst.n,
            nu=nu,
            I=frozenset(corners[nu]),
            pair_row_sums={
                2 * s + 1: pair(h_cases[2 * s + 1], nu, c[nu]) for s, c in enumerate(rows) if c[nu]
            },
            pair_col_sums={
                2 * s + 1: pair(v_cases[2 * s + 1], nu, c[nu]) for s, c in enumerate(cols) if c[nu]
            },
        )
        for nu in range(5)
    }


SOLVERS = {0: fill_trivial, 1: solve_dr1, 2: solve_dr2, 3: solve_dr3, 4: fill_trivial}


def solve_checked(inst: Instance):
    """(perm, image, subproblems, codes) of the proper frame, or None if infeasible."""
    errs = validate_instance(inst)
    if any(e.kind != "sum-mismatch" for e in errs):
        raise ValueError("; ".join(str(e) for e in errs))
    if errs:
        return None
    proper, perm = properize(inst)
    cases = classify_all(proper)
    if cases is None:
        return None
    subs = derive_sub_sums(proper, *cases)
    codes: Codes = {}
    for nu, sub in subs.items():
        if not sub.I:
            continue
        part = SOLVERS[nu](sub)
        if part is None:
            return None
        codes.update(part)
    bw = proper.m // 2
    grid = np.zeros(proper.n // 2 * bw, dtype=np.uint8)
    grid[[(j >> 1) * bw + (i >> 1) for i, j in codes]] = list(codes.values())
    img = BinaryImage(_decode(grid.reshape(-1, bw)))
    if not verify_solution(proper, img).satisfied:
        return None
    return perm, img, subs, codes


def apply_to_image(perm: StripPermutation, img: BinaryImage) -> BinaryImage:
    """The image with the two lines of every swapped strip exchanged, one strip at a time."""
    a = img.mutable()
    for s in np.flatnonzero(perm.row_swapped).tolist():
        a[[2 * s, 2 * s + 1]] = a[[2 * s + 1, 2 * s]]
    for s in np.flatnonzero(perm.col_swapped).tolist():
        a[:, [2 * s, 2 * s + 1]] = a[:, [2 * s + 1, 2 * s]]
    return BinaryImage(a)


def solve_dr(inst: Instance) -> Optional[BinaryImage]:
    solved = solve_checked(inst)
    if solved is None:
        return None
    perm, img, _, _ = solved
    return switches.reduce(apply_to_image(perm, img))


def check_unique(inst: Instance) -> Optional[bool]:
    solved = solve_checked(inst)
    if solved is None:
        return None
    _, img, subs, codes = solved
    if subs[1].I and not unique_dr1(subs[1]):
        return False
    if subs[3].I and not unique_dr3(subs[3]):
        return False
    if subs[2].I and not unique_dr2(subs[2], codes):
        return False
    return not switches.has_reversed_switch(img)
