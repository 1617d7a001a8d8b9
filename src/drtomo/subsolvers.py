"""Single-value subproblems: place exactly nu ones in every listed block.

Each subproblem lives on a set I of 2x2 block corners with prescribed
pair sums per strip.  nu = 1 has a closed-form placement, nu = 3 is its
complement, nu = 2 reduces to a unit-capacity flow, nu in {0, 4} is a
constant fill.

A subsolver (fill_trivial, solve_dr1, solve_dr2, solve_dr3) takes one
SubInstance and returns None when it is infeasible, otherwise a dict
mapping every corner of I to the block code placed there: a 4-bit
integer whose bit dx + 2*dy holds cell (dx, dy) of the block, dy = 0 the
bottom row (model._CODE).  So 1 is the lone lower-left one, 3 the bottom
pair, 5 the left pair, 9 the main diagonal and 15 the full block.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_flow

from .model import _CODE, BlockType, Corner

Codes = dict[Corner, int]  # block code per corner, see the module docstring

# Backend switch, measured on a 2-core Xeon VM: scipy's maximum_flow costs
# 0.3-0.5 ms a call even on a 5-node network, the Python search 10-30 us;
# but the Python search grows quadratically, taking 3.6 s against scipy's
# 12 ms on the nu = 2 subproblem of a 320x320 two-one-heavy block phantom
# (5006 blocks) and 97 s against 48 ms at 640x640.
_SCIPY_THRESHOLD = 64


@dataclass(frozen=True)
class SubInstance:
    """Blocks I with target nu ones each, plus per-strip line sum pairs.

    pair_row_sums[j] = (r_j, r_{j+1}) for each j occurring as a corner row
    of I; pair_col_sums[i] = (c_i, c_{i+1}) likewise for corner columns.
    """

    m: int
    n: int
    nu: int
    I: frozenset[Corner]
    pair_row_sums: dict[int, tuple[int, int]]
    pair_col_sums: dict[int, tuple[int, int]]

    def rho_map(self) -> dict[int, int]:
        return Counter(j for _, j in self.I)

    def sigma_map(self) -> dict[int, int]:
        return Counter(i for i, _ in self.I)


@dataclass(frozen=True)
class TwoColorSystem:
    """Pick per block at most one of two colors so each strip meets its target.

    row_targets[j] counts blocks of strip j to be colored zeta;
    col_targets[i] counts blocks of strip i to be colored eta.
    """

    I: frozenset[Corner]
    row_targets: dict[int, int]
    col_targets: dict[int, int]


class FlowNetwork:
    """source -> strip (capacity = target) -> block (1) -> sink (1)."""

    def __init__(self, sys: TwoColorSystem):
        rows = sorted(sys.row_targets)
        cols = sorted(sys.col_targets)
        blocks = sorted(sys.I)
        self.source = 0
        self.sink = 1
        self.row_node = {j: 2 + idx for idx, j in enumerate(rows)}
        self.col_node = {i: 2 + len(rows) + idx for idx, i in enumerate(cols)}
        self.block_node = {b: 2 + len(rows) + len(cols) + idx for idx, b in enumerate(blocks)}
        self.size = 2 + len(rows) + len(cols) + len(blocks)
        self.arcs: list[tuple[int, int, int]] = []  # (u, v, capacity)
        for j in rows:
            self.arcs.append((self.source, self.row_node[j], sys.row_targets[j]))
        for i in cols:
            self.arcs.append((self.source, self.col_node[i], sys.col_targets[i]))
        for i, j in blocks:
            node = self.block_node[(i, j)]
            if j in self.row_node:
                self.arcs.append((self.row_node[j], node, 1))
            if i in self.col_node:
                self.arcs.append((self.col_node[i], node, 1))
            self.arcs.append((node, self.sink, 1))
        self.demand = sum(sys.row_targets.values()) + sum(sys.col_targets.values())


def _max_flow_python(net: FlowNetwork) -> dict[tuple[int, int], int]:
    """BFS augmenting paths; fine for the handful-of-blocks case."""
    cap: dict[tuple[int, int], int] = {}
    adj: dict[int, list[int]] = {u: [] for u in range(net.size)}
    for u, v, c in net.arcs:
        cap[(u, v)] = cap.get((u, v), 0) + c
        cap.setdefault((v, u), 0)
        adj[u].append(v)
        adj[v].append(u)
    flow: dict[tuple[int, int], int] = {e: 0 for e in cap}
    while True:
        prev: dict[int, int] = {net.source: net.source}
        queue = deque([net.source])
        while queue and net.sink not in prev:
            u = queue.popleft()
            for v in adj[u]:
                if v not in prev and cap[(u, v)] - flow[(u, v)] > 0:
                    prev[v] = u
                    queue.append(v)
        if net.sink not in prev:
            return flow
        path = []
        v = net.sink
        while v != net.source:
            path.append((prev[v], v))
            v = prev[v]
        push = min(cap[e] - flow[e] for e in path)
        for e in path:
            flow[e] += push
            flow[(e[1], e[0])] -= push


def _max_flow_scipy(net: FlowNetwork) -> dict[tuple[int, int], int]:
    us = np.fromiter((a[0] for a in net.arcs), dtype=np.int32)
    vs = np.fromiter((a[1] for a in net.arcs), dtype=np.int32)
    cs = np.fromiter((a[2] for a in net.arcs), dtype=np.int32)
    graph = csr_matrix((cs, (us, vs)), shape=(net.size, net.size))
    flows = np.asarray(maximum_flow(graph, net.source, net.sink).flow[us, vs]).ravel()
    return dict(zip(zip(us.tolist(), vs.tolist()), flows.tolist()))


def solve_two_color(sys: TwoColorSystem) -> Optional[tuple[set[Corner], set[Corner]]]:
    """Return (zeta blocks, eta blocks) meeting every strip target, or None."""
    if any(t < 0 for t in sys.row_targets.values()) or any(
        t < 0 for t in sys.col_targets.values()
    ):
        return None
    net = FlowNetwork(sys)
    if net.demand == 0:
        return set(), set()
    if len(sys.I) < _SCIPY_THRESHOLD:
        flow = _max_flow_python(net)
    else:
        flow = _max_flow_scipy(net)
    value = sum(flow[(net.source, net.row_node[j])] for j in net.row_node) + sum(
        flow[(net.source, net.col_node[i])] for i in net.col_node
    )
    if value < net.demand:
        return None
    zeta, eta = set(), set()
    for (i, j), node in net.block_node.items():
        if j in net.row_node and flow.get((net.row_node[j], node), 0) > 0:
            zeta.add((i, j))
        elif i in net.col_node and flow.get((net.col_node[i], node), 0) > 0:
            eta.add((i, j))
    return zeta, eta


# --------------------------------------------------------------------------
# nu = 1 and its complement nu = 3
# --------------------------------------------------------------------------

def _dr1_feasible(sub: SubInstance) -> bool:
    rho, sigma = sub.rho_map(), sub.sigma_map()
    for j, (rj, rj1) in sub.pair_row_sums.items():
        if rj < 0 or rj1 < 0 or rj + rj1 != rho.get(j, 0):
            return False
    for i, (ci, ci1) in sub.pair_col_sums.items():
        if ci < 0 or ci1 < 0 or ci + ci1 != sigma.get(i, 0):
            return False
    return True


def solve_dr1(sub: SubInstance) -> Optional[Codes]:
    """Place one one per block; closed form, deterministic.

    Within the vertical strip of column i, the first c_i blocks counted
    from the bottom use column i and the rest column i+1; rows likewise.
    """
    assert sub.nu == 1
    if not _dr1_feasible(sub):
        return None
    by_col: dict[int, list[int]] = {}
    by_row: dict[int, list[int]] = {}
    for i, j in sub.I:
        by_col.setdefault(i, []).append(j)
        by_row.setdefault(j, []).append(i)
    dx: dict[Corner, bool] = {}  # the one sits in column i + 1
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
    assert sub.nu == 1
    return all(r[0] * r[1] == 0 for r in sub.pair_row_sums.values()) and all(
        c[0] * c[1] == 0 for c in sub.pair_col_sums.values()
    )


def _invert(sub: SubInstance) -> SubInstance:
    """Complementary sums: a block holds 3 ones iff its complement holds 1."""
    rho, sigma = sub.rho_map(), sub.sigma_map()
    return SubInstance(
        m=sub.m,
        n=sub.n,
        nu=1,
        I=sub.I,
        pair_row_sums={
            j: (2 * rho.get(j, 0) - r[0], 2 * rho.get(j, 0) - r[1])
            for j, r in sub.pair_row_sums.items()
        },
        pair_col_sums={
            i: (2 * sigma.get(i, 0) - c[0], 2 * sigma.get(i, 0) - c[1])
            for i, c in sub.pair_col_sums.items()
        },
    )


def solve_dr3(sub: SubInstance) -> Optional[Codes]:
    assert sub.nu == 3
    inner = solve_dr1(_invert(sub))
    if inner is None:
        return None
    return {corner: 15 ^ code for corner, code in inner.items()}


def unique_dr3(sub: SubInstance) -> bool:
    assert sub.nu == 3
    return unique_dr1(_invert(sub))


# --------------------------------------------------------------------------
# nu = 2
# --------------------------------------------------------------------------

def _two_color_system(sub: SubInstance) -> Optional[TwoColorSystem]:
    rho, sigma = sub.rho_map(), sub.sigma_map()
    row_targets, col_targets = {}, {}
    for j, (rj, rj1) in sub.pair_row_sums.items():
        if rj < rj1:
            raise ValueError(f"row pair sums at strip {j} not ordered")
        if (rj - rj1) % 2 or rj + rj1 != 2 * rho.get(j, 0):
            return None
        row_targets[j] = (rj - rj1) // 2
    for i, (ci, ci1) in sub.pair_col_sums.items():
        if ci < ci1:
            raise ValueError(f"column pair sums at strip {i} not ordered")
        if (ci - ci1) % 2 or ci + ci1 != 2 * sigma.get(i, 0):
            return None
        col_targets[i] = (ci - ci1) // 2
    return TwoColorSystem(I=sub.I, row_targets=row_targets, col_targets=col_targets)


_ZETA = _CODE[BlockType.B1]  # both ones in the bottom line
_ETA = _CODE[BlockType.B31]  # both ones in the left line
_DIAGONAL = _CODE[BlockType.B33]


def solve_dr2(sub: SubInstance) -> Optional[Codes]:
    """Place two ones per block; requires in-strip ordered pair sums.

    A block colored zeta puts both ones in its lower line, eta in its
    left line, and every uncolored block falls back to the diagonal.
    """
    assert sub.nu == 2
    sys = _two_color_system(sub)
    if sys is None:
        return None
    colored = solve_two_color(sys)
    if colored is None:
        return None
    zeta, eta = colored
    out = dict.fromkeys(sub.I, _DIAGONAL)
    out.update(dict.fromkeys(zeta, _ZETA))
    out.update(dict.fromkeys(eta, _ETA))
    return out


def unique_dr2(sub: SubInstance, codes: Codes) -> bool:
    """True iff no other coloring meets the same strip targets.

    The coloring read from the block codes (zeta = bottom pair, code 3;
    eta = left pair, code 5; any other or missing block uncolored) is a
    unit flow on the FlowNetwork that must saturate every source arc.
    Every other coloring is a flow of the same value, so it differs from
    this one by a circulation; one exists iff the residual graph of this
    flow has a directed cycle (Ahuja, Magnanti and Orlin, Network Flows,
    1993), that is, iff some strong component of the residual graph has
    more than one node.
    """
    assert sub.nu == 2
    sys = _two_color_system(sub)
    if sys is None:
        raise ValueError("solution given for an infeasible subproblem")
    net = FlowNetwork(sys)
    flow: Counter[tuple[int, int]] = Counter()
    for (i, j), node in net.block_node.items():
        code = codes.get((i, j))
        if code == _ZETA:
            strip = net.row_node[j]
        elif code == _ETA:
            strip = net.col_node[i]
        else:
            continue
        flow[(net.source, strip)] += 1
        flow[(strip, node)] = flow[(node, net.sink)] = 1
    residual = []
    for u, v, c in net.arcs:
        f = flow[(u, v)]
        if u == net.source and f != c:
            raise ValueError("solution misses the strip targets of its subproblem")
        if f < c:
            residual.append((u, v))
        if f > 0:
            residual.append((v, u))
    us, vs = np.array(residual, dtype=np.int32).reshape(-1, 2).T
    graph = csr_matrix((np.ones(len(us)), (us, vs)), shape=(net.size, net.size))
    components, _ = connected_components(graph, directed=True, connection="strong")
    return components == net.size


# --------------------------------------------------------------------------
# nu in {0, 4}
# --------------------------------------------------------------------------

def fill_trivial(sub: SubInstance) -> Optional[Codes]:
    """Constant fill for the forced block values 0 and 4."""
    assert sub.nu in (0, 4)
    bit = sub.nu // 4
    rho, sigma = sub.rho_map(), sub.sigma_map()
    for j, (rj, rj1) in sub.pair_row_sums.items():
        want = 2 * rho.get(j, 0) * bit
        if rj != want or rj1 != want:
            return None
    for i, (ci, ci1) in sub.pair_col_sums.items():
        want = 2 * sigma.get(i, 0) * bit
        if ci != want or ci1 != want:
            return None
    return dict.fromkeys(sub.I, 15 * bit)
