"""Single-value subproblems: place exactly nu ones in every listed block.

Each subproblem lives on a set I of 2x2 block corners with prescribed
pair sums for every strip holding a block of I.  nu = 1 has a
closed-form placement, nu = 3 is its complement, nu = 2 reduces to a
unit-capacity flow, nu in {0, 4} is a constant fill.

A subsolver (fill_trivial, solve_dr1, solve_dr2, solve_dr3) takes one
SubInstance and returns None when it is infeasible, otherwise a dict
mapping every corner of I to the block code placed there: a 4-bit
integer whose bit dx + 2*dy holds cell (dx, dy) of the block, dy = 0 the
bottom row (model._CODE).  So 1 is the lone lower-left one, 3 the bottom
pair, 5 the left pair, 9 the main diagonal and 15 the full block.

For nu = 2 a block is colored zeta (bottom pair), eta (left pair) or
not at all (diagonal); the pair sums fix the zeta blocks per row strip
and the eta blocks per column strip.  solve_dr2 finds a coloring as one
max flow source -> strip -> block -> sink.  unique_dr2 runs no flow: a
coloring meeting the targets saturates every source arc, so the source
lies on no residual cycle and is left out, and the residual graph is
built from the coloring with three arcs per block.  A colored block has
an arc to the strip coloring it, one from its other strip and one from
the sink; an uncolored block has arcs from both strips and to the sink.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain
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


def _strip_blocks(sub: SubInstance) -> tuple[Counter[int], Counter[int]]:
    """Blocks of I per corner row and per corner column.

    Raises ValueError when a strip holding a block of I has no pair sums.
    """
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
    """source -> strip (capacity = target) -> block (1) -> sink (1).

    Every strip of I needs a target.  The arcs list the source arcs of the
    row strips, then of the column strips (each in sorted order), then per
    block of `blocks` its row arc, its column arc and its sink arc.
    """

    source = 0
    sink = 1

    def __init__(
        self, I: frozenset[Corner], row_targets: dict[int, int], col_targets: dict[int, int]
    ):
        rows = sorted(row_targets)
        cols = sorted(col_targets)
        self.blocks = sorted(I)
        row_node = {j: 2 + idx for idx, j in enumerate(rows)}
        col_node = {i: 2 + len(rows) + idx for idx, i in enumerate(cols)}
        first = 2 + len(rows) + len(cols)
        self.size = first + len(self.blocks)
        self.arcs: list[tuple[int, int, int]] = [  # (u, v, capacity)
            (self.source, row_node[j], row_targets[j]) for j in rows
        ] + [(self.source, col_node[i], col_targets[i]) for i in cols]
        for node, (i, j) in enumerate(self.blocks, first):
            self.arcs += ((row_node[j], node, 1), (col_node[i], node, 1), (node, self.sink, 1))
        self.demand = sum(row_targets.values()) + sum(col_targets.values())


def _max_flow_python(net: FlowNetwork) -> list[int]:
    """BFS augmenting paths; fine for the handful-of-blocks case.

    Returns the flow on each arc of net.arcs.  Residual arc 2k runs along
    arc k and 2k + 1 against it, so e ^ 1 is the reverse of residual arc e.
    """
    head: list[int] = []
    residual: list[int] = []
    adj: list[list[int]] = [[] for _ in range(net.size)]
    for k, (u, v, c) in enumerate(net.arcs):
        adj[u].append(2 * k)
        adj[v].append(2 * k + 1)
        head += (v, u)
        residual += (c, 0)
    while True:
        via = {net.source: -1}  # residual arc the search reached each node by
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
    """scipy's maximum_flow; returns the flow on each arc of net.arcs."""
    flat = np.fromiter(chain.from_iterable(net.arcs), np.int32, 3 * len(net.arcs))
    us, vs, cs = flat.reshape(-1, 3).T
    graph = csr_matrix((cs, (us, vs)), shape=(net.size, net.size))
    return np.asarray(maximum_flow(graph, net.source, net.sink).flow[us, vs]).ravel().tolist()


# --------------------------------------------------------------------------
# nu = 1 and its complement nu = 3
# --------------------------------------------------------------------------

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

def _two_color_targets(sub: SubInstance) -> Optional[tuple[dict[int, int], dict[int, int]]]:
    """Zeta blocks per row strip and eta blocks per column strip, or None.

    None means no coloring can meet the pair sums (a parity or block count
    mismatch); pair sums not ordered larger first raise ValueError.
    """
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


_ZETA = _CODE[BlockType.B1]  # both ones in the bottom line
_ETA = _CODE[BlockType.B31]  # both ones in the left line
_DIAGONAL = _CODE[BlockType.B33]


def solve_dr2(sub: SubInstance) -> Optional[Codes]:
    """Place two ones per block; requires in-strip ordered pair sums.

    A block colored zeta puts both ones in its lower line, eta in its
    left line, and every uncolored block falls back to the diagonal.
    """
    assert sub.nu == 2
    targets = _two_color_targets(sub)
    if targets is None:
        return None
    net = FlowNetwork(sub.I, *targets)
    if net.demand == 0:
        return dict.fromkeys(sub.I, _DIAGONAL)
    flows = (_max_flow_python if len(sub.I) < _SCIPY_THRESHOLD else _max_flow_scipy)(net)
    first = len(net.arcs) - 3 * len(net.blocks)  # the source arcs come first
    if sum(flows[:first]) < net.demand:
        return None
    return {
        block: _ZETA if zeta else _ETA if eta else _DIAGONAL
        for block, zeta, eta in zip(net.blocks, flows[first::3], flows[first + 1 :: 3])
    }


def unique_dr2(sub: SubInstance, codes: Codes) -> bool:
    """True iff no other coloring meets the same strip targets.

    The coloring read from the block codes (zeta = bottom pair, code 3;
    eta = left pair, code 5; any other or missing block uncolored) is a
    unit flow in solve_dr2's network.  Every other coloring differs from
    it by a circulation, which exists iff the residual graph (three arcs
    per block, see the module docstring) has a directed cycle (Ahuja,
    Magnanti and Orlin, Network Flows, 1993), that is, iff some strong
    component has more than one node.  Raises ValueError for an
    infeasible subproblem or a coloring that misses a strip target.
    """
    assert sub.nu == 2
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
        if code == _ZETA:
            zeta[j] += 1
            tails += (node, col, sink)
            heads += (row, node, node)
        elif code == _ETA:
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


# --------------------------------------------------------------------------
# nu in {0, 4}
# --------------------------------------------------------------------------

def fill_trivial(sub: SubInstance) -> Optional[Codes]:
    """Constant fill for the forced block values 0 and 4."""
    assert sub.nu in (0, 4)
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
