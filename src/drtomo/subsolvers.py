"""Single-value subproblems: place exactly nu ones in every masked block.

A subproblem lives on the [bv, bu] block grid of a proper instance: a
boolean mask selects its blocks, and every horizontal and vertical strip
carries one pair of line sums, (0, 0) where the strip holds none of
them.  nu = 1 has a closed-form placement, nu = 3 is its complement,
nu = 2 reduces to a unit-capacity flow, nu in {0, 4} is a constant fill.
The frozenset of block corners `I` is built on request only, for
callers at the API edge.

A subsolver (fill_trivial, solve_dr1, solve_dr2, solve_dr3) takes one
SubInstance and returns None when it is infeasible, otherwise a uint8
array with the code of every masked block in row-major [bv, bu] order,
so `grid[sub.mask] = part` writes it into a code grid.  A block code is
the value of its BlockType: a 4-bit integer whose bit dx + 2*dy holds
cell (dx, dy) of the block, dy = 0 the bottom row.  So 1 is the lone
lower-left one (A11), 3 the bottom pair (B1), 5 the left pair (B31), 9
the main diagonal (B33) and 15 the full block.

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

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_flow

from .model import BlockType, Corner

# Backend switch, measured on a 2-core Xeon VM: scipy's maximum_flow costs
# 0.3-0.5 ms a call even on a 5-node network, the Python search 10-30 us;
# but the Python search grows quadratically, taking 3.6 s against scipy's
# 12 ms on the nu = 2 subproblem of a 320x320 two-one-heavy block phantom
# (5006 blocks) and 97 s against 48 ms at 640x640.
_SCIPY_THRESHOLD = 64


@dataclass(frozen=True)
class SubInstance:
    """Blocks of a [bv, bu] mask with target nu ones each, plus per-strip pair sums.

    rows[bv] = (r_j, r_{j+1}) for the horizontal strip at corner row
    j = 2*bv + 1, cols[bu] = (c_i, c_{i+1}) for the vertical strip at
    corner column i = 2*bu + 1; both are integer arrays, one pair per
    strip of the mask, else ValueError.  The mask must be a 2-d boolean
    array, else ValueError: an integer 0/1 array would index blocks by
    number rather than select them.
    """

    nu: int
    mask: np.ndarray  # bool [bh, bw]
    rows: np.ndarray  # int [bh, 2]
    cols: np.ndarray  # int [bw, 2]

    def __post_init__(self):
        if not (isinstance(self.mask, np.ndarray) and self.mask.dtype == bool and self.mask.ndim == 2):
            shape, dtype = np.shape(self.mask), np.asarray(self.mask).dtype
            raise ValueError(f"mask must be a 2-d boolean array, got {dtype} of shape {shape}")
        if (self.rows.shape, self.cols.shape) != ((len(self.mask), 2), (self.mask.shape[1], 2)):
            raise ValueError(
                f"pair sums of shapes {self.rows.shape} and {self.cols.shape} "
                f"do not give one pair per strip of a {self.mask.shape} mask"
            )

    @classmethod
    def _of_strips(
        cls, nu: int, mask: np.ndarray, sums: np.ndarray, blocks: np.ndarray
    ) -> "SubInstance":
        """Subproblem of pair sums [S, 2] and block counts [S], row strips then column strips.

        rows and cols are the two parts of sums, so they fit the mask by
        construction; sums and blocks become the `_strips` view.
        """
        sub = object.__new__(cls)
        bh = len(mask)
        sub.__dict__.update(nu=nu, mask=mask, rows=sums[:bh], cols=sums[bh:], _strips=(sums, blocks))
        return sub

    @cached_property
    def _strips(self) -> tuple[np.ndarray, np.ndarray]:
        """Pair sums [S, 2] and block counts [S] of the row strips, then the column strips."""
        blocks = np.concatenate((self.mask.sum(1), self.mask.sum(0)))
        return np.concatenate((self.rows, self.cols)), blocks

    @cached_property
    def I(self) -> frozenset[Corner]:
        """Corners (2*bu + 1, 2*bv + 1) of the masked blocks."""
        bv, bu = np.nonzero(self.mask)
        return frozenset(zip((2 * bu + 1).tolist(), (2 * bv + 1).tolist()))


class FlowNetwork:
    """source -> strip (capacity = target) -> block (1) -> sink (1).

    targets lists the row strips, then the column strips of sub; strips
    holding no block of it get no node.  The arc arrays (tail, head,
    capacity) list the source arcs of the row strips, then of the column
    strips, then per block, sorted by corner (i, j), its row arc, its
    column arc and its sink arc.
    """

    source = 0
    sink = 1

    def __init__(self, sub: SubInstance, targets: np.ndarray):
        has = sub._strips[1] > 0
        strips = np.arange(2, 2 + np.count_nonzero(has), dtype=np.int32)
        node = np.zeros(len(has), np.int32)  # of each strip holding a block
        node[has] = strips
        bu, bv = np.nonzero(sub.mask.T)
        first = 2 + len(strips)
        self.size = first + len(bu)
        self.demand = int(targets.sum())
        arcs = np.zeros((3, len(strips) + 3 * len(bu)), np.int32)
        self.tail, self.head, self.capacity = arcs
        arcs[1:, : len(strips)] = strips, targets[has]
        # views [row/column/sink arc, block] of the arcs after the source arcs
        tail, head, capacity = arcs[:, len(strips) :].reshape(3, len(bu), 3).transpose(0, 2, 1)
        block = np.arange(first, self.size)
        tail[:] = node[bv], node[len(sub.mask) + bu], block
        head[:2] = block
        head[2] = self.sink
        capacity[:] = 1


def _max_flow_python(net: FlowNetwork) -> np.ndarray:
    """BFS augmenting paths; fine for the handful-of-blocks case.

    Returns the flow on each arc of net.  Residual arc 2k runs along arc
    k and 2k + 1 against it, so e ^ 1 is the reverse of residual arc e.
    """
    head: list[int] = []
    residual: list[int] = []
    adj: list[list[int]] = [[] for _ in range(net.size)]
    arcs = zip(net.tail.tolist(), net.head.tolist(), net.capacity.tolist())
    for k, (u, v, c) in enumerate(arcs):
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
            return np.array(residual[1::2])
        path = []
        v = net.sink
        while v != net.source:
            path.append(via[v])
            v = head[via[v] ^ 1]
        push = min(residual[e] for e in path)
        for e in path:
            residual[e] -= push
            residual[e ^ 1] += push


def _max_flow_scipy(net: FlowNetwork) -> np.ndarray:
    """scipy's maximum_flow; returns the flow on each arc of net."""
    graph = csr_matrix((net.capacity, (net.tail, net.head)), shape=(net.size, net.size))
    return np.asarray(maximum_flow(graph, net.source, net.sink).flow[net.tail, net.head]).ravel()


# --------------------------------------------------------------------------
# nu = 1 and its complement nu = 3
# --------------------------------------------------------------------------

def solve_dr1(sub: SubInstance) -> Optional[np.ndarray]:
    """Place one one per block; closed form, deterministic.

    Within the vertical strip of column i, the first c_i blocks counted
    from the bottom use column i and the rest column i+1; rows likewise.
    """
    assert sub.nu == 1
    sums, blocks = sub._strips
    if np.count_nonzero(sums < 0) or np.count_nonzero(sums[:, 0] + sums[:, 1] != blocks):
        return None
    # a block uses its strip's second line iff its rank there, counted
    # from 1, exceeds the strip's first pair sum (both fit int32, see above)
    dx = (sub.mask.cumsum(0, dtype=np.int32) > sub.cols[:, 0].astype(np.int32)).view(np.uint8)
    dy = (sub.mask.cumsum(1, dtype=np.int32) > sub.rows[:, :1].astype(np.int32)).view(np.uint8)
    return (1 << (dx + 2 * dy))[sub.mask]


def unique_dr1(sub: SubInstance) -> bool:
    assert sub.nu == 1
    sums, _ = sub._strips
    return not np.count_nonzero(sums[:, 0] * sums[:, 1])


def _invert(sub: SubInstance) -> SubInstance:
    """Complementary sums: a block holds 3 ones iff its complement holds 1."""
    sums, blocks = sub._strips
    return SubInstance._of_strips(1, sub.mask, 2 * blocks[:, None] - sums, blocks)


def solve_dr3(sub: SubInstance) -> Optional[np.ndarray]:
    assert sub.nu == 3
    inner = solve_dr1(_invert(sub))
    return None if inner is None else 15 ^ inner


def unique_dr3(sub: SubInstance) -> bool:
    assert sub.nu == 3
    return unique_dr1(_invert(sub))


# --------------------------------------------------------------------------
# nu = 2
# --------------------------------------------------------------------------

def _two_color_targets(sub: SubInstance) -> Optional[np.ndarray]:
    """Zeta blocks per row strip, then eta blocks per column strip, or None.

    None means no coloring can meet the pair sums: a strip of b blocks
    needs the pair (b + t, b - t) for its target t.  Pair sums not
    ordered larger first raise ValueError.
    """
    sums, blocks = sub._strips
    a, b = sums.T
    if np.count_nonzero(a < b):
        s, bh = int(np.argmax(a < b)), len(sub.rows)
        name, s = ("row", s) if s < bh else ("column", s - bh)
        raise ValueError(f"{name} pair sums at strip {2 * s + 1} not ordered")
    if np.count_nonzero(a + b != 2 * blocks):
        return None
    return a - blocks


_ZETA = BlockType.B1.value  # both ones in the bottom line
_ETA = BlockType.B31.value  # both ones in the left line
_DIAGONAL = BlockType.B33.value


def solve_dr2(sub: SubInstance) -> Optional[np.ndarray]:
    """Place two ones per block; requires in-strip ordered pair sums.

    A block colored zeta puts both ones in its lower line, eta in its
    left line, and every uncolored block falls back to the diagonal.
    """
    assert sub.nu == 2
    targets = _two_color_targets(sub)
    if targets is None:
        return None
    blocks = np.count_nonzero(sub.mask)
    if not np.count_nonzero(targets):
        return np.full(blocks, _DIAGONAL, np.uint8)
    net = FlowNetwork(sub, targets)
    flows = (_max_flow_python if blocks < _SCIPY_THRESHOLD else _max_flow_scipy)(net)
    first = len(flows) - 3 * blocks  # the source arcs come first
    if flows[:first].sum() < net.demand:
        return None
    # the network lists blocks by corner (i, j), the row-major order of mask.T
    codes = np.empty(sub.mask.T.shape, np.uint8)
    eta = np.where(flows[first + 1 :: 3], _ETA, _DIAGONAL)
    codes[sub.mask.T] = np.where(flows[first::3], _ZETA, eta)
    return codes.T[sub.mask]


def unique_dr2(sub: SubInstance, codes: np.ndarray) -> bool:
    """True iff no other coloring meets the same strip targets.

    codes holds one block code per masked block, in row-major order as
    solve_dr2 returns them; the coloring read from them (zeta = bottom
    pair, code 3; eta = left pair, code 5; any other code uncolored) is a
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
    bh, bw = sub.mask.shape
    bv, bu = np.nonzero(sub.mask)
    zeta, eta = codes == _ZETA, codes == _ETA
    colored = np.concatenate(
        (np.bincount(bv[zeta], minlength=bh), np.bincount(bu[eta], minlength=bw))
    )
    if np.count_nonzero(colored != targets):
        raise ValueError("solution misses the strip targets of its subproblem")
    # nodes: the sink 0, every row strip, every column strip, the blocks;
    # a strip without blocks is an isolated node and changes no verdict
    size = 1 + bh + bw + len(bv)
    node = np.arange(1 + bh + bw, size)
    # uncolored arcs row -> block, column -> block, block -> sink; a
    # coloring reverses the arc of its strip and the sink arc
    ends = np.array(((1 + bv, node), (1 + bh + bu, node), (node, 0 * node)), np.int32)
    flip = np.array((zeta, eta, zeta | eta))
    tails = np.where(flip, ends[:, 1], ends[:, 0]).ravel()
    heads = np.where(flip, ends[:, 0], ends[:, 1]).ravel()
    # int32 indices and float64 data, which csr_matrix and
    # connected_components take without converting.  Every arc has its own
    # block node at one end, so no arc is listed twice, which the search
    # needs: on a CSR that repeats an arc it never returns (scipy 1.17.1).
    # A graph that contracts blocks into strip-to-strip arcs must merge its
    # repeated arcs first (csr_matrix.sum_duplicates).
    indptr = np.zeros(size + 1, np.int32)
    indptr[1:] = np.cumsum(np.bincount(tails, minlength=size))
    graph = csr_matrix(
        (np.ones(len(tails)), heads[np.argsort(tails, kind="stable")], indptr), shape=(size, size)
    )
    components, _ = connected_components(graph, directed=True, connection="strong")
    return components == size


# --------------------------------------------------------------------------
# nu in {0, 4}
# --------------------------------------------------------------------------

def fill_trivial(sub: SubInstance) -> Optional[np.ndarray]:
    """Constant fill for the forced block values 0 and 4."""
    assert sub.nu in (0, 4)
    bit = sub.nu // 4
    sums, blocks = sub._strips
    if np.count_nonzero(sums != 2 * bit * blocks[:, None]):
        return None
    return np.full(np.count_nonzero(sub.mask), 15 * bit, np.uint8)
