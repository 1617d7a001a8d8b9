"""Exact polynomial-time solver and uniqueness test for k = 2, epsilon = 0.

The pipeline works on one strip table of bh + bw entries, the row
strips and then the column strips.  It reads the line sums once into
that table as one pair per strip, ordered larger first, and keeps the
mask of the pairs it swapped; the block grid and its per-strip counts do
not depend on line order, so no line-swapped instance is built.  It
peels off the forced 0- and 4-valued blocks, classifies every strip
into one of three count patterns, and splits the rest into the
per-value subproblems of the subsolvers module.  All of it works on
arrays over the [bv, bu] block grid: one classify_strip call covers
the whole table, each subproblem is a block mask with one pair of sums
per strip, and the subsolvers' block codes go into one code grid in a
single scatter.  That grid answers the ordered (proper-frame) sums, and
is verified against them and the block grid without decoding it: line
sums come from per-code tables of the ones in a block's bottom and left
lines, block sums from a popcount table.  The infeasibility verdict,
exact in this setting, comes before that check: from the line totals, a
strip no case fits, or a subsolver that finds no part.  A grid assembled
from parts that every subsolver found satisfies the instance, so a
failed check is a bug and raises RuntimeError.  An image is
decoded only once, as solve_dr's answer; check_unique never builds one.

solve_dr un-swaps and reduces on the code grid: its answer is
switches.reduce of the un-swapped proper-frame image.  It mirrors the
swapped strips back and runs them, and only them, through the switches
module's strip fixpoint, row strips first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import switches
from .model import BinaryImage, Instance, _decode, _require_well_formed, validate_instance
from .model import verify_solution  # noqa: F401  no longer called here; perfbench/tracing.py wraps this name
from .subsolvers import (
    SubInstance,
    fill_trivial,
    solve_dr1,
    solve_dr2,
    solve_dr3,
    unique_dr1,
    unique_dr2,
    unique_dr3,
)

INFEASIBLE, CASE1, CASE2, CASE3 = 0, 1, 2, 3


@dataclass(frozen=True)
class StripCase:
    """How the blocks of strips split their ones between their two lines.

    tag holds CASE1, CASE2, CASE3 or INFEASIBLE per strip.  counts[0..6]
    = (alpha_j, alpha_j1, beta_j, beta_prime_j, beta_j1, gamma_j,
    gamma_j1), each shaped like tag: single-one blocks using the
    near/far line, two-one blocks with both ones in the near line,
    balanced two-one blocks, two-one blocks with both ones in the far
    line (always 0 when feasible), and three-one blocks with their hole
    in the near/far line.  All counts of an infeasible strip are 0.
    """

    tag: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True, eq=False)  # arrays have no equality a generated __eq__ could use
class StripPermutation:
    """Which strips had their two lines exchanged.  Applying twice undoes it.

    row_swapped[s] and col_swapped[s] are read-only boolean arrays with
    one entry per row and per column strip s, the strip at corner row or
    column 2s + 1.
    """

    row_swapped: np.ndarray  # strip s with lines 2s + 1, 2s + 2 exchanged
    col_swapped: np.ndarray

    def apply_to_instance(self, inst: Instance) -> Instance:
        """inst with the lines of every swapped strip exchanged; ValueError
        unless inst is an exact k = 2 instance with this many strips per axis."""
        pairs, swapped = _strip_sums(inst)
        bh, bw = inst._grid.shape
        if (len(self.row_swapped), len(self.col_swapped)) != (bh, bw):
            raise ValueError(
                f"a permutation of {len(self.row_swapped)} row and {len(self.col_swapped)} column strips "
                f"does not fit an instance of {bh} row and {bw} column strips"
            )
        # a pair leaves its larger-first order where exactly one of the two swaps applies
        flip = np.concatenate((self.row_swapped, self.col_swapped)) != swapped
        sums = np.where(flip[:, None], pairs[:, ::-1], pairs)
        # block values do not move, so the swapped instance keeps their views
        return inst._with(row_sums=tuple(sums[:bh].ravel().tolist()), col_sums=tuple(sums[bh:].ravel().tolist()))


def _strip_sums(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """The line sums of an exact k = 2 instance as its strip table, and which pairs were swapped.

    Entry s < bh holds rows 2s + 1, 2s + 2, entry bh + s columns 2s + 1,
    2s + 2, as an int64 [bh + bw, 2] pair ordered larger first; the
    boolean mask [bh + bw] marks the pairs that order exchanged.
    ValueError unless k = 2 and epsilon = 0 and each axis has two lines
    per strip of the block grid.
    """
    if inst.k != 2 or inst.epsilon != 0:
        raise ValueError("the exact solver requires k = 2 and epsilon = 0")
    for sums, strips, axis in zip((inst.row_sums, inst.col_sums), inst._grid.shape, ("row", "column")):
        if len(sums) != 2 * strips:
            raise ValueError(f"{len(sums)} {axis} sums do not pair up into {strips} {axis} strips")
    pairs = np.array(inst.row_sums + inst.col_sums, np.int64).reshape(-1, 2)
    swapped = pairs[:, 0] < pairs[:, 1]
    pairs[swapped] = pairs[swapped, ::-1]
    return pairs, swapped


def properize(inst: Instance) -> tuple[Instance, StripPermutation]:
    """Swap strip lines so the first of each pair carries the larger sum.

    Block sums do not change under an in-strip line swap, so only the
    line sums move; solutions of the two instances correspond one-to-one
    by the same swaps.  An instance validate_instance rejects for more
    than a sum mismatch raises ValueError.  The solver itself never
    builds this instance: it reads the same swaps off its strip table.
    """
    _require_well_formed(validate_instance(inst))
    swapped = _strip_sums(inst)[1]
    swapped.flags.writeable = False
    bh = len(inst._grid)
    perm = StripPermutation(swapped[:bh], swapped[bh:])
    return perm.apply_to_instance(inst), perm


_VALUES = np.arange(5)[:, None, None]
# per count (alpha_j, alpha_j1, beta_j, beta_prime_j, beta_j1, gamma_j,
# gamma_j1): its block value, and the ones it puts into the near and the
# far line
_CLASS = np.array((1, 1, 2, 2, 2, 3, 3))
_LINES = np.array(((1, 0, 2, 1, 0, 1, 2), (0, 1, 0, 1, 2, 2, 1)))
# row 2*nu + line: the ones the blocks of value nu put into that line
_PAIRS = (_LINES * (_CLASS == _VALUES)).reshape(10, 7)

# classify_strip as linear maps of (rj, rj1, v1, v2, v3), then of those
# five followed by the far line's ones from each stage: beta_prime_j,
# alpha_j1 and gamma_j
_RJ, _RJ1, _V1, _V2, _V3, _BP, _A1, _G = np.eye(8, dtype=np.int64)
_F = _RJ1 - _V3  # far-line ones beyond one per three-one block
# per stage: how far _F reaches past the stage's start, then its blocks
_STAGES = np.array((_F, _F - _V2, _F - _V2 - _V1, _V2, _V1, _V3))[:, :5]
_COUNTS = np.array((_V1 - _A1, _A1, _V2 - _BP, _BP, 0 * _BP, _G, _V3 - _G))
# the counts, then the near and far line sums they rebuild less the given
# ones, and rj - rj1: a feasible strip has 0, 0 and a value >= 0 there
_SPLIT = np.concatenate((_COUNTS, _LINES @ _COUNTS - (_RJ, _RJ1), [_RJ - _RJ1]))


def classify_strip(rj, rj1, v1, v2, v3) -> StripCase:
    """Split strips' ones between their lines from the sums alone.

    rj, rj1 are each strip's two line sums, larger first, after removing
    the contribution of 0- and 4-valued blocks; v1, v2, v3 count the
    blocks of the strip holding that many ones.  The arguments are
    scalars or arrays of one shape.  Beyond one one from every three-one
    block, the far line takes one from each balanced two-one block (case
    1), then from each single-one block (case 2), then a second one from
    each three-one block (case 3); the case is the stage its sum ends in,
    and a strip is feasible iff the split gives back both line sums.
    """
    x = np.array((rj, rj1, v1, v2, v3))
    y = _STAGES @ x
    reach, blocks = y[:3], y[3:]
    split = _SPLIT @ np.concatenate((x, np.minimum(np.maximum(reach, 0), blocks)))
    ok = (split[7:9] == 0).all(0) & (split[9] >= 0)
    return StripCase(ok * (CASE1 + (reach[1] >= 0) + (reach[2] >= 0)), split[:7] * ok)


def _classify_all(inst: Instance, pairs: np.ndarray) -> Optional[StripCase]:
    """Cases of every strip of inst, row strips then column strips, or None.

    pairs is the strip table of _strip_sums: each strip's line sums,
    larger first.
    """
    v = inst._strip_counts
    near, far = pairs.T - 2 * v[4]
    cases = classify_strip(near, far, v[1], v[2], v[3])
    return None if np.count_nonzero(cases.tag) < len(cases.tag) else cases


def derive_sub_sums(inst: Instance, cases: StripCase) -> dict[int, SubInstance]:
    """Per-value subproblems of a classified instance.

    The strip cases fix, per strip, how many ones each value class puts
    into each of the two lines, the larger-sum line first; those totals
    become the subproblems' pair sums, (0, 0) in a strip that holds no
    block of the value.  inst gives only its block grid and strip
    counts, which no line swap changes, so the instance itself serves
    and no line-swapped copy is needed.
    """
    v = inst._strip_counts
    pairs = _PAIRS @ cases.counts
    pairs[8:] = 2 * v[4]  # full blocks, which the strip cases leave out
    masks = inst._grid == _VALUES
    return {
        nu: SubInstance._of_strips(nu, masks[nu], pairs[2 * nu : 2 * nu + 2].T, v[nu])
        for nu in range(5)
    }


_SOLVERS = {0: fill_trivial, 1: solve_dr1, 2: solve_dr2, 3: solve_dr3, 4: fill_trivial}


# ones per block code in the bottom line, the left line and the whole block
_BOTTOM, _LEFT, _ONES = (np.array([bin(c & bits).count("1") for c in range(16)], np.uint8) for bits in (3, 5, 15))


def _satisfies(inst: Instance, pairs: np.ndarray, codes: np.ndarray) -> bool:
    """Whether the image of a code grid has inst's block values and the line sums of pairs.

    pairs is a strip table [bh + bw, 2] of (bottom, top) row and (left,
    right) column sums, so this is verify_solution(inst,
    BinaryImage(_decode(codes))).satisfied for k = 2, epsilon = 0 when
    pairs holds inst's own sums.  The decoded image is exactly its
    blocks, so its block sums are the codes' popcounts, and the ones of
    the bottom line of a row strip and of the left line of a column
    strip come from per-code tables; the strip's other line holds the
    rest of its blocks' ones.
    """
    ones = _ONES.take(codes)
    if not np.array_equal(ones, inst._grid):
        return False
    near = np.concatenate((_BOTTOM.take(codes).sum(1), _LEFT.take(codes).sum(0)))
    total = np.concatenate((ones.sum(1), ones.sum(0)))
    return bool(np.array_equal(pairs[:, 0], near) and np.array_equal(pairs[:, 1], total - near))


def _solve_checked(inst: Instance) -> Optional[tuple[np.ndarray, dict[int, SubInstance], np.ndarray]]:
    """The pipeline solve_dr and check_unique share.

    Returns the strip table's swap mask (row strips, then column
    strips), the subproblems and the verified [bv, bu] block code grid
    of the proper frame, where each strip's larger sum is in its first
    line; None if inst is infeasible, ValueError if it is malformed.  A
    grid that fails the check after every subsolver succeeded is a bug,
    raised as RuntimeError.  The check reads the ordered sums of the
    strip table, so it checks the original too: the swaps map solutions
    one-to-one.
    """
    if not _require_well_formed(validate_instance(inst)):
        return None
    pairs, swapped = _strip_sums(inst)
    cases = _classify_all(inst, pairs)
    if cases is None:
        return None
    subs = derive_sub_sums(inst, cases)
    parts = []
    for nu, sub in subs.items():
        if not np.count_nonzero(sub.mask):
            continue
        part = _SOLVERS[nu](sub)
        if part is None:
            return None
        parts.append(part)
    # the masks of values 0..4 partition the grid, and each part lists its
    # mask's blocks in row-major order: the order a stable sort by value keeps
    grid = np.empty(inst._grid.size, np.uint8)
    grid[np.argsort(inst._grid, axis=None, kind="stable")] = np.concatenate(parts)
    grid = grid.reshape(inst._grid.shape)
    if not _satisfies(inst, pairs, grid):
        raise RuntimeError("the grid the subsolvers assembled fails the instance; the solver is off")
    return swapped, subs, grid


def _mirror_table(mirror: list[int]) -> np.ndarray:
    """A code table that mirrors every block but B33, whose mirror B34 class 7 flips back."""
    table = np.array(mirror, dtype=np.uint8)
    table[switches._B33] = switches._B33
    return table


# a swapped row strip un-swaps by mirroring its blocks top to bottom, a
# column strip by mirroring them left to right, and then runs as a row of
# the transposed code grid, as switches.reduce runs vertical strips
_ROW_MIRROR = _mirror_table([(c & 3) << 2 | c >> 2 for c in range(16)])
_COLUMN_MIRROR = switches._TRANSPOSED[_mirror_table([(c & 5) << 1 | (c & 10) >> 1 for c in range(16)])]


def solve_dr(inst: Instance) -> Optional[BinaryImage]:
    """Reconstruct an image for an exact double-resolution instance.

    Returns None exactly when the instance is infeasible.  The returned
    image satisfies every constraint and admits no forward local switch:
    it equals switches.reduce of the proper frame's solution with its
    strips un-swapped, computed on the code grid.  The proper-frame
    solution admits no forward switch, and mirroring or reducing the
    strips of one orientation keeps each block in its slot of the other,
    so a strip that was not swapped cannot move.  A mirrored B33 is kept
    as B33, the code class 7 would give it, so no class-7 pass is needed.
    """
    solved = _solve_checked(inst)
    if solved is None:
        return None
    swapped, _, codes = solved
    bh = len(codes)
    rows, cols = swapped[:bh], swapped[bh:]  # the row pass goes first
    if rows.any():
        strips = _ROW_MIRROR.take(codes[rows])
        switches._reduce_strips(strips)
        codes[rows] = strips
    if cols.any():
        strips = _COLUMN_MIRROR.take(codes[:, cols].T)
        switches._reduce_strips(strips)
        codes[:, cols] = switches._TRANSPOSED.take(strips).T
    return BinaryImage(_decode(codes))


def check_unique(inst: Instance) -> Optional[bool]:
    """Decide solution uniqueness for k = 2, epsilon = 0; None if infeasible.

    Works in the proper frame of the strip table, each strip's larger
    sum first, where solutions correspond one-to-one with the
    original's: the instance is unique iff every per-value subproblem
    is uniquely solvable and no reversed local switch applies to the
    solver's reduced solution.
    """
    solved = _solve_checked(inst)
    if solved is None:
        return None
    _, subs, grid = solved
    if np.count_nonzero(subs[1].mask) and not unique_dr1(subs[1]):
        return False
    if np.count_nonzero(subs[3].mask) and not unique_dr3(subs[3]):
        return False
    if np.count_nonzero(subs[2].mask) and not unique_dr2(subs[2], grid[subs[2].mask]):
        return False
    # the proper-frame solution is already reduced: no forward pair survives the strip cases
    return not switches._has_reversed_switch(grid)
