"""Exact polynomial-time solver and uniqueness test for k = 2, epsilon = 0.

The pipeline normalizes each two-line strip so its larger sum comes
first, peels off the forced 0- and 4-valued blocks, classifies every
strip into one of three count patterns, and splits the rest into the
per-value subproblems of the subsolvers module.  All of it works on
arrays over the [bv, bu] block grid: one classify_strip call covers
the row strips and then the column strips, each subproblem is a block
mask with one pair of sums per strip, and the subsolvers' block codes
go into one code grid in a single scatter.  The code grid is verified
against the proper-frame instance without decoding it: line sums come
from per-code tables of the ones in a block's bottom and left lines,
block sums from a popcount table.  The infeasibility verdict, exact in
this setting, comes before that check: from the line totals, a strip no
case fits, or a subsolver that finds no part.  A grid assembled from
parts that every subsolver found satisfies the instance, so a failed
check is a bug and raises RuntimeError.  An image is
decoded only once, as solve_dr's answer; check_unique never builds one.

solve_dr un-swaps and reduces on the code grid, in closed form: its
answer is switches.reduce of the un-swapped proper-frame image, which
the switches module runs as all row strips, then all column strips,
then class 7.  The proper-frame image admits no forward switch.
Un-swapping a row strip mirrors each of its blocks top to bottom
(A11 <-> A21, B1 <-> B2, C11 <-> C21, B33 <-> B34, ...), which maps the
patterns of horizontal classes 1/2, 3 and 4/5 onto each other, all
absent, and the reversed class-6 pattern {A21, A22} + {C21, C22} onto
the forward one {A11, A12} + {C11, C12}.  A strip holding the latter
holds no B1 and no B2 (those would be the absent classes 2 and 4 before
the mirror), and class 6 makes neither, so the strip reduces by class 6
alone: its first n blocks of each slot in position order move, n the
smaller slot count.  A strip that was not swapped does not move.
Un-swapping a column strip mirrors left to right, which keeps every
horizontal slot and commutes with the class-6 moves, so the row pass
may run before it.  Neither a row mirror nor a horizontal class-6 move
changes a block's vertical slot, so the column pass is the same
argument with vertical class 6 {A11, A21} + {C11, C21}.  Class 7 then
flips every B34, and a proper-frame image has none, so B34 is only a
mirrored B33 and turns back into B33.
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
        # block values do not move, so the swapped instance keeps their views
        return inst._with(
            row_sums=_swap_lines(inst.row_sums, self.row_swapped),
            col_sums=_swap_lines(inst.col_sums, self.col_swapped),
        )


def _strip_pairs(sums) -> np.ndarray:
    """Line sums as [strip, line] pairs; an odd last line belongs to no strip."""
    return np.array(sums[: len(sums) // 2 * 2]).reshape(-1, 2)


def _swap_lines(sums: tuple[int, ...], swapped: np.ndarray) -> tuple[int, ...]:
    pairs = _strip_pairs(sums)
    return (*np.where(swapped[:, None], pairs[:, ::-1], pairs).ravel().tolist(), *sums[pairs.size :])


def properize(inst: Instance) -> tuple[Instance, StripPermutation]:
    """Swap strip lines so the first of each pair carries the larger sum.

    Block sums do not change under an in-strip line swap, so only the
    line sums move; solutions of the two instances correspond one-to-one
    by the same swaps.
    """
    if inst.k != 2 or inst.epsilon != 0:
        raise ValueError("properize requires k = 2 and epsilon = 0")
    rows, cols = _strip_pairs(inst.row_sums), _strip_pairs(inst.col_sums)
    perm = StripPermutation(rows[:, 0] < rows[:, 1], cols[:, 0] < cols[:, 1])
    perm.row_swapped.flags.writeable = perm.col_swapped.flags.writeable = False
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


def _classify_all(inst: Instance) -> Optional[StripCase]:
    """Cases of a proper instance's row strips, then its column strips, or None."""
    v = inst._strip_counts
    near, far = np.array(inst.row_sums + inst.col_sums).reshape(-1, 2).T - 2 * v[4]
    cases = classify_strip(near, far, v[1], v[2], v[3])
    return None if np.count_nonzero(cases.tag) < len(cases.tag) else cases


def derive_sub_sums(inst: Instance, cases: StripCase) -> dict[int, SubInstance]:
    """Per-value subproblems of a classified proper instance.

    The strip cases fix, per strip, how many ones each value class puts
    into each of the two lines; those totals become the subproblems' pair
    sums, (0, 0) in a strip that holds no block of the value.
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


def _satisfies(inst: Instance, codes: np.ndarray) -> bool:
    """verify_solution(inst, BinaryImage(_decode(codes))).satisfied for k = 2, epsilon = 0.

    The decoded image is exactly its blocks, so its block sums are the
    codes' popcounts, and the ones of the bottom line of a row strip and
    of the left line of a column strip come from per-code tables; the
    strip's other line holds the rest of its blocks' ones.
    """
    ones = _ONES.take(codes)
    if not np.array_equal(ones, inst._grid):
        return False
    rows, cols = np.array(inst.row_sums), np.array(inst.col_sums)
    bottom, left = _BOTTOM.take(codes).sum(1), _LEFT.take(codes).sum(0)
    return bool(
        np.array_equal(rows[0::2], bottom) and np.array_equal(rows[1::2], ones.sum(1) - bottom)
        and np.array_equal(cols[0::2], left) and np.array_equal(cols[1::2], ones.sum(0) - left)
    )


def _solve_checked(inst: Instance) -> Optional[tuple[StripPermutation, dict[int, SubInstance], np.ndarray]]:
    """The pipeline solve_dr and check_unique share.

    Returns the strip permutation and the proper frame's subproblems and
    verified [bv, bu] block code grid; None if inst is infeasible,
    ValueError if it is malformed.  A grid that fails the check after every
    subsolver succeeded is a bug, raised as RuntimeError.  Checking in the
    proper frame checks the original too, since properize's swaps map
    solutions one-to-one.
    """
    if not _require_well_formed(validate_instance(inst)):
        return None
    proper, perm = properize(inst)
    cases = _classify_all(proper)
    if cases is None:
        return None
    subs = derive_sub_sums(proper, cases)
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
    grid = np.empty(proper._grid.size, np.uint8)
    grid[np.argsort(proper._grid, axis=None, kind="stable")] = np.concatenate(parts)
    grid = grid.reshape(proper._grid.shape)
    if not _satisfies(proper, grid):
        raise RuntimeError("the grid the subsolvers assembled fails the instance; the solver is off")
    return perm, subs, grid


def _unswap_table(o: int, mirror: list[int]) -> tuple:
    """A swapped strip of orientation o un-swaps each block to its mirror,
    then moves it by class 6 if that lies in a slot of the switches table.

    The mirror of B33 is kept as B33: it is B34, which class 7 flips back.
    """
    table = np.array(mirror, dtype=np.uint8)
    table[switches._B33] = switches._B33
    return (table, *(switches._RULES[0, o, 5][:, table] != switches._NONE))


# a row strip mirrors its blocks top to bottom, then reduces by horizontal
# class 6; a column strip mirrors them left to right, then reduces by
# vertical class 6; both read the class's slots from the switches table
_UNSWAP_ROW = _unswap_table(0, [(c & 3) << 2 | c >> 2 for c in range(16)])
_UNSWAP_COL = _unswap_table(1, [(c & 5) << 1 | (c & 10) >> 1 for c in range(16)])


def _unswap(strips: np.ndarray, mirror: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Swapped strips, one per row of `strips`, un-swapped and reduced.

    Every block is mirrored; then class 6 moves the first n blocks of each
    of its two slots, in position order and n the smaller slot count, to
    their mirror once more, so those keep the code given.  `first` and
    `second` mark the codes whose mirror lies in each slot.
    """
    first, second = first[strips], second[strips]
    if not (first.any() and second.any()):  # no class-6 pair in any strip
        return mirror[strips]
    rank1, rank2 = first.cumsum(axis=1, dtype=np.int32), second.cumsum(axis=1, dtype=np.int32)
    move = first & (rank1 <= rank2[:, -1:]) | second & (rank2 <= rank1[:, -1:])
    return np.where(move, strips, mirror[strips])


def solve_dr(inst: Instance) -> Optional[BinaryImage]:
    """Reconstruct an image for an exact double-resolution instance.

    Returns None exactly when the instance is infeasible.  The returned
    image satisfies every constraint and admits no forward local switch.
    It equals switches.reduce of the proper frame's solution with its
    strips un-swapped, and is built from the proper frame's code grid in
    the closed form the module docstring derives.
    """
    solved = _solve_checked(inst)
    if solved is None:
        return None
    perm, _, codes = solved
    rows, cols = perm.row_swapped, perm.col_swapped  # the row pass goes first
    if rows.any():
        codes[rows] = _unswap(codes[rows], *_UNSWAP_ROW)
    if cols.any():
        codes[:, cols] = _unswap(codes[:, cols].T, *_UNSWAP_COL).T
    return BinaryImage(_decode(codes))


def check_unique(inst: Instance) -> Optional[bool]:
    """Decide solution uniqueness for k = 2, epsilon = 0; None if infeasible.

    Works in the line-swapped (proper) frame, where solutions correspond
    one-to-one with the original's: the instance is unique iff every
    per-value subproblem is uniquely solvable and no reversed local
    switch applies to the solver's reduced solution.
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
