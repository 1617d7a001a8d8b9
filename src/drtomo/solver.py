"""Exact polynomial-time solver and uniqueness test for k = 2, epsilon = 0.

The pipeline normalizes each two-line strip so its larger sum comes
first, peels off the forced 0- and 4-valued blocks, classifies every
strip into one of three count patterns, and splits the rest into the
per-value subproblems of the subsolvers module.  The assembled image is
verified against the original instance; a failed verification is the
infeasibility verdict, which is exact in this setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import switches
from .model import BinaryImage, Corner, Instance, _decode, validate_instance, verify_solution
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

CASE1, CASE2, CASE3, INFEASIBLE = "case1", "case2", "case3", "infeasible"


@dataclass(frozen=True)
class StripCase:
    """How the blocks of one strip split their ones between its two lines.

    counts = (alpha_j, alpha_j1, beta_j, beta_prime_j, beta_j1, gamma_j,
    gamma_j1): single-one blocks using the near/far line, two-one blocks
    with both ones in the near line, balanced two-one blocks, two-one
    blocks with both ones in the far line (always 0 when feasible), and
    three-one blocks with their hole in the near/far line.
    """

    tag: str
    counts: tuple[int, int, int, int, int, int, int]


@dataclass(frozen=True)
class StripPermutation:
    """Which strips had their two lines exchanged.  Applying twice undoes it."""

    row_swapped: frozenset[int]  # corner rows j with lines j, j+1 exchanged
    col_swapped: frozenset[int]

    def apply_to_image(self, img: BinaryImage) -> BinaryImage:
        a = img.mutable()
        for j in self.row_swapped:
            a[[j - 1, j]] = a[[j, j - 1]]
        for i in self.col_swapped:
            a[:, [i - 1, i]] = a[:, [i, i - 1]]
        return BinaryImage(a)

    def apply_to_instance(self, inst: Instance) -> Instance:
        rows = list(inst.row_sums)
        cols = list(inst.col_sums)
        for j in self.row_swapped:
            rows[j - 1], rows[j] = rows[j], rows[j - 1]
        for i in self.col_swapped:
            cols[i - 1], cols[i] = cols[i], cols[i - 1]
        # block values do not move, so the swapped instance keeps their views
        return inst._with_line_sums(tuple(rows), tuple(cols))


def properize(inst: Instance) -> tuple[Instance, StripPermutation]:
    """Swap strip lines so the first of each pair carries the larger sum.

    Block sums do not change under an in-strip line swap, so only the
    line sums move; solutions of the two instances correspond one-to-one
    by the same swaps.
    """
    if inst.k != 2 or inst.epsilon != 0:
        raise ValueError("properize requires k = 2 and epsilon = 0")
    perm = StripPermutation(
        row_swapped=frozenset(
            j for j in range(1, inst.n, 2) if inst.row_sums[j - 1] < inst.row_sums[j]
        ),
        col_swapped=frozenset(
            i for i in range(1, inst.m, 2) if inst.col_sums[i - 1] < inst.col_sums[i]
        ),
    )
    return perm.apply_to_instance(inst), perm


def classify_strip(rj: int, rj1: int, v1: int, v2: int, v3: int) -> StripCase:
    """Split a strip's ones between its lines from the sums alone.

    rj, rj1 are the strip's two line sums, larger first, after removing
    the contribution of 0- and 4-valued blocks; v1, v2, v3 count the
    blocks of the strip holding that many ones.
    """
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


def _classify_all(
    inst: Instance,
) -> Optional[tuple[dict[int, StripCase], dict[int, StripCase]]]:
    """Strip cases for both orientations of a proper instance, or None."""
    found = []
    for sums, counts in zip((inst.row_sums, inst.col_sums), inst._strip_counts):
        cases: dict[int, StripCase] = {}
        for s, (_, v1, v2, v3, v4) in enumerate(counts):
            line = 2 * s + 1
            case = classify_strip(sums[line - 1] - 2 * v4, sums[line] - 2 * v4, v1, v2, v3)
            if case.tag == INFEASIBLE:
                return None
            cases[line] = case
        found.append(cases)
    return found[0], found[1]


def derive_sub_sums(
    inst: Instance,
    h_cases: dict[int, StripCase],
    v_cases: dict[int, StripCase],
) -> dict[int, SubInstance]:
    """Per-value subproblems of a classified proper instance.

    The strip cases fix, per strip, how many ones each value class puts
    into each of the two lines; those totals become the subproblems' pair
    sums.  A subproblem lists exactly the strips that hold one of its
    blocks.
    """
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
        return nu // 2 * count, nu // 2 * count  # nu in (0, 4): constant fill

    rows, cols = inst._strip_counts
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


_SOLVERS = {0: fill_trivial, 1: solve_dr1, 2: solve_dr2, 3: solve_dr3, 4: fill_trivial}


def _solve_checked(
    inst: Instance,
) -> Optional[tuple[StripPermutation, BinaryImage, dict[int, SubInstance], dict[Corner, int]]]:
    """The pipeline solve_dr and check_unique share.

    Returns the strip permutation and the proper frame's verified image,
    subproblems and block codes; None if inst is infeasible, ValueError
    if it is malformed.  Verifying in the proper frame decides the
    original too, since properize's swaps map solutions one-to-one.
    """
    errs = validate_instance(inst)
    if any(e.kind != "sum-mismatch" for e in errs):
        raise ValueError("; ".join(str(e) for e in errs))
    if errs:
        return None
    proper, perm = properize(inst)
    cases = _classify_all(proper)
    if cases is None:
        return None
    subs = derive_sub_sums(proper, *cases)
    codes: dict[Corner, int] = {}
    for nu, sub in subs.items():
        if not sub.I:
            continue
        part = _SOLVERS[nu](sub)
        if part is None:
            return None
        codes.update(part)
    # the five block sets partition the grid, so every block gets its code
    bw = proper.m // 2
    grid = np.zeros(proper.n // 2 * bw, dtype=np.uint8)
    grid[[(j >> 1) * bw + (i >> 1) for i, j in codes]] = list(codes.values())
    img = BinaryImage(_decode(grid.reshape(-1, bw)))
    if not verify_solution(proper, img).satisfied:
        return None
    return perm, img, subs, codes


def solve_dr(inst: Instance) -> Optional[BinaryImage]:
    """Reconstruct an image for an exact double-resolution instance.

    Returns None exactly when the instance is infeasible.  The returned
    image satisfies every constraint and admits no forward local switch.
    """
    solved = _solve_checked(inst)
    if solved is None:
        return None
    perm, img, _, _ = solved
    # un-swapping a strip can flip a diagonal block or re-pair block types,
    # so re-establish the no-forward-switch form on the final image
    return switches.reduce(perm.apply_to_image(img))


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
    _, img, subs, codes = solved
    if subs[1].I and not unique_dr1(subs[1]):
        return False
    if subs[3].I and not unique_dr3(subs[3]):
        return False
    if subs[2].I and not unique_dr2(subs[2], codes):
        return False
    return not switches.has_reversed_switch(switches.reduce(img))
