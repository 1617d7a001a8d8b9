"""Per-value subproblem solvers, checked against brute-force enumeration."""

import dataclasses
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import drtomo
from drtomo.subsolvers import (
    _SCIPY_THRESHOLD,
    FlowNetwork,
    SubInstance,
    _max_flow_python,
    _max_flow_scipy,
    fill_trivial,
    solve_dr1,
    solve_dr2,
    solve_dr3,
    unique_dr1,
    unique_dr2,
    unique_dr3,
)

from conftest import (
    block_code,
    brute_force_sub,
    code_cells,
    codes_by_corner,
    iter_block_patterns,
    part_of,
    sub_instance as sub,
    sub_sums_ok,
)


def answer(solver, s: SubInstance):
    """A subsolver's codes as {corner: code}, or None."""
    part = solver(s)
    return None if part is None else codes_by_corner(s, part)


def block_pattern(codes, corner):
    """Offsets of the ones that block codes place at corner (none if absent)."""
    return code_cells(codes.get(corner, 0))


def cell_bits(codes) -> dict:
    """Bit of every cell the block codes cover, keyed (p, q)."""
    return {
        (i + dx, j + dy): code >> (dx + 2 * dy) & 1
        for (i, j), code in codes.items()
        for dx in (0, 1)
        for dy in (0, 1)
    }


def assert_solves(part: np.ndarray, s: SubInstance):
    """One uint8 code per block of I, nu ones in each, and every pair sum met."""
    assert part.dtype == np.uint8
    sol = codes_by_corner(s, part)
    assert set(sol) == s.I
    for corner in s.I:
        assert 0 <= sol[corner] < 16
        assert len(block_pattern(sol, corner)) == s.nu
    assert sub_sums_ok(s, sol)


FOUR_BLOCKS = [(1, 1), (3, 1), (1, 3), (3, 3)]
ZETA, ETA, DIAGONAL = 3, 5, 9  # the codes of the nu = 2 coloring


class TestTwoColor:
    """solve_dr2's coloring: pair sums (blocks + target, blocks - target) per strip."""

    def test_four_block_square(self):
        s = sub(2, FOUR_BLOCKS, {1: (3, 1), 3: (3, 1)}, {1: (3, 1), 3: (3, 1)})
        part = solve_dr2(s)
        assert part is not None
        assert_solves(part, s)
        sol = codes_by_corner(s, part)
        for j in (1, 3):
            assert sum(1 for (_, jj), code in sol.items() if jj == j and code == ZETA) == 1
        for i in (1, 3):
            assert sum(1 for (ii, _), code in sol.items() if ii == i and code == ETA) == 1

    def test_all_zero_targets(self):
        s = sub(2, FOUR_BLOCKS, {1: (2, 2), 3: (2, 2)}, {1: (2, 2), 3: (2, 2)})
        assert answer(solve_dr2, s) == dict.fromkeys(FOUR_BLOCKS, DIAGONAL)

    def test_single_block_double_demand_infeasible(self):
        assert solve_dr2(sub(2, [(1, 1)], {1: (2, 0)}, {1: (2, 0)})) is None


def random_two_color_system(rng, n_blocks):
    """Targets from a random coloring (feasible) or, a third of the time, random.

    Returns a SubInstance over a 32x32 image whose pair sums carry the
    targets, and the targets of its row strips, then its column strips.
    """
    corners = rng.sample([(i, j) for i in range(1, 33, 2) for j in range(1, 33, 2)], n_blocks)
    colors = {c: rng.choice("zen") for c in corners}
    rows = Counter({j: 0 for _, j in corners})
    cols = Counter({i: 0 for i, _ in corners})
    for (i, j), color in colors.items():
        rows[j] += color == "z"
        cols[i] += color == "e"
    if rng.random() < 1 / 3:
        rows = {j: rng.randint(0, n) for j, n in Counter(j for _, j in corners).items()}
        cols = {i: rng.randint(0, n) for i, n in Counter(i for i, _ in corners).items()}
    # a strip of b blocks and target t has pair sums (b + t, b - t)
    pairs = [
        {strip: (blocks[strip] + t, blocks[strip] - t) for strip, t in sums.items()}
        for sums, blocks in zip(
            (rows, cols), (Counter(j for _, j in corners), Counter(i for i, _ in corners))
        )
    ]
    targets = np.zeros(32, dtype=np.int64)
    for offset, sums in ((0, rows), (16, cols)):
        for strip, t in sums.items():
            targets[offset + strip // 2] = t
    return sub(2, corners, *pairs, m=32, n=32), targets


class TestFlowBackends:
    def test_backends_agree_and_meet_targets(self):
        rng = random.Random(5)
        verdicts = Counter()
        for trial in range(120):
            large = trial % 2 == 1
            lo, hi = (_SCIPY_THRESHOLD, 3 * _SCIPY_THRESHOLD) if large else (1, _SCIPY_THRESHOLD - 1)
            net = FlowNetwork(*random_two_color_system(rng, rng.randint(lo, hi)))
            arcs = list(zip(net.tail.tolist(), net.head.tolist(), net.capacity.tolist()))
            targets = {v: c for u, v, c in arcs if u == net.source}
            feasible = []
            for backend in (_max_flow_python, _max_flow_scipy):
                flows = backend(net).tolist()
                assert len(flows) == len(arcs)
                assert all(0 <= f <= c for f, (_, _, c) in zip(flows, arcs))
                value = sum(f for f, (u, _, _) in zip(flows, arcs) if u == net.source)
                feasible.append(value == net.demand)
                if value == net.demand:
                    out = Counter()
                    into = Counter()
                    for f, (u, v, _) in zip(flows, arcs):
                        if u in targets:
                            out[u] += f
                            into[v] += f
                    assert all(out[node] == t for node, t in targets.items())
                    assert all(f <= 1 for f in into.values())
            assert feasible[0] == feasible[1]
            verdicts[(large, feasible[0])] += 1
        assert len(verdicts) == 4


@pytest.mark.parametrize(
    "solver, s, field",
    [
        (solve_dr1, sub(1, [(1, 1)], {1: (1, 0)}, {}), "cols"),
        (solve_dr2, sub(2, [(1, 1)], {1: (2, 0)}, {}), "cols"),
        (solve_dr3, sub(3, [(1, 1)], {}, {1: (2, 1)}), "rows"),
        (fill_trivial, sub(4, [(1, 1)], {1: (4, 4)}, {}), "cols"),
        (lambda s: unique_dr2(s, np.array([ZETA], np.uint8)), sub(2, [(1, 1)], {1: (2, 0)}, {}), "cols"),
    ],
    ids=["dr1", "dr2", "dr3", "fill", "unique_dr2"],
)
def test_strip_without_pair_sums_rejected(solver, s, field):
    # drop the pair of strip 1, which holds the block
    with pytest.raises(ValueError, match="one pair per strip"):
        solver(dataclasses.replace(s, **{field: getattr(s, field)[1:]}))


@pytest.mark.parametrize(
    "mask",
    [np.eye(2, dtype=np.int64), np.eye(2, dtype=np.uint8), np.array([True, False]), np.ones((1, 2, 2), bool)],
    ids=["int", "uint8", "1-d", "3-d"],
)
def test_mask_must_be_a_2d_boolean_array(mask):
    # an integer 0/1 mask would pick blocks by number, not select them
    rows, cols = np.array([[1, 0], [1, 0]]), np.array([[1, 0], [1, 0]])
    assert solve_dr1(SubInstance(1, np.eye(2, dtype=bool), rows, cols)).tolist() == [1, 1]
    with pytest.raises(ValueError, match="2-d boolean array"):
        SubInstance(1, mask, rows[: len(mask)], cols)


class TestDr1:
    def test_four_block_construction(self):
        s = sub(1, FOUR_BLOCKS, {1: (1, 1), 3: (1, 1)}, {1: (1, 1), 3: (1, 1)})
        part = solve_dr1(s)
        assert part is not None
        ones = {cell for cell, b in cell_bits(codes_by_corner(s, part)).items() if b}
        assert ones == {(1, 1), (3, 2), (2, 3), (4, 4)}
        assert_solves(part, s)

    def test_single_block_corner(self):
        s = sub(1, [(3, 5)], {5: (1, 0)}, {3: (1, 0)})
        sol = answer(solve_dr1, s)
        assert {c for c, b in cell_bits(sol).items() if b} == {(3, 5)}

    def test_mass_violation_infeasible(self):
        s = sub(1, [(1, 1)], {1: (2, 0)}, {1: (1, 0)})
        assert solve_dr1(s) is None

    def test_unique_condition(self):
        assert unique_dr1(sub(1, [(1, 1)], {1: (1, 0)}, {1: (0, 1)}))
        s = sub(1, FOUR_BLOCKS, {1: (1, 1), 3: (1, 1)}, {1: (1, 1), 3: (1, 1)})
        assert not unique_dr1(s)

    def test_unique_two_strips(self):
        s = sub(
            1,
            [(1, 1), (3, 1), (1, 3), (3, 3)],
            {1: (2, 0), 3: (0, 2)},
            {1: (2, 0), 3: (0, 2)},
        )
        assert solve_dr1(s) is not None
        assert unique_dr1(s)
        assert len(brute_force_sub(s)) == 1


class TestDr3:
    def test_single_block(self):
        s = sub(3, [(1, 1)], {1: (2, 1)}, {1: (2, 1)})
        part = solve_dr3(s)
        assert part is not None
        assert_solves(part, s)

    def test_negative_inverted_sum_infeasible(self):
        s = sub(3, [(1, 1)], {1: (3, 0)}, {1: (2, 1)})
        assert solve_dr3(s) is None

    def test_complement_of_four_block_example(self):
        s = sub(3, FOUR_BLOCKS, {1: (3, 3), 3: (3, 3)}, {1: (3, 3), 3: (3, 3)})
        part = solve_dr3(s)
        assert part is not None
        assert_solves(part, s)
        assert not unique_dr3(s)
        assert len(brute_force_sub(s)) > 1


class TestDr2:
    def one_block(self, rows, cols):
        return sub(2, [(1, 1)], {1: rows}, {1: cols})

    def test_bottom_pair(self):
        sol = answer(solve_dr2, self.one_block((2, 0), (1, 1)))
        assert block_pattern(sol, (1, 1)) == {(0, 0), (1, 0)}

    def test_left_pair(self):
        sol = answer(solve_dr2, self.one_block((1, 1), (2, 0)))
        assert block_pattern(sol, (1, 1)) == {(0, 0), (0, 1)}

    def test_diagonal_default_never_antidiagonal(self):
        sol = answer(solve_dr2, self.one_block((1, 1), (1, 1)))
        assert block_pattern(sol, (1, 1)) == {(0, 0), (1, 1)}

    def test_unordered_sums_rejected(self):
        with pytest.raises(ValueError):
            solve_dr2(self.one_block((0, 2), (1, 1)))

    def test_parity_infeasible(self):
        assert solve_dr2(self.one_block((2, 1), (2, 1))) is None

    def test_output_types_restricted(self):
        s = sub(
            2,
            FOUR_BLOCKS,
            {1: (3, 1), 3: (2, 2)},
            {1: (3, 1), 3: (2, 2)},
        )
        part = solve_dr2(s)
        assert part is not None
        assert_solves(part, s)
        sol = codes_by_corner(s, part)
        allowed = [{(0, 0), (1, 0)}, {(0, 0), (0, 1)}, {(0, 0), (1, 1)}]
        for corner in s.I:
            assert block_pattern(sol, corner) in allowed


class TestUniqueDr2:
    def test_single_forced_block(self):
        s = sub(2, [(1, 1)], {1: (2, 0)}, {1: (1, 1)})
        assert unique_dr2(s, solve_dr2(s))

    def test_two_block_choice_not_unique(self):
        s = sub(2, [(1, 1), (3, 1)], {1: (3, 1)}, {1: (1, 1), 3: (1, 1)})
        sol = solve_dr2(s)
        assert sol is not None
        assert not unique_dr2(s, sol)

    def test_empty_demand_unique(self):
        s = sub(2, [(1, 1)], {1: (1, 1)}, {1: (1, 1)})
        assert unique_dr2(s, solve_dr2(s))

    def test_infeasible_input_rejected(self):
        s = sub(2, [(1, 1)], {1: (2, 0)}, {1: (2, 0)})
        with pytest.raises(ValueError):
            unique_dr2(s, np.array([], np.uint8))

    @pytest.mark.parametrize(
        "rows, ones",
        [
            ((2, 0), {(0, 0), (1, 1)}),  # the row target wants a bottom pair
            ((1, 1), {(0, 0), (1, 0)}),  # a bottom pair where the row target is 0
        ],
    )
    def test_coloring_missing_targets_rejected(self, rows, ones):
        s = sub(2, [(1, 1)], {1: rows}, {1: (1, 1)})
        assert solve_dr2(s) is not None
        wrong = {(1, 1): block_code(ones)}
        with pytest.raises(ValueError):
            unique_dr2(s, part_of(s, wrong))


class TestUniqueDr2Enumerated:
    def test_verdict_on_every_valid_coloring(self):
        """5 to 8 blocks on a 3x3 strip grid, every zeta/eta/uncolored coloring tried."""
        rng = random.Random(11)
        grid = [(i, j) for i in (1, 3, 5) for j in (1, 3, 5)]
        colors = (ZETA, ETA, DIAGONAL)  # a diagonal block is uncolored
        verdicts = Counter()
        for _ in range(150):
            corners = sorted(rng.sample(grid, rng.randint(5, 8)))
            planted = rng.choices(colors, k=len(corners))
            rows, cols = sorted({j for _, j in corners}), sorted({i for i, _ in corners})
            # one 0/1 column per strip, and the planted coloring's targets
            in_row = np.array([[j == r for r in rows] for _, j in corners], dtype=int)
            in_col = np.array([[i == c for c in cols] for i, _ in corners], dtype=int)
            zeta = np.array([c == ZETA for c in planted]) @ in_row
            eta = np.array([c == ETA for c in planted]) @ in_col
            # a strip of b blocks and target t has pair sums (b + t, b - t)
            s = sub(
                2,
                corners,
                {j: (b + t, b - t) for j, b, t in zip(rows, in_row.sum(0).tolist(), zeta.tolist())},
                {i: (b + t, b - t) for i, b, t in zip(cols, in_col.sum(0).tolist(), eta.tolist())},
            )
            colorings = np.array(list(itertools.product(colors, repeat=len(corners))))
            meets = (((colorings == ZETA) @ in_row == zeta).all(1)) & (
                ((colorings == ETA) @ in_col == eta).all(1)
            )
            valid = [dict(zip(corners, c)) for c in colorings[meets].tolist()]
            assert answer(solve_dr2, s) in valid
            for codes in valid:
                assert unique_dr2(s, part_of(s, codes)) == (len(valid) == 1)
            verdicts[len(valid) == 1] += 1
        assert verdicts[True] >= 10 and verdicts[False] >= 10


class TestFillTrivial:
    def test_zero_fill(self):
        s = sub(0, [(1, 1), (3, 1)], {1: (0, 0)}, {1: (0, 0), 3: (0, 0)})
        sol = answer(fill_trivial, s)
        assert set(cell_bits(sol).values()) == {0}

    def test_full_fill(self):
        s = sub(4, [(1, 1), (3, 1)], {1: (4, 4)}, {1: (2, 2), 3: (2, 2)})
        part = fill_trivial(s)
        assert set(cell_bits(codes_by_corner(s, part)).values()) == {1}
        assert_solves(part, s)

    def test_sum_disagreement_infeasible(self):
        s = sub(4, [(1, 1)], {1: (1, 2)}, {1: (2, 2)})
        assert fill_trivial(s) is None


def random_subinstance(rng, nu):
    """Random sub over <= 4 blocks; sums from a random labeling or random noise."""
    corners = rng.sample([(i, j) for i in (1, 3) for j in (1, 3, 5)], rng.randint(1, 4))
    patterns = list(iter_block_patterns(nu))
    rows = sorted({j for _, j in corners})
    cols = sorted({i for i, _ in corners})
    if rng.random() < 0.7:
        labeling = {c: rng.choice(patterns) for c in corners}
        prs = {
            j: (
                sum(sum(1 for dx, dy in labeling[c] if dy == 0) for c in corners if c[1] == j),
                sum(sum(1 for dx, dy in labeling[c] if dy == 1) for c in corners if c[1] == j),
            )
            for j in rows
        }
        pcs = {
            i: (
                sum(sum(1 for dx, dy in labeling[c] if dx == 0) for c in corners if c[0] == i),
                sum(sum(1 for dx, dy in labeling[c] if dx == 1) for c in corners if c[0] == i),
            )
            for i in cols
        }
    else:
        prs = {j: (rng.randint(0, 4), rng.randint(0, 4)) for j in rows}
        pcs = {i: (rng.randint(0, 4), rng.randint(0, 4)) for i in cols}
    return sub(nu, corners, prs, pcs)


class TestOracleEquivalence:
    """Solver feasibility and uniqueness match exhaustive block labeling."""

    def test_dr1_matches_enumeration(self):
        rng = random.Random(0)
        for _ in range(150):
            s = random_subinstance(rng, 1)
            sols = brute_force_sub(s)
            got = solve_dr1(s)
            assert (got is not None) == bool(sols)
            if got is not None:
                assert_solves(got, s)
                assert unique_dr1(s) == (len(sols) == 1)

    def test_dr3_matches_enumeration(self):
        rng = random.Random(1)
        for _ in range(100):
            s = random_subinstance(rng, 3)
            sols = brute_force_sub(s)
            got = solve_dr3(s)
            assert (got is not None) == bool(sols)
            if got is not None:
                assert_solves(got, s)
                assert unique_dr3(s) == (len(sols) == 1)

    def test_dr2_matches_enumeration_on_ordered_sums(self):
        # uniqueness here is of the coloring (B1/B31/B33 labelings); the
        # anti-diagonal variants it ignores are the switch engine's business
        rng = random.Random(2)
        tried = 0
        while tried < 100:
            s = random_subinstance(rng, 2)
            if (s.rows[:, 0] < s.rows[:, 1]).any() or (s.cols[:, 0] < s.cols[:, 1]).any():
                continue
            tried += 1
            sols = brute_force_sub(s)
            got = solve_dr2(s)
            assert (got is not None) == bool(sols)
            if got is not None:
                assert_solves(got, s)
                reduced_sols = [
                    b
                    for b in sols
                    if all(
                        block_pattern(b, c)
                        in ({(0, 0), (1, 0)}, {(0, 0), (0, 1)}, {(0, 0), (1, 1)})
                        for c in s.I
                    )
                ]
                assert unique_dr2(s, got) == (len(reduced_sols) == 1)

    def test_fill_matches_enumeration(self):
        rng = random.Random(3)
        for nu in (0, 4):
            for _ in range(50):
                s = random_subinstance(rng, nu)
                sols = brute_force_sub(s)
                got = fill_trivial(s)
                assert (got is not None) == bool(sols)
                if got is not None:
                    assert_solves(got, s)


def test_import_leaves_networkx_unloaded():
    code = "import sys, drtomo; assert 'networkx' not in sys.modules, 'networkx imported'"
    src = str(Path(drtomo.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env=os.environ | {"PYTHONPATH": src})
