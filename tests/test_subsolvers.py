"""Per-value subproblem solvers, checked against brute-force enumeration."""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import drtomo
from drtomo.subsolvers import (
    _SCIPY_THRESHOLD,
    FlowNetwork,
    SubInstance,
    TwoColorSystem,
    _max_flow_python,
    _max_flow_scipy,
    fill_trivial,
    solve_dr1,
    solve_dr2,
    solve_dr3,
    solve_two_color,
    unique_dr1,
    unique_dr2,
    unique_dr3,
)

from conftest import block_code, brute_force_sub, code_cells, iter_block_patterns, sub_sums_ok


def sub(nu, I, rows, cols, m=8, n=8):
    return SubInstance(
        m=m, n=n, nu=nu, I=frozenset(I), pair_row_sums=rows, pair_col_sums=cols
    )


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


def assert_solves(sol: dict, s: SubInstance):
    """One code per block of I, nu ones in each, and every pair sum met."""
    assert set(sol) == s.I
    for corner in s.I:
        assert 0 <= sol[corner] < 16
        assert len(block_pattern(sol, corner)) == s.nu
    assert sub_sums_ok(s, sol)


FOUR_BLOCKS = [(1, 1), (3, 1), (1, 3), (3, 3)]


class TestTwoColor:
    def test_four_block_square(self):
        sys = TwoColorSystem(
            I=frozenset(FOUR_BLOCKS),
            row_targets={1: 1, 3: 1},
            col_targets={1: 1, 3: 1},
        )
        result = solve_two_color(sys)
        assert result is not None
        zeta, eta = result
        assert not zeta & eta
        for j in (1, 3):
            assert sum(1 for (_, jj) in zeta if jj == j) == 1
        for i in (1, 3):
            assert sum(1 for (ii, _) in eta if ii == i) == 1

    def test_all_zero_targets(self):
        sys = TwoColorSystem(I=frozenset(FOUR_BLOCKS), row_targets={1: 0}, col_targets={1: 0})
        assert solve_two_color(sys) == (set(), set())

    def test_single_block_double_demand_infeasible(self):
        sys = TwoColorSystem(I=frozenset({(1, 1)}), row_targets={1: 1}, col_targets={1: 1})
        assert solve_two_color(sys) is None

    def test_negative_target_infeasible(self):
        sys = TwoColorSystem(I=frozenset({(1, 1)}), row_targets={1: -1}, col_targets={})
        assert solve_two_color(sys) is None


def random_two_color_system(rng, n_blocks):
    """Targets from a random coloring (feasible) or, a third of the time, random."""
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
    return TwoColorSystem(I=frozenset(corners), row_targets=dict(rows), col_targets=dict(cols))


class TestFlowBackends:
    def test_backends_agree_and_meet_targets(self):
        rng = random.Random(5)
        verdicts = Counter()
        for trial in range(120):
            large = trial % 2 == 1
            lo, hi = (_SCIPY_THRESHOLD, 3 * _SCIPY_THRESHOLD) if large else (1, _SCIPY_THRESHOLD - 1)
            system = random_two_color_system(rng, rng.randint(lo, hi))
            net = FlowNetwork(system)
            targets = {net.row_node[j]: t for j, t in system.row_targets.items()}
            targets.update({net.col_node[i]: t for i, t in system.col_targets.items()})
            feasible = []
            for backend in (_max_flow_python, _max_flow_scipy):
                flow = backend(net)
                assert all(0 <= flow[(u, v)] <= c for u, v, c in net.arcs)
                value = sum(flow[(u, v)] for u, v, _ in net.arcs if u == net.source)
                feasible.append(value == net.demand)
                if value == net.demand:
                    out = Counter()
                    into = Counter()
                    for u, v, _ in net.arcs:
                        if u in targets:
                            out[u] += flow[(u, v)]
                            into[v] += flow[(u, v)]
                    assert all(out[node] == t for node, t in targets.items())
                    assert all(into[net.block_node[b]] <= 1 for b in system.I)
            assert feasible[0] == feasible[1]
            verdicts[(large, feasible[0])] += 1
        assert len(verdicts) == 4


class TestDr1:
    def test_four_block_construction(self):
        s = sub(1, FOUR_BLOCKS, {1: (1, 1), 3: (1, 1)}, {1: (1, 1), 3: (1, 1)})
        sol = solve_dr1(s)
        assert sol is not None
        ones = {cell for cell, b in cell_bits(sol).items() if b}
        assert ones == {(1, 1), (3, 2), (2, 3), (4, 4)}
        assert_solves(sol, s)

    def test_single_block_corner(self):
        s = sub(1, [(3, 5)], {5: (1, 0)}, {3: (1, 0)})
        sol = solve_dr1(s)
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
        sol = solve_dr3(s)
        assert sol is not None
        assert_solves(sol, s)

    def test_negative_inverted_sum_infeasible(self):
        s = sub(3, [(1, 1)], {1: (3, 0)}, {1: (2, 1)})
        assert solve_dr3(s) is None

    def test_complement_of_four_block_example(self):
        s = sub(3, FOUR_BLOCKS, {1: (3, 3), 3: (3, 3)}, {1: (3, 3), 3: (3, 3)})
        sol = solve_dr3(s)
        assert sol is not None
        assert_solves(sol, s)
        assert not unique_dr3(s)
        assert len(brute_force_sub(s)) > 1


class TestDr2:
    def one_block(self, rows, cols):
        return sub(2, [(1, 1)], {1: rows}, {1: cols})

    def test_bottom_pair(self):
        sol = solve_dr2(self.one_block((2, 0), (1, 1)))
        assert block_pattern(sol, (1, 1)) == {(0, 0), (1, 0)}

    def test_left_pair(self):
        sol = solve_dr2(self.one_block((1, 1), (2, 0)))
        assert block_pattern(sol, (1, 1)) == {(0, 0), (0, 1)}

    def test_diagonal_default_never_antidiagonal(self):
        sol = solve_dr2(self.one_block((1, 1), (1, 1)))
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
        sol = solve_dr2(s)
        assert sol is not None
        assert_solves(sol, s)
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
            unique_dr2(s, {})

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
            unique_dr2(s, wrong)


class TestFillTrivial:
    def test_zero_fill(self):
        s = sub(0, [(1, 1), (3, 1)], {1: (0, 0)}, {1: (0, 0), 3: (0, 0)})
        sol = fill_trivial(s)
        assert set(cell_bits(sol).values()) == {0}

    def test_full_fill(self):
        s = sub(4, [(1, 1), (3, 1)], {1: (4, 4)}, {1: (2, 2), 3: (2, 2)})
        sol = fill_trivial(s)
        assert set(cell_bits(sol).values()) == {1}
        assert_solves(sol, s)

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
            if any(a < b for a, b in s.pair_row_sums.values()) or any(
                a < b for a, b in s.pair_col_sums.values()
            ):
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
