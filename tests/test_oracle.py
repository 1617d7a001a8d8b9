"""Exhaustive reference solver."""

import dataclasses
import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drtomo import oracle
from drtomo.hardness import (
    OneInThreeInstance,
    build_board,
    extract_assignment,
    gen_sat_instance,
    lift_instance,
)
from drtomo.model import (
    BinaryImage,
    Instance,
    make_exact_instance,
    perturb_instance,
    random_image,
    verify_solution,
)
from drtomo.oracle import SearchBudget, constrained_solve, oracle_count, oracle_solve

from conftest import single_block_instance
from oracle_reference import reference_search


class TestSearchBudget:
    def test_positive_caps_required(self):
        with pytest.raises(ValueError):
            SearchBudget(max_solutions=0)
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=-1)

    @pytest.mark.parametrize(
        "cap", [float("nan"), float("inf"), 2.5, 1.0, True, False, "3", None, 0, -1]
    )
    @pytest.mark.parametrize("name", ["max_solutions", "max_nodes"])
    def test_caps_must_be_integers_of_at_least_one(self, name, cap):
        """A cap that is not an int would let `nodes > cap` or `count >= cap` never hold."""
        with pytest.raises(ValueError, match=name):
            SearchBudget(**{name: cap})


class TestOracleSolve:
    def test_all_zero_unique(self):
        inst = make_exact_instance(BinaryImage.zeros(4, 4), 2)
        sols, exhausted = oracle_solve(inst)
        assert exhausted and sols == [BinaryImage.zeros(4, 4)]

    def test_balanced_block_two_solutions(self):
        inst = single_block_instance(2, (1, 1), (1, 1))
        sols, exhausted = oracle_solve(inst)
        assert exhausted and len(sols) == 2
        patterns = {frozenset(s.ones()) for s in sols}
        assert patterns == {
            frozenset({(1, 1), (2, 2)}),
            frozenset({(2, 1), (1, 2)}),
        }

    def test_sum_mismatch_short_circuit(self):
        inst = single_block_instance(1, (1, 0), (0, 0))
        assert oracle_solve(inst) == ([], True)

    def test_every_solution_verifies(self):
        for seed in range(5):
            inst = make_exact_instance(random_image(6, 6, 0.5, seed), 2)
            sols, exhausted = oracle_solve(inst, SearchBudget(max_solutions=50))
            assert sols
            for s in sols:
                assert verify_solution(inst, s).satisfied

    def test_deterministic_order(self):
        inst = single_block_instance(2, (1, 1), (1, 1))
        assert oracle_solve(inst)[0] == oracle_solve(inst)[0]

    def test_solution_cap_flags_incomplete(self):
        inst = single_block_instance(2, (1, 1), (1, 1))
        sols, exhausted = oracle_solve(inst, SearchBudget(max_solutions=1))
        assert len(sols) == 1 and not exhausted

    def test_node_cap_flags_incomplete(self):
        inst = make_exact_instance(random_image(8, 8, 0.5, 0), 2)
        sols, exhausted = oracle_solve(inst, SearchBudget(max_solutions=10**6, max_nodes=5))
        assert not exhausted

    def test_noisy_windows_respected(self):
        inst = single_block_instance(1, (2, 0), (1, 1), epsilon=1)
        sols, exhausted = oracle_solve(inst)
        assert exhausted and len(sols) == 1
        assert sols[0].ones() == [(1, 1), (2, 1)]


class TestOracleCount:
    def test_matches_solve(self):
        for seed in range(5):
            inst = make_exact_instance(random_image(6, 4, 0.5, seed), 2)
            sols, _ = oracle_solve(inst, SearchBudget(max_solutions=1000))
            count, exhausted = oracle_count(inst, SearchBudget(max_solutions=1000))
            assert exhausted and count == len(sols)

    def test_infeasible_counts_zero(self):
        assert oracle_count(single_block_instance(1, (1, 0), (0, 0))) == (0, True)


class TestConstrainedSolve:
    def test_pinning_selects_branch(self):
        inst = single_block_instance(2, (1, 1), (1, 1))
        sols, exhausted = constrained_solve(inst, {(1, 1): 1})
        assert exhausted and len(sols) == 1
        assert set(sols[0].ones()) == {(1, 1), (2, 2)}

    def test_contradictory_pin(self):
        inst = make_exact_instance(BinaryImage.zeros(2, 2), 2)
        sols, exhausted = constrained_solve(inst, {(1, 1): 1})
        assert exhausted and not sols

    def test_sum_mismatch_short_circuit(self):
        assert constrained_solve(single_block_instance(1, (1, 0), (0, 0)), {(1, 1): 1}) == ([], True)

    def test_empty_pin_equals_plain_solve(self):
        inst = single_block_instance(2, (1, 1), (1, 1))
        assert constrained_solve(inst, {})[0] == oracle_solve(inst)[0]

    @pytest.mark.parametrize(
        "fixed", [{(0, 1): 1}, {(0, 0): 0}, {(5, 1): 0}, {(1, 5): 1}, {(1, 1): 2}, {(1, 1): -1}]
    )
    def test_pin_outside_grid_or_not_a_bit_rejected(self, fixed):
        inst = make_exact_instance(random_image(4, 4, 0.5, 3), 2)
        with pytest.raises(ValueError, match="pin"):
            constrained_solve(inst, fixed)


def _malformed(case: str) -> Instance:
    inst = make_exact_instance(random_image(4, 4, 0.5, 3), 2)
    if case == "block value":
        return dataclasses.replace(inst, blocks=((7,) + inst.blocks[0][1:],) + inst.blocks[1:])
    if case == "row sum":
        return dataclasses.replace(inst, row_sums=(-1,) + inst.row_sums[1:])
    if case == "reliability":
        return dataclasses.replace(inst, reliable=frozenset())
    return dataclasses.replace(inst, row_sums=inst.row_sums[:3])


ENTRY_POINTS = {
    "oracle_solve": oracle_solve,
    "oracle_count": oracle_count,
    "constrained_solve": lambda inst: constrained_solve(inst, {(1, 1): 0}),
}


class TestInputChecks:
    @pytest.mark.parametrize("case", ["block value", "row sum", "reliability", "row count"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_malformed_instance_rejected(self, entry, case):
        with pytest.raises(ValueError):
            ENTRY_POINTS[entry](_malformed(case))


def _all_4x4() -> np.ndarray:
    """Every 4x4 bit array, in ascending order with cell (1, 1) the most significant bit."""
    codes = np.arange(1 << 16)
    shifts = 15 - np.arange(16)  # cell (p, q) is bit (q-1)*4 + p-1 from the top
    return ((codes[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1, 4, 4)


def _random_noisy_4x4(rng: random.Random) -> Instance:
    """A valid 4x4 instance: exact sums of a random image, then noise and maybe a moved row unit."""
    inst = make_exact_instance(random_image(4, 4, rng.random(), rng.randrange(2**31)), 2)
    eps = rng.choice([0, 1, 2])
    corners = sorted(inst.corners())
    reliable = {c for c in corners if eps == 0 or rng.random() < 0.5}
    blocks = [list(row) for row in inst.blocks]
    for i, j in corners:
        if (i, j) not in reliable:
            v = blocks[(j - 1) // 2][(i - 1) // 2] + rng.randint(-eps, eps)
            blocks[(j - 1) // 2][(i - 1) // 2] = min(4, max(0, v))
    rows = list(inst.row_sums)
    a, b = rng.sample(range(4), 2)
    if rng.random() < 1 / 3 and rows[a] < 4 and rows[b] > 0:
        rows[a] += 1
        rows[b] -= 1
    return dataclasses.replace(
        inst,
        epsilon=eps,
        row_sums=tuple(rows),
        blocks=tuple(tuple(row) for row in blocks),
        reliable=frozenset(reliable),
    )


class TestAgainstBruteForce:
    """The oracle against plain enumeration of all 2^16 images of a 4x4 grid."""

    def test_solutions_counts_and_pins(self):
        imgs = _all_4x4()
        row_sums, col_sums = imgs.sum(axis=2), imgs.sum(axis=1)
        block_sums = imgs.reshape(-1, 2, 2, 2, 2).sum(axis=(2, 4))  # [image, bv, bu]
        rng = random.Random(20)
        for _ in range(120):
            inst = _random_noisy_4x4(rng)
            ok = (row_sums == inst.row_sums).all(axis=1) & (col_sums == inst.col_sums).all(axis=1)
            for i, j in inst.corners():
                lo, hi = inst.window(i, j)
                got = block_sums[:, (j - 1) // 2, (i - 1) // 2]
                ok &= (lo <= got) & (got <= hi)
            expected = imgs[ok]
            assert oracle_count(inst) == (len(expected), True)
            sols, exhausted = oracle_solve(inst)
            assert exhausted
            assert [s.a.tolist() for s in sols] == expected.tolist()
            grid = [(p, q) for p in range(1, 5) for q in range(1, 5)]
            fixed = {c: rng.randint(0, 1) for c in rng.sample(grid, rng.randint(1, 5))}
            keep = np.ones(len(expected), dtype=bool)
            for (p, q), bit in fixed.items():
                keep &= expected[:, q - 1, p - 1] == bit
            sols, exhausted = constrained_solve(inst, fixed)
            assert exhausted
            assert [s.a.tolist() for s in sols] == expected[keep].tolist()


class TestDeepSearch:
    def test_no_recursion_limit_needed(self, monkeypatch):
        """A 2304-cell search path runs without touching the interpreter's recursion limit."""

        def refuse(limit):
            raise AssertionError("the search must not change the recursion limit")

        limit = sys.getrecursionlimit()
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        b33 = BinaryImage(np.tile(np.array([[1, 0], [0, 1]], dtype=np.uint8), (24, 24)))
        inst = make_exact_instance(b33, 2)
        sols, _ = oracle_solve(inst, SearchBudget(max_solutions=1))
        assert len(sols) == 1 and verify_solution(inst, sols[0]).satisfied
        assert sys.getrecursionlimit() == limit


@st.composite
def search_inputs(draw):
    """A small instance (exact, noisy or lifted to k = 3 or 4), some pins and a budget."""
    if draw(st.booleans()):
        m, n, k_lift = draw(st.sampled_from([4, 6, 8])), draw(st.sampled_from([4, 6, 8])), 2
    else:
        m, n, k_lift = 4, draw(st.sampled_from([2, 4])), draw(st.sampled_from([3, 4]))
    img = random_image(m, n, draw(st.floats(0.1, 0.9)), draw(st.integers(0, 2**31)))
    inst = make_exact_instance(img, 2)
    eps = draw(st.sampled_from([0, 1, 1, 2]))
    if eps:
        inst = dataclasses.replace(inst, epsilon=eps)
        inst = perturb_instance(inst, draw(st.floats(0.1, 1.0)), draw(st.integers(0, 2**31)))
    if draw(st.booleans()):  # move one unit between two rows; often infeasible
        rows = list(inst.row_sums)
        a, b = draw(st.permutations(range(n)))[:2]
        if rows[a] < m and rows[b] > 0:
            rows[a] += 1
            rows[b] -= 1
        inst = dataclasses.replace(inst, row_sums=tuple(rows))
    if k_lift > 2:
        inst = lift_instance(inst, k_lift)
    cells = [(p, q) for p in range(1, inst.m + 1) for q in range(1, inst.n + 1)]
    pinned = draw(st.lists(st.sampled_from(cells), max_size=4, unique=True))
    fixed = {c: draw(st.integers(0, 1)) for c in pinned}
    max_solutions = draw(st.sampled_from([1, 2, 3, 10, 1_000_000]))
    max_nodes = draw(st.sampled_from([1, 2, 5, 30, 200, 50_000_000]))
    return inst, fixed, max_solutions, max_nodes


def _bits(images):
    return [img.a.tolist() for img in images]


class TestAgainstReferenceSearch:
    """The propagating search against the plain one in `oracle_reference`.

    Propagation only cuts subtrees without a solution, so both visit the
    solutions in one order, and the search tree of the propagating search
    maps into the plain one vertex by vertex.
    """

    FULL_NODES = 20_000  # the cap under which both searches list every solution

    @settings(max_examples=300, deadline=None)
    @given(search_inputs())
    def test_same_solutions_order_and_verdicts_fewer_nodes(self, case):
        inst, fixed, max_solutions, max_nodes = case
        full = reference_search(inst, 10**6, self.FULL_NODES, fixed)
        for ms, mn in ((10**6, self.FULL_NODES), (max_solutions, max_nodes)):
            ref = reference_search(inst, ms, mn, fixed)
            got = oracle._run(inst, SearchBudget(ms, mn), True, fixed)
            if ref.exhausted:
                assert _bits(got.solutions) == _bits(ref.solutions)
                assert (got.count, got.exhausted) == (ref.count, True)
            assert got.nodes <= ref.nodes
            # fewer nodes per solution: at least the plain search's solutions, in its order
            assert _bits(got.solutions[: len(ref.solutions)]) == _bits(ref.solutions)
            if full.exhausted:
                assert _bits(got.solutions) == _bits(full.solutions[: len(got.solutions)])
            for img in got.solutions:
                assert verify_solution(inst, img).satisfied
                assert all(img.a[q - 1, p - 1] == bit for (p, q), bit in fixed.items())
            counted = oracle._run(inst, SearchBudget(ms, mn), False, fixed)
            assert (counted.count, counted.exhausted) == (got.count, got.exhausted)
            assert counted.nodes == got.nodes

    @settings(max_examples=100, deadline=None)
    @given(search_inputs())
    def test_public_entry_points_match_reference(self, case):
        inst, fixed, max_solutions, max_nodes = case
        budget = SearchBudget(max_solutions, max_nodes)
        ref = reference_search(inst, max_solutions, max_nodes)
        if ref.exhausted:
            sols, exhausted = oracle_solve(inst, budget)
            assert (_bits(sols), exhausted) == (_bits(ref.solutions), True)
            assert oracle_count(inst, budget) == (ref.count, True)
        ref = reference_search(inst, max_solutions, max_nodes, fixed)
        if ref.exhausted:
            sols, exhausted = constrained_solve(inst, fixed, budget)
            assert (_bits(sols), exhausted) == (_bits(ref.solutions), True)


class TestGadgetBoardsWithinNodeBudget:
    """Propagation decides a gadget board in a few hundred nodes; a plain search needs 0.2M-0.8M."""

    BUDGET = SearchBudget(max_nodes=10_000)

    def test_unsatisfiable_board_exhausted_infeasible(self):
        sat = OneInThreeInstance(3, ((1, 2, 3), (-1, -2, -3)))
        sols, exhausted = oracle_solve(gen_sat_instance(sat), self.BUDGET)
        assert exhausted and sols == []

    def test_satisfiable_60x60_board_enumerated(self):
        sat = OneInThreeInstance(4, ((1, -2, 3), (2, 3, -4)))
        spec, board = build_board(sat), gen_sat_instance(sat)
        assert (board.m, board.n) == (60, 60)
        sols, exhausted = oracle_solve(board, self.BUDGET)
        assert exhausted
        assert all(verify_solution(board, s).satisfied for s in sols)
        satisfying = [a for a in itertools.product((False, True), repeat=4) if sat.satisfied_by(a)]
        assert sorted(extract_assignment(spec, s) for s in sols) == sorted(satisfying)
