"""Exhaustive reference solver."""

import dataclasses
import random
import sys

import numpy as np
import pytest

from drtomo.model import BinaryImage, Instance, make_exact_instance, random_image, verify_solution
from drtomo.oracle import SearchBudget, constrained_solve, oracle_count, oracle_solve

from conftest import single_block_instance


class TestSearchBudget:
    def test_positive_caps_required(self):
        with pytest.raises(ValueError):
            SearchBudget(max_solutions=0)
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=-1)


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
