"""Exhaustive reference solver."""

import dataclasses
import hashlib
import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drtomo import hardness, oracle
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
    if case == "block value":  # rejected at construction, before any entry point runs
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


def _digest(images: list[BinaryImage]) -> str:
    """The first 16 hex digits of the SHA-256 of the solutions' bytes, in order."""
    h = hashlib.sha256()
    for img in images:
        h.update(img.a.tobytes())
    return h.hexdigest()[:16]


def _chip_pins(sat: OneInThreeInstance, assignment: tuple[bool, ...]) -> dict[tuple[int, int], int]:
    """The initializer-chip pins `embed_assignment` sets for an assignment."""
    spec, fixed = build_board(sat), {}
    for t, value in enumerate(assignment, start=1):
        x, y = spec.init_chips[t]
        for dx in (0, 1):
            for dy in (0, 1):
                fixed[(x + dx, y + dy)] = int((dx, dy) in hardness._CHIP[value].cells)
    return fixed


def _noisy6(seed: int, k: int = 2, epsilon: int = 1) -> Instance:
    """A 6x6 instance with half its blocks unreliable, as the benchmark draws them at k = 2, epsilon = 1."""
    inst = dataclasses.replace(make_exact_instance(random_image(6, 6, 0.5, seed), k), epsilon=epsilon)
    return perturb_instance(inst, 0.5, seed + 1)


SAT = OneInThreeInstance(4, ((1, -2, 3), (2, 3, -4)))  # two satisfying assignments
UNSAT = OneInThreeInstance(4, ((1, 2, 3), (-1, -2, -3)))
FULL = SearchBudget()


def _parity_case(name: str):
    """(instance, pins, budget, collect) of a recorded case."""
    kind, _, arg = name.partition(" ")
    if kind == "decide":
        formula, cap = {"sat": (SAT, 1), "sat-all": (SAT, 10**6), "unsat": (UNSAT, 1)}[arg]
        return gen_sat_instance(formula), {}, SearchBudget(max_solutions=cap), True
    if kind == "embed":
        assignment = tuple(ch == "T" for ch in arg)
        return gen_sat_instance(SAT), _chip_pins(SAT, assignment), SearchBudget(2, 2_000_000), True
    if kind == "board-nodes":
        return gen_sat_instance(SAT), {}, SearchBudget(max_nodes=int(arg)), True
    if kind == "lifted":
        return lift_instance(gen_sat_instance(SAT), int(arg)), {}, FULL, False
    seed, _, cap = arg.partition(" ")
    inst = _noisy6(int(seed))
    if kind == "count":
        return inst, {}, FULL, False
    if kind == "solve":
        return inst, {}, FULL, True
    if kind == "pinned":
        return inst, {(1, 1): 1, (4, 3): 0, (6, 6): 1}, FULL, True
    if kind == "max-solutions":
        return inst, {}, SearchBudget(max_solutions=int(cap)), True
    return inst, {}, SearchBudget(max_nodes=int(cap)), True  # max-nodes


def _record(name: str) -> tuple[str, int, int, bool]:
    inst, fixed, budget, collect = _parity_case(name)
    s = oracle._run(inst, budget, collect, fixed)
    return _digest(s.solutions), s.count, s.nodes, s.exhausted


def _image(rows: list[str]) -> BinaryImage:
    """An image from text rows, top row first, as it is drawn."""
    return BinaryImage(np.array([[int(ch) for ch in row] for row in reversed(rows)], dtype=np.uint8))


def _edge_case(name: str) -> tuple[Instance, dict[tuple[int, int], int]]:
    """(instance, pins) of a pre-elimination edge case."""
    if name == "pin 1 in zero row":  # row 1 sums to 0
        return make_exact_instance(_image(["1011", "0110", "1101", "0000"]), 2), {(2, 1): 1}
    if name == "pin 1 in zero block":  # the block at corner (3, 3) is exact 0
        return make_exact_instance(_image(["1100", "0100", "1011", "0110"]), 2), {(4, 4): 1}
    if name == "opposite bits 2x2":  # row 1 forces (1, 1) to 0, column 1 forces it to 1
        return Instance(2, 0, 2, 2, (0, 2), (2, 0), ((2,),), frozenset({(1, 1)})), {}
    if name == "opposite bits 4x4":
        inst = Instance(
            2, 0, 4, 4, (0, 2, 2, 2), (4, 2, 0, 0), ((2, 0), (4, 0)), frozenset({(1, 1), (3, 1), (1, 3), (3, 3)})
        )
        return inst, {}
    if name == "over a row after the sweep":  # full columns 1 and 2 put two ones in row 1
        inst = Instance(
            2, 0, 4, 4, (1, 3, 2, 2), (4, 4, 0, 0), ((4, 0), (4, 0)), frozenset({(1, 1), (3, 1), (1, 3), (3, 3)})
        )
        return inst, {}
    if name == "contradiction in the queue":
        # the sweep zeroes rows 1 and 3 and column 2; block (1, 1) then needs
        # cell (1, 2), which fills row 2, whose other cells block (3, 1) needs
        inst = Instance(2, 2, 4, 4, (0, 1, 0, 2), (1, 0, 1, 1), ((3, 1), (2, 1)), frozenset({(3, 1), (3, 3)}))
        return inst, {}
    if name.startswith("full row and block"):  # row 4 sums to m, the block at (1, 1) is exact k^2
        img = _image(["010101", "100110", "111111", "111010", "111100", "111011"])
        inst = dataclasses.replace(make_exact_instance(img, 3), epsilon=1, reliable=frozenset({(1, 1)}))
        return inst, ({(6, 6): 1} if name.endswith("pinned") else {})
    if name == "stripes":  # every row is full or empty, so pre-elimination decides every cell
        return make_exact_instance(_image(["1111", "0000", "1111", "1111"]), 2), {}
    if name == "stripes pinned against":
        return make_exact_instance(_image(["1111", "0000", "1111", "1111"]), 2), {(1, 3): 1}
    return single_block_instance(1, (1, 0), (0, 0)), {}  # sum mismatch


class TestParentParity:
    """The oracle's answers, pinned to the values recorded before pre-elimination became an array sweep.

    Each entry is (SHA-256 prefix of the solutions' bytes in order, count,
    nodes, exhausted) of `oracle._run` on a case of `_parity_case`.  The
    pre-elimination fixpoint does not depend on the order in which groups
    force, so every field, node counts included, must stay as recorded.
    """

    RECORDED = {
        "decide sat": ("2905aaf94c0b0378", 1, 151, False),
        "decide sat-all": ("fb5ad81c05bda10a", 2, 300, True),
        "decide unsat": ("e3b0c44298fc1c14", 0, 2, True),
        "embed FFFF": ("c8d6a61a35b8719b", 1, 1, True),
        "embed TTFT": ("2905aaf94c0b0378", 1, 1, True),
        "embed TTTT": ("e3b0c44298fc1c14", 0, 0, True),
        "embed FTFT": ("e3b0c44298fc1c14", 0, 0, True),
        "board-nodes 5": ("e3b0c44298fc1c14", 0, 6, False),
        "board-nodes 40": ("e3b0c44298fc1c14", 0, 41, False),
        "lifted 3": ("e3b0c44298fc1c14", 2, 300, True),
        "lifted 4": ("e3b0c44298fc1c14", 2, 300, True),
        "count 0": ("e3b0c44298fc1c14", 10, 92, True),
        "solve 0": ("4ad32565b8d14bf7", 10, 92, True),
        "pinned 0": ("e3b0c44298fc1c14", 0, 0, True),
        "max-solutions 0 3": ("a7450023771ccac3", 3, 34, False),
        "max-nodes 0 60": ("14487600de68a6ae", 5, 61, False),
        "count 1": ("e3b0c44298fc1c14", 858, 11862, True),
        "solve 1": ("e0d10f75a407ab81", 858, 11862, True),
        "pinned 1": ("c70829f15f33fac8", 1, 1, True),
        "max-solutions 1 3": ("0d633396f3457432", 3, 59, False),
        "max-nodes 1 60": ("0d633396f3457432", 3, 61, False),
        "count 2": ("e3b0c44298fc1c14", 7, 180, True),
        "solve 2": ("aed879fd105d4476", 7, 180, True),
        "pinned 2": ("a16506c72233cf24", 6, 109, True),
        "max-solutions 2 3": ("bc1bbed7996ed4e6", 3, 84, False),
        "max-nodes 2 60": ("380cf989d13e34b6", 2, 61, False),
        "count 3": ("e3b0c44298fc1c14", 84, 912, True),
        "solve 3": ("12f87bd3d3425db9", 84, 912, True),
        "pinned 3": ("e3b0c44298fc1c14", 0, 0, True),
        "max-solutions 3 3": ("c1406dd08fcb4181", 3, 47, False),
        "max-nodes 3 60": ("c1406dd08fcb4181", 3, 61, False),
        "count 4": ("e3b0c44298fc1c14", 360, 4854, True),
        "solve 4": ("884731dbf1351600", 360, 4854, True),
        "pinned 4": ("fe6da740ca681bdb", 46, 422, True),
        "max-solutions 4 3": ("2c283195b6ccd5f9", 3, 66, False),
        "max-nodes 4 60": ("45724ee765dc1a2b", 2, 61, False),
        "count 5": ("e3b0c44298fc1c14", 754, 9146, True),
        "solve 5": ("bee9b720eb0f5b8c", 754, 9146, True),
        "pinned 5": ("7d1b1cef29d5dfb7", 164, 2011, True),
        "max-solutions 5 3": ("8efe1d7479f75ac7", 3, 120, False),
        "max-nodes 5 60": ("e3b0c44298fc1c14", 0, 61, False),
    }

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_matches_record(self, name):
        assert _record(name) == self.RECORDED[name]


class TestPreeliminationEdgeCases:
    """Pre-elimination corner cases against `oracle_reference`, node counts against the record."""

    NODES = {
        "pin 1 in zero row": 0,
        "pin 1 in zero block": 0,
        "opposite bits 2x2": 0,
        "opposite bits 4x4": 0,
        "over a row after the sweep": 0,
        "contradiction in the queue": 0,
        "full row and block": 863,
        "full row and block pinned": 461,
        "stripes": 1,
        "stripes pinned against": 0,
        "sum mismatch": 0,
    }

    @pytest.mark.parametrize("name", sorted(NODES))
    def test_against_reference(self, name):
        inst, fixed = _edge_case(name)
        ref = reference_search(inst, 10**6, 10**6, fixed)
        got = oracle._run(inst, FULL, True, fixed)
        assert ref.exhausted
        assert _bits(got.solutions) == _bits(ref.solutions)
        assert (got.count, got.exhausted) == (ref.count, True)
        assert got.nodes == self.NODES[name]

    def test_stripes_decided_before_the_search(self):
        inst, _ = _edge_case("stripes")
        s = oracle._run(inst, FULL, True, {})
        assert s.undecided == [] and s.nodes == 1 and s.count == 1


class TestCountMemo:
    """Counting adds recorded subtrees instead of walking them, with the answers of the collecting search."""

    @staticmethod
    def _outcome(inst, fixed, max_solutions, max_nodes, collect):
        s = oracle._run(inst, SearchBudget(max_solutions, max_nodes), collect, fixed)
        return s.count, s.nodes, s.exhausted

    @pytest.mark.parametrize(
        "inst, fixed, total",
        [
            (_noisy6(3), {}, (84, 912)),
            (_noisy6(4), {(1, 1): 1, (4, 3): 0, (6, 6): 1}, (46, 422)),
        ],
        ids=["noisy 3", "noisy 4 pinned"],
    )
    def test_caps_land_inside_recorded_subtrees(self, inst, fixed, total):
        """Every node cap and every solution cap, and both near where one takes over from the other.

        A run stops at whichever cap it reaches first, so these are all the
        distinct places a run can stop; the whole cross product takes 0.7 s
        for the first case and 0.2 s for the second on one core of an AMD EPYC.
        """
        solutions, nodes = total
        assert self._outcome(inst, fixed, 10**6, 10**6, False) == (solutions, nodes, True)
        caps = [(10**6, mn) for mn in range(1, nodes + 2)]
        for ms in range(1, solutions + 2):
            caps.append((ms, 10**6))
            at = oracle._run(inst, SearchBudget(ms), True, fixed).nodes  # the node of the ms-th solution
            caps += [(ms, mn) for mn in (at - 1, at, at + 1) if mn >= 1]
        for ms, mn in caps:
            assert self._outcome(inst, fixed, ms, mn, False) == self._outcome(inst, fixed, ms, mn, True), (ms, mn)

    def test_recorded_subtrees_are_not_walked_again(self, monkeypatch):
        calls = [0]
        propagate = oracle._Search._propagate

        def counted(self, queue):
            calls[0] += 1
            return propagate(self, queue)

        monkeypatch.setattr(oracle._Search, "_propagate", counted)
        inst, outcomes, walked = _noisy6(1), [], []
        for collect in (True, False):
            calls[0] = 0
            outcomes.append(self._outcome(inst, {}, 10**6, 10**6, collect))
            walked.append(calls[0])
        assert outcomes[0] == outcomes[1] == (858, 11862, True)
        # exact: a state that merges fewer vertices walks more subtrees again
        assert walked == [1835, 315]


class TestPinnedOutcomes:
    """The oracle's answers on a fixed sweep, pinned to one digest recorded before the search kept rooms.

    The digest covers (count, nodes, exhausted) of counting runs under
    several node caps, and the solutions in order, with ``exhausted``, of
    `oracle_solve` and of `constrained_solve` with pins.  The sweep runs
    on seeded 6x6 k = 2 instances at epsilon 1 and 2, a k = 3 epsilon = 1
    instance, a k = 4 lift of a noisy instance and the 4-variable gadget
    boards.  Any change to what the oracle answers, or to how many nodes
    it visits, changes the digest.
    """

    DIGEST = "59a0522f193de0dd"

    @staticmethod
    def _sweep() -> str:
        pins = {(1, 1): 1, (4, 3): 0, (6, 6): 1}
        cases = [(_noisy6(seed, 2, eps), pins) for eps in (1, 2) for seed in range(6)]
        cases += [(_noisy6(7, 3), pins), (lift_instance(_noisy6(3), 4), pins)]
        for formula in (SAT, UNSAT):
            board = gen_sat_instance(formula)
            cases += [(board, _chip_pins(formula, a)) for a in ((True, True, False, True), (False,) * 4)]
        h = hashlib.sha256()
        for inst, fixed in cases:
            for cap in (50, 500, 5000, 10**6):
                s = oracle._run(inst, SearchBudget(max_nodes=cap), False, {})
                h.update(repr((s.count, s.nodes, s.exhausted)).encode())
            for sols, exhausted in (oracle_solve(inst), constrained_solve(inst, fixed)):
                h.update(repr((len(sols), exhausted, _digest(sols))).encode())
        return h.hexdigest()[:16]

    def test_matches_record(self):
        assert self._sweep() == self.DIGEST
