"""Gadget boards for 1-in-3 satisfiability and the block-size lifting."""

import dataclasses
import itertools
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drtomo import hardness
from drtomo.formats import FormatError, write_instance
from drtomo.hardness import (
    BoardSpec,
    OneInThreeInstance,
    build_board,
    embed_assignment,
    extract_assignment,
    gen_sat_instance,
    lift_instance,
    parse_sat,
    write_sat,
)
from drtomo.model import (
    BinaryImage,
    make_exact_instance,
    random_image,
    validate_instance,
    verify_solution,
)
from drtomo.oracle import SearchBudget, constrained_solve, oracle_count, oracle_solve

import hardness_reference
from conftest import single_block_instance

DEMO_SAT = OneInThreeInstance(num_vars=4, clauses=((1, -2, 3),))


@pytest.fixture(scope="module")
def demo_board():
    spec = build_board(DEMO_SAT)
    inst = gen_sat_instance(DEMO_SAT)
    return spec, inst


class TestOneInThree:
    def test_validation(self):
        with pytest.raises(ValueError):
            OneInThreeInstance(0, ())
        with pytest.raises(ValueError):
            OneInThreeInstance(3, ((1, 2),))
        with pytest.raises(ValueError):
            OneInThreeInstance(3, ((1, 2, 4),))
        with pytest.raises(ValueError):
            OneInThreeInstance(3, ((1, -1, 2),))

    def test_formula_without_clause_has_no_board(self):
        """Its initializer and first connector would claim the same blocks."""
        sat = OneInThreeInstance(3, ())
        with pytest.raises(ValueError, match="no clause"):
            build_board(sat)
        with pytest.raises(ValueError, match="no clause"):
            gen_sat_instance(sat)

    def test_satisfied_by(self):
        sat = OneInThreeInstance(3, ((1, 2, 3),))
        assert sat.satisfied_by((True, False, False))
        assert not sat.satisfied_by((True, True, False))
        assert not sat.satisfied_by((False, False, False))

    def test_literal_sets(self):
        assert DEMO_SAT.unnegated(1) == {1, 3}
        assert DEMO_SAT.negated(1) == {2}

    def test_sat_text_round_trip(self):
        sat = OneInThreeInstance(5, ((1, -2, 3), (-4, 5, 1)))
        assert parse_sat(write_sat(sat)) == sat

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_sat("1 2 3\n")  # no header
        with pytest.raises(ValueError):
            parse_sat("p 1in3 3 2\n1 2 3\n")  # clause count off
        with pytest.raises(ValueError):
            parse_sat("p cnf 3 1\n1 2 3\n")

    def test_parse_skips_comment_lines(self):
        sat = parse_sat("c header comment\np 1in3 3 1\n1 -2 3\n")
        assert sat.clauses == ((1, -2, 3),)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("p 1in3 1_0 1\n1 2 3\n", 1),  # int() reads 10
            ("p 1in3 3 1\n1 2 \u0663\n", 2),  # Arabic-Indic three
            ("p 1in3 3 1\n1 2 \uff14\n", 2),  # fullwidth four
            ("p 1in3 x 1\n1 2 3\n", 1),
            ("p 1in3 3 1\n1 two 3\n", 2),
            ("p 1in3 3 1\np 1in3 3 1\n1 2 3\n", 2),  # repeated header
            ("p 1in3 3 2\n1 2 3\np 1in3 3 1\n", 3),
        ],
    )
    def test_malformed_numbers_and_headers_name_their_line(self, text, line):
        with pytest.raises(FormatError, match=f"^line {line}: "):
            parse_sat(text)

    def test_signed_and_zero_padded_numbers_accepted(self):
        sat = parse_sat("p 1in3 +3 01\n+1 -2 03\n")
        assert sat == OneInThreeInstance(3, ((1, -2, 3),))


class TestBuildBoard:
    def test_single_clause_four_vars_side(self):
        spec, _ = build_board(DEMO_SAT), None
        assert spec.side == 34
        assert spec.anchors == (1, 27)

    def test_anchor_formula(self):
        sat = OneInThreeInstance(3, ((1, 2, 3), (-1, -2, -3), (1, -2, 3)))
        spec = build_board(sat)
        assert spec.anchors == (1, 21, 41, 61)
        assert spec.side == 3 * 20 + 6

    def test_components_inside_board(self, demo_board):
        spec, _ = demo_board
        for x, y in spec.candidate_cells:
            assert 1 <= x <= spec.side and 1 <= y <= spec.side

    def test_chips_disjoint(self, demo_board):
        spec, _ = demo_board
        boxes = (
            list(spec.init_chips.values())
            + list(spec.connector_chips.values())
            + list(spec.vcollector_chips.values())
            + list(spec.hcollector_chips.values())
        )
        covered = set()
        for x, y in boxes:
            cells = {(x + dx, y + dy) for dx in (0, 1) for dy in (0, 1)}
            assert not cells & covered
            covered |= cells


class TestGenSatInstance:
    def test_block_and_unreliable_counts(self, demo_board):
        _, inst = demo_board
        S, T = 1, 4
        assert (inst.m, inst.n) == (34, 34)
        assert len(list(inst.corners())) == (S * (3 * T + 1) + T) ** 2 == 289
        unreliable = [c for c in inst.corners() if not inst.is_reliable(*c)]
        assert len(unreliable) == S * (6 * T + 3) + T == 31
        assert all(inst.value(*c) == 1 for c in unreliable)

    def test_instance_is_structurally_valid(self, demo_board):
        _, inst = demo_board
        assert validate_instance(inst) == []

    def test_verifier_sums(self, demo_board):
        _, inst = demo_board
        a, T = 1, 4
        assert inst.row_sums[a + 6 * T - 1] == 1
        assert inst.row_sums[a + 6 * T] == 0
        assert inst.col_sums[a + 2 * T] == 1
        assert inst.col_sums[a + 2 * T - 1] == 0

    def test_connector_sums_alternate(self, demo_board):
        _, inst = demo_board
        for a in (1, 27):
            for l in range(8):
                want = 3 if l % 2 == 0 else 1
                assert inst.row_sums[a + l - 1] == want
                assert inst.col_sums[a + l - 1] == want

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            gen_sat_instance(DEMO_SAT, epsilon=0)
        with pytest.warns(UserWarning):
            gen_sat_instance(DEMO_SAT, epsilon=3)


class TestEmbedExtract:
    def test_known_satisfying_assignment(self, demo_board):
        spec, inst = demo_board
        img = embed_assignment(spec, inst, (True, True, False, False))
        assert img is not None
        assert verify_solution(inst, img).satisfied
        assert extract_assignment(spec, img) == (True, True, False, False)

    def test_two_true_literals_rejected(self, demo_board):
        spec, inst = demo_board
        assert embed_assignment(spec, inst, (True, True, True, True)) is None

    def test_embeddable_iff_satisfying(self, demo_board):
        spec, inst = demo_board
        images = {}
        for bits in itertools.product((False, True), repeat=4):
            img = embed_assignment(spec, inst, bits)
            if DEMO_SAT.satisfied_by(bits):
                assert img is not None
                assert extract_assignment(spec, img) == bits
                images[bits] = img
            else:
                assert img is None
        assert len(images) == 6
        assert len(set(images.values())) == 6  # pairwise distinct

    def test_arity_mismatch(self, demo_board):
        spec, inst = demo_board
        with pytest.raises(ValueError):
            embed_assignment(spec, inst, (True,))

    def test_tampered_chip_rejected(self, demo_board):
        spec, inst = demo_board
        img = embed_assignment(spec, inst, (True, True, False, False))
        a = img.mutable()
        x, y = spec.init_chips[1]
        a[y - 1 : y + 1, x - 1 : x + 1] = 0
        a[y - 1, x - 1] = a[y, x] = 1  # force a diagonal pattern
        with pytest.raises(ValueError):
            extract_assignment(spec, BinaryImage(a))

    def test_pins_only_the_initializer_chips(self, demo_board, monkeypatch):
        spec, inst = demo_board
        pinned = []

        def spy(inst, fixed, budget):
            pinned.append(dict(fixed))
            return constrained_solve(inst, fixed, budget)

        monkeypatch.setattr(hardness, "constrained_solve", spy)
        embed_assignment(spec, inst, (True, True, False, False))
        chips = {
            (x + dx, y + dy) for x, y in spec.init_chips.values() for dx in (0, 1) for dy in (0, 1)
        }
        assert len(pinned) == 1 and set(pinned[0]) == chips
        x, y = spec.init_chips[1]  # True: ones in the bottom row
        assert [pinned[0][(x + dx, y + dy)] for dy in (0, 1) for dx in (0, 1)] == [1, 1, 0, 0]
        x, y = spec.init_chips[3]  # False: ones in the left column
        assert [pinned[0][(x + dx, y + dy)] for dy in (0, 1) for dx in (0, 1)] == [1, 0, 1, 0]

    @pytest.mark.parametrize("pad", [(0, 6), (6, 0), (2, 2)])
    def test_image_of_another_size_rejected(self, demo_board, pad):
        spec, inst = demo_board
        img = embed_assignment(spec, inst, (True, True, False, False))
        padded = BinaryImage(np.pad(img.a, ((0, pad[0]), (0, pad[1]))))
        with pytest.raises(ValueError, match="34x34"):
            extract_assignment(spec, padded)


def _boards():
    """Seeded formulas with T 3-6 variables and S 1-3 clauses, boards at eps 1-3."""
    rng = random.Random(9)
    for T in range(3, 7):
        for S in range(1, 4):
            clauses = []
            for _ in range(S):
                chosen = rng.sample(range(1, T + 1), 3)
                clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
            sat = OneInThreeInstance(T, tuple(clauses))
            for eps in (1, 2, 3):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    yield build_board(sat), gen_sat_instance(sat, eps)


class TestBoardFacts:
    """What the board encoding and the embedding rely on, on many boards."""

    @pytest.fixture(scope="class")
    def boards(self):
        return list(_boards())

    def test_cells_outside_candidates_are_forced_zero(self, boards):
        # each lies in a zero row, a zero column or an exact block of value 0,
        # so pre-elimination zeroes it before the search branches
        for spec, inst in boards:
            N = spec.side
            zero_row = np.array(inst.row_sums) == 0
            zero_col = np.array(inst.col_sums) == 0
            zero_block = (inst._grid == 0) & inst._reliable_grid
            forced = (
                zero_row[:, None]
                | zero_col[None, :]
                | np.kron(zero_block, np.ones((2, 2), dtype=bool))
            )  # [q - 1, p - 1]
            candidate = np.zeros((N, N), dtype=bool)
            for p, q in spec.candidate_cells:
                candidate[q - 1, p - 1] = True
            assert forced[~candidate].all(), (spec.sat, inst.epsilon)

    def test_unreliable_exactly_at_value_one(self, boards):
        for spec, inst in boards:
            for i, j in inst.corners():
                assert inst.is_reliable(i, j) == (inst.value(i, j) != 1), (spec.sat, (i, j))
            assert set(np.unique(inst._grid)) <= {0, 1, 2}


@st.composite
def _drawn_formulas(draw, max_vars: int = 8, max_clauses: int = 5) -> OneInThreeInstance:
    """A formula of 1 to max_clauses clauses over 3 to max_vars variables."""
    T = draw(st.integers(3, max_vars))
    clause = st.tuples(
        st.permutations(range(1, T + 1)).map(lambda vs: vs[:3]),
        st.tuples(*[st.sampled_from((1, -1))] * 3),
    ).map(lambda c: tuple(sign * v for v, sign in zip(*c)))
    return OneInThreeInstance(T, tuple(draw(st.lists(clause, min_size=1, max_size=max_clauses))))


class TestMatchesClaimWalk:
    """Block values read off the component positions equal the claim walk of `hardness_reference`."""

    @staticmethod
    def _assert_matches(sat: OneInThreeInstance) -> None:
        for eps in (1, 2):
            got, want = gen_sat_instance(sat, eps), hardness_reference.gen_sat_instance(sat, eps)
            assert got == want, (sat, eps)
            assert write_instance(got) == write_instance(want), (sat, eps)

    def test_every_formula_up_to_four_variables_and_two_clauses(self):
        formulas = [sat for T in (3, 4) for S in (1, 2) for sat in _formulas(T, S)]
        assert len(formulas) == 604
        for sat in formulas:
            self._assert_matches(sat)

    @settings(max_examples=50, deadline=None)
    @given(_drawn_formulas())
    def test_drawn_formulas(self, sat):
        self._assert_matches(sat)

    def test_config_point_moved_into_a_connector_block_conflicts(self):
        spec = build_board(DEMO_SAT)
        x, y = spec.connector_chips[(1, 1)]
        points = dict(spec.config_points)
        points[(1, 1)] = frozenset(sorted(points[(1, 1)])[1:]) | {(x + 1, y + 1)}
        moved = dataclasses.replace(spec, config_points=points)
        with pytest.raises(AssertionError, match=rf"^conflicting block constraint at \({x},{y}\)$"):
            hardness._board_constraints(moved)


class TestLiftInstance:
    def test_identity_at_two(self):
        inst = single_block_instance(2, (1, 1), (2, 0))
        assert lift_instance(inst, 2) == inst

    def test_single_block_to_four(self):
        inst = single_block_instance(2, (1, 1), (2, 0))
        lifted = lift_instance(inst, 4)
        assert (lifted.k, lifted.m, lifted.n) == (4, 4, 4)
        assert lifted.row_sums == (1, 1, 0, 0)
        assert lifted.col_sums == (2, 0, 0, 0)
        assert lifted.blocks == ((2,),)
        assert lifted.reliable == frozenset({(1, 1)})

    def test_requires_block_size_two(self):
        inst = single_block_instance(2, (1, 1), (2, 0))
        with pytest.raises(ValueError):
            lift_instance(lift_instance(inst, 4), 6)

    def test_odd_target_with_even_dimensions(self):
        inst = make_exact_instance(random_image(4, 4, 0.5, 0), 2)
        lifted = lift_instance(inst, 3)
        assert (lifted.m, lifted.n) == (6, 6)
        assert validate_instance(lifted) in ([],) or all(
            e.kind == "sum-mismatch" for e in validate_instance(lifted)
        )

    def test_feasibility_preserved_small(self):
        budget = SearchBudget(max_solutions=1, max_nodes=2_000_000)
        for seed in range(10):
            inst = make_exact_instance(random_image(4, 4, 0.5, seed), 2)
            for k_prime in (4, 6):
                lifted = lift_instance(inst, k_prime)
                sols, exhausted = oracle_solve(lifted, budget)
                assert exhausted or sols
                assert bool(sols)  # original is feasible by construction

    def test_infeasibility_preserved_small(self):
        budget = SearchBudget(max_solutions=1, max_nodes=2_000_000)
        inst = single_block_instance(0, (1, 1), (1, 1))
        for k_prime in (4, 6):
            sols, exhausted = oracle_solve(lift_instance(inst, k_prime), budget)
            assert exhausted and not sols


def _formulas(T: int, S: int):
    """Every formula of S clauses over T variables, up to the order of its clauses and literals."""
    clauses = [
        tuple(sign * v for sign, v in zip(signs, chosen))
        for chosen in itertools.combinations(range(1, T + 1), 3)
        for signs in itertools.product((1, -1), repeat=3)
    ]
    for picked in itertools.combinations_with_replacement(clauses, S):
        yield OneInThreeInstance(T, picked)


def _satisfying(sat: OneInThreeInstance) -> list[tuple[bool, ...]]:
    """The satisfying 1-in-3 assignments, in ascending order."""
    return [a for a in itertools.product((False, True), repeat=sat.num_vars) if sat.satisfied_by(a)]


FEW = [
    OneInThreeInstance(3, ((1, 2, 3),)),
    DEMO_SAT,
    OneInThreeInstance(4, ((1, -2, 3), (2, 3, -4))),
    OneInThreeInstance(4, ((1, 2, 3), (-1, -2, -3))),
    OneInThreeInstance(5, ((1, 2, 3), (-3, 4, 5))),
    OneInThreeInstance(6, ((1, 2, 3), (4, 5, -6))),
]


class TestParsimony:
    """A board has exactly one solution per satisfying 1-in-3 assignment (measured; see `hardness`)."""

    def test_every_formula_up_to_four_variables_and_two_clauses(self):
        boards = 0
        for T in (3, 4):
            for S in (1, 2):
                for sat in _formulas(T, S):
                    assert oracle_count(gen_sat_instance(sat)) == (len(_satisfying(sat)), True), sat
                    boards += 1
        assert boards == 8 + 36 + 32 + 528

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_larger_formulas(self, data):
        T = data.draw(st.integers(5, 8))
        clauses = data.draw(
            st.lists(
                st.tuples(
                    st.permutations(range(1, T + 1)).map(lambda vs: vs[:3]),
                    st.tuples(*[st.sampled_from((1, -1))] * 3),
                ).map(lambda c: tuple(sign * v for v, sign in zip(*c))),
                min_size=2,
                max_size=4,
            )
        )
        sat = OneInThreeInstance(T, tuple(clauses))
        assert oracle_count(gen_sat_instance(sat)) == (len(_satisfying(sat)), True)

    @pytest.mark.parametrize("sat", FEW, ids=str)
    def test_wider_windows_and_larger_blocks(self, sat):
        want = (len(_satisfying(sat)), True)
        assert oracle_count(gen_sat_instance(sat, 2)) == want
        with pytest.warns(UserWarning, match="epsilon >= 3"):
            assert oracle_count(gen_sat_instance(sat, 3)) == want
        for k in (3, 4):
            assert oracle_count(lift_instance(gen_sat_instance(sat), k)) == want

    @pytest.mark.parametrize("sat", FEW, ids=str)
    def test_extract_maps_solutions_one_to_one_onto_assignments(self, sat):
        spec = build_board(sat)
        sols, exhausted = oracle_solve(gen_sat_instance(sat))
        assert exhausted
        assert sorted(extract_assignment(spec, img) for img in sols) == _satisfying(sat)


def test_layout_cache_keeps_every_parsimony_shape():
    """Each board shape of the TestParsimony sweep builds its oracle layout once."""
    from drtomo import oracle

    sizes = [(3, 1), (3, 2), (4, 1), (4, 2)] + [(T, S) for T in range(5, 9) for S in range(2, 5)]
    boards = [gen_sat_instance(next(_formulas(T, S))) for T, S in sizes]
    boards += [lift_instance(gen_sat_instance(sat), k) for sat in FEW for k in (3, 4)]
    shapes = {(b.k, b.m, b.n) for b in boards}
    assert len(shapes) == 26
    oracle._layout.cache_clear()
    budget = SearchBudget(max_nodes=1)
    for _ in range(2):
        for board in boards:
            oracle_count(board, budget)
    info = oracle._layout.cache_info()
    assert (info.misses, info.currsize) == (len(shapes), len(shapes))
