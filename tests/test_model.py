"""Core types: validation, verification, block taxonomy, degradation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import format_reference as ref
from oracle_reference import reference_search

from drtomo.formats import FormatError, parse_instance, write_instance
from drtomo.hardness import OneInThreeInstance, gen_sat_instance, lift_instance
from drtomo.model import (
    BinaryImage,
    BlockType,
    Instance,
    classify_block,
    degrade,
    make_exact_instance,
    perturb_instance,
    random_image,
    validate_instance,
    verify_solution,
)
from drtomo.oracle import oracle_count, oracle_solve
from drtomo.solver import check_unique, properize, solve_dr

from conftest import single_block_instance


def zero_instance(m=2, n=2):
    return Instance(
        k=2,
        epsilon=0,
        m=m,
        n=n,
        row_sums=(0,) * n,
        col_sums=(0,) * m,
        blocks=tuple((0,) * (m // 2) for _ in range(n // 2)),
        reliable=frozenset((2 * bu + 1, 2 * bv + 1) for bv in range(n // 2) for bu in range(m // 2)),
    )


class TestBinaryImage:
    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BinaryImage(np.array([[0, 2]]))

    def test_cartesian_addressing(self):
        img = BinaryImage.from_ones(3, 2, [(1, 1), (3, 2)])
        assert img.get(1, 1) == 1
        assert img.get(3, 2) == 1
        assert img.get(1, 2) == 0
        assert img.row_sums() == [1, 1]
        assert img.col_sums() == [1, 0, 1]

    def test_immutable(self):
        img = BinaryImage.zeros(2, 2)
        with pytest.raises(ValueError):
            img.a[0, 0] = 1

    def test_equality_and_hash(self):
        a = BinaryImage.from_ones(2, 2, [(1, 1)])
        b = BinaryImage.from_ones(2, 2, [(1, 1)])
        c = BinaryImage.from_ones(2, 2, [(2, 2)])
        assert a == b and hash(a) == hash(b)
        assert a != c

    @pytest.mark.parametrize("cell", [(0, 1), (1, 0), (5, 1), (-1, 2)])
    def test_cells_outside_the_grid_raise(self, cell):
        """A 1-based index at 0 or below would wrap around to the far edge."""
        img = BinaryImage.from_ones(4, 4, [(4, 4), (4, 1)])
        with pytest.raises(ValueError, match=r"not a cell of a 4x4 grid"):
            BinaryImage.from_ones(4, 4, [cell])
        with pytest.raises(ValueError, match=r"not a cell of a 4x4 grid"):
            img.get(*cell)
        with pytest.raises(ValueError, match=r"not a cell of a 4x4 grid"):
            img.block_sum(*cell, 2)

    def test_block_sum_box_must_lie_in_the_image(self):
        img = BinaryImage(np.ones((4, 4), dtype=np.uint8))
        assert img.block_sum(3, 3, 2) == 4
        with pytest.raises(ValueError):
            img.block_sum(4, 3, 2)


class TestValidateInstance:
    def test_zero_instance_valid(self):
        assert validate_instance(zero_instance()) == []

    def test_sum_mismatch_is_distinct_kind(self):
        inst = single_block_instance(0, (1, 0), (0, 0))
        errs = validate_instance(inst)
        assert [e.kind for e in errs] == ["sum-mismatch"]

    def test_dimension_error_for_non_multiple(self):
        inst = Instance(
            k=2, epsilon=0, m=3, n=2, row_sums=(0, 0), col_sums=(0, 0, 0),
            blocks=((0,),), reliable=frozenset(),
        )
        assert any(e.kind == "dimension" for e in validate_instance(inst))

    def test_value_range_checks(self):
        # a block value outside [0, k^2] is rejected at construction
        with pytest.raises(ValueError, match=r"block values must be integers in \[0, 4\]"):
            single_block_instance(5, (0, 0), (0, 0))
        inst = Instance(
            k=2, epsilon=0, m=2, n=2, row_sums=(3, 0), col_sums=(2, 1),
            blocks=((3,),), reliable=frozenset({(1, 1)}),
        )
        assert any("row sum" in e.message for e in validate_instance(inst))

    def test_epsilon_zero_needs_full_reliability(self):
        inst = Instance(
            k=2, epsilon=0, m=2, n=2, row_sums=(0, 0), col_sums=(0, 0),
            blocks=((0,),), reliable=frozenset(),
        )
        assert any(e.kind == "reliability" for e in validate_instance(inst))

    def test_non_corner_reliable_point(self):
        # rejected at construction, so validate_instance never sees one
        with pytest.raises(ValueError, match="non-corner points"):
            Instance(
                k=2, epsilon=1, m=2, n=2, row_sums=(0, 0), col_sums=(0, 0),
                blocks=((0,),), reliable=frozenset({(2, 2)}),
            )


class TestWellFormedRule:
    """A sum mismatch is a verdict; every other validate_instance finding is an error, worded alike by every caller."""

    def test_every_caller_raises_the_same_findings(self):
        # r_1 = 3 is out of range on a 2x2 grid, and the line totals disagree as well
        exact = single_block_instance(1, (3, 0), (2, 0))
        noisy = single_block_instance(1, (3, 0), (2, 0), epsilon=1)
        want = "value: row sum r_1=3 outside [0, 2]"
        with pytest.raises(FormatError) as err:
            parse_instance(write_instance(noisy))
        assert str(err.value) == want
        calls = [
            lambda: solve_dr(exact), lambda: check_unique(exact), lambda: oracle_solve(noisy),
            lambda: oracle_count(noisy), lambda: perturb_instance(noisy, 0.5, seed=0), lambda: lift_instance(noisy, 4),
        ]
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert type(err.value) is ValueError and str(err.value) == want

    def test_a_sum_mismatch_alone_is_a_verdict(self):
        exact = single_block_instance(1, (1, 0), (0, 0))
        noisy = single_block_instance(1, (1, 0), (0, 0), epsilon=1)
        assert parse_instance(write_instance(noisy)) == noisy
        assert solve_dr(exact) is None and check_unique(exact) is None
        assert oracle_solve(noisy) == ([], True) and oracle_count(noisy) == (0, True)
        assert perturb_instance(noisy, 1, seed=0).row_sums == (1, 0)
        assert lift_instance(noisy, 4).row_sums == (1, 0, 0, 0)


class TestInstanceConstruction:
    """The tuple constructor takes only a grid of integers in [0, k^2] and corners of that grid."""

    def test_ragged_grid(self):
        with pytest.raises(ValueError, match="ragged"):
            dataclasses.replace(zero_instance(4, 4), blocks=((0, 0), (0,)))

    # the points rough_fields draws that are no corner of a 2x2 grid of 2x2 blocks
    @pytest.mark.parametrize("point", [(2, 2), (0, 1), (1.0, 1), (1, 1, 1), "ab", (5, 1)])
    def test_non_corner_points(self, point):
        base = zero_instance(4, 4)
        for reliable in (frozenset({point}), base.reliable - {(1, 1)} | {point}):
            with pytest.raises(ValueError, match="non-corner points"):
                dataclasses.replace(base, epsilon=1, reliable=reliable)

    @pytest.mark.parametrize("value", [-1, 5, 2**70, 0.5])
    def test_block_values_outside_zero_to_k_squared(self, value):
        with pytest.raises(ValueError, match=r"integers in \[0, 4\]"):
            dataclasses.replace(zero_instance(4, 4), blocks=((0, 0), (value, 0)))

    @pytest.mark.parametrize("blocks", [(), ((),), ((), ())])
    def test_empty_grid_is_accepted(self, blocks):
        inst = Instance(k=2, epsilon=0, m=0, n=2 * len(blocks), row_sums=(), col_sums=(), blocks=blocks,
                        reliable=frozenset())
        assert inst._grid.shape == inst._reliable_grid.shape == (len(blocks), 0)
        assert inst._grid.dtype == np.uint8 and inst._reliable_grid.dtype == bool
        assert validate_instance(inst) == ref.validate_instance(inst)
        assert [e.kind for e in validate_instance(inst)] == ["dimension"]


HUGE = 10**20


@st.composite
def rough_fields(draw):
    """Constructor fields that break each rule of validate_instance, and of construction, now and then."""
    def rarely(options, usual):
        return draw(st.sampled_from([usual] * 9 + options))

    k = rarely([1, 0, -1, 3], 2)
    bw, bh = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    m, n = max(k, 1) * bw + rarely([1, -1, -bw * max(k, 1)], 0), max(k, 1) * bh + rarely([1], 0)
    epsilon = draw(st.sampled_from([0, 0, 1, 2, -1]))
    kk = k * k

    def values(top, count):
        out = draw(st.lists(st.integers(0, top), min_size=count, max_size=count))
        if out and draw(st.integers(0, 4)) == 0:
            out[draw(st.integers(0, count - 1))] = draw(st.sampled_from([-1, top + 1, HUGE, -HUGE]))
        return out

    bw, bh = max(bw + rarely([1, -1], 0), 0), bh + rarely([1], 0)  # now and then a grid one off
    # one bad value in a whole grid now and then, as in a line-sum sequence
    blocks = values(kk, bw * bh)
    blocks = [blocks[bv * bw : (bv + 1) * bw] for bv in range(bh)]
    if draw(st.integers(0, 9)) == 0:
        blocks[0].append(0)  # ragged
    corners = [(k * bu + 1, k * bv + 1) for bv in range(bh) for bu in range(bw)]
    reliable = set(corners)
    if corners and draw(st.integers(0, 3)) == 0:
        reliable = draw(st.sets(st.sampled_from(corners)))
    if draw(st.integers(0, 3)) == 0:
        reliable.add(draw(st.sampled_from([(2, 2), (0, 1), (1.0, 1), (1, 1, 1), "ab", (m + 1, 1)])))
    return dict(
        k=k,
        epsilon=epsilon,
        m=m,
        n=n,
        row_sums=tuple(values(max(m, 0), max(n + rarely([1, -1], 0), 0))),
        col_sums=tuple(values(max(n, 0), max(m + rarely([1], 0), 0))),
        blocks=tuple(map(tuple, blocks)),
        reliable=frozenset(reliable),
    )


def construction_fault(fields: dict) -> bool:
    """Whether the tuple constructor rejects the fields: a ragged grid, a
    block value outside [0, k^2], or a reliable point that is not a corner
    (k*bu + 1, k*bv + 1) of the grid with integer coordinates."""
    k, blocks = fields["k"], fields["blocks"]
    if len({len(row) for row in blocks}) > 1:
        return True
    if not all(0 <= v <= k * k for row in blocks for v in row):
        return True
    corners = {(k * bu + 1, k * bv + 1) for bv in range(len(blocks)) for bu in range(len(blocks[0]) if blocks else 0)}
    return any(p not in corners or {type(x) for x in p} != {int} for p in fields["reliable"])


class TestCorners:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("bw, bh", [(0, 2), (2, 0), (1, 1), (3, 2), (2, 5)])
    def test_row_major_from_the_bottom(self, k, bw, bh):
        inst = dataclasses.replace(zero_instance(), k=k, m=k * bw, n=k * bh)
        want = [(k * bu + 1, k * bv + 1) for bv in range(bh) for bu in range(bw)]
        assert list(inst.corners()) == want


class TestValidateAgainstReference:
    @settings(max_examples=1000, deadline=None)
    @given(rough_fields())
    def test_same_findings_in_the_same_order(self, fields):
        if construction_fault(fields):
            with pytest.raises(ValueError):
                Instance(**fields)
        else:
            inst = Instance(**fields)
            assert validate_instance(inst) == ref.validate_instance(inst)

    def test_every_kind_on_fixed_instances(self):
        kinds = set()
        base = zero_instance(4, 4)
        cases = [
            dataclasses.replace(base, k=1, reliable=frozenset()),  # the corners move with k
            dataclasses.replace(base, m=3),
            dataclasses.replace(base, row_sums=(0, 0, 0)),
            dataclasses.replace(base, blocks=((0, 0),), reliable=frozenset({(1, 1), (3, 1)})),
            dataclasses.replace(base, row_sums=(5, -1, 0, HUGE)),
            dataclasses.replace(base, reliable=base.reliable - {(1, 1)}),
            dataclasses.replace(base, row_sums=(1, 0, 0, 0)),
        ]
        for inst in cases:
            errs = validate_instance(inst)
            assert errs == ref.validate_instance(inst)
            kinds |= {e.kind for e in errs}
        assert kinds == {"dimension", "shape", "value", "reliability", "sum-mismatch"}
        # a ragged grid, block values outside [0, 4] and a non-corner point never reach validation
        for changes in (
            {"blocks": ((0, 0), (0,))}, {"blocks": ((0, 5), (-1, 4))}, {"reliable": base.reliable | {(2, 2)}}
        ):
            with pytest.raises(ValueError):
                dataclasses.replace(base, **changes)


class TestVerifySolution:
    def test_zero_against_zero(self):
        report = verify_solution(zero_instance(), BinaryImage.zeros(2, 2))
        assert report.satisfied

    def test_one_extra_one_hits_each_category_once(self):
        inst = zero_instance(4, 4)
        img = BinaryImage.from_ones(4, 4, [(2, 3)])
        report = verify_solution(inst, img)
        assert len(report.row_violations) == 1
        assert len(report.col_violations) == 1
        assert len(report.block_violations) == 1
        assert report.row_violations[0] == (3, 0, 1)
        assert report.col_violations[0] == (2, 0, 1)
        assert report.block_violations[0][0] == (1, 3)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            verify_solution(zero_instance(), BinaryImage.zeros(4, 4))

    def test_noisy_window(self):
        inst = single_block_instance(1, (2, 0), (1, 1), epsilon=1)
        two = BinaryImage.from_ones(2, 2, [(1, 1), (2, 1)])
        report = verify_solution(inst, two)
        assert report.satisfied  # block sum 2 sits inside [0, 2]
        exact = single_block_instance(1, (2, 0), (1, 1), epsilon=0)
        report = verify_solution(exact, two)
        assert report.block_violations and not report.row_violations

    def test_reliable_blocks_stay_exact_under_noise(self):
        # eps = 1: the unreliable right block may hold 0..2 ones, the reliable
        # left block exactly its value 1
        inst = Instance(
            k=2, epsilon=1, m=4, n=2, row_sums=(2, 0), col_sums=(1, 0, 1, 0),
            blocks=((1, 1),), reliable=frozenset({(1, 1)}),
        )
        assert verify_solution(inst, BinaryImage.from_ones(4, 2, [(1, 1), (3, 1)])).satisfied
        report = verify_solution(inst, BinaryImage.from_ones(4, 2, [(3, 1), (4, 1)]))
        assert report.block_violations == [((1, 1), 1, (1, 1), 0)]


class TestBlockSumsAgainstLoops:
    """Block sums and strip counts, against plain loops over blocks and strips."""

    @pytest.mark.parametrize("k, bw, bh", [(2, 5, 3), (3, 2, 7), (5, 4, 1), (5, 1, 3)])
    def test_block_sums_reach_every_report(self, k, bw, bh):
        img = random_image(k * bw, k * bh, 0.45, k * bw + bh)
        want = [[img.block_sum(k * bu + 1, k * bv + 1, k) for bu in range(bw)] for bv in range(bh)]
        assert degrade(img, k).values == tuple(map(tuple, want))
        inst = make_exact_instance(img, k)
        assert inst.blocks == tuple(map(tuple, want))
        assert inst._grid.dtype == np.uint8
        # every block off by one: each is reported with the sum the loop found
        blocks = tuple(tuple(v + 1 if v < k * k else v - 1 for v in row) for row in want)
        report = verify_solution(dataclasses.replace(inst, blocks=blocks), img)
        assert report.block_violations == [
            ((k * bu + 1, k * bv + 1), blocks[bv][bu], (blocks[bv][bu],) * 2, want[bv][bu])
            for bv in range(bh)
            for bu in range(bw)
        ]
        assert not report.row_violations and not report.col_violations

    @pytest.mark.parametrize("k, bw, bh", [(2, 5, 3), (3, 2, 7), (5, 4, 1), (16, 2, 1), (17, 1, 2)])
    def test_strip_counts(self, k, bw, bh):
        inst = make_exact_instance(random_image(k * bw, k * bh, 0.5, k), k)
        strips = list(inst.blocks) + list(zip(*inst.blocks))
        want = [[strip.count(v) for strip in strips] for v in range(k * k + 1)]
        counts = inst._strip_counts
        assert counts.dtype == np.int64 and counts.flags.c_contiguous
        assert counts.tolist() == want


class TestClassifyBlock:
    def test_all_sixteen_patterns_round_trip(self):
        for t in BlockType:
            img = BinaryImage.from_ones(2, 2, [(1 + dx, 1 + dy) for dx, dy in t.cells])
            assert classify_block(img, (1, 1)) == t

    def test_main_diagonal_is_b33(self):
        img = BinaryImage.from_ones(4, 4, [(3, 3), (4, 4)])
        assert classify_block(img, (3, 3)) == BlockType.B33

    def test_bottom_row_pair_is_b1(self):
        img = BinaryImage.from_ones(2, 2, [(1, 1), (2, 1)])
        assert classify_block(img, (1, 1)) == BlockType.B1

    def test_empty(self):
        assert classify_block(BinaryImage.zeros(2, 2), (1, 1)) == BlockType.EMPTY

    def test_bad_corner_raises(self):
        img = BinaryImage.zeros(4, 4)
        for corner in [(2, 1), (1, 2), (5, 1), (0, 0)]:
            with pytest.raises(ValueError):
                classify_block(img, corner)

    def test_counts(self):
        assert BlockType.EMPTY.count == 0
        assert BlockType.A21.count == 1
        assert BlockType.B34.count == 2
        assert BlockType.C12.count == 3
        assert BlockType.FULL.count == 4


def _pattern_table() -> dict[str, frozenset]:
    """The 16 block names and their ones, written out from the naming rule.

    A(r, c) holds a single one at row r, column c (r = 1 bottom, c = 1
    left); C(r, c) holds three ones with the zero there; the B types are
    listed by hand.  Offsets are (dx, dy) = (c - 1, r - 1).
    """
    full = frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})
    table = {
        "EMPTY": frozenset(),
        "FULL": full,
        "B1": frozenset({(0, 0), (1, 0)}),  # bottom row
        "B2": frozenset({(0, 1), (1, 1)}),  # top row
        "B31": frozenset({(0, 0), (0, 1)}),  # left column
        "B32": frozenset({(1, 0), (1, 1)}),  # right column
        "B33": frozenset({(0, 0), (1, 1)}),  # main diagonal
        "B34": frozenset({(1, 0), (0, 1)}),  # anti-diagonal
    }
    for r in (1, 2):
        for c in (1, 2):
            table[f"A{r}{c}"] = frozenset({(c - 1, r - 1)})
            table[f"C{r}{c}"] = full - {(c - 1, r - 1)}
    return table


class TestBlockTypeCodes:
    def test_every_name_has_its_cells(self):
        table = _pattern_table()
        assert sorted(table) == sorted(t.name for t in BlockType)
        for name, cells in table.items():
            t = BlockType[name]
            assert t.cells == cells, name
            assert t.count == len(cells), name
            img = BinaryImage.from_ones(2, 2, [(1 + dx, 1 + dy) for dx, dy in cells])
            assert classify_block(img, (1, 1)) is t, name

    def test_value_is_the_block_code(self):
        for name, cells in _pattern_table().items():
            code = sum(1 << (dx + 2 * dy) for dx, dy in cells)
            assert BlockType[name].value == code, name
            assert BlockType(code) is BlockType[name], name


class TestDegrade:
    def test_all_ones(self):
        img = BinaryImage(np.ones((4, 4), dtype=np.uint8))
        gray = degrade(img, 2)
        assert gray.values == ((4, 4), (4, 4))
        assert gray.maxval == 4

    def test_single_one(self):
        img = BinaryImage.from_ones(4, 4, [(3, 4)])
        gray = degrade(img, 2)
        assert sum(map(sum, gray.values)) == 1
        assert gray.value(2, 2) == 1

    @pytest.mark.parametrize("block", [(0, 1), (1, 0), (5, 1), (-1, 2)])
    def test_blocks_outside_the_grid_raise(self, block):
        gray = degrade(BinaryImage(np.ones((8, 8), dtype=np.uint8)), 2)
        with pytest.raises(ValueError, match=r"not a cell of a 4x4 grid"):
            gray.value(*block)

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            degrade(BinaryImage.zeros(4, 4), 3)

    @pytest.mark.parametrize("k", [0, -2])
    def test_nonpositive_k_raises(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            degrade(BinaryImage.zeros(4, 4), k)

    def test_matches_block_sums(self):
        img = random_image(8, 6, 0.5, 11)
        gray = degrade(img, 2)
        for bv in range(3):
            for bu in range(4):
                assert gray.value(bu + 1, bv + 1) == img.block_sum(2 * bu + 1, 2 * bv + 1, 2)


class TestMakeExactInstance:
    def test_zero_round_trip(self):
        img = BinaryImage.zeros(4, 4)
        inst = make_exact_instance(img, 2)
        assert inst == zero_instance(4, 4)

    def test_sums_equal_popcount(self):
        img = random_image(8, 8, 0.4, 3)
        inst = make_exact_instance(img, 2)
        assert sum(inst.row_sums) == sum(inst.col_sums) == img.popcount()

    def test_generating_image_always_verifies(self):
        for seed in range(10):
            img = random_image(6, 8, 0.5, seed)
            inst = make_exact_instance(img, 2)
            assert validate_instance(inst) == []
            assert verify_solution(inst, img).satisfied

    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_k_below_two_raises(self, k):
        with pytest.raises(ValueError, match="k >= 2"):
            make_exact_instance(BinaryImage.zeros(4, 4), k)


class TestPerturbInstance:
    def base(self, seed=0):
        img = random_image(8, 8, 0.4, seed)
        inst = make_exact_instance(img, 2)
        return img, Instance(
            k=2, epsilon=1, m=8, n=8, row_sums=inst.row_sums, col_sums=inst.col_sums,
            blocks=inst.blocks, reliable=inst.reliable,
        )

    def test_fraction_zero_identity(self):
        _, inst = self.base()
        assert perturb_instance(inst, 0.0, 1) == inst

    def test_epsilon_zero_identity(self):
        img = random_image(8, 8, 0.4, 2)
        inst = make_exact_instance(img, 2)
        assert perturb_instance(inst, 1.0, 1) == inst

    def test_reproducible_and_original_still_verifies(self):
        img, inst = self.base(5)
        a = perturb_instance(inst, 0.5, 42)
        b = perturb_instance(inst, 0.5, 42)
        assert a == b
        assert len(a.reliable) == len(list(inst.corners())) - 8
        assert verify_solution(a, img).satisfied

    def test_bad_fraction_raises(self):
        _, inst = self.base()
        with pytest.raises(ValueError):
            perturb_instance(inst, 1.5, 0)

    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_negative_epsilon_raises(self, fraction):
        _, inst = self.base()
        with pytest.raises(ValueError, match="epsilon must be >= 0"):
            perturb_instance(dataclasses.replace(inst, epsilon=-1), fraction, 0)


def views_built(inst: Instance) -> set[str]:
    """The tuple views an instance has built so far; they are kept in its __dict__."""
    return {"blocks", "reliable"} & vars(inst).keys()


def noisy(inst: Instance, epsilon: int, unreliable=()) -> Instance:
    """inst with another epsilon and the given corners unreliable, built from its tuple views."""
    return Instance(
        k=inst.k, epsilon=epsilon, m=inst.m, n=inst.n, row_sums=inst.row_sums, col_sums=inst.col_sums,
        blocks=inst.blocks, reliable=inst.reliable - frozenset(unreliable),
    )


class TestInstanceArrays:
    """An instance holds a block grid and a reliability mask; `blocks` and `reliable` are edge views."""

    @pytest.mark.parametrize("k, dtype", [(2, np.uint8), (15, np.uint8), (16, np.int64)])
    def test_grid_type_follows_k(self, k, dtype):
        inst = make_exact_instance(random_image(2 * k, k, 0.5, k), k)
        assert inst._grid.dtype == dtype
        assert noisy(inst, 0)._grid.dtype == dtype
        assert noisy(inst, 0) == inst and hash(noisy(inst, 0)) == hash(inst)

    def test_library_instances_build_no_views(self):
        text = write_instance(make_exact_instance(random_image(32, 32, 0.4, 1), 2))
        solved = parse_instance(text)
        assert solve_dr(solved) is not None
        checked = parse_instance(text)
        assert check_unique(checked) is not None
        proper, _ = properize(checked)
        board = gen_sat_instance(OneInThreeInstance(4, ((1, -2, 3),)))
        assert oracle_count(board) == (6, True)
        lifted = lift_instance(board, 3)
        small_text = write_instance(make_exact_instance(random_image(6, 6, 0.5, 2), 2))
        small = parse_instance(small_text.replace("eps 0", "eps 1"))
        perturbed = perturb_instance(small, 0.5, 7)
        assert oracle_count(perturbed)[1]
        made = make_exact_instance(random_image(32, 32, 0.4, 2), 2)
        assert validate_instance(lifted) == [] and write_instance(perturbed)
        assert made == parse_instance(write_instance(made))
        for inst in (solved, checked, proper, board, lifted, small, perturbed, made):
            assert not views_built(inst)

    def test_views_are_the_tuple_reference(self):
        exact = make_exact_instance(random_image(12, 8, 0.4, 3), 2)
        text = write_instance(perturb_instance(noisy(exact, 2), 0.5, 3))
        parsed, want = parse_instance(text), ref.parse_instance(text)
        assert not views_built(parsed)
        assert parsed.blocks == want.blocks and parsed.reliable == want.reliable
        assert type(parsed.blocks) is tuple and {type(row) for row in parsed.blocks} == {tuple}
        assert {type(v) for row in parsed.blocks for v in row} == {int}
        assert type(parsed.reliable) is frozenset
        assert {type(x) for corner in parsed.reliable for x in corner} == {int}
        assert views_built(parsed) == {"blocks", "reliable"}
        assert parsed.blocks is parsed.blocks and parsed.reliable is parsed.reliable

    def test_corner_access_reads_the_arrays(self):
        img = BinaryImage.from_ones(4, 4, [(1, 1), (2, 2), (3, 1)])
        inst = perturb_instance(noisy(make_exact_instance(img, 2), 1), 0.25, 0)  # one block demoted
        assert inst.value(1, 1) == 2 and inst.window(1, 1) == (2, 2) and inst.is_reliable(1, 1)
        (i, j), = [c for c in inst.corners() if not inst.is_reliable(*c)]
        v = inst.value(i, j)
        assert inst.window(i, j) == (max(0, v - 1), min(4, v + 1))
        for method in (inst.value, inst.is_reliable, inst.window):
            for i, j in [(2, 2), (0, 0), (9, 9), (5, 1), (1, -1), (2, 1)]:
                message = rf"\({i},{j}\) is not a 2x2 corner point of a 4x4 instance"
                with pytest.raises(ValueError, match=message):
                    method(i, j)

    def test_unreliable_zero_blocks_keep_their_window(self):
        # eps = 1 on uint8 values: the window of an unreliable 0 is [0, 1], not [255, 1]
        img = BinaryImage.from_ones(6, 6, [(1, 1), (2, 2), (4, 4), (5, 3), (6, 6), (1, 6)])
        exact = make_exact_instance(img, 2)
        zeros = [c for c in exact.corners() if exact.value(*c) == 0]
        inst = noisy(exact, 1, zeros)
        assert len(zeros) >= 3 and inst._grid.dtype == np.uint8
        for seed in range(40):
            other = random_image(6, 6, 0.3, seed)
            want = []
            for i, j in inst.corners():
                v = inst.blocks[(j - 1) // 2][(i - 1) // 2]
                lo, hi = (v, v) if (i, j) in inst.reliable else (max(0, v - 1), min(4, v + 1))
                got = other.block_sum(i, j, 2)
                if not lo <= got <= hi:
                    want.append(((i, j), v, (lo, hi), got))
            assert verify_solution(inst, other).block_violations == want
        ref_run = reference_search(inst, 10**6, 10**7)
        assert oracle_count(inst) == (ref_run.count, True) and ref_run.count > 1
        assert oracle_solve(inst)[0] == ref_run.solutions


class TestDerivedInstancesMatchTupleReference:
    """perturb_instance and lift_instance on arrays give the tuple reference's instances and bytes."""

    @pytest.mark.parametrize("epsilon", [0, 1, 2, 3])
    @pytest.mark.parametrize("fraction", [0, 0.3, 1])
    def test_same_documents(self, epsilon, fraction):
        for seed in range(8):
            img = random_image(2 * (seed % 4 + 1), 2 * (seed // 2 + 1), 0.4, seed)
            base = noisy(make_exact_instance(img, 2), epsilon)
            got, want = perturb_instance(base, fraction, seed), ref.perturb_instance(base, fraction, seed)
            assert write_instance(got) == ref.write_instance(want)
            assert got == want and hash(got) == hash(want)
            for k_prime in (3, 4, 6):
                lifted, lifted_want = lift_instance(got, k_prime), ref.lift_instance(want, k_prime)
                assert write_instance(lifted) == ref.write_instance(lifted_want)
                assert lifted == lifted_want and hash(lifted) == hash(lifted_want)


class TestRandomImage:
    def test_deterministic(self):
        assert random_image(10, 10, 0.3, 7) == random_image(10, 10, 0.3, 7)
        assert random_image(10, 10, 0.3, 7) != random_image(10, 10, 0.3, 8)

    def test_density_extremes(self):
        assert random_image(5, 5, 0.0, 0).popcount() == 0
        assert random_image(5, 5, 1.0, 0).popcount() == 25

    @pytest.mark.parametrize("density", [1.5, -0.1, float("nan"), float("inf")])
    def test_density_outside_unit_interval_raises(self, density):
        with pytest.raises(ValueError, match="density"):
            random_image(5, 5, density, 0)

    @pytest.mark.parametrize("m, n", [(0, 4), (4, 0), (-1, 3)])
    def test_nonpositive_size_raises(self, m, n):
        with pytest.raises(ValueError, match="must be positive"):
            random_image(m, n, 0.5, 0)
