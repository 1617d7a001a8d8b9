"""Local rewrite catalog, reduction, and total-variation descent."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from drtomo.model import (
    BinaryImage,
    BlockType,
    classify_block,
    degrade,
    make_exact_instance,
    random_image,
    verify_solution,
)
from drtomo.solver import solve_dr
from drtomo.switches import (
    FORWARD,
    REVERSED,
    SwitchMove,
    TVValue,
    _H_RULES,
    _KA,
    _KB,
    _NONE,
    _RULES,
    _V_RULES,
    _LocalTV,
    _reduce_strips,
    _sign,
    _unkey,
    all_switches,
    apply_switch,
    find_switch,
    has_reversed_switch,
    reduce,
    tv,
    tv_descend,
)

import tv_reference
from switch_reference import reduce_by_steps, reduce_rows, tv_descend_full

T = BlockType


def image_of_types(types: dict, m: int, n: int) -> BinaryImage:
    """Build an image from a corner -> BlockType map (missing blocks empty)."""
    a = np.zeros((n, m), dtype=np.uint8)
    for (i, j), t in types.items():
        for dx, dy in t.cells:
            a[j - 1 + dy, i - 1 + dx] = 1
    return BinaryImage(a)


def signature(img: BinaryImage):
    return img.row_sums(), img.col_sums(), degrade(img, 2).values


class TestFindSwitch:
    def test_all_zero_image(self):
        img = BinaryImage.zeros(4, 4)
        assert find_switch(img, FORWARD) is None
        assert find_switch(img, REVERSED) is None

    def test_single_diagonal_block(self):
        img = image_of_types({(1, 1): T.B33}, 4, 4)
        assert find_switch(img, FORWARD) is None
        move = find_switch(img, REVERSED)
        assert move is not None and move.cls == 7
        assert move.sources == (T.B33,) and move.targets == (T.B34,)

    def test_two_diagonal_blocks_unpair_first(self):
        img = image_of_types({(i, j): T.B33 for i in (1, 3) for j in (1, 3)}, 4, 4)
        assert find_switch(img, FORWARD) is None
        move = find_switch(img, REVERSED)
        assert (move.cls, move.orientation) == (3, "horizontal")
        assert move.targets == (T.B1, T.B2)

    def test_bottom_single_with_top_pair(self):
        img = image_of_types({(1, 1): T.A11, (3, 1): T.B2}, 4, 2)
        move = find_switch(img, FORWARD)
        assert (move.orientation, move.cls) == ("horizontal", 1)
        assert move.corners == ((1, 1), (3, 1))
        assert move.targets == (T.A21, T.B33)

    def test_scan_order_prefers_lower_class(self):
        # class 1 pair and a diagonal flip both present: class 1 wins
        img = image_of_types({(1, 1): T.A11, (3, 1): T.B2, (1, 3): T.B34}, 4, 4)
        assert find_switch(img, FORWARD).cls == 1

    def test_odd_dimensions_rejected(self):
        with pytest.raises(ValueError):
            find_switch(BinaryImage.zeros(3, 4))


@pytest.mark.parametrize("shape", [(3, 4), (4, 5)], ids=["odd-width", "odd-height"])
@pytest.mark.parametrize("func", [all_switches, has_reversed_switch])
def test_odd_sized_image_rejected(func, shape):
    with pytest.raises(ValueError, match="even"):
        func(BinaryImage.zeros(*shape))


class TestReversedClassThreeTargets:
    """Both reversed class-3 slots key on B33, so only slot order sets the targets."""

    def test_horizontal_pair_splits_into_bottom_and_top_rows(self):
        img = image_of_types({(1, 1): T.B33, (3, 1): T.B33}, 4, 2)
        want = ("horizontal", 3, ((1, 1), (3, 1)), (T.B33, T.B33), (T.B1, T.B2))
        move = find_switch(img, REVERSED)
        assert (move.orientation, move.cls, move.corners, move.sources, move.targets) == want
        class3 = [mv for mv in all_switches(img, REVERSED) if mv.cls == 3]
        assert [(mv.orientation, mv.cls, mv.corners, mv.sources, mv.targets) for mv in class3] == [want]

    def test_vertical_pair_splits_into_right_and_left_columns(self):
        img = image_of_types({(1, 1): T.B33, (1, 3): T.B33}, 2, 4)
        want = ("vertical", 3, ((1, 1), (1, 3)), (T.B33, T.B33), (T.B32, T.B31))
        move = find_switch(img, REVERSED)
        assert (move.orientation, move.cls, move.corners, move.sources, move.targets) == want
        class3 = [mv for mv in all_switches(img, REVERSED) if mv.cls == 3]
        assert [(mv.orientation, mv.cls, mv.corners, mv.sources, mv.targets) for mv in class3] == [want]


class TestApplySwitch:
    def test_class_one_rewrite(self):
        img = image_of_types({(1, 1): T.A11, (3, 1): T.B2}, 4, 2)
        out = apply_switch(img, find_switch(img, FORWARD))
        assert classify_block(out, (1, 1)) == T.A21
        assert classify_block(out, (3, 1)) == T.B33
        assert signature(out) == signature(img)

    def test_class_seven_rewrite(self):
        img = image_of_types({(1, 1): T.B34}, 2, 2)
        out = apply_switch(img, find_switch(img, FORWARD))
        assert classify_block(out, (1, 1)) == T.B33

    def test_stale_move_rejected(self):
        img = image_of_types({(1, 1): T.A11, (3, 1): T.B2}, 4, 2)
        move = find_switch(img, FORWARD)
        changed = apply_switch(img, move)
        with pytest.raises(ValueError):
            apply_switch(changed, move)

    def test_solution_stays_solution(self):
        img = image_of_types({(1, 1): T.C11, (3, 1): T.B1, (1, 3): T.B32}, 4, 4)
        inst = make_exact_instance(img, 2)
        for direction in (FORWARD, REVERSED):
            for move in all_switches(img, direction):
                assert verify_solution(inst, apply_switch(img, move)).satisfied

    @pytest.mark.parametrize(
        "types, size, move",
        [
            # targets that no rule writes: the row sums would go from [1, 2] to [4, 4]
            ({(1, 1): T.A11, (3, 1): T.B2}, (4, 2),
             SwitchMove("horizontal", 1, FORWARD, ((1, 1), (3, 1)), (T.A11, T.B2), (T.FULL, T.FULL))),
            # a class-1 rewrite across two row strips: [1, 0, 0, 2] would become [0, 1, 1, 1]
            ({(1, 1): T.A11, (3, 3): T.B2}, (4, 4),
             SwitchMove("horizontal", 1, FORWARD, ((1, 1), (3, 3)), (T.A11, T.B2), (T.A21, T.B33))),
            # both sources in slot A
            ({(1, 1): T.A11, (3, 1): T.A12}, (4, 2),
             SwitchMove("horizontal", 1, FORWARD, ((1, 1), (3, 1)), (T.A11, T.A12), (T.A21, T.A22))),
            # one block twice: reversed class 3 reads B33 in both slots
            ({(1, 1): T.B33}, (2, 2),
             SwitchMove("horizontal", 3, REVERSED, ((1, 1), (1, 1)), (T.B33, T.B33), (T.B1, T.B2))),
            # a vertical rule's targets under the horizontal label
            ({(1, 1): T.A11, (1, 3): T.B32}, (2, 4),
             SwitchMove("horizontal", 1, FORWARD, ((1, 1), (1, 3)), (T.A11, T.B32), (T.A12, T.B33))),
            # class 7 with a second block
            ({(1, 1): T.B34, (3, 1): T.B34}, (4, 2),
             SwitchMove("horizontal", 7, FORWARD, ((1, 1), (3, 1)), (T.B34, T.B34), (T.B33, T.B33))),
        ],
        ids=["foreign-targets", "two-strips", "one-slot", "same-block", "wrong-orientation", "class-7-pair"],
    )
    def test_move_outside_the_table_rejected(self, types, size, move):
        img = image_of_types(types, *size)
        with pytest.raises(ValueError):
            apply_switch(img, move)

    def test_reversed_pair_order_accepted(self):
        # _pairs lists a slot-B block first when it comes first in its strip
        img = image_of_types({(1, 1): T.B33, (3, 1): T.A21}, 4, 2)
        move = SwitchMove("horizontal", 1, REVERSED, ((1, 1), (3, 1)), (T.B33, T.A21), (T.B2, T.A11))
        assert move in all_switches(img, REVERSED)
        assert signature(apply_switch(img, move)) == signature(img)


class TestNamedValues:
    @pytest.mark.parametrize("func", [find_switch, all_switches])
    def test_unknown_direction_named(self, func):
        with pytest.raises(ValueError, match="direction must be 'forward' or 'reversed', got 'sideways'"):
            func(BinaryImage.zeros(4, 4), "sideways")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("direction", "backward", "direction must be 'forward' or 'reversed', got 'backward'"),
            ("orientation", "diagonal", "orientation must be 'horizontal' or 'vertical', got 'diagonal'"),
        ],
    )
    def test_apply_switch_names_the_allowed_values(self, field, value, message):
        img = image_of_types({(1, 1): T.A11, (3, 1): T.B2}, 4, 2)
        move = dataclasses.replace(find_switch(img, FORWARD), **{field: value})
        with pytest.raises(ValueError, match=message):
            apply_switch(img, move)


def all_table_rows():
    """(orientation, class, slot maps, direction) for all 28 table rows."""
    rows = []
    for orientation, rules in (("horizontal", _H_RULES), ("vertical", _V_RULES)):
        for cls, slot_a, slot_b in rules:
            rows.append((orientation, cls, slot_a, slot_b, FORWARD))
            inv_a = {v: k for k, v in slot_a.items()}
            inv_b = {v: k for k, v in slot_b.items()}
            rows.append((orientation, cls, inv_a, inv_b, REVERSED))
    # the single-block flip appears in both tables; list it per orientation
    for orientation in ("horizontal", "vertical"):
        rows.append((orientation, 7, {T.B34: T.B33}, None, FORWARD))
        rows.append((orientation, 7, {T.B33: T.B34}, None, REVERSED))
    return rows


class TestTableInvariance:
    def test_every_row_preserves_all_sums(self):
        rng = random.Random(99)
        others = list(T)
        for orientation, cls, slot_a, slot_b, direction in all_table_rows():
            for _ in range(40):
                m = n = 8
                corners = [(i, j) for i in range(1, m, 2) for j in range(1, n, 2)]
                types = {c: rng.choice(others) for c in corners}
                if slot_b is None:
                    c1 = rng.choice(corners)
                    types[c1] = rng.choice(list(slot_a))
                    move = SwitchMove(
                        orientation, cls, direction, (c1,),
                        (types[c1],), (slot_a[types[c1]],),
                    )
                else:
                    if orientation == "horizontal":
                        j = rng.choice(range(1, n, 2))
                        i1, i2 = rng.sample(range(1, m, 2), 2)
                        c1, c2 = (min(i1, i2), j), (max(i1, i2), j)
                    else:
                        i = rng.choice(range(1, m, 2))
                        j1, j2 = rng.sample(range(1, n, 2), 2)
                        c1, c2 = (i, min(j1, j2)), (i, max(j1, j2))
                    types[c1] = rng.choice(list(slot_a))
                    types[c2] = rng.choice(list(slot_b))
                    move = SwitchMove(
                        orientation, cls, direction, (c1, c2),
                        (types[c1], types[c2]),
                        (slot_a[types[c1]], slot_b[types[c2]]),
                    )
                img = image_of_types(types, m, n)
                out = apply_switch(img, move)
                assert signature(out) == signature(img)

    def test_listed_moves_match_placed_pairs(self):
        img = image_of_types({(1, 1): T.B1, (5, 1): T.B2, (1, 3): T.B32, (1, 7): T.B31}, 8, 8)
        moves = all_switches(img, FORWARD)
        kinds = {(mv.orientation, mv.cls) for mv in moves}
        assert ("horizontal", 3) in kinds
        assert ("vertical", 3) in kinds


def transposed(t: BlockType) -> BlockType:
    """The block mirrored in its main diagonal: cell (dx, dy) to (dy, dx)."""
    return BlockType(sum(1 << (dy + 2 * dx) for dx, dy in t.cells))


class TestStripIndependence:
    """The facts that let reduce run each strip to its own fixpoint."""

    @pytest.mark.parametrize(
        "rules, others", [(_H_RULES, _V_RULES), (_V_RULES, _H_RULES)], ids=["horizontal", "vertical"]
    )
    def test_forward_moves_keep_the_other_orientations_slots(self, rules, others):
        other_slots = [slot for _, slot_a, slot_b in others for slot in (slot_a, slot_b)]
        for _, slot_a, slot_b in rules:
            for source, target in list(slot_a.items()) + list(slot_b.items()):
                for slot in other_slots:
                    assert (source in slot) == (target in slot), (source, target, slot)

    def test_forward_vertical_rules_are_transposed_horizontal_ones(self):
        for (h_cls, h_a, h_b), (v_cls, v_a, v_b) in zip(_H_RULES, _V_RULES):
            assert h_cls == v_cls
            t_a, t_b = ({transposed(s): transposed(t) for s, t in slot.items()} for slot in (v_a, v_b))
            # class 3 lists its two slots in the other order
            assert (t_a, t_b) == ((h_b, h_a) if h_cls == 3 else (h_a, h_b))

    def test_reduce_matches_stepwise_reduction_on_every_4x4_image(self):
        # 4x4 is the smallest size where moves of both orientations interleave
        for value in range(1 << 16):
            img = BinaryImage(((value >> np.arange(16)) & 1).astype(np.uint8).reshape(4, 4))
            assert reduce(img) == reduce_by_steps(img), value


class TestRuleTable:
    """The facts about _RULES that the docstrings state and the readers rely on."""

    def test_entries_are_the_paper_lists(self):
        want = np.full((2, 2, 7, 2, 16), _NONE)
        for o, rules in enumerate((_H_RULES, _V_RULES)):
            for cls, *slots in rules:
                for i, slot in enumerate(slots):
                    for source, target in slot.items():
                        want[0, o, cls - 1, i, source.value] = target.value
                        want[1, o, cls - 1, i, target.value] = source.value
        # class 7 sits in slot A of the horizontal rules, as find_switch scans it
        want[0, 0, 6, 0, T.B34.value] = T.B33.value
        want[1, 0, 6, 0, T.B33.value] = T.B34.value
        assert _RULES.dtype == np.uint8 and not _RULES.flags.writeable
        assert np.array_equal(_RULES, want)

    def test_slot_maps_are_injective_and_reversed_is_their_inverse(self):
        for o in (0, 1):
            for r in range(7):
                for i in (0, 1):
                    forward, reversed_ = _RULES[0, o, r, i].tolist(), _RULES[1, o, r, i].tolist()
                    pairs = {(c, t) for c, t in enumerate(forward) if t != _NONE}
                    assert len({t for _, t in pairs}) == len(pairs), (o, r, i)
                    assert pairs == {(t, c) for c, t in enumerate(reversed_) if t != _NONE}, (o, r, i)

    def test_slots_of_a_rule_are_disjoint(self):
        reads = _RULES != _NONE
        overlap = (reads[:, :, :, 0] & reads[:, :, :, 1]).any(axis=-1)
        # only reversed class 3 reads one code, B33, in both slots
        assert np.argwhere(overlap).tolist() == [[1, 0, 2], [1, 1, 2]]
        assert (reads[1, :, 2, 0] & reads[1, :, 2, 1]).nonzero()[1].tolist() == [T.B33.value] * 2

    def test_a_code_has_at_most_one_horizontal_forward_target(self):
        for c in range(16):
            targets = set(_RULES[0, 0, :6, :, c].ravel().tolist()) - {_NONE}
            assert len(targets) <= 1, (c, targets)

    def test_forward_classes_one_to_six_commute_with_class_seven(self):
        six = _RULES[0, :, :6]
        assert (six[..., [T.B33.value, T.B34.value]] == _NONE).all()
        assert not (six == T.B34.value).any()
        assert np.flatnonzero(_RULES[0, 0, 6, 0] != _NONE).tolist() == [T.B34.value]

    def test_every_reversed_class_but_six_and_seven_reads_b33(self):
        for o in (0, 1):
            for r in range(5):
                assert (_RULES[1, o, r, :, T.B33.value] != _NONE).any(), (o, r)
        # reversed class 7 reads only B33; class 7 has no slot B and no vertical entries
        assert np.flatnonzero(_RULES[1, 0, 6, 0] != _NONE).tolist() == [T.B33.value]
        assert (_RULES[:, 0, 6, 1] == _NONE).all() and (_RULES[:, 1, 6] == _NONE).all()


class TestReduce:
    def test_single_antidiagonal(self):
        img = image_of_types({(1, 1): T.B34}, 2, 2)
        out = reduce(img)
        assert classify_block(out, (1, 1)) == T.B33

    def test_idempotent_and_switch_free(self):
        for seed in range(20):
            img = random_image(10, 8, 0.5, seed)
            out = reduce(img)
            assert find_switch(out, FORWARD) is None
            assert reduce(out) == out
            assert signature(out) == signature(img)

    def test_matches_one_step_semantics(self):
        for seed in range(10):
            img = random_image(8, 8, 0.5, seed)
            cur = img
            while True:
                move = find_switch(cur, FORWARD)
                if move is None:
                    break
                cur = apply_switch(cur, move)
            assert reduce(img) == cur

    def test_odd_dimensions_rejected(self):
        with pytest.raises(ValueError):
            reduce(BinaryImage.zeros(4, 5))


class TestStripFixpoint:
    """_reduce_strips, the rank-pairing steps, against the one-move-at-a-time strip fixpoint."""

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
    def test_every_strip_up_to_five_blocks(self, length):
        # all 16**length strips as the rows of one code grid
        codes = (np.arange(16**length)[:, None] >> 4 * np.arange(length) & 15).astype(np.uint8)
        want = codes.tolist()
        assert _reduce_strips(codes) == reduce_rows(want)
        assert codes.tolist() == want

    def test_returns_the_image_itself_when_nothing_moves(self):
        img = reduce(random_image(12, 10, 0.5, 3))
        assert reduce(img) is img
        assert _reduce_strips(np.zeros((3, 0), dtype=np.uint8)) is False


class TestHasReversedSwitch:
    def test_diagonal_block_reverses(self):
        assert has_reversed_switch(image_of_types({(1, 1): T.B33}, 2, 2))

    def test_plain_blocks_do_not(self):
        img = image_of_types({(1, 1): T.B1, (3, 1): T.B31}, 4, 2)
        assert not has_reversed_switch(img)

    def test_all_zero(self):
        assert not has_reversed_switch(BinaryImage.zeros(4, 4))


class TestTV:
    def test_constant_images(self):
        assert tv(BinaryImage.zeros(4, 4)) == TVValue(0, 0)
        assert tv(BinaryImage(np.ones((4, 4), dtype=np.uint8))) == TVValue(0, 0)

    def test_single_interior_one(self):
        img = BinaryImage.from_ones(4, 4, [(2, 2)])
        assert tv(img) == TVValue(2, 1)

    def test_checkerboard_matches_direct_evaluation(self):
        img = BinaryImage(np.indices((4, 4)).sum(axis=0) % 2)
        a = b = 0
        for p in range(1, 5):
            for q in range(1, 5):
                gx = img.get(p + 1, q) - img.get(p, q) if p < 4 else 0
                gy = img.get(p, q + 1) - img.get(p, q) if q < 4 else 0
                if gx and gy:
                    b += 1
                elif gx or gy:
                    a += 1
        assert tv(img) == TVValue(a, b)

    def test_exact_comparison(self):
        assert TVValue(0, 2) < TVValue(3, 0)  # 2*sqrt(2) < 3
        assert TVValue(3, 0) < TVValue(0, 3)  # 3 < 3*sqrt(2)
        assert TVValue(1, 0) < TVValue(0, 1)
        assert not TVValue(2, 1) < TVValue(2, 1)
        assert TVValue(2, 1) <= TVValue(2, 1)
        assert TVValue(7, 0) < TVValue(0, 5)  # 7 < 5*sqrt(2) ~ 7.07
        assert TVValue(0, 5) < TVValue(8, 0)

    def test_float_value(self):
        assert tv(BinaryImage.from_ones(4, 4, [(2, 2)])).value() == pytest.approx(
            2 + 2 ** 0.5
        )


class TestTVDescend:
    def test_non_solution_rejected(self):
        img = random_image(4, 4, 0.5, 0)
        inst = make_exact_instance(random_image(4, 4, 0.5, 1), 2)
        if not verify_solution(inst, img).satisfied:
            with pytest.raises(ValueError):
                tv_descend(inst, img)

    def test_odd_block_size_rejected(self):
        # 2x2 rewrites keep 3x3 block sums only by chance; seed 5 loses them
        img = random_image(6, 6, 0.5, 5)
        inst = make_exact_instance(img, 3)
        with pytest.raises(ValueError, match="even block size"):
            tv_descend(inst, img)

    def test_minimal_input_unchanged(self):
        img = BinaryImage.zeros(4, 4)
        inst = make_exact_instance(img, 2)
        assert tv_descend(inst, img) == img

    def test_trace_strictly_decreasing(self):
        for seed in range(5):
            img = random_image(10, 10, 0.5, seed)
            inst = make_exact_instance(img, 2)
            trace = [tv(img)]
            out = tv_descend(inst, img, on_step=lambda mv, t: trace.append(t))
            for before, after in zip(trace, trace[1:]):
                assert after < before
            assert tv(out) == trace[-1]
            assert verify_solution(inst, out).satisfied

    def test_local_optimum(self):
        img = random_image(8, 8, 0.4, 9)
        inst = make_exact_instance(img, 2)
        out = tv_descend(inst, img)
        best = tv(out)
        for direction in (FORWARD, REVERSED):
            for move in all_switches(out, direction):
                assert best <= tv(apply_switch(out, move))


@st.composite
def bit_images(draw):
    """Uniform random images with even sides from 2 to 16."""
    m, n = 2 * draw(st.integers(1, 8)), 2 * draw(st.integers(1, 8))
    return BinaryImage(draw(arrays(np.uint8, (n, m), elements=st.integers(0, 1))))


# weighted toward the types classes 1 to 7 rewrite, so that class 6 and 7
# moves interleave; B33 is left out so that a reversed move other than the
# single-block flip decides has_reversed_switch
_WEIGHTED = (
    [T.B34] * 4
    + [T.A11, T.A12, T.A21, T.A22, T.C11, T.C12, T.C21, T.C22] * 2
    + [T.B1, T.B2, T.B31, T.B32] * 2
    + [t for t in T if t is not T.B33]
)
# mostly inert blocks, so that a lone B33 or a single pair decides
_SPARSE = [T.EMPTY] * 12 + [T.FULL] * 4 + list(T)


@st.composite
def type_images(draw, pool):
    """Images of blocks drawn from pool, with even sides from 2 to 16."""
    w, h = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    types = draw(st.lists(st.sampled_from(pool), min_size=w * h, max_size=w * h))
    grid = {(2 * u + 1, 2 * v + 1): types[v * w + u] for v in range(h) for u in range(w)}
    return image_of_types(grid, 2 * w, 2 * h)


even_images = st.one_of(bit_images(), type_images(_WEIGHTED), type_images(_SPARSE))


def codes(types) -> tuple[int, ...]:
    return tuple(t.value for t in types)


class TestAgainstReferences:
    @settings(max_examples=200, deadline=None)
    @given(even_images)
    def test_reduce_matches_stepwise_reduction(self, img):
        assert reduce(img) == reduce_by_steps(img)

    @settings(max_examples=200, deadline=None)
    @given(even_images)
    def test_has_reversed_switch_matches_find_switch(self, img):
        assert has_reversed_switch(img) == (find_switch(img, REVERSED) is not None)

    @settings(max_examples=60, deadline=None)
    @given(even_images)
    def test_local_tv_delta_is_exact(self, img):
        local = _LocalTV(img)
        for _ in range(2):  # the second round runs on the code grid after a move
            base = tv(img)
            moves = all_switches(img, FORWARD) + all_switches(img, REVERSED)
            for move in moves:
                after = tv(apply_switch(img, move))
                got = local.delta(move.corners, codes(move.sources), codes(move.targets))
                assert got == (after.a - base.a, after.b - base.b)
            if not moves:
                break
            local.apply(moves[0].corners, codes(moves[0].targets))
            img = apply_switch(img, moves[0])
            assert local.image() == img


class TestDescentMatchesFullRecompute:
    @pytest.mark.parametrize(
        "side, density, seeds",
        [(10, 0.5, range(25)), (20, 0.4, range(100))],
        ids=["criterion6-inputs", "criterion8-inputs"],
    )
    def test_identical_traces_and_outputs(self, side, density, seeds):
        for seed in seeds:
            img = random_image(side, side, density, seed)
            inst = make_exact_instance(img, 2)
            fast, full = [], []
            out = tv_descend(inst, img, on_step=lambda mv, t: fast.append((mv, t)))
            ref = tv_descend_full(inst, img, on_step=lambda mv, t: full.append((mv, t)))
            assert fast == full
            assert out == ref


def descend_like_reference(inst, img) -> list:
    """tv_descend's steps, after checking them and its output against tests/tv_reference.py."""
    ref, fast = [], []
    want = tv_reference.tv_descend(inst, img, on_step=lambda mv, t: ref.append((mv, t)))

    def step(mv, t):
        # fail at the first step that differs, before a wrong descent can cycle
        assert len(fast) < len(ref) and (mv, t) == ref[len(fast)]
        fast.append((mv, t))

    out = tv_descend(inst, img, on_step=step)
    assert fast == ref
    assert out == want
    return fast


class TestDescentMatchesReference:
    def test_solve_dr_outputs_of_random_rectangles(self):
        rng = random.Random(5)
        for _ in range(60):
            m, n = rng.sample(range(2, 49, 2), 2)
            img = random_image(m, n, rng.uniform(0.1, 0.9), rng.randrange(2**31))
            inst = make_exact_instance(img, 2)
            descend_like_reference(inst, solve_dr(inst))

    def test_raw_random_images(self):
        # the inputs of acceptance criterion 8
        for seed in range(100):
            img = random_image(20, 20, 0.4, seed)
            descend_like_reference(make_exact_instance(img, 2), img)

    @settings(max_examples=300, deadline=None)
    @given(type_images(_WEIGHTED))
    def test_class_six_and_seven_interleave(self, img):
        descend_like_reference(make_exact_instance(img, 2), img)


def grid_image(rows) -> BinaryImage:
    """Image from rows of BlockType names, the bottom row first."""
    types = {(2 * u + 1, 2 * v + 1): T[name] for v, row in enumerate(rows) for u, name in enumerate(row)}
    return image_of_types(types, 2 * len(rows[0]), 2 * len(rows))


def least_moves(img) -> list[tuple]:
    """(direction, class, orientation, corners) of the moves that lower TV
    the most, in scan order of the forward, then the reversed moves."""
    after = [(tv(apply_switch(img, mv)), mv) for d in (FORWARD, REVERSED) for mv in all_switches(img, d)]
    least = min((t for t, _ in after), default=None)
    if least is None or not least < tv(img):
        return []
    return [(mv.direction, mv.cls, mv.orientation, mv.corners) for t, mv in after if t == least]


def first_step(img) -> tuple:
    steps = descend_like_reference(make_exact_instance(img, 2), img)
    mv = steps[0][0]
    return mv.direction, mv.cls, mv.orientation, mv.corners


class TestDescentTies:
    """Hand-built images whose steepest moves tie; the first in scan order wins."""

    @pytest.mark.parametrize(
        "rows, chosen, tied",
        [
            # forward before reversed
            ([["B34", "C22", "A21"]], (FORWARD, 7, "horizontal", ((1, 1),)),
             (REVERSED, 6, "horizontal", ((3, 1), (5, 1)))),
            # classes in order, class 7 last
            ([["B2", "C12", "B33"]], (REVERSED, 4, "horizontal", ((3, 1), (5, 1))),
             (REVERSED, 7, "horizontal", ((5, 1),))),
            # horizontal before vertical
            ([["B33", "C12"], ["C21", "EMPTY"]], (REVERSED, 4, "horizontal", ((1, 1), (3, 1))),
             (REVERSED, 4, "vertical", ((1, 1), (1, 3)))),
            # horizontal strips bottom to top
            ([["C11", "A12", "C22", "A21"], ["EMPTY", "A21", "C22", "C11"]],
             (REVERSED, 6, "horizontal", ((5, 1), (7, 1))), (REVERSED, 6, "horizontal", ((3, 3), (5, 3)))),
            # vertical strips left to right
            ([["B1", "B33", "B33"], ["B32", "B33", "B33"]],
             (REVERSED, 3, "vertical", ((3, 1), (3, 3))), (REVERSED, 3, "vertical", ((5, 1), (5, 3)))),
            # class 7 row by row
            ([["B34", "C11"], ["B1", "B34"]], (FORWARD, 7, "horizontal", ((1, 1),)),
             (FORWARD, 7, "horizontal", ((3, 3),))),
            # a pair of non-neighbours before a neighbour pair that ties with it
            ([["C21", "C21", "B33"]], (REVERSED, 5, "horizontal", ((1, 1), (5, 1))),
             (REVERSED, 5, "horizontal", ((3, 1), (5, 1)))),
            # a neighbour pair before a pair of non-neighbours that ties with it
            ([["B33", "B33", "FULL", "B34", "B33"]], (REVERSED, 3, "horizontal", ((1, 1), (3, 1))),
             (REVERSED, 3, "horizontal", ((1, 1), (9, 1)))),
        ],
    )
    def test_first_of_the_tied_moves(self, rows, chosen, tied):
        img = grid_image(rows)
        least = least_moves(img)
        assert least[0] == chosen and tied in least
        assert first_step(img) == chosen

    def test_best_blocks_of_the_two_slots_are_neighbours(self):
        # reversed class 5 reads C21/C22 (slot A) and B33 (slot B): the best
        # single of each slot sits at positions 2 and 1, so the best pair of
        # non-neighbours takes the next best slot-A block instead
        img = grid_image([["EMPTY", "B33", "C21", "C22"]])
        slot_a, slot_b = _RULES[1, 0, 4].tolist()

        def best_position(slot) -> int:
            rewritten = {}
            for u in range(4):
                code = classify_block(img, (2 * u + 1, 1)).value
                if slot[code] != _NONE:
                    a = img.mutable()
                    a[0:2, 2 * u : 2 * u + 2] = [[slot[code] >> dx + 2 * dy & 1 for dx in (0, 1)] for dy in (0, 1)]
                    rewritten[u] = tv(BinaryImage(a))
            return min(rewritten, key=rewritten.get)

        assert (best_position(slot_a), best_position(slot_b)) == (2, 1)
        chosen = (REVERSED, 5, "horizontal", ((3, 1), (7, 1)))
        assert least_moves(img) == [chosen]
        assert first_step(img) == chosen


class TestLocalTVTables:
    def test_key_orders_and_decodes_exactly(self):
        for a in range(-64, 65):
            for b in range(-64, 65):
                key = a * _KA + b * _KB
                assert (key > 0) - (key < 0) == _sign(a, b), (a, b)
                assert _unkey(key) == (a, b)

    @settings(max_examples=60, deadline=None)
    @given(even_images)
    def test_seeded_singles_are_exact(self, img):
        local = _LocalTV(img)
        base = tv(img)
        for v in range(img.n // 2):
            for u in range(img.m // 2):
                for code in range(16):
                    a = img.mutable()
                    a[2 * v : 2 * v + 2, 2 * u : 2 * u + 2] = [[code >> dx + 2 * dy & 1 for dx in (0, 1)] for dy in (0, 1)]
                    after = tv(BinaryImage(a))
                    assert _unkey(local.single(u, v, code)) == (after.a - base.a, after.b - base.b)

    @pytest.mark.parametrize("m, n", [(2, 6), (6, 2), (4, 4)])
    def test_delta_is_exact_at_the_frame(self, m, n):
        # every block of a 2x6 or 6x2 image touches the frame, so every
        # neighbour pair's correction reads the code outside the image; the
        # 4x4 images are a fixed sample of 4096; each two-block move is also
        # scored with its blocks listed against strip order, which
        # apply_switch accepts
        words = range(1 << 12) if m * n == 12 else random.Random(0).sample(range(1 << 16), 4096)
        for word in words:
            img = BinaryImage(np.array([word >> b & 1 for b in range(m * n)], dtype=np.uint8).reshape(n, m))
            local = _LocalTV(img)
            base = tv(img)
            for move in all_switches(img, FORWARD) + all_switches(img, REVERSED):
                listed = [move]
                if len(move.corners) == 2:
                    reverse = {f: getattr(move, f)[::-1] for f in ("corners", "sources", "targets")}
                    listed.append(dataclasses.replace(move, **reverse))
                for each in listed:
                    after = tv(apply_switch(img, each))
                    got = local.delta(each.corners, codes(each.sources), codes(each.targets))
                    assert got == (after.a - base.a, after.b - base.b)
