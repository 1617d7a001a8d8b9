"""Local rewrite catalog, reduction, and total-variation descent."""

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
from drtomo.switches import (
    FORWARD,
    REVERSED,
    SwitchMove,
    TVValue,
    _CODE,
    _H_RULES,
    _V_RULES,
    _LocalTV,
    all_switches,
    apply_switch,
    find_switch,
    has_reversed_switch,
    reduce,
    tv,
    tv_descend,
)

from switch_reference import reduce_by_steps, tv_descend_full

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
    return tuple(_CODE[t] for t in types)


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
        for _ in range(2):  # the second round runs on cached differences
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
