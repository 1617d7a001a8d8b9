"""Exact solver pipeline: properization, strip cases, solving, uniqueness."""

import dataclasses
import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drtomo import solver, switches
from drtomo.formats import write_image
from drtomo.model import (
    BinaryImage,
    BlockType,
    Instance,
    _codes,
    _decode,
    _instance_of_grids,
    make_exact_instance,
    random_image,
    verify_solution,
)
from drtomo.oracle import SearchBudget, oracle_count
from drtomo.solver import (
    CASE1,
    CASE2,
    CASE3,
    INFEASIBLE,
    _SOLVERS,
    StripPermutation,
    _classify_all,
    _solve_checked,
    check_unique,
    classify_strip,
    derive_sub_sums,
    properize,
    solve_dr,
)
from drtomo.subsolvers import unique_dr2
from drtomo.switches import find_switch

import solver_reference as ref
from conftest import codes_by_corner, single_block_instance, sub_sums_ok
from test_switches import image_of_types


class TestProperize:
    def test_already_proper_identity(self):
        inst = make_exact_instance(BinaryImage.from_ones(2, 2, [(1, 1)]), 2)
        proper, perm = properize(inst)
        assert proper == inst
        assert perm.row_swapped.tolist() == perm.col_swapped.tolist() == [False]

    def test_single_strip_swap(self):
        inst = single_block_instance(1, (0, 1), (1, 0))
        proper, perm = properize(inst)
        assert proper.row_sums == (1, 0)
        assert perm.row_swapped.tolist() == [True]
        assert perm.col_swapped.tolist() == [False]

    def test_involution(self):
        for seed in range(5):
            inst = make_exact_instance(random_image(8, 6, 0.5, seed), 2)
            proper, perm = properize(inst)
            assert perm.apply_to_instance(proper) == inst
            img = random_image(8, 6, 0.5, seed + 50)
            assert ref.apply_to_image(perm, ref.apply_to_image(perm, img)) == img

    def test_image_correspondence(self):
        inst = make_exact_instance(random_image(6, 6, 0.5, 4), 2)
        shuffled = StripPermutation(
            row_swapped=np.array([True, False, True]), col_swapped=np.array([False, True, False])
        ).apply_to_instance(inst)
        proper, perm = properize(shuffled)
        img = solve_dr(shuffled)
        assert img is not None
        assert verify_solution(proper, ref.apply_to_image(perm, img)).satisfied

    def test_swapped_instance_shares_block_views(self):
        inst = make_exact_instance(random_image(8, 6, 0.5, 3), 2)
        views = inst._grid, inst._reliable_grid, inst._strip_counts
        proper, perm = properize(inst)
        assert perm.row_swapped.any() or perm.col_swapped.any()
        shared = proper._grid, proper._reliable_grid, proper._strip_counts
        assert all(a is b for a, b in zip(shared, views))

    def test_requires_exact_dr(self):
        inst = single_block_instance(1, (1, 0), (1, 0), epsilon=1)
        with pytest.raises(ValueError):
            properize(inst)


class TestClassifyStrip:
    def test_case1(self):
        case = classify_strip(5, 1, 1, 1, 1)
        assert case.tag == CASE1
        assert case.counts.tolist() == [1, 0, 1, 0, 0, 0, 1]

    def test_case2(self):
        case = classify_strip(4, 2, 1, 1, 1)
        assert case.tag == CASE2
        assert case.counts.tolist() == [1, 0, 0, 1, 0, 0, 1]

    def test_case3(self):
        case = classify_strip(3, 3, 1, 1, 1)
        assert case.tag == CASE3
        assert case.counts.tolist() == [0, 1, 0, 1, 0, 0, 1]

    def test_mass_balance_violation(self):
        assert classify_strip(4, 1, 1, 1, 1).tag == INFEASIBLE

    def test_interval_miss(self):
        # rj1 below every interval: three 3-blocks need at least 3 in the far line
        assert classify_strip(7, 2, 0, 0, 3).tag == INFEASIBLE

    def test_unordered_sums_infeasible(self):
        assert classify_strip(1, 2, 1, 1, 0).tag == INFEASIBLE

    def test_aggregate_identity(self):
        rng = random.Random(0)
        seen = 0
        while seen < 200:
            v1, v2, v3 = (rng.randint(0, 4) for _ in range(3))
            total = v1 + 2 * v2 + 3 * v3
            rj1 = rng.randint(0, total)
            rj = total - rj1
            if rj < rj1:
                continue
            case = classify_strip(rj, rj1, v1, v2, v3)
            if case.tag == INFEASIBLE:
                continue
            seen += 1
            a_j, a_j1, b_j, bp_j, b_j1, g_j, g_j1 = case.counts
            assert all(x >= 0 for x in case.counts)
            assert b_j1 == 0
            # both lines recover their sums from the per-type placements
            assert a_j + 2 * b_j + bp_j + g_j + 2 * g_j1 == rj
            assert a_j1 + bp_j + 2 * g_j + g_j1 == rj1
            assert a_j + a_j1 == v1
            assert b_j + bp_j == v2
            assert g_j + g_j1 == v3


class TestDeriveSubSums:
    def fixture(self):
        # one horizontal strip holding blocks of value 1, 2, 3
        return Instance(
            k=2, epsilon=0, m=6, n=2,
            row_sums=(5, 1), col_sums=(1, 0, 1, 1, 2, 1),
            blocks=((1, 2, 3),),
            reliable=frozenset({(1, 1), (3, 1), (5, 1)}),
        )

    def test_pair_sums_per_value(self):
        inst = self.fixture()
        cases = _classify_all(inst)
        assert cases is not None
        subs = derive_sub_sums(inst, cases)
        assert subs[1].I == frozenset({(1, 1)})
        # strip j (corner row or column) is entry (j - 1) // 2
        assert subs[1].rows[0].tolist() == [1, 0]
        assert subs[2].rows[0].tolist() == [2, 0]
        assert subs[3].rows[0].tolist() == [2, 1]
        assert subs[1].cols[0].tolist() == [1, 0]
        assert subs[2].cols[1].tolist() == [1, 1]
        assert subs[3].cols[2].tolist() == [2, 1]
        assert not subs[0].I and not subs[4].I

    def test_fixture_solves(self):
        inst = self.fixture()
        img = solve_dr(inst)
        assert img is not None
        assert verify_solution(inst, img).satisfied

    def test_forced_values_reduce_line_sums(self):
        img = BinaryImage.from_ones(
            4, 2, [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]
        )  # one full block next to a single one
        inst = make_exact_instance(img, 2)
        cases = _classify_all(inst)
        assert cases is not None
        subs = derive_sub_sums(inst, cases)
        assert subs[4].I == frozenset({(1, 1)})
        assert subs[1].rows[0].tolist() == [1, 0]


@st.composite
def exact_instances(draw, max_side=32):
    """Exact instances of random or block-type images, 2x2 to max_side x max_side."""
    m, n = (2 * draw(st.integers(1, max_side // 2)) for _ in range(2))
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        return make_exact_instance(random_image(m, n, draw(st.floats(0.05, 0.95)), seed), 2)
    # block types weighted toward the two-one blocks that reach the nu = 2 flow
    tiles = list(BlockType)
    weights = [4 if t.count == 2 else 1 for t in tiles]
    rng = random.Random(seed)
    corners = [(i, j) for i in range(1, m, 2) for j in range(1, n, 2)]
    types = dict(zip(corners, rng.choices(tiles, weights, k=len(corners))))
    return make_exact_instance(image_of_types(types, m, n), 2)


class TestGlueProperties:
    """Subproblems and subsolver codes of exact instances beyond brute-force sizes."""

    @settings(max_examples=200, deadline=None)
    @given(exact_instances())
    def test_subproblems_and_codes(self, inst):
        proper, _ = properize(inst)
        cases = _classify_all(proper)
        assert cases is not None
        subs = derive_sub_sums(proper, cases)
        assert sorted(subs) == [0, 1, 2, 3, 4]
        # strip counts, against counting each strip's values one by one
        strips = list(proper.blocks) + list(zip(*proper.blocks))
        counts = [[strip.count(v) for strip in strips] for v in range(5)]
        assert proper._strip_counts.tolist() == counts
        # the five block sets partition the block grid by value
        assert sum(len(sub.I) for sub in subs.values()) == len(list(proper.corners()))
        for nu, sub in subs.items():
            assert all(proper.value(*corner) == nu for corner in sub.I)
            assert sub.mask.shape == (proper.n // 2, proper.m // 2)
            assert int(sub.mask.sum()) == len(sub.I)
        # per strip, the pair sums over nu add up to the two line sums; a
        # value's pair holds nu ones per block of the strip, so (0, 0) where
        # the strip holds none
        for pairs, sums, attr in (("rows", proper.row_sums, 1), ("cols", proper.col_sums, 0)):
            for line in range(1, len(sums), 2):
                got = [0, 0]
                for nu, sub in subs.items():
                    p = getattr(sub, pairs)[line // 2].tolist()
                    assert min(p) >= 0
                    assert p[0] + p[1] == nu * sum(c[attr] == line for c in sub.I)
                    got[0] += p[0]
                    got[1] += p[1]
                assert tuple(got) == (sums[line - 1], sums[line])
        # every subsolver answers with nu ones per block that meet its pair sums
        for nu, sub in subs.items():
            if not sub.I:
                continue
            part = _SOLVERS[nu](sub)
            assert part is not None and part.dtype == np.uint8
            codes = codes_by_corner(sub, part)
            assert set(codes) == sub.I
            assert all(bin(code).count("1") == nu for code in codes.values())
            assert sub_sums_ok(sub, codes)
            if nu == 2:
                assert unique_dr2(sub, part) in (True, False)


@st.composite
def perturbed(draw, inst):
    """inst with one row sum and one column sum moved by the same +-1, so both totals still agree."""
    q, p = draw(st.integers(0, inst.n - 1)), draw(st.integers(0, inst.m - 1))
    d = draw(st.sampled_from((-1, 1)))
    rows, cols = list(inst.row_sums), list(inst.col_sums)
    if not (0 <= rows[q] + d <= inst.m and 0 <= cols[p] + d <= inst.n):
        d = -d
    if 0 <= rows[q] + d <= inst.m and 0 <= cols[p] + d <= inst.n:
        rows[q] += d
        cols[p] += d
    return dataclasses.replace(inst, row_sums=tuple(rows), col_sums=tuple(cols))


class TestAgainstReference:
    """The array pipeline against the dict pipeline it replaced (tests/solver_reference.py)."""

    def test_classify_strip(self):
        tags = {ref.INFEASIBLE: INFEASIBLE, ref.CASE1: CASE1, ref.CASE2: CASE2, ref.CASE3: CASE3}
        grid = np.array(list(itertools.product(range(-1, 10), range(-1, 10), *[range(4)] * 3))).T
        cases = classify_strip(*grid)
        for args, tag, counts in zip(grid.T.tolist(), cases.tag.tolist(), cases.counts.T.tolist()):
            want = ref.classify_strip(*args)
            assert (tag, tuple(counts)) == (tags[want.tag], want.counts)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_images_verdicts_and_codes(self, data):
        inst = data.draw(exact_instances(max_side=48))
        for case in (inst, data.draw(perturbed(inst))):
            img, want = solve_dr(case), ref.solve_dr(case)
            assert (img is None) == (want is None)
            if img is not None:
                assert write_image(img) == write_image(want)
            assert check_unique(case) == ref.check_unique(case)
            proper, _ = properize(case)
            cases, ref_cases = _classify_all(proper), ref.classify_all(proper)
            assert (cases is None) == (ref_cases is None)
            if cases is None:
                continue
            subs, ref_subs = derive_sub_sums(proper, cases), ref.derive_sub_sums(proper, *ref_cases)
            for nu, sub in subs.items():
                want = ref_subs[nu]
                assert sub.I == want.I
                for got, pairs in ((sub.rows, want.pair_row_sums), (sub.cols, want.pair_col_sums)):
                    assert {2 * s + 1: tuple(p) for s, p in enumerate(got.tolist()) if p != [0, 0]} == {
                        s: p for s, p in pairs.items() if p != (0, 0)
                    }
                if not sub.I:
                    continue
                part, want_codes = _SOLVERS[nu](sub), ref.SOLVERS[nu](want)
                assert (part is None) == (want_codes is None)
                if part is not None:
                    assert codes_by_corner(sub, part) == want_codes


class TestCodeGridCheck:
    """The solver's check of a code grid is verify_solution of its decoded image."""

    @settings(max_examples=300, deadline=None)
    @given(exact_instances(max_side=16), st.sampled_from(["solution", "random"]),
           st.sampled_from(["none", "row", "col", "block"]), st.integers(0, 2**32 - 1))
    def test_agrees_with_verify_solution(self, inst, grid, change, seed):
        rng = random.Random(seed)
        bh, bw = inst.n // 2, inst.m // 2
        if grid == "solution":
            codes = _codes(solve_dr(inst).a)
        else:
            codes = np.array([[rng.randrange(16) for _ in range(bw)] for _ in range(bh)], np.uint8)
        # one line sum or block value off by one, kept in range
        rows, cols, values = list(inst.row_sums), list(inst.col_sums), inst._grid.astype(np.int64)
        if change == "row":
            j = rng.randrange(inst.n)
            rows[j] += 1 if rows[j] < inst.m else -1
        elif change == "col":
            i = rng.randrange(inst.m)
            cols[i] += 1 if cols[i] < inst.n else -1
        elif change == "block":
            bv, bu = rng.randrange(bh), rng.randrange(bw)
            values[bv, bu] += 1 if values[bv, bu] < 4 else -1
        changed = _instance_of_grids(2, 0, tuple(rows), tuple(cols), values, inst._reliable_grid)
        want = verify_solution(changed, BinaryImage(_decode(codes))).satisfied
        assert solver._satisfies(changed, codes) == want
        if grid == "solution":
            assert want == (change == "none")


class TestProperFrameSolution:
    @settings(max_examples=200, deadline=None)
    @given(exact_instances())
    def test_is_already_reduced(self, inst):
        # check_unique tests this code grid for reversed switches without reducing it
        _, _, grid = _solve_checked(inst)
        assert find_switch(BinaryImage(_decode(grid))) is None


class TestSolveDr:
    def test_all_zero(self):
        inst = make_exact_instance(BinaryImage.zeros(4, 4), 2)
        assert solve_dr(inst) == BinaryImage.zeros(4, 4)

    def test_random_images_sampled(self):
        for seed in range(30):
            img = random_image(8, 8, 0.45, seed)
            inst = make_exact_instance(img, 2)
            out = solve_dr(inst)
            assert out is not None
            assert verify_solution(inst, out).satisfied

    def test_output_is_reduced(self):
        for seed in range(10):
            inst = make_exact_instance(random_image(10, 8, 0.5, seed), 2)
            out = solve_dr(inst)
            assert find_switch(out) is None

    def test_sum_mismatch_infeasible(self):
        inst = single_block_instance(1, (1, 0), (0, 0))
        assert solve_dr(inst) is None

    def test_block_line_conflict_infeasible(self):
        # line sums demand two ones, block allows none
        inst = single_block_instance(0, (1, 1), (1, 1))
        assert solve_dr(inst) is None

    def test_structural_error_raises(self):
        # a block value of 5 is rejected at construction, a row sum of 3 by solve_dr's validation
        with pytest.raises(ValueError, match="block values"):
            single_block_instance(5, (1, 1), (1, 1))
        with pytest.raises(ValueError, match="row sum r_1=3"):
            solve_dr(single_block_instance(1, (3, 0), (2, 1)))

    def test_unsupported_parameters_raise(self):
        inst = single_block_instance(1, (1, 0), (1, 0), epsilon=1)
        with pytest.raises(ValueError):
            solve_dr(inst)

    def test_failed_check_after_the_subsolvers_is_a_bug(self, monkeypatch):
        """A grid assembled from parts that every subsolver found must satisfy the instance."""
        inst = make_exact_instance(BinaryImage.from_ones(4, 4, [(1, 1), (2, 2)]), 2)
        assert solve_dr(inst) is not None and check_unique(inst) is not None
        # a part of the right length for the three zero blocks, but full
        monkeypatch.setitem(solver._SOLVERS, 0, lambda sub: np.full(np.count_nonzero(sub.mask), 15, np.uint8))
        for run in (solve_dr, check_unique):
            with pytest.raises(RuntimeError, match="fails the instance"):
                run(inst)


class TestClosedFormUnswap:
    """solve_dr's closed-form un-swap equals reduce of the un-swapped proper-frame image."""

    @pytest.fixture
    def closed_form(self, monkeypatch):
        """A check of one instance that returns its strip permutation."""
        seen = []  # solve_dr's own proper-frame solution, decoded as it runs

        def record(inst):
            solved = _solve_checked(inst)
            seen.append((solved[0], BinaryImage(_decode(solved[2]))))
            return solved

        monkeypatch.setattr(solver, "_solve_checked", record)

        def check(inst, reference=True):
            got = solve_dr(inst)
            perm, img = seen.pop()
            assert np.array_equal(got.a, switches.reduce(ref.apply_to_image(perm, img)).a)
            if reference:
                assert write_image(got) == write_image(ref.solve_dr(inst))
            return perm

        return check

    def test_every_4x4_instance_with_a_swapped_strip(self, closed_form):
        # all 65536 images, with bit 4r + c as cell (c + 1, r + 1); one image per instance
        a = (np.arange(1 << 16)[:, None] >> np.arange(16) & 1).astype(np.uint8).reshape(-1, 4, 4)
        rows, cols = a.sum(axis=2), a.sum(axis=1)
        blocks = a.reshape(-1, 2, 2, 2, 2).sum(axis=(2, 4)).reshape(-1, 4)
        swapped = (rows[:, 0::2] < rows[:, 1::2]).any(axis=1) | (cols[:, 0::2] < cols[:, 1::2]).any(axis=1)
        keys = np.concatenate((rows, cols, blocks), axis=1)[swapped]
        _, first = np.unique(keys, axis=0, return_index=True)
        assert len(first) > 20000
        for x in np.flatnonzero(swapped)[first]:
            perm = closed_form(make_exact_instance(BinaryImage(a[x]), 2), reference=False)
            assert perm.row_swapped.any() or perm.col_swapped.any()

    def test_calls_neither_reduce_nor_the_image_unswap(self, monkeypatch):
        def called(*args):
            raise AssertionError("solve_dr ran a whole-image post-pass")

        monkeypatch.setattr(switches, "reduce", called)
        inst = make_exact_instance(random_image(40, 24, 0.4, 1), 2)
        _, perm = properize(inst)
        assert perm.row_swapped.any() and perm.col_swapped.any()
        assert verify_solution(inst, solve_dr(inst)).satisfied

    def test_random_rectangles(self, closed_form):
        rng = random.Random(15)
        for seed in range(300):
            m, n = 2 * rng.randint(1, 20), 2 * rng.randint(1, 20)
            img = random_image(m, n, rng.uniform(0.1, 0.9), seed)
            closed_form(make_exact_instance(img, 2))

    @pytest.mark.parametrize("heavy", [(), ("B1", "B2", "B31")])
    def test_mirrored_phantoms(self, heavy, closed_form):
        # a proper phantom flipped top to bottom swaps every unbalanced row
        # strip and no column strip; flipped left to right, the other way round
        tiles = list(BlockType)
        weights = [6 if t.name in heavy else 1 for t in tiles]
        rng = random.Random(len(heavy))
        kinds = Counter()
        for seed in range(40):
            m, n = 2 * rng.randint(4, 16), 2 * rng.randint(4, 16)
            corners = [(i, j) for i in range(1, m, 2) for j in range(1, n, 2)]
            types = dict(zip(corners, rng.choices(tiles, weights, k=len(corners))))
            phantom = image_of_types(types, m, n)
            _, perm = properize(make_exact_instance(phantom, 2))
            a = ref.apply_to_image(perm, phantom).a
            for flipped in (a, a[::-1], a[:, ::-1], a[::-1, ::-1]):
                perm = closed_form(make_exact_instance(BinaryImage(flipped), 2))
                kinds[bool(perm.row_swapped.any()), bool(perm.col_swapped.any())] += 1
        assert kinds[False, False] and kinds[True, False] and kinds[False, True] and kinds[True, True]


class TestCheckUnique:
    def test_all_zero_unique(self):
        inst = make_exact_instance(BinaryImage.zeros(4, 4), 2)
        assert check_unique(inst) is True

    def test_balanced_single_block_not_unique(self):
        assert check_unique(single_block_instance(2, (1, 1), (1, 1))) is False

    def test_forced_single_block_unique(self):
        assert check_unique(single_block_instance(2, (2, 0), (1, 1))) is True

    def test_infeasible_returns_none(self):
        assert check_unique(single_block_instance(1, (1, 0), (0, 0))) is None

    def test_matches_oracle_on_random_6x6(self):
        budget = SearchBudget(max_solutions=10, max_nodes=1_000_000)
        for seed in range(100):
            inst = make_exact_instance(random_image(6, 6, 0.5, seed), 2)
            count, exhausted = oracle_count(inst, budget)
            want = count == 1 if exhausted else False
            assert check_unique(inst) == want

    @pytest.mark.parametrize("side", [6, 8, 10])
    def test_matches_oracle_on_two_one_heavy_phantoms(self, side):
        # many two-one blocks, so check_unique reaches the nu = 2 flow test on
        # most instances; both verdicts occur at every side
        tiles = [BlockType[t] for t in "B1 B2 B31 B32 B33 B34 EMPTY A11 C22 FULL".split()]
        weights = [1, 0.3, 1, 0.3, 1, 0.3, 6, 2, 2, 6]
        corners = [(i, j) for i in range(1, side, 2) for j in range(1, side, 2)]
        rng = random.Random(side)
        budget = SearchBudget(max_solutions=2)
        verdicts = Counter()
        for _ in range(200):
            types = dict(zip(corners, rng.choices(tiles, weights, k=len(corners))))
            inst = make_exact_instance(image_of_types(types, side, side), 2)
            count, exhausted = oracle_count(inst, budget)
            assert exhausted or count == 2
            verdict = check_unique(inst)
            assert verdict == (exhausted and count == 1)
            verdicts[verdict] += 1
        assert verdicts[True] and verdicts[False]
