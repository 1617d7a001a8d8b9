"""Seeded inputs, operations and output checks of the three workloads.

Every operation mirrors one CLI subcommand and calls the library through
its module attributes (`formats.parse_instance`, `solver.solve_dr`, ...),
so a tracing wrapper installed on those attributes sees the call.  The
library receives only documents and formulas made here from the seed.
Checks compare each output with ground truth known from how the input
was made, or with the exhaustive oracle; they run outside the timed
region.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Callable, Optional

import numpy as np

from drtomo import formats, hardness, model, oracle, solver, switches
from drtomo.model import BinaryImage, BlockType

# operation kind -> role; every workload has both roles.  "find" searches an
# instance for an image; "certify" settles how many images an answer has:
# that the found image is the only one (unique), that an assignment has an
# embedding exactly when it satisfies the formula (embed), or how many
# images fit a noisy instance (count).
ROLE = {"solve": "find", "decide": "find", "unique": "certify", "embed": "certify", "count": "certify"}

ORACLE_SOLVE_BUDGET = oracle.SearchBudget(max_solutions=1, max_nodes=5_000_000)
ORACLE_UNIQUE_BUDGET = oracle.SearchBudget(max_solutions=2, max_nodes=200_000)


class Mismatch(Exception):
    """An operation returned a wrong or unchecked answer."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclasses.dataclass
class Op:
    kind: str
    pixels: int
    run: Callable[[], object]
    check: Callable[[object], None]
    work: Optional[Callable[[object], int]] = None  # pixels handled, when the output decides them


@dataclasses.dataclass
class Case:
    """One exact instance: its document, the image it was made from, and
    what the checks have learned about it so far."""

    doc: str
    inst: model.Instance
    truth: BinaryImage
    family: str
    solved: Optional[BinaryImage] = None
    feasible: Optional[bool] = None  # oracle verdict, filled on first check
    unique: Optional[bool] = None

    @property
    def pixels(self) -> int:
        return self.inst.m * self.inst.n


def exact_case(img: BinaryImage, family: str) -> Case:
    inst = model.make_exact_instance(img, 2)
    return Case(formats.write_instance(inst), inst, img, family)


_PHANTOM_TILES = (BlockType.EMPTY, BlockType.FULL, BlockType.A11, BlockType.C22, BlockType.B1)
_PHANTOM_WEIGHTS = np.array([3, 1, 1, 1, 1]) / 7


def block_phantom(side: int, rng: np.random.Generator) -> BinaryImage:
    """Each 2x2 block drawn from {empty, full, A11, C22, B1} with weights 3:1:1:1:1."""
    tiles = np.zeros((len(_PHANTOM_TILES), 2, 2), dtype=np.uint8)
    for t, bt in enumerate(_PHANTOM_TILES):
        for dx, dy in bt.cells:
            tiles[t, dy, dx] = 1
    picks = rng.choice(len(tiles), size=(side // 2, side // 2), p=_PHANTOM_WEIGHTS)
    a = tiles[picks].transpose(0, 2, 1, 3).reshape(side, side)
    return BinaryImage(a)


# --------------------------------------------------------------------------
# exact operations: solve, unique, tv
# --------------------------------------------------------------------------

def solve_op(case: Case) -> Op:
    """`drtomo solve`: parse, solve, write the image unless infeasible."""

    def run():
        inst = formats.parse_instance(case.doc)
        img = solver.solve_dr(inst)
        return inst, img, None if img is None else formats.write_image(img)

    def check(result):
        inst, img, data = result
        expect(inst == case.inst, "parsed instance differs from the generated one")
        # "small" instances are checked against the oracle; the rest are made from an image
        feasible = oracle_feasible(case) if case.family == "small" else True
        expect((img is not None) == feasible, "feasibility verdict differs from ground truth")
        if img is None:
            return
        expect(formats.read_image(data) == img, "written image does not read back")
        if case.solved is None or img != case.solved:
            expect(model.verify_solution(case.inst, img).satisfied, "solution violates the instance")
            expect(switches.find_switch(img) is None, "solution is not in reduced form")
        if case.family == "block":
            expect(img == case.truth, "block phantom not reconstructed exactly")
        case.solved = img

    return Op("solve", case.pixels, run, check)


def unique_op(case: Case) -> Op:
    """`drtomo check-unique`: parse, then decide uniqueness."""

    def run():
        return solver.check_unique(formats.parse_instance(case.doc))

    def check(verdict):
        if case.family == "block":
            expect(verdict is True, "block phantom must be unique")
        elif case.family == "small":
            if not oracle_feasible(case):
                expect(verdict is None, "infeasible instance not reported as such")
                return
            expect(verdict is oracle_unique(case), "uniqueness verdict differs from the oracle")
        else:
            expect(verdict is not None, "feasible instance reported infeasible")
            if case.solved is not None and case.solved != case.truth:
                # the solver and the source image are two distinct solutions
                expect(verdict is False, "two known solutions, yet reported unique")

    return Op("unique", case.pixels, run, check)


def tv_op(case: Case) -> Op:
    """`drtomo tv-reduce` on the image the round's solve produced."""

    def run():
        if case.solved is None:
            raise Mismatch("no solve output to descend from")
        steps = []
        out = switches.tv_descend(case.inst, case.solved, on_step=lambda move, value: steps.append(value))
        return out, steps

    def check(result):
        out, steps = result
        expect(model.verify_solution(case.inst, out).satisfied, "descent left the solution set")
        prev = switches.tv(case.solved)
        for value in steps:
            expect(value < prev, "descent trace does not strictly decrease")
            prev = value
        expect(switches.tv(out) == prev, "final image does not match the last step")

    return Op("tv", case.pixels, run, check)


def oracle_feasible(case: Case) -> bool:
    if case.feasible is None:
        sols, exhausted = oracle.oracle_solve(case.inst, ORACLE_SOLVE_BUDGET)
        expect(bool(sols) or exhausted, "oracle undecided on feasibility")
        case.feasible = bool(sols)
    return case.feasible


def oracle_unique(case: Case) -> bool:
    if case.unique is None:
        count, exhausted = oracle.oracle_count(case.inst, ORACLE_UNIQUE_BUDGET)
        expect(exhausted or count >= 2, "oracle undecided on uniqueness")
        case.unique = exhausted and count == 1
    return case.unique


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Workload:
    """A pool of seeded inputs, cut into rounds of a fixed operation mix.

    Round r uses pool slot r modulo the pool size, so a run longer than
    the pool repeats inputs rather than generating more during timing.
    """

    name = ""
    pool = 1
    trace_rounds = 1  # rounds in one traced pass

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def trace_sets(self) -> dict[str, list[Op]]:
        """Labelled operation lists of one traced pass; the first is reported."""
        return {"main": [op for r in range(self.trace_rounds) for op in self.round(r)]}


class ExactLarge(Workload):
    """solve and unique at 320x320 on a random and a block phantom per round."""

    name = "exact-large"
    side, ladder_side = 320, 160
    pool = 8

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.cases = [self._pair(self.side, rng) for _ in range(self.pool)]
        self.ladder = self._pair(self.ladder_side, rng)

    @staticmethod
    def _pair(side: int, rng: np.random.Generator) -> list[Case]:
        rand = model.random_image(side, side, 0.3, seed=int(rng.integers(2**31)))
        return [exact_case(rand, "random"), exact_case(block_phantom(side, rng), "block")]

    def round(self, r: int) -> list[Op]:
        return [op for c in self.cases[r % self.pool] for op in (solve_op(c), unique_op(c))]

    def trace_sets(self) -> dict[str, list[Op]]:
        """One random and one block instance at each side, labelled `<family>@<side>`."""
        return {
            f"{case.family}@{side}": [solve_op(case), unique_op(case)]
            for side, pair in ((self.side, self.cases[0]), (self.ladder_side, self.ladder))
            for case in pair
        }


class ExactSmall(Workload):
    """Per-call overhead: many 4x4, 8x8 and 16x16 instances, and TV descent."""

    name = "exact-small"
    n4, n8, n16 = 32, 8, 4
    pool = 96
    trace_rounds = 8

    def __init__(self, seed: int):
        rng = random.Random(seed * 7919 + 2)
        codes = rng.sample(range(65536), self.n4 * self.pool)
        self.c4 = [self._small(self._bits4(code)) for code in codes]
        self.c8 = []
        for t in range(self.n8 * self.pool):
            img = model.random_image(8, 8, rng.uniform(0.2, 0.8), seed=rng.randrange(2**31))
            self.c8.append(self._small(img, perturb=rng if t % 2 else None))
        self.c16 = [
            exact_case(model.random_image(16, 16, 0.4, seed=rng.randrange(2**31)), "mid")
            for _ in range(self.n16 * self.pool)
        ]

    @staticmethod
    def _bits4(code: int) -> BinaryImage:
        return BinaryImage(np.array([(code >> b) & 1 for b in range(16)], dtype=np.uint8).reshape(4, 4))

    @staticmethod
    def _small(img: BinaryImage, perturb: Optional[random.Random] = None) -> Case:
        case = exact_case(img, "small")
        if perturb is not None:
            # one row sum off by one, as in acceptance criterion 1
            rows = list(case.inst.row_sums)
            q = perturb.randrange(len(rows))
            delta = perturb.choice((-1, 1))
            if not 0 <= rows[q] + delta <= img.m:
                delta = -delta
            rows[q] += delta
            inst = dataclasses.replace(case.inst, row_sums=tuple(rows))
            case = Case(formats.write_instance(inst), inst, img, "small")
        return case

    def round(self, r: int) -> list[Op]:
        s = r % self.pool
        cases = (
            self.c4[s * self.n4 : (s + 1) * self.n4]
            + self.c8[s * self.n8 : (s + 1) * self.n8]
            + self.c16[s * self.n16 : (s + 1) * self.n16]
        )
        return [op for c in cases for op in (solve_op(c), unique_op(c))] + [tv_op(cases[-self.n16])]


def one_in_three_sat(sat: hardness.OneInThreeInstance, assignment: tuple[bool, ...]) -> bool:
    """Every clause has exactly one true literal (independent of the library)."""
    return all(sum((lit > 0) == assignment[abs(lit) - 1] for lit in clause) == 1 for clause in sat.clauses)


ASSIGNMENTS = list(itertools.product((False, True), repeat=4))


class NoisyOracle(Workload):
    """Only the oracle and the hardness gadgets: the bypass workload."""

    name = "noisy-oracle"
    n_embed = 8  # satisfiable formulas per round, each embedding one good and one bad assignment
    n_count = 24
    pool = 12

    def __init__(self, seed: int):
        rng = random.Random(seed * 7919 + 3)
        wanted = {True: [], False: []}
        need = {True: (1 + self.n_embed) * self.pool, False: self.pool}
        while any(len(wanted[t]) < need[t] for t in wanted):
            sat = self._formula(rng)
            truth = any(one_in_three_sat(sat, a) for a in ASSIGNMENTS)
            if len(wanted[truth]) < need[truth]:
                wanted[truth].append(sat)
        # each round decides one satisfiable and one unsatisfiable formula;
        # embeds pair a satisfying with a violating assignment of one formula,
        # so every round has the same mix however many assignments satisfy
        self.decided = list(zip(wanted[True][: self.pool], wanted[False]))
        self.embedded = []
        for sat in wanted[True][self.pool :]:
            spec, board = hardness.build_board(sat), hardness.gen_sat_instance(sat)
            good = rng.choice([a for a in ASSIGNMENTS if one_in_three_sat(sat, a)])
            bad = rng.choice([a for a in ASSIGNMENTS if not one_in_three_sat(sat, a)])
            self.embedded += [(spec, board, good), (spec, board, bad)]
        self.noisy = [self._noisy6(rng) for _ in range(self.n_count * self.pool)]

    @staticmethod
    def _formula(rng: random.Random) -> hardness.OneInThreeInstance:
        clauses = []
        for _ in range(2):
            chosen = rng.sample(range(1, 5), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
        return hardness.OneInThreeInstance(num_vars=4, clauses=tuple(clauses))

    @staticmethod
    def _noisy6(rng: random.Random) -> tuple[str, BinaryImage, model.Instance]:
        img = model.random_image(6, 6, 0.5, seed=rng.randrange(2**31))
        inst = dataclasses.replace(model.make_exact_instance(img, 2), epsilon=1)
        inst = model.perturb_instance(inst, 0.5, seed=rng.randrange(2**31))
        return formats.write_instance(inst), img, inst

    @staticmethod
    def decide_op(sat: hardness.OneInThreeInstance) -> Op:
        """`drtomo gen-sat` then `drtomo oracle`: is the formula 1-in-3 satisfiable?"""
        doc = hardness.write_sat(sat)
        side = hardness.build_board(sat).side

        def run():
            board = hardness.gen_sat_instance(hardness.parse_sat(doc))
            return board, oracle.oracle_solve(board, oracle.SearchBudget(max_solutions=1))

        def check(result):
            board, (sols, exhausted) = result
            expect(bool(sols) or exhausted, "oracle budget hit without a verdict")
            expect(bool(sols) == any(one_in_three_sat(sat, a) for a in ASSIGNMENTS), "wrong SAT verdict")
            for img in sols:
                expect(model.verify_solution(board, img).satisfied, "oracle solution violates the board")

        return Op("decide", side * side, run, check)

    @staticmethod
    def embed_op(spec: hardness.BoardSpec, board: model.Instance, assignment: tuple[bool, ...]) -> Op:
        """`drtomo embed` then `drtomo extract` for one assignment."""

        def run():
            img = hardness.embed_assignment(spec, board, assignment)
            return img, None if img is None else hardness.extract_assignment(spec, img)

        def check(result):
            img, back = result
            expect((img is not None) == one_in_three_sat(spec.sat, assignment), "embedding exists iff satisfying")
            if img is not None:
                expect(model.verify_solution(board, img).satisfied, "embedded image violates the board")
                expect(back == assignment, "extracted assignment differs from the embedded one")

        return Op("embed", spec.side * spec.side, run, check)

    @staticmethod
    def count_op(doc: str, source: BinaryImage, inst: model.Instance) -> Op:
        """`drtomo oracle --count` on a noisy instance."""

        def run():
            parsed = formats.parse_instance(doc)
            return parsed, oracle.oracle_count(parsed)

        def check(result):
            parsed, (count, exhausted) = result
            expect(parsed == inst, "parsed instance differs from the generated one")
            expect(model.verify_solution(inst, source).satisfied, "source image does not fit its noisy instance")
            expect(exhausted, "count hit the search budget")
            expect(count >= 1, "the source image is a solution, yet none counted")

        # the oracle enumerates every solution, so its work is their pixels
        return Op("count", 36, run, check, work=lambda result: 36 * result[1][0])

    def round(self, r: int) -> list[Op]:
        s = r % self.pool
        sat, unsat = self.decided[s]
        return (
            [self.decide_op(sat), self.decide_op(unsat)]
            + [self.embed_op(*e) for e in self.embedded[2 * s * self.n_embed : 2 * (s + 1) * self.n_embed]]
            + [self.count_op(*c) for c in self.noisy[s * self.n_count : (s + 1) * self.n_count]]
        )


WORKLOADS = {w.name: w for w in (ExactLarge, ExactSmall, NoisyOracle)}
