"""Gadget boards encoding 1-in-3 satisfiability as noisy reconstruction.

A formula over T variables with S clauses becomes a square board of side
S(6T+2) + 2T.  Truth values live in 2x2 "chips": ones in the bottom row
mean True, ones in the left column mean False.  A diagonal of connectors
copies each variable and its negation across the board, and every clause
gets a chip whose two verifier lines admit exactly one crossing one.
`build_board` is the one statement of where the components sit, and the
block values follow from it: a connector chip's block is exact with
value 2, a block holding a cell of any other component is uncertain with
value 1 (plus or minus epsilon), since a one may or may not pass through
it, and every other block is exact with value 0.

Parsimony, measured and conjectured: a board has exactly one solution
per satisfying 1-in-3 assignment of its formula.  The test suite checks
this with the exhaustive oracle's solution count on every formula of
one or two clauses over three or four variables (604 boards, clauses
taken as a multiset) and on drawn formulas of up to eight variables and
four clauses; for a few formulas also at epsilon 2 and 3 and lifted to
k = 3 and 4, and that `extract_assignment` maps the solutions one to one
onto the satisfying assignments.  This is a measurement, not a theorem
of the source paper, and it is not proven here.  If it holds, counting
the solutions of a noisy instance is #P-hard (counting 1-in-3
assignments is #P-complete, Creignou & Hermann 1996), and deciding
whether one is unique is as hard as Unique 1-in-3-SAT (Valiant 1979),
for every k >= 2 through the lift.

Also here: the lifting that embeds a 2x2-block instance into one with
larger blocks while preserving feasibility.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .formats import FormatError, _content_lines, _ints
from .model import (
    BinaryImage, BlockType, Instance, _instance_of_grids, _require_well_formed, classify_block, validate_instance,
)
from .oracle import SearchBudget, constrained_solve

Cell = tuple[int, int]


@dataclass(frozen=True)
class OneInThreeInstance:
    """Clauses of three literals; satisfaction = exactly one true literal."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause} does not have three literals")
            if any(lit == 0 or abs(lit) > self.num_vars for lit in clause):
                raise ValueError(f"clause {clause} references a bad variable")
            if len({abs(lit) for lit in clause}) != 3:
                raise ValueError(f"clause {clause} repeats a variable")

    def unnegated(self, s: int) -> set[int]:
        """Variable indices appearing positively in clause s (1-based)."""
        return {lit for lit in self.clauses[s - 1] if lit > 0}

    def negated(self, s: int) -> set[int]:
        return {-lit for lit in self.clauses[s - 1] if lit < 0}

    def satisfied_by(self, assignment: tuple[bool, ...]) -> bool:
        for s in range(1, len(self.clauses) + 1):
            true_lits = sum(1 for t in self.unnegated(s) if assignment[t - 1]) + sum(
                1 for t in self.negated(s) if not assignment[t - 1]
            )
            if true_lits != 1:
                return False
        return True


def parse_sat(text: str) -> OneInThreeInstance:
    """Read the `p 1in3 <vars> <clauses>` header format.

    Numbers are ASCII decimal integers with an optional sign; a malformed
    line raises FormatError (a ValueError) naming its line.
    """
    clauses = []
    header: Optional[tuple[int, int]] = None
    for no, line in _content_lines(text):
        if line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "1in3":
                raise FormatError(f"bad header {line!r}", no)
            if header is not None:
                raise FormatError("repeated 'p 1in3' header", no)
            header = tuple(_ints(fields[2:], no))
            continue
        lits = tuple(_ints(line.split(), no))
        if len(lits) != 3:
            raise FormatError("expected three literals", no)
        clauses.append(lits)
    if header is None:
        raise ValueError("missing 'p 1in3' header")
    num_vars, num_clauses = header
    if len(clauses) != num_clauses:
        raise ValueError(f"header promises {num_clauses} clauses, found {len(clauses)}")
    return OneInThreeInstance(num_vars=num_vars, clauses=tuple(clauses))


def write_sat(sat: OneInThreeInstance) -> str:
    lines = [f"p 1in3 {sat.num_vars} {len(sat.clauses)}"]
    lines += [" ".join(str(lit) for lit in clause) for clause in sat.clauses]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BoardSpec:
    """All component positions of one gadget board.

    Chip coordinates are the lower-left cell of the 2x2 chip box.
    Initializer and connector chips are block-aligned; collector chips
    straddle two blocks.  candidate_cells is the set of cells that may
    carry a one in some solution; everything else is forced to zero.
    The board's block values are read off these positions alone.
    """

    sat: OneInThreeInstance
    side: int
    anchors: tuple[int, ...]  # a_1 .. a_{S+1}
    init_chips: dict[int, Cell] = field(default_factory=dict)  # t -> cell
    connector_chips: dict[tuple[int, int], Cell] = field(default_factory=dict)
    vcollector_chips: dict[tuple[int, int], Cell] = field(default_factory=dict)
    hcollector_chips: dict[tuple[int, int], Cell] = field(default_factory=dict)
    config_points: dict[tuple[int, int], frozenset[Cell]] = field(default_factory=dict)

    @property
    def candidate_cells(self) -> frozenset[Cell]:
        chips = _chip_cells(self.init_chips, self.connector_chips, self.vcollector_chips, self.hcollector_chips)
        return frozenset(chips.union(*self.config_points.values()))


def _chip_cells(*chip_maps: dict) -> set[Cell]:
    """The four cells of every chip in the maps, each chip given by its lower-left cell."""
    return {(x + dx, y + dy) for chips in chip_maps for x, y in chips.values() for dx in (0, 1) for dy in (0, 1)}


def build_board(sat: OneInThreeInstance) -> BoardSpec:
    """Component coordinates for a formula's board.

    A formula with no clause has no board: its initializer and first
    connector would claim the same blocks, so it raises ValueError.
    """
    S, T = len(sat.clauses), sat.num_vars
    if S == 0:
        raise ValueError("a formula with no clause has no gadget board")
    side = S * (6 * T + 2) + 2 * T
    anchors = tuple((6 * T + 2) * (s - 1) + 1 for s in range(1, S + 2))
    a_last = anchors[S]
    spec = BoardSpec(sat=sat, side=side, anchors=anchors)
    for t in range(1, T + 1):
        spec.init_chips[t] = (a_last + 2 * (T - t), 2 * t - 1)
    for s in range(1, S + 2):
        a = anchors[s - 1]
        for t in range(1, T + 1):
            spec.connector_chips[(s, t)] = (a + 2 * (T - t), a + 2 * (t - 1))
    for s in range(1, S + 1):
        a = anchors[s - 1]
        U, N = sat.unnegated(s), sat.negated(s)
        for t in range(1, T + 1):
            spec.vcollector_chips[(s, t)] = (a + 2 * (T - t), a + 2 * T + 4 * t - 3)
            spec.hcollector_chips[(s, t)] = (a + 2 * T + 4 * t - 1, a + 6 * T + 2 * t)
            base = (a + 2 * T, a + 2 * T)
            if t in U:
                offsets = [(1, 4 * t - 2), (4 * t, 4 * t - 3), (4 * t - 1, 4 * T)]
            elif t in N:
                offsets = [(1, 4 * t - 3), (4 * t - 1, 4 * t - 2), (4 * t, 4 * T)]
            else:
                offsets = [(4 * t - 1, 4 * t - 2), (4 * t, 4 * t - 3)]
            spec.config_points[(s, t)] = frozenset(
                (base[0] + dx, base[1] + dy) for dx, dy in offsets
            )
    return spec


def _board_constraints(spec: BoardSpec) -> tuple[np.ndarray, list[int], list[int]]:
    """Block values as a [bv, bu] array, plus row and column sums.

    The values are read off the component positions: a connector chip's
    block is exact 2, a block holding a cell of any other component is
    uncertain 1, and every other block is exact 0.  A block holding a
    connector chip and a cell of another component raises AssertionError.
    The line sums depend only on S and T.
    """
    S, T, N = len(spec.sat.clauses), spec.sat.num_vars, spec.side
    values = np.zeros((N // 2, N // 2), dtype=np.uint8)
    others = _chip_cells(spec.init_chips, spec.vcollector_chips, spec.hcollector_chips)
    x, y = np.array(list(others.union(*spec.config_points.values()))).T
    values[(y - 1) // 2, (x - 1) // 2] = 1
    for i, j in spec.connector_chips.values():
        block = (j - 1) // 2, (i - 1) // 2
        if values[block]:
            raise AssertionError(f"conflicting block constraint at ({i},{j})")
        values[block] = 2

    rows = [0] * N
    cols = [0] * N
    for s in range(1, S + 2):
        a = spec.anchors[s - 1]
        for l in range(2 * T):
            rows[a + l - 1] = cols[a + l - 1] = 3 if l % 2 == 0 else 1
    for s in range(1, S + 1):
        a = spec.anchors[s - 1]
        rows[a + 6 * T - 1] = 1
        rows[a + 6 * T] = 0  # index a+6T+1, zero-based
        cols[a + 2 * T - 1] = 0
        cols[a + 2 * T] = 1
        for l in range(T):
            rows[a + 2 * T + 4 * l - 1] = 0
            rows[a + 2 * T + 4 * l] = 2
            rows[a + 2 * T + 4 * l + 1] = 1
            rows[a + 2 * T + 4 * l + 2] = 0
            cols[a + 2 * T + 4 * l + 1] = 0
            cols[a + 2 * T + 4 * l + 2] = 2
            cols[a + 2 * T + 4 * l + 3] = 1
            cols[a + 2 * T + 4 * l + 4] = 0
    return values, rows, cols


def gen_sat_instance(sat: OneInThreeInstance, epsilon: int = 1) -> Instance:
    """Reconstruction instance solvable iff the formula is 1-in-3 satisfiable."""
    if epsilon < 1:
        raise ValueError("the gadget needs epsilon >= 1")
    if epsilon >= 3:
        warnings.warn(
            "epsilon >= 3 lets uncertain blocks hold up to four ones; the "
            "encoding is only validated for windows covering 0, 1 and 2",
            stacklevel=2,
        )
    values, rows, cols = _board_constraints(build_board(sat))
    return _instance_of_grids(2, epsilon, tuple(rows), tuple(cols), values, values != 1)


_CHIP = {True: BlockType.B1, False: BlockType.B31}  # ones in the bottom row / left column


def embed_assignment(
    spec: BoardSpec, inst: Instance, assignment: tuple[bool, ...]
) -> Optional[BinaryImage]:
    """Image encoding an assignment, or None if it breaks some clause.

    Pins the initializer chips and lets constraint search complete the
    rest.  Every cell outside the candidate cells lies in a zero row, a
    zero column or an exact zero block, so the oracle's pre-elimination
    sweep zeroes all of them in one array pass.  Forcing then carries the
    pins through the candidate cells, so the search takes at most one
    node.
    The completion is unique, and it exists exactly for the satisfying
    assignments.
    """
    if len(assignment) != spec.sat.num_vars:
        raise ValueError("assignment arity does not match the formula")
    if (inst.m, inst.n) != (spec.side, spec.side):
        raise ValueError("instance does not match the board")
    fixed: dict[Cell, int] = {}
    for t, value in enumerate(assignment, start=1):
        x, y = spec.init_chips[t]
        ones = _CHIP[value].cells
        for dx in (0, 1):
            for dy in (0, 1):
                fixed[(x + dx, y + dy)] = int((dx, dy) in ones)
    budget = SearchBudget(max_solutions=2, max_nodes=2_000_000)
    solutions, exhausted = constrained_solve(inst, fixed, budget)
    if not solutions:
        if not exhausted:
            raise RuntimeError("embedding search ran out of budget")
        return None
    if len(solutions) > 1:
        raise RuntimeError("embedding completion is not unique; board is off")
    return solutions[0]


def extract_assignment(spec: BoardSpec, img: BinaryImage) -> tuple[bool, ...]:
    """Read the truth assignment off the initializer chips."""
    if (img.m, img.n) != (spec.side, spec.side):
        raise ValueError(f"image is {img.m}x{img.n}, the board is {spec.side}x{spec.side}")
    out = []
    for t in range(1, spec.sat.num_vars + 1):
        kind = classify_block(img, spec.init_chips[t])
        if kind not in _CHIP.values():
            raise ValueError(
                f"chip for variable {t} holds {kind.name}, not a truth value"
            )
        out.append(kind == _CHIP[True])
    return tuple(out)


def lift_instance(inst: Instance, k_prime: int) -> Instance:
    """Blow a 2x2-block instance up to k'-sized blocks, same feasibility.

    Each two-line strip becomes a k'-line strip whose first two lines
    carry the old sums and whose remaining lines are zero; block values
    and reliability carry over to the enlarged blocks.  An instance
    validate_instance rejects for more than a sum mismatch raises
    ValueError.
    """
    if inst.k != 2:
        raise ValueError("lifting starts from block size 2")
    if k_prime < 2:
        raise ValueError("target block size must be at least 2")
    _require_well_formed(validate_instance(inst))
    if k_prime == 2:
        return inst
    # the same block grid and reliability, just bigger blocks
    return _instance_of_grids(
        k_prime, inst.epsilon, _lift_sums(inst.row_sums, k_prime), _lift_sums(inst.col_sums, k_prime),
        inst._grid, inst._reliable_grid,
    )


def _lift_sums(sums: tuple[int, ...], k_prime: int) -> tuple[int, ...]:
    """The line sums of two-line strips as the first two lines of k'-line strips, the rest zero."""
    out = np.zeros(len(sums) * k_prime // 2, dtype=np.int64)
    out[0::k_prime], out[1::k_prime] = sums[0::2], sums[1::2]
    return tuple(out.tolist())
