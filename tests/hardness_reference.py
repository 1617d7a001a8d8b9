"""The claim walk that set the gadget boards' block values, kept as the reference construction.

`board_constraints` walks every component of a board again, block by
block, and claims each block as exact 0, exact 2 or uncertain 1; a block
claimed with two different values raises AssertionError.
`drtomo.hardness` reads the same values off the positions `build_board`
returns instead, and `gen_sat_instance` must equal this module's.
"""

import numpy as np

from drtomo.hardness import BoardSpec, OneInThreeInstance, build_board
from drtomo.model import Instance, _instance_of_grids


def board_constraints(spec: BoardSpec) -> tuple[np.ndarray, list[int], list[int]]:
    """Block values as a [bv, bu] array, plus row and column sums.

    Every component claims its blocks as exact 0, exact 2 or uncertain 1,
    so the value alone tells an uncertain block; blocks no component
    claims are exact 0.
    """
    sat = spec.sat
    S, T, N = len(sat.clauses), sat.num_vars, spec.side
    values = np.full((N // 2, N // 2), -1)  # -1: not claimed yet

    def claim(i: int, j: int, value: int) -> None:
        prev = values[j // 2, i // 2]
        if prev != -1 and prev != value:
            raise AssertionError(f"conflicting block constraint at ({i},{j})")
        values[j // 2, i // 2] = value

    a_last = spec.anchors[S]
    # initializer: uncertain single ones on its anti-diagonal
    for u in range(T):
        for v in range(T):
            claim(a_last + 2 * u, 1 + 2 * v, int(u + v == T - 1))
    # connectors: exact pairs on their anti-diagonals
    for s in range(1, S + 2):
        a = spec.anchors[s - 1]
        for u in range(T):
            for v in range(T):
                claim(a + 2 * u, a + 2 * v, 2 if u + v == T - 1 else 0)
    for s in range(1, S + 1):
        a = spec.anchors[s - 1]
        U, N_s = sat.unnegated(s), sat.negated(s)
        # vertical collector columns: two uncertain blocks around each chip
        for t in range(1, T + 1):
            for v_t in range(3 - 4 * t, 4 * (T - t) + 2, 2):
                claim(a + 2 * (T - t), a + 2 * T + 4 * t - 3 + v_t, int(v_t in (-1, 1)))
        # horizontal collector rows
        for t in range(1, T + 1):
            for u_t in range(3 - 4 * t, 4 * (T - t) + 2, 2):
                claim(a + 2 * T + 4 * t - 1 + u_t, a + 6 * T + 2 * t, int(u_t in (-1, 1)))
        # unused corner of the clause chip, above the vertical collector
        for u in range(T):
            for v in range(T):
                claim(a + 2 * u, a + 6 * T + 2 * v, 0)
        # vertical verifier: a one may cross only at the clause's literals
        for t in range(1, T + 1):
            for v in (1, 2):
                hit = (t in U and v == 1) or (t in N_s and v == 2)
                claim(a + 2 * T, a + 2 * T + 4 * t - 2 * v, int(hit))
        # horizontal verifier
        for t in range(1, T + 1):
            for u in (1, 2):
                hit = (t in U and u == 2) or (t in N_s and u == 1)
                claim(a + 2 * T + 2 + 4 * t - 2 * u, a + 6 * T, int(hit))
        # transmitter: the two off-diagonals carry the signal.  A variable
        # absent from the clause needs both side blocks open so its value
        # can pass straight through; a clause variable needs only the one
        # its configuration uses.
        for u in range(1, 2 * T):
            t = (u + 1) // 2
            open_plus = u % 2 == 1 and t not in N_s
            open_minus = u % 2 == 1 and t not in U
            claim(a + 2 * T + 2 + 2 * u, a + 2 * T + 2 * (u - 1), int(open_plus))
            claim(a + 2 * T + 2 + 2 * (u - 1), a + 2 * T + 2 * u, int(open_minus))
        for u in range(2 * T):
            for v in range(2 * T):
                if u - v not in (-1, 1):
                    claim(a + 2 * T + 2 + 2 * u, a + 2 * T + 2 * v, 0)
    values[values == -1] = 0  # every block not claimed by a component is zero

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
    """The formula's board instance, its block values set by the claim walk."""
    values, rows, cols = board_constraints(build_board(sat))
    return _instance_of_grids(2, epsilon, tuple(rows), tuple(cols), values, values != 1)
