"""Shared helpers for the test suite."""

import itertools

import numpy as np
import pytest

from drtomo.model import BinaryImage, Instance


def image_from_code(code: int, m: int = 4, n: int = 4) -> BinaryImage:
    """Bit r*m+c of code becomes cell (c+1, r+1); enumerates all m*n images."""
    a = np.zeros((n, m), dtype=np.uint8)
    for r in range(n):
        for c in range(m):
            if (code >> (r * m + c)) & 1:
                a[r, c] = 1
    return BinaryImage(a)


def single_block_instance(
    v: int,
    row_pair: tuple[int, int],
    col_pair: tuple[int, int],
    epsilon: int = 0,
) -> Instance:
    """A 2x2 instance with one block of value v and the given line sums."""
    reliable = frozenset({(1, 1)}) if epsilon == 0 else frozenset()
    return Instance(
        k=2,
        epsilon=epsilon,
        m=2,
        n=2,
        row_sums=row_pair,
        col_sums=col_pair,
        blocks=((v,),),
        reliable=reliable,
    )


def iter_block_patterns(nu: int):
    """All subsets of a 2x2 cell with nu ones, as offset sets."""
    cells = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for combo in itertools.combinations(cells, nu):
        yield frozenset(combo)


def block_code(ones) -> int:
    """Block code of an offset set: bit dx + 2*dy holds cell (dx, dy)."""
    return sum(1 << (dx + 2 * dy) for dx, dy in ones)


def code_cells(code: int) -> frozenset:
    """Offsets (dx, dy) of the ones of a block code."""
    return frozenset((dx, dy) for dx in (0, 1) for dy in (0, 1) if code >> (dx + 2 * dy) & 1)


def sub_instance(nu: int, I, rows: dict, cols: dict, m: int = 8, n: int = 8):
    """SubInstance over an m x n image from corners and {corner row/column: pair} dicts.

    Strips missing from the dicts get the pair (0, 0).
    """
    from drtomo.subsolvers import SubInstance

    mask = np.zeros((n // 2, m // 2), dtype=bool)
    for i, j in I:
        mask[j // 2, i // 2] = True
    row_pairs = np.zeros((n // 2, 2), dtype=np.int64)
    col_pairs = np.zeros((m // 2, 2), dtype=np.int64)
    for pairs, sums in ((row_pairs, rows), (col_pairs, cols)):
        for s, pair in sums.items():
            pairs[s // 2] = pair
    return SubInstance(nu, mask, row_pairs, col_pairs)


def codes_by_corner(sub, part) -> dict:
    """{corner: code} of a subsolver answer, which lists the masked blocks row by row."""
    bv, bu = np.nonzero(sub.mask)
    assert len(part) == len(bv)
    return dict(zip(zip((2 * bu + 1).tolist(), (2 * bv + 1).tolist()), np.asarray(part).tolist()))


def part_of(sub, codes: dict) -> np.ndarray:
    """The codes {corner: code} as a subsolver lists them: masked blocks row by row."""
    return np.array([codes[c] for c in sorted(codes, key=lambda c: (c[1], c[0]))], dtype=np.uint8)


def brute_force_sub(sub) -> list[dict]:
    """All block-code assignments {corner: code} solving a SubInstance, by enumeration."""
    blocks = sorted(sub.I)
    codes = [block_code(ones) for ones in iter_block_patterns(sub.nu)]
    out = []
    for choice in itertools.product(codes, repeat=len(blocks)):
        assignment = dict(zip(blocks, choice))
        if sub_sums_ok(sub, assignment):
            out.append(assignment)
    return out


def sub_sums_ok(sub, codes: dict) -> bool:
    """Whether block codes {corner: code} meet the pair sums of every strip of a SubInstance."""
    for bv, pair in enumerate(sub.rows.tolist()):
        got = [0, 0]
        for (_, jj), code in codes.items():
            if jj == 2 * bv + 1:
                got[0] += (code & 1) + (code >> 1 & 1)
                got[1] += (code >> 2 & 1) + (code >> 3 & 1)
        if got != pair:
            return False
    for bu, pair in enumerate(sub.cols.tolist()):
        got = [0, 0]
        for (ii, _), code in codes.items():
            if ii == 2 * bu + 1:
                got[0] += (code & 1) + (code >> 2 & 1)
                got[1] += (code >> 1 & 1) + (code >> 3 & 1)
        if got != pair:
            return False
    return True
