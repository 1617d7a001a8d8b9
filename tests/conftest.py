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
    """Whether block codes meet every pair sum of a SubInstance."""
    for j, pair in sub.pair_row_sums.items():
        got = [0, 0]
        for (_, jj), code in codes.items():
            if jj == j:
                got[0] += (code & 1) + (code >> 1 & 1)
                got[1] += (code >> 2 & 1) + (code >> 3 & 1)
        if tuple(got) != tuple(pair):
            return False
    for i, pair in sub.pair_col_sums.items():
        got = [0, 0]
        for (ii, _), code in codes.items():
            if ii == i:
                got[0] += (code & 1) + (code >> 2 & 1)
                got[1] += (code >> 1 & 1) + (code >> 3 & 1)
        if tuple(got) != tuple(pair):
            return False
    return True
