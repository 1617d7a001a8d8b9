"""Core domain types for double-resolution binary tomography.

Coordinates are Cartesian and 1-based throughout: a cell (p, q) has column
p in [1, m] and row q in [1, n], with (1, 1) the lower-left corner.  Blocks
are k x k boxes anchored at corner points (i, j) with i = j = 1 (mod k).
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

Corner = tuple[int, int]


class BinaryImage:
    """An m x n grid of bits, addressed as xi[p, q] with (1, 1) lower-left."""

    __slots__ = ("m", "n", "a")

    def __init__(self, a: np.ndarray):
        # a[q-1, p-1] == xi_{p,q}; stored row q ascending (bottom to top).
        a = np.asarray(a, dtype=np.uint8)
        if a.ndim != 2:
            raise ValueError("bit array must be 2-dimensional")
        if a.max(initial=0) > 1:
            raise ValueError("bits must be 0 or 1")
        a = a.copy()
        a.flags.writeable = False
        self.a = a
        self.n, self.m = a.shape

    @classmethod
    def zeros(cls, m: int, n: int) -> "BinaryImage":
        return cls(np.zeros((n, m), dtype=np.uint8))

    @classmethod
    def from_ones(cls, m: int, n: int, ones: Iterator[tuple[int, int]]) -> "BinaryImage":
        a = np.zeros((n, m), dtype=np.uint8)
        for p, q in ones:
            a[q - 1, p - 1] = 1
        return cls(a)

    def get(self, p: int, q: int) -> int:
        return int(self.a[q - 1, p - 1])

    def ones(self) -> list[tuple[int, int]]:
        qs, ps = np.nonzero(self.a)
        return [(int(p) + 1, int(q) + 1) for p, q in zip(ps, qs)]

    def popcount(self) -> int:
        return int(self.a.sum())

    def row_sums(self) -> list[int]:
        """r_1 .. r_n, bottom to top."""
        return [int(x) for x in self.a.sum(axis=1)]

    def col_sums(self) -> list[int]:
        """c_1 .. c_m, left to right."""
        return [int(x) for x in self.a.sum(axis=0)]

    def block_sum(self, i: int, j: int, k: int) -> int:
        return int(self.a[j - 1 : j - 1 + k, i - 1 : i - 1 + k].sum())

    def mutable(self) -> np.ndarray:
        return self.a.copy()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryImage)
            and self.m == other.m
            and self.n == other.n
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.a.tobytes()))

    def __repr__(self) -> str:
        return f"BinaryImage({self.m}x{self.n}, {self.popcount()} ones)"


class BlockType(enum.Enum):
    """The 16 possible 2x2 bit patterns, under the solver's naming scheme.

    A(r, c) has its single one at row r, column c of the block (r = 1
    bottom, c = 1 left).  B1/B2 have both ones in the bottom/top row,
    B3(1)/B3(2) in the left/right column, B3(3) on the main diagonal
    (lower-left plus upper-right) and B3(4) on the anti-diagonal.
    C(r, c) has three ones with the unique zero at (row r, column c).
    """

    EMPTY = "empty"
    A11 = "a11"
    A12 = "a12"
    A21 = "a21"
    A22 = "a22"
    B1 = "b1"
    B2 = "b2"
    B31 = "b31"
    B32 = "b32"
    B33 = "b33"
    B34 = "b34"
    C11 = "c11"
    C12 = "c12"
    C21 = "c21"
    C22 = "c22"
    FULL = "full"

    @staticmethod
    def a(r: int, c: int) -> "BlockType":
        return BlockType[f"A{r}{c}"]

    @staticmethod
    def b3(s: int) -> "BlockType":
        return BlockType[f"B3{s}"]

    @staticmethod
    def c(r: int, c: int) -> "BlockType":
        return BlockType[f"C{r}{c}"]

    @property
    def cells(self) -> frozenset[tuple[int, int]]:
        """Offsets (dx, dy) in {0,1}^2 of the ones, dy = 0 bottom row."""
        return _PATTERN[self]

    @property
    def count(self) -> int:
        return len(_PATTERN[self])


def _patterns() -> dict[BlockType, frozenset[tuple[int, int]]]:
    t = BlockType
    pat = {
        t.EMPTY: frozenset(),
        t.B1: frozenset({(0, 0), (1, 0)}),
        t.B2: frozenset({(0, 1), (1, 1)}),
        t.B31: frozenset({(0, 0), (0, 1)}),
        t.B32: frozenset({(1, 0), (1, 1)}),
        t.B33: frozenset({(0, 0), (1, 1)}),
        t.B34: frozenset({(1, 0), (0, 1)}),
        t.FULL: frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}),
    }
    for r in (1, 2):
        for c in (1, 2):
            cell = (c - 1, r - 1)
            pat[t[f"A{r}{c}"]] = frozenset({cell})
            pat[t[f"C{r}{c}"]] = pat[t.FULL] - {cell}
    return pat


_PATTERN = _patterns()
_PATTERN_TO_TYPE = {v: k for k, v in _PATTERN.items()}


@dataclass(frozen=True)
class Instance:
    """A full reconstruction datum: sums, block values and reliability.

    blocks[bv][bu] is the prescribed number of ones of the block anchored
    at corner (k*bu + 1, k*bv + 1); bu runs left to right, bv bottom up.
    """

    k: int
    epsilon: int
    m: int
    n: int
    row_sums: tuple[int, ...]  # r_1 .. r_n, bottom to top
    col_sums: tuple[int, ...]  # c_1 .. c_m, left to right
    blocks: tuple[tuple[int, ...], ...]
    reliable: frozenset[Corner]

    def corners(self) -> Iterator[Corner]:
        for bv in range(self.n // self.k):
            for bu in range(self.m // self.k):
                yield (self.k * bu + 1, self.k * bv + 1)

    def value(self, i: int, j: int) -> int:
        return self.blocks[(j - 1) // self.k][(i - 1) // self.k]

    def is_reliable(self, i: int, j: int) -> bool:
        return (i, j) in self.reliable

    def window(self, i: int, j: int) -> tuple[int, int]:
        """Admissible [lo, hi] range for the block sum at corner (i, j)."""
        v = self.value(i, j)
        if (i, j) in self.reliable:
            return v, v
        return max(0, v - self.epsilon), min(self.k * self.k, v + self.epsilon)


@dataclass(frozen=True)
class GrayImage:
    """A low-resolution image of block sums; values in [0, maxval]."""

    width: int
    height: int
    maxval: int
    values: tuple[tuple[int, ...], ...]  # values[v][u], v bottom up

    def value(self, u: int, v: int) -> int:
        return self.values[v - 1][u - 1]


@dataclass(frozen=True)
class ValidationError:
    kind: str  # "dimension" | "shape" | "value" | "reliability" | "sum-mismatch"
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass
class VerificationReport:
    row_violations: list[tuple[int, int, int]] = field(default_factory=list)
    col_violations: list[tuple[int, int, int]] = field(default_factory=list)
    block_violations: list[tuple[Corner, int, tuple[int, int], int]] = field(default_factory=list)

    @property
    def satisfied(self) -> bool:
        return not (self.row_violations or self.col_violations or self.block_violations)


def validate_instance(inst: Instance) -> list[ValidationError]:
    """Structural checks plus the necessary feasibility condition sum(r) == sum(c).

    The sum mismatch is reported with its own kind: it marks a guaranteed
    infeasible instance rather than malformed data.
    """
    errs: list[ValidationError] = []
    if inst.k < 2:
        errs.append(ValidationError("dimension", f"k must be >= 2, got {inst.k}"))
    if inst.epsilon < 0:
        errs.append(ValidationError("value", f"epsilon must be >= 0, got {inst.epsilon}"))
    if inst.m <= 0 or inst.n <= 0:
        errs.append(ValidationError("dimension", f"grid {inst.m}x{inst.n} must be positive"))
    if inst.k >= 2 and (inst.m % inst.k or inst.n % inst.k):
        errs.append(
            ValidationError("dimension", f"grid {inst.m}x{inst.n} is not a multiple of k={inst.k}")
        )
        return errs
    if errs:
        return errs

    if len(inst.row_sums) != inst.n:
        errs.append(ValidationError("shape", f"expected {inst.n} row sums, got {len(inst.row_sums)}"))
    if len(inst.col_sums) != inst.m:
        errs.append(ValidationError("shape", f"expected {inst.m} column sums, got {len(inst.col_sums)}"))
    bw, bh = inst.m // inst.k, inst.n // inst.k
    if len(inst.blocks) != bh or any(len(row) != bw for row in inst.blocks):
        errs.append(ValidationError("shape", f"block grid must be {bh} rows of {bw} values"))
    if errs:
        return errs

    for j, r in enumerate(inst.row_sums, start=1):
        if not 0 <= r <= inst.m:
            errs.append(ValidationError("value", f"row sum r_{j}={r} outside [0, {inst.m}]"))
    for i, c in enumerate(inst.col_sums, start=1):
        if not 0 <= c <= inst.n:
            errs.append(ValidationError("value", f"column sum c_{i}={c} outside [0, {inst.n}]"))
    kk = inst.k * inst.k
    for i, j in inst.corners():
        v = inst.value(i, j)
        if not 0 <= v <= kk:
            errs.append(ValidationError("value", f"block value v({i},{j})={v} outside [0, {kk}]"))
    all_corners = set(inst.corners())
    if not inst.reliable <= all_corners:
        errs.append(ValidationError("reliability", "reliable set contains non-corner points"))
    if inst.epsilon == 0 and inst.reliable != all_corners:
        errs.append(
            ValidationError("reliability", "epsilon = 0 requires every block to be reliable")
        )
    if sum(inst.row_sums) != sum(inst.col_sums):
        errs.append(
            ValidationError(
                "sum-mismatch",
                f"sum of row sums ({sum(inst.row_sums)}) != sum of column sums ({sum(inst.col_sums)})",
            )
        )
    return errs


def verify_solution(inst: Instance, img: BinaryImage) -> VerificationReport:
    """Check every row, column and block constraint of inst against img."""
    if (img.m, img.n) != (inst.m, inst.n):
        raise ValueError(f"image is {img.m}x{img.n}, instance expects {inst.m}x{inst.n}")
    report = VerificationReport()
    for q, (want, got) in enumerate(zip(inst.row_sums, img.row_sums()), start=1):
        if want != got:
            report.row_violations.append((q, want, got))
    for p, (want, got) in enumerate(zip(inst.col_sums, img.col_sums()), start=1):
        if want != got:
            report.col_violations.append((p, want, got))
    for i, j in inst.corners():
        lo, hi = inst.window(i, j)
        got = img.block_sum(i, j, inst.k)
        if not lo <= got <= hi:
            report.block_violations.append(((i, j), inst.value(i, j), (lo, hi), got))
    return report


def classify_block(img: BinaryImage, corner: Corner) -> BlockType:
    """Identify the 2x2 pattern anchored at the given corner point."""
    i, j = corner
    if not (1 <= i <= img.m - 1 and 1 <= j <= img.n - 1 and i % 2 == 1 and j % 2 == 1):
        raise ValueError(f"({i},{j}) is not a 2x2 corner point of a {img.m}x{img.n} image")
    ones = frozenset(
        (dx, dy) for dx in (0, 1) for dy in (0, 1) if img.get(i + dx, j + dy)
    )
    return _PATTERN_TO_TYPE[ones]


def degrade(img: BinaryImage, k: int) -> GrayImage:
    """Collapse each k x k block to its number of ones."""
    if img.m % k or img.n % k:
        raise ValueError(f"image {img.m}x{img.n} is not divisible into {k}x{k} blocks")
    sums = img.a.reshape(img.n // k, k, img.m // k, k).sum(axis=(1, 3))
    return GrayImage(
        width=img.m // k,
        height=img.n // k,
        maxval=k * k,
        values=tuple(tuple(int(x) for x in row) for row in sums),
    )


def make_exact_instance(img: BinaryImage, k: int) -> Instance:
    """Exact (epsilon = 0, all-reliable) instance with img as a solution."""
    gray = degrade(img, k)
    reliable = frozenset(
        (k * bu + 1, k * bv + 1) for bv in range(img.n // k) for bu in range(img.m // k)
    )
    return Instance(
        k=k,
        epsilon=0,
        m=img.m,
        n=img.n,
        row_sums=tuple(img.row_sums()),
        col_sums=tuple(img.col_sums()),
        blocks=gray.values,
        reliable=reliable,
    )


def perturb_instance(inst: Instance, fraction_unreliable: float, seed: int) -> Instance:
    """Mark a seeded choice of blocks unreliable and jitter their values.

    Each demoted block value is shifted by a uniform offset in
    [-epsilon, epsilon] and clipped to [0, k^2], so any image satisfying
    inst still satisfies the perturbed instance.  With epsilon = 0 the
    noise window is degenerate and the instance is returned unchanged.
    """
    if not 0 <= fraction_unreliable <= 1:
        raise ValueError("fraction_unreliable must be in [0, 1]")
    if inst.epsilon == 0 or fraction_unreliable == 0:
        return inst
    all_corners = sorted(inst.corners())
    count = math.ceil(fraction_unreliable * len(all_corners))
    rng = random.Random(seed)
    demoted = set(rng.sample(all_corners, count))
    kk = inst.k * inst.k
    new_blocks = [list(row) for row in inst.blocks]
    for i, j in sorted(demoted):
        offset = rng.randint(-inst.epsilon, inst.epsilon)
        bu, bv = (i - 1) // inst.k, (j - 1) // inst.k
        new_blocks[bv][bu] = min(kk, max(0, new_blocks[bv][bu] + offset))
    return Instance(
        k=inst.k,
        epsilon=inst.epsilon,
        m=inst.m,
        n=inst.n,
        row_sums=inst.row_sums,
        col_sums=inst.col_sums,
        blocks=tuple(tuple(row) for row in new_blocks),
        reliable=inst.reliable - demoted,
    )


def random_image(m: int, n: int, density: float, seed: int) -> BinaryImage:
    """Seeded random binary image; each cell is one with the given probability."""
    rng = np.random.default_rng(seed)
    return BinaryImage((rng.random((n, m)) < density).astype(np.uint8))
