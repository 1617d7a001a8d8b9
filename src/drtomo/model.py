"""Core domain types for double-resolution binary tomography.

Coordinates are Cartesian and 1-based throughout: a cell (p, q) has column
p in [1, m] and row q in [1, n], with (1, 1) the lower-left corner.  Blocks
are k x k boxes anchored at corner points (i, j) with i = j = 1 (mod k).
"""

from __future__ import annotations

import enum
import math
import numbers
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, cycle, repeat
from typing import Iterator, Optional

import numpy as np

Corner = tuple[int, int]


class BinaryImage:
    """An m x n grid of bits, addressed as xi[p, q] with (1, 1) lower-left."""

    __slots__ = ("m", "n", "a")

    def __init__(self, a: np.ndarray):
        # a[q-1, p-1] == xi_{p,q}; stored row q ascending (bottom to top).
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError("bit array must be 2-dimensional")
        if a.dtype in (np.uint8, np.bool_):
            bits = a.max(initial=0) <= 1
        else:  # test the values as given: converting first would wrap 256 to 0 and truncate 0.5
            bits = ((a == 0) | (a == 1)).all()
        if not bits:
            raise ValueError("bits must be 0 or 1")
        a = a.astype(np.uint8)
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
            a[_cell(m, n, p, q)] = 1
        return cls(a)

    def get(self, p: int, q: int) -> int:
        return int(self.a[_cell(self.m, self.n, p, q)])

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
        """Ones in the k x k box with lower-left cell (i, j); ValueError unless the box lies in the image."""
        _cell(self.m, self.n, i, j)
        _cell(self.m, self.n, i + k - 1, j + k - 1)
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


def _cell(m: int, n: int, p: int, q: int) -> tuple[int, int]:
    """Array index [q - 1, p - 1] of cell (p, q) of an m x n grid; ValueError outside it.

    A plain index would wrap around at 0 and below.
    """
    if not (1 <= p <= m and 1 <= q <= n):
        raise ValueError(f"({p},{q}) is not a cell of a {m}x{n} grid")
    return q - 1, p - 1


class BlockType(enum.Enum):
    """The 16 possible 2x2 bit patterns, under the solver's naming scheme.

    A(r, c) has its single one at row r, column c of the block (r = 1
    bottom, c = 1 left).  B1/B2 have both ones in the bottom/top row,
    B3(1)/B3(2) in the left/right column, B3(3) on the main diagonal
    (lower-left plus upper-right) and B3(4) on the anti-diagonal.
    C(r, c) has three ones with the unique zero at (row r, column c).

    A type's value is its block code: a 4-bit integer whose bit dx + 2*dy
    holds cell (dx, dy) of the block, dy = 0 the bottom row.  The solver
    glues subproblem answers together in this form and the switch engine
    reads images in it; BlockType(code) names a code.
    """

    EMPTY = 0
    A11 = 1
    A12 = 2
    A21 = 4
    A22 = 8
    B1 = 3
    B2 = 12
    B31 = 5
    B32 = 10
    B33 = 9
    B34 = 6
    C11 = 14
    C12 = 13
    C21 = 11
    C22 = 7
    FULL = 15

    @property
    def cells(self) -> frozenset[tuple[int, int]]:
        """Offsets (dx, dy) in {0,1}^2 of the ones, dy = 0 bottom row."""
        return frozenset((bit & 1, bit >> 1) for bit in range(4) if self.value >> bit & 1)

    @property
    def count(self) -> int:
        return bin(self.value).count("1")


def _codes(a: np.ndarray) -> np.ndarray:
    """Code grid of a bit array: entry [v, u] codes the block at (2u+1, 2v+1).

    An odd last row or column belongs to no block and is left out.
    """
    a = a[: a.shape[0] // 2 * 2, : a.shape[1] // 2 * 2]
    return a[0::2, 0::2] | a[0::2, 1::2] << 1 | a[1::2, 0::2] << 2 | a[1::2, 1::2] << 3


def _decode(codes: np.ndarray) -> np.ndarray:
    """Bit array of a code grid; the inverse of _codes on even shapes."""
    h, w = codes.shape
    a = np.empty((2 * h, 2 * w), dtype=np.uint8)
    a[0::2, 0::2] = codes & 1
    a[0::2, 1::2] = codes >> 1 & 1
    a[1::2, 0::2] = codes >> 2 & 1
    a[1::2, 1::2] = codes >> 3
    return a


def _grid_dtype(k: int) -> type:
    """Type of a block grid with values 0..k^2: uint8 up to k = 15, int64 above."""
    return np.uint8 if k * k <= 255 else np.int64


# `blocks` and `reliable` are dataclass fields, so the constructor, repr,
# `dataclasses.fields` and `dataclasses.replace` see them as before; but an
# instance holds arrays, and each of the two is a view built on first read
@dataclass(frozen=True, init=False, eq=False)
class Instance:
    """A full reconstruction datum: sums, block values and reliability.

    An instance holds its block values as one [bh, bw] array `_grid` of
    type _grid_dtype(k) (uint8 while k^2 <= 255) with values in [0, k^2]:
    entry [bv, bu] is the prescribed number of ones of the block anchored
    at corner (k*bu + 1, k*bv + 1), bu left to right and bv bottom up.
    Reliability is one boolean array `_reliable_grid` of the same shape.
    Both are read-only, and a copy with other line sums shares them.

    The tuple constructor, and so dataclasses.replace, raises ValueError
    unless `blocks` is a grid of equal rows of integers in [0, k^2] and
    every point of `reliable` is a corner of that grid with integer
    coordinates; an empty grid is allowed.  Whether the grid fits m, n
    and k, and everything about epsilon and the line sums, are
    validate_instance findings.  `blocks` (blocks[bv][bu], a tuple of
    row tuples) and `reliable` (the frozenset of reliable corners) are
    views for the API edge, built on first read and kept.  Library
    functions build instances from arrays with _instance_of_grids and
    never make either view.
    """

    k: int
    epsilon: int
    m: int
    n: int
    row_sums: tuple[int, ...]  # r_1 .. r_n, bottom to top
    col_sums: tuple[int, ...]  # c_1 .. c_m, left to right
    blocks: tuple[tuple[int, ...], ...]
    reliable: frozenset[Corner]

    def __init__(
        self, k: int, epsilon: int, m: int, n: int, row_sums: tuple[int, ...], col_sums: tuple[int, ...],
        blocks: tuple[tuple[int, ...], ...], reliable: frozenset[Corner],
    ):
        self._hold(k, epsilon, m, n, row_sums, col_sums, *_arrays_of(k, blocks, reliable))
        self.__dict__.update(blocks=blocks, reliable=reliable)  # given, so already built

    def _hold(self, k, epsilon, m, n, row_sums, col_sums, grid, reliable_grid) -> None:
        """Set every field and array; the one step both constructors end in."""
        grid.flags.writeable = reliable_grid.flags.writeable = False  # shared by derived copies
        self.__dict__.update(
            k=k, epsilon=epsilon, m=m, n=n, row_sums=row_sums, col_sums=col_sums,
            _grid=grid, _reliable_grid=reliable_grid,
        )

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._grid.tolist()))

    @cached_property
    def reliable(self) -> frozenset[Corner]:
        bh, bw = self._reliable_grid.shape
        return frozenset(compress(_corners(self.k, bw, bh), self._reliable_grid.ravel().tolist()))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._scalars() == other._scalars() and all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in ((self._grid, other._grid), (self._reliable_grid, other._reliable_grid))
        )

    def __hash__(self) -> int:
        return hash((*self._scalars(), self._grid.shape, self._grid.tobytes(), self._reliable_grid.tobytes()))

    def _scalars(self) -> tuple:
        return self.k, self.epsilon, self.m, self.n, self.row_sums, self.col_sums

    def corners(self) -> Iterator[Corner]:
        return _corners(self.k, self.m // self.k, self.n // self.k)

    def _block(self, i: int, j: int) -> tuple[int, int]:
        """Index [bv, bu] of the block anchored at corner (i, j); ValueError if there is none."""
        bh, bw = self._reliable_grid.shape
        bu, di = divmod(i - 1, self.k)
        bv, dj = divmod(j - 1, self.k)
        if di or dj or not (0 <= bu < bw and 0 <= bv < bh):
            k, m, n = self.k, self.m, self.n
            raise ValueError(f"({i},{j}) is not a {k}x{k} corner point of a {m}x{n} instance")
        return bv, bu

    def value(self, i: int, j: int) -> int:
        return self._grid.item(self._block(i, j))

    def is_reliable(self, i: int, j: int) -> bool:
        return bool(self._reliable_grid[self._block(i, j)])

    def window(self, i: int, j: int) -> tuple[int, int]:
        """Admissible [lo, hi] range for the block sum at corner (i, j)."""
        lo, hi = self._windows(self._block(i, j))
        return int(lo), int(hi)

    def _windows(self, at=...) -> tuple[np.ndarray, np.ndarray]:
        """Admissible block sums lo and hi, as int64, of the blocks `at` indexes in `_grid` (all by default).

        The one window rule: [max(0, v - epsilon), min(k^2, v + epsilon)]
        about the block value v, narrowed to [v, v] on a reliable block.
        With epsilon = 0 every window is [v, v], and lo is hi.  Computed
        on each call and never kept: the arrays are as large as the grid.
        """
        values = self._grid[at].astype(np.int64)  # the noise bounds leave [0, k^2]; uint8 would wrap
        if not self.epsilon:
            return values, values
        reliable = self._reliable_grid[at]
        lo = np.where(reliable, values, np.maximum(values - self.epsilon, 0))
        hi = np.where(reliable, values, np.minimum(values + self.epsilon, self.k * self.k))
        return lo, hi

    @cached_property
    def _strip_counts(self) -> np.ndarray:
        """Blocks of each value 0..k^2 per strip, [k^2 + 1, bh + bw], from one bincount of `_grid`.

        Column s < bh counts the horizontal strip at corner row k*s + 1,
        column bh + s the vertical strip at corner column k*s + 1; row v
        holds the counts of value v.
        """
        bh, bw = self._grid.shape
        values = self.k * self.k + 1
        # bin values * s + v counts value v in strip s
        strips = values * np.arange(bh + bw)
        bins = np.empty((2, bh, bw), np.intp)
        np.add(self._grid, strips[:bh, None], out=bins[0])
        np.add(self._grid, strips[bh:], out=bins[1])
        counts = np.bincount(bins.ravel(), minlength=values * (bh + bw)).reshape(bh + bw, values).T.copy()
        counts.flags.writeable = False  # shared by every caller, and by swapped copies
        return counts

    def _with(self, **scalars) -> "Instance":
        """This instance with another epsilon or other line sums, sharing its
        arrays and its strip counts if computed.

        dataclasses.replace would build both views and convert them back.
        """
        out = object.__new__(Instance)
        fields = {"epsilon": self.epsilon, "row_sums": self.row_sums, "col_sums": self.col_sums, **scalars}
        out._hold(
            self.k, m=self.m, n=self.n, grid=self._grid, reliable_grid=self._reliable_grid, **fields,
        )
        if "_strip_counts" in self.__dict__:  # neither epsilon nor a line sum enters them
            out.__dict__["_strip_counts"] = self._strip_counts
        return out


def _corners(k: int, bw: int, bh: int) -> Iterator[Corner]:
    """Corners of a bw x bh block grid, row by row from the bottom, left to right.

    Built from C-level iterators, so a caller that consumes them in C
    (a set, `compress`, `zip`) runs no Python code per corner.
    """
    columns = [k * bu + 1 for bu in range(bw)]
    rows = [k * bv + 1 for bv in range(bh)]
    return zip(cycle(columns), chain.from_iterable(map(repeat, rows, repeat(bw))))


def _arrays_of(k: int, blocks, reliable) -> tuple[np.ndarray, np.ndarray]:
    """The grid and reliability mask of tuple input; ValueError if they break the invariant."""
    if len(set(map(len, blocks))) > 1:
        raise ValueError("block grid is ragged: its rows differ in length")
    grid = np.array(blocks) if len(blocks) else np.zeros((0, 0), dtype=np.uint8)
    kk = k * k
    if grid.ndim != 2 or grid.size and not (grid.dtype.kind in "iub" and 0 <= grid.min() and grid.max() <= kk):
        raise ValueError(f"block values must be integers in [0, {kk}]")
    bh, bw = grid.shape
    # (1.0, 1) equals the corner (1, 1), so the coordinates must also be integers
    if not frozenset(_corners(k, bw, bh)).issuperset(reliable) or not all(
        issubclass(t, numbers.Integral) for t in set(map(type, chain.from_iterable(reliable)))
    ):
        raise ValueError("reliable set contains non-corner points")
    marks = np.fromiter(map(reliable.__contains__, _corners(k, bw, bh)), dtype=bool, count=bw * bh)
    return grid.astype(_grid_dtype(k)), marks.reshape(bh, bw)


def _instance_of_grids(
    k: int, epsilon: int, row_sums: tuple[int, ...], col_sums: tuple[int, ...],
    grid: np.ndarray, reliable_grid: np.ndarray,
) -> Instance:
    """Instance of block values in [0, k^2] and a reliability mask, both [bv, bu] arrays.

    The library's constructor: the arrays become the instance's own (the
    values in the type of _grid_dtype(k)), and neither `blocks` nor
    `reliable` is built.
    """
    bh, bw = grid.shape
    inst = object.__new__(Instance)
    inst._hold(
        k, epsilon, k * bw, k * bh, row_sums, col_sums,
        grid.astype(_grid_dtype(k), copy=False), reliable_grid,
    )
    return inst


@dataclass(frozen=True)
class GrayImage:
    """A low-resolution image of block sums; values in [0, maxval]."""

    width: int
    height: int
    maxval: int
    values: tuple[tuple[int, ...], ...]  # values[v][u], v bottom up

    def value(self, u: int, v: int) -> int:
        row, col = _cell(self.width, self.height, u, v)
        return self.values[row][col]


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
    if inst._grid.shape != (bh, bw):
        errs.append(ValidationError("shape", f"block grid must be {bh} rows of {bw} values"))
    if errs:
        return errs

    # each range test covers a whole sequence; only offenders are visited,
    # and their messages quote the values themselves
    for name, sums, top in (("row sum r", inst.row_sums, inst.m), ("column sum c", inst.col_sums, inst.n)):
        if min(sums) < 0 or max(sums) > top:
            for x in _outside(np.array(sums), top):
                errs.append(ValidationError("value", f"{name}_{x + 1}={sums[x]} outside [0, {top}]"))
    if inst.epsilon == 0 and not inst._reliable_grid.all():
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


def _outside(values: np.ndarray, top: int) -> list[int]:
    """Indices of the entries outside [0, top], in order."""
    return np.flatnonzero((values < 0) | (values > top)).tolist()


def verify_solution(inst: Instance, img: BinaryImage) -> VerificationReport:
    """Check every row, column and block constraint of inst against img."""
    if (img.m, img.n) != (inst.m, inst.n):
        raise ValueError(f"image is {img.m}x{img.n}, instance expects {inst.m}x{inst.n}")
    k = inst.k
    got = _box_sums(img.a, k)
    lo, hi = inst._windows()
    bad_v, bad_u = np.nonzero((got < lo) | (got > hi))
    return VerificationReport(
        row_violations=_line_violations(inst.row_sums, img.a.sum(axis=1)),
        col_violations=_line_violations(inst.col_sums, img.a.sum(axis=0)),
        block_violations=[
            ((k * u + 1, k * v + 1), inst._grid.item(v, u), (int(lo[v, u]), int(hi[v, u])), int(got[v, u]))
            for v, u in zip(bad_v.tolist(), bad_u.tolist())
        ],
    )


def _line_violations(want: tuple[int, ...], got: np.ndarray) -> list[tuple[int, int, int]]:
    return [(x, w, g) for x, (w, g) in enumerate(zip(want, got.tolist()), start=1) if w != g]


def classify_block(img: BinaryImage, corner: Corner) -> BlockType:
    """Identify the 2x2 pattern anchored at the given corner point."""
    i, j = corner
    if not (1 <= i <= img.m - 1 and 1 <= j <= img.n - 1 and i % 2 == 1 and j % 2 == 1):
        raise ValueError(f"({i},{j}) is not a 2x2 corner point of a {img.m}x{img.n} image")
    return BlockType(int(_codes(img.a[j - 1 : j + 1, i - 1 : i + 1])[0, 0]))


def _block_sums(img: BinaryImage, k: int) -> np.ndarray:
    """Ones per k x k block, [bv, bu], in the type of _grid_dtype(k)."""
    if k < 1:
        raise ValueError(f"block size k must be >= 1, got {k}")
    if img.m % k or img.n % k:
        raise ValueError(f"image {img.m}x{img.n} is not divisible into {k}x{k} blocks")
    return _box_sums(img.a, k)


def _box_sums(a: np.ndarray, k: int) -> np.ndarray:
    """Ones per whole k x k box of a bit array, [bv, bu], in the type of _grid_dtype(k).

    Each block row's k rows are summed as whole rows, then k strided
    column slices of those: numpy adds them far faster than it reduces
    the two short axes of a 4-d reshape at once.
    """
    bh, bw = a.shape[0] // k, a.shape[1] // k
    rows = a[: bh * k, : bw * k].reshape(bh, k, bw * k).sum(axis=1, dtype=_grid_dtype(k))
    out = rows[:, 0::k].copy()
    for dx in range(1, k):
        out += rows[:, dx::k]
    return out


def degrade(img: BinaryImage, k: int) -> GrayImage:
    """Collapse each k x k block to its number of ones."""
    sums = _block_sums(img, k)
    return GrayImage(
        width=img.m // k,
        height=img.n // k,
        maxval=k * k,
        values=tuple(map(tuple, sums.tolist())),
    )


def make_exact_instance(img: BinaryImage, k: int) -> Instance:
    """Exact (epsilon = 0, all-reliable) instance with img as a solution."""
    if k < 2:
        raise ValueError(f"instances need block size k >= 2, got {k}")
    sums = _block_sums(img, k)
    return _instance_of_grids(
        k, 0, tuple(img.row_sums()), tuple(img.col_sums()), sums, np.ones(sums.shape, dtype=bool)
    )


def perturb_instance(inst: Instance, fraction_unreliable: float, seed: int) -> Instance:
    """Mark a seeded choice of blocks unreliable and jitter their values.

    Each demoted block value is shifted by a uniform offset in
    [-epsilon, epsilon] and clipped to [0, k^2], so any image satisfying
    inst still satisfies the perturbed instance.  With epsilon = 0 the
    noise window is degenerate and the instance is returned unchanged.
    The blocks are drawn from the corners in sorted order, (i, j) by
    column first, and their offsets are drawn in that order too.  An
    instance validate_instance rejects for more than a sum mismatch
    raises ValueError.
    """
    if not 0 <= fraction_unreliable <= 1:
        raise ValueError("fraction_unreliable must be in [0, 1]")
    _require_well_formed(validate_instance(inst))
    if inst.epsilon == 0 or fraction_unreliable == 0:
        return inst
    bh, bw = inst._grid.shape
    count = math.ceil(fraction_unreliable * bw * bh)
    rng = random.Random(seed)
    # position t of the sorted corners is block [t % bh, t // bh]
    picked = sorted(rng.sample(range(bw * bh), count))
    offsets = [rng.randint(-inst.epsilon, inst.epsilon) for _ in picked]
    bu, bv = np.divmod(np.array(picked, dtype=np.int64), bh)
    grid = inst._grid.astype(np.int64)
    grid[bv, bu] = np.clip(grid[bv, bu] + offsets, 0, inst.k * inst.k)
    reliable_grid = inst._reliable_grid.copy()
    reliable_grid[bv, bu] = False
    return _instance_of_grids(inst.k, inst.epsilon, inst.row_sums, inst.col_sums, grid, reliable_grid)


def _require_well_formed(findings: list[ValidationError], error: type[ValueError] = ValueError) -> bool:
    """Whether an instance's line totals agree, given its validate_instance findings.

    The one rule for those findings: a sum mismatch is a verdict (the
    instance is infeasible), any other finding is an error, raised as
    `error` with every finding but the sum mismatch, in order.  Callers
    look validate_instance up at their own module's name, which is where
    perfbench/tracing.py times it.
    """
    errs = [e for e in findings if e.kind != "sum-mismatch"]
    if errs:
        raise error("; ".join(str(e) for e in errs))
    return not findings


def random_image(m: int, n: int, density: float, seed: int) -> BinaryImage:
    """Seeded random binary image; each cell is one with the given probability."""
    if m <= 0 or n <= 0:
        raise ValueError(f"image size {m}x{n} must be positive")
    if not 0 <= density <= 1:  # also rejects NaN
        raise ValueError(f"density must be in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    return BinaryImage((rng.random((n, m)) < density).astype(np.uint8))
