"""Local block rewrites that preserve all row, column and block sums.

Seven rewrite classes exist per orientation.  Classes 1 to 6 touch two
blocks sharing a strip, class 7 flips a single anti-diagonal block to the
main diagonal.  Forward application drives an image toward the reduced
form; the existence of an applicable reversed rewrite on a solution
certifies that the solution is not unique.

The fast routines read an image as one array of 4-bit block codes, the
values of its blocks' BlockTypes (bit dx + 2*dy holds cell (dx, dy)):

- `reduce` runs each strip to its own fixpoint under classes 1 to 6,
  horizontal strips first, then flips every remaining anti-diagonal block
  at once.  A strip is two adjacent lines, a slot one side of a two-block
  rule.  This equals applying find_switch's first forward move until
  none applies:
  - Class 7 commutes to the end: no forward rule of classes 1 to 6 reads
    B33 or B34, and none writes B34.
  - Horizontal rules 1 to 6 move a lone one between the strip's two
    lines (A11/A21, A12/A22), move a hole between them (C11/C21,
    C12/C22), or turn B1 or B2 into B33.  The vertical slots are {A11,
    A21}, {A12, A22}, {C11, C21}, {C12, C22}, {B31} and {B32}, and none
    holds B1, B2 or B33; so a horizontal move leaves each block in the
    same vertical slot or outside all of them.  The same holds with the
    orientations swapped.
  - So a strip's moves depend only on its own blocks, and the first-move
    order takes a strip at its lowest applicable class, since a lower
    class applicable anywhere would be taken first.  A horizontal and a
    vertical rewrite of one block change different things, the row and
    the column of its lone one or hole, so running all horizontal strips
    and then all vertical ones gives the codes of any interleaving.
  - A vertical strip runs as a row of the transposed code grid: under
    transposition the forward vertical rules 1 to 6 are the horizontal
    ones (class 3 lists its slots in the other order, which does not
    change a forward move).
  - In a strip of len blocks, Phi = (len + 1) * #{B1, B2} + #{A11, A12}
    starts at most len * (len + 1) and drops with every forward move of
    classes 1 to 6, so the strip stops after at most that many moves.
- `has_reversed_switch` answers from the same codes: any B33 block
  admits the reversed class-7 flip.  Every other reversed rule but class
  6 reads a B33, so without one the answer is whether some strip holds
  a code of each slot of reversed class 6.
- `tv_descend` scores a move by the change of total variation over the
  gradient sites that read one of its at most 8 changed cells.  A site
  (p, q) reads cells (p, q), (p+1, q) and (p, q+1), so every other site
  keeps its value and the local difference is the exact global one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .model import BinaryImage, BlockType, Corner, Instance, _codes, _decode
from .model import classify_block, verify_solution

_T = BlockType

# Each rule is (class, slot A map, slot B map): a pair of same-strip blocks
# matches when one block's type is a key of slot A and the other's a key of
# slot B; applying the rule rewrites both blocks to their mapped types.
# Slot key sets are disjoint within every rule.
_H_RULES: list[tuple[int, dict, dict]] = [
    (1, {_T.A11: _T.A21, _T.A12: _T.A22}, {_T.B2: _T.B33}),
    (2, {_T.A21: _T.A11, _T.A22: _T.A12}, {_T.B1: _T.B33}),
    (3, {_T.B1: _T.B33}, {_T.B2: _T.B33}),
    (4, {_T.C21: _T.C11, _T.C22: _T.C12}, {_T.B2: _T.B33}),
    (5, {_T.C11: _T.C21, _T.C12: _T.C22}, {_T.B1: _T.B33}),
    (6, {_T.A11: _T.A21, _T.A12: _T.A22}, {_T.C11: _T.C21, _T.C12: _T.C22}),
]
_V_RULES: list[tuple[int, dict, dict]] = [
    (1, {_T.A11: _T.A12, _T.A21: _T.A22}, {_T.B32: _T.B33}),
    (2, {_T.A12: _T.A11, _T.A22: _T.A21}, {_T.B31: _T.B33}),
    (3, {_T.B32: _T.B33}, {_T.B31: _T.B33}),
    (4, {_T.C12: _T.C11, _T.C22: _T.C21}, {_T.B32: _T.B33}),
    (5, {_T.C11: _T.C12, _T.C21: _T.C22}, {_T.B31: _T.B33}),
    (6, {_T.A11: _T.A12, _T.A21: _T.A22}, {_T.C11: _T.C12, _T.C21: _T.C22}),
]
_CLASS7 = {_T.B34: _T.B33}

FORWARD = "forward"
REVERSED = "reversed"


@dataclass(frozen=True)
class SwitchMove:
    orientation: str  # "horizontal" | "vertical"
    cls: int  # 1..7
    direction: str  # FORWARD | REVERSED
    corners: tuple[Corner, ...]  # one corner for class 7, two otherwise
    sources: tuple[BlockType, ...]  # current types, aligned with corners
    targets: tuple[BlockType, ...]  # rewritten types


def _invert(rule_map: dict) -> dict:
    return {v: k for k, v in rule_map.items()}


def _rules(orientation: str, direction: str) -> list[tuple[int, dict, dict]]:
    rules = _H_RULES if orientation == "horizontal" else _V_RULES
    if direction == FORWARD:
        return rules
    return [(cls, _invert(a), _invert(b)) for cls, a, b in rules]


# --------------------------------------------------------------------------
# Rules in block-code form
# --------------------------------------------------------------------------

_B33, _B34 = _T.B33.value, _T.B34.value


def _coded(rule_map: dict) -> dict[int, int]:
    return {s.value: t.value for s, t in rule_map.items()}


_ORIENTATIONS = ("horizontal", "vertical")  # orientation index 0 and 1
# rules 1-6 in code form: _CODED[direction][o][cls - 1] = (slot A, slot B)
_CODED = {
    d: [[(_coded(a), _coded(b)) for _, a, b in _rules(o, d)] for o in _ORIENTATIONS]
    for d in (FORWARD, REVERSED)
}
_CODED7 = {FORWARD: _coded(_CLASS7), REVERSED: _coded(_invert(_CLASS7))}


# --------------------------------------------------------------------------
# Scan-order enumeration
# --------------------------------------------------------------------------

def _pairs(strip: list[int], slot_a: dict, slot_b: dict) -> Iterator[tuple]:
    """(p1, p2, sources, targets) of the matching pairs of a strip, p1 < p2."""
    for p1, t1 in enumerate(strip):
        if t1 in slot_a:
            other, mine = slot_b, slot_a
        elif t1 in slot_b:
            other, mine = slot_a, slot_b
        else:
            continue
        for p2 in range(p1 + 1, len(strip)):
            t2 = strip[p2]
            if t2 in other:
                yield p1, p2, (t1, t2), (mine[t1], other[t2])


def _scan(grid: list[list[int]], direction: str) -> Iterator[tuple]:
    """All applicable moves of a code grid in the deterministic scan order.

    Yields (cls, orientation, corners, source codes, target codes); grid[v]
    holds the codes of the blocks at (2u+1, 2v+1).  Order: class
    ascending; within a class horizontal strips before vertical; strips
    bottom-to-top (left-to-right for vertical); block pairs within a strip
    in lexicographic order.  Class 7 visits single blocks in horizontal
    strip order.
    """
    strips = (grid, [list(col) for col in zip(*grid)])
    present = [[set(strip) for strip in strips[o]] for o in (0, 1)]
    for k in range(6):
        for o, orientation in enumerate(_ORIENTATIONS):
            slot_a, slot_b = _CODED[direction][o][k]
            for s, (strip, here) in enumerate(zip(strips[o], present[o])):
                if here.isdisjoint(slot_a) or here.isdisjoint(slot_b):
                    continue
                for p1, p2, sources, targets in _pairs(strip, slot_a, slot_b):
                    if o == 0:
                        corners = ((2 * p1 + 1, 2 * s + 1), (2 * p2 + 1, 2 * s + 1))
                    else:
                        corners = ((2 * s + 1, 2 * p1 + 1), (2 * s + 1, 2 * p2 + 1))
                    yield k + 1, orientation, corners, sources, targets
    flip = _CODED7[direction]
    for v, row in enumerate(grid):
        for u, c in enumerate(row):
            if c in flip:
                yield 7, "horizontal", ((2 * u + 1, 2 * v + 1),), (c,), (flip[c],)


def _even_codes(img: BinaryImage) -> np.ndarray:
    """The image's code grid; every rewrite reads whole blocks."""
    if img.m % 2 or img.n % 2:
        raise ValueError("image dimensions must be even")
    return _codes(img.a)


def _switch_move(direction: str, found: tuple) -> SwitchMove:
    cls, orientation, corners, sources, targets = found
    return SwitchMove(
        orientation,
        cls,
        direction,
        corners,
        tuple(map(BlockType, sources)),
        tuple(map(BlockType, targets)),
    )


def find_switch(img: BinaryImage, direction: str = FORWARD) -> Optional[SwitchMove]:
    """First applicable rewrite under the documented scan order, if any."""
    found = next(_scan(_even_codes(img).tolist(), direction), None)
    return None if found is None else _switch_move(direction, found)


def all_switches(img: BinaryImage, direction: str = FORWARD) -> list[SwitchMove]:
    return [_switch_move(direction, f) for f in _scan(_even_codes(img).tolist(), direction)]


def apply_switch(img: BinaryImage, move: SwitchMove) -> BinaryImage:
    """Rewrite the move's blocks; every line and block sum is unchanged."""
    for corner, src in zip(move.corners, move.sources):
        if classify_block(img, corner) != src:
            raise ValueError(f"block at {corner} is not of type {src.name}")
    a = img.mutable()
    for (i, j), tgt in zip(move.corners, move.targets):
        a[j - 1 : j + 1, i - 1 : i + 1] = _decode(np.array([[tgt.value]], dtype=np.uint8))
    return BinaryImage(a)


# --------------------------------------------------------------------------
# Reduction and the reversed-switch test
# --------------------------------------------------------------------------

# _TRANSPOSED[c] is the code of block c mirrored in its main diagonal
# (cell (dx, dy) to (dy, dx)); it maps the forward vertical rules 1 to 6
# onto the horizontal ones, so a vertical strip reduces as a row of the
# transposed code grid.
_TRANSPOSED = np.array([c & 9 | (c & 2) << 1 | (c & 4) >> 1 for c in range(16)], dtype=np.uint8)
# The distinct slots of the horizontal forward rules 1 to 6, and each rule
# as the indices of its two slots.  A code lies in at most one slot and has
# one forward target in all of them; _SLOT_OF[c] is 6 for a code in none.
_SLOTS = list({frozenset(slot): slot for rule in _CODED[FORWARD][0] for slot in rule}.values())
_PAIRS = [tuple(_SLOTS.index(slot) for slot in rule) for rule in _CODED[FORWARD][0]]
_FORWARD_TARGET = {c: t for slot in _SLOTS for c, t in slot.items()}
_SLOT_OF = [next((k for k, slot in enumerate(_SLOTS) if c in slot), len(_SLOTS)) for c in range(16)]


def _reduce_rows(grid: list[list[int]]) -> bool:
    """Run every row of a code grid, in place, to its own fixpoint under the
    horizontal forward rules 1 to 6; whether any block changed.

    A row keeps one bit mask of positions per slot, so the lowest rule with
    both slots present and its first pair are read from lowest set bits.
    """
    moved = False
    for row in grid:
        here = set(row)
        if not any(not here.isdisjoint(a) and not here.isdisjoint(b) for a, b in _CODED[FORWARD][0]):
            continue
        moved = True
        masks = [0] * (len(_SLOTS) + 1)  # the last one collects blocks in no slot
        for p, c in enumerate(row):
            masks[_SLOT_OF[c]] |= 1 << p
        while True:
            for a, b in _PAIRS:
                if masks[a] and masks[b]:
                    break
            else:
                break
            for k, bit in ((a, masks[a] & -masks[a]), (b, masks[b] & -masks[b])):
                p = bit.bit_length() - 1
                code = row[p] = _FORWARD_TARGET[row[p]]
                masks[k] ^= bit
                masks[_SLOT_OF[code]] |= bit
    return moved


def reduce(img: BinaryImage) -> BinaryImage:
    """Apply forward rewrites until none applies.  Deterministic.

    Equivalent to repeatedly applying find_switch's first forward move:
    the horizontal strips, then the vertical strips, each run to its own
    fixpoint, then every anti-diagonal block flips (see the module
    docstring).
    """
    codes = _even_codes(img)
    rows = codes.tolist()
    moved = _reduce_rows(rows)
    if moved:
        codes = np.array(rows, dtype=np.uint8)
    columns = _TRANSPOSED[codes.T].tolist()
    if _reduce_rows(columns):
        codes = _TRANSPOSED[np.array(columns, dtype=np.uint8).T]
        moved = True
    flip = codes == _B34
    if not moved and not flip.any():
        return img
    codes[flip] = _B33  # class 7, all at once
    return BinaryImage(_decode(codes))


# bit 2*o + i of _REVERSED_SIX[c]: code c lies in slot i of the reversed
# class-6 rule of orientation o
_REVERSED_SIX = np.array(
    [
        sum(1 << 2 * o + i for o in (0, 1) for i, slot in enumerate(_CODED[REVERSED][o][5]) if c in slot)
        for c in range(16)
    ],
    dtype=np.uint8,
)


def has_reversed_switch(img: BinaryImage) -> bool:
    """Whether find_switch(img, REVERSED) finds a move."""
    codes = _even_codes(img)
    if (codes == _B33).any():
        return True  # the reversed class-7 flip
    # every other reversed rule but class 6 reads a B33, and class 6
    # applies iff some strip holds a code of each of its slots
    marks = _REVERSED_SIX[codes]
    rows = np.bitwise_or.reduce(marks, axis=1) & 3  # horizontal strips
    columns = np.bitwise_or.reduce(marks, axis=0) >> 2  # vertical strips
    return bool((rows == 3).any() or (columns == 3).any())


# --------------------------------------------------------------------------
# Total variation
# --------------------------------------------------------------------------

def _sign(da: int, db: int) -> int:
    """Sign of da + db*sqrt(2) without floating point."""
    if da >= 0 and db >= 0:
        return 1 if (da or db) else 0
    if da <= 0 and db <= 0:
        return -1
    # mixed signs: compare da^2 against 2*db^2 on the dominant side
    lhs = da * da
    rhs = 2 * db * db
    if da > 0:  # db < 0: positive iff da > -db*sqrt(2)
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1  # da < 0, db > 0


@dataclass(frozen=True)
class TVValue:
    """Exact total variation a + b*sqrt(2), kept in integer counts."""

    a: int
    b: int

    def _cmp(self, other: "TVValue") -> int:
        """Sign of (self - other) without floating point."""
        return _sign(self.a - other.a, self.b - other.b)

    def __lt__(self, other: "TVValue") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "TVValue") -> bool:
        return self._cmp(other) <= 0

    def value(self) -> float:
        return self.a + self.b * 2 ** 0.5


def tv(img: BinaryImage) -> TVValue:
    """Count gradient sites: a with one forward difference, b with both."""
    x = img.a.astype(np.int8)
    dx = np.zeros_like(x)
    dy = np.zeros_like(x)
    dx[:, :-1] = x[:, 1:] - x[:, :-1]
    dy[:-1, :] = x[1:, :] - x[:-1, :]
    nx_ = dx != 0
    ny_ = dy != 0
    both = int((nx_ & ny_).sum())
    return TVValue(a=int(nx_.sum()) + int(ny_.sum()) - 2 * both, b=both)


class _LocalTV:
    """Bits as nested lists, and exact TV differences of block rewrites.

    A block's sites are the gradient sites that read one of its cells:
    its own four plus the two left of and the two below it.  The sites of
    two blocks of one strip read disjoint cells unless the blocks are
    neighbours, so a pair's difference is the sum of its blocks' single
    differences except for neighbours, which are scored on the union of
    their sites.  Single differences are cached until a rewrite touches
    the block's 3x3 neighbourhood.  Blocks are given as corners and codes.
    """

    def __init__(self, img: BinaryImage):
        self.x = img.a.tolist()  # x[q-1][p-1]
        self.m, self.n = img.m, img.n
        self.cache: dict[Corner, dict[int, tuple[int, int]]] = {}

    @staticmethod
    def _sites(corner: Corner) -> list[tuple[int, int]]:
        c, r = corner[0] - 1, corner[1] - 1
        sites = [(c, r), (c + 1, r), (c, r + 1), (c + 1, r + 1)]
        if c:
            sites += [(c - 1, r), (c - 1, r + 1)]
        if r:
            sites += [(c, r - 1), (c + 1, r - 1)]
        return sites

    def _count(self, sites) -> tuple[int, int]:
        x, last_c, last_r = self.x, self.m - 1, self.n - 1
        a = b = 0
        for c, r in sites:
            bit = x[r][c]
            gx = c < last_c and x[r][c + 1] != bit
            gy = r < last_r and x[r + 1][c] != bit
            if gx and gy:
                b += 1
            elif gx or gy:
                a += 1
        return a, b

    def _write(self, corner: Corner, code: int) -> None:
        c, r = corner[0] - 1, corner[1] - 1
        low, high = self.x[r], self.x[r + 1]
        low[c], low[c + 1] = code & 1, code >> 1 & 1
        high[c], high[c + 1] = code >> 2 & 1, code >> 3

    def _delta(self, corners, sources, targets, sites) -> tuple[int, int]:
        a0, b0 = self._count(sites)
        for corner, code in zip(corners, targets):
            self._write(corner, code)
        a1, b1 = self._count(sites)
        for corner, code in zip(corners, sources):
            self._write(corner, code)
        return a1 - a0, b1 - b0

    def _single(self, corner: Corner, src: int, tgt: int) -> tuple[int, int]:
        per_target = self.cache.setdefault(corner, {})
        if tgt not in per_target:
            per_target[tgt] = self._delta((corner,), (src,), (tgt,), self._sites(corner))
        return per_target[tgt]

    def delta(self, corners, sources, targets) -> tuple[int, int]:
        """TV(after the rewrite) - TV(now), as (a, b) counts."""
        if len(corners) == 1:
            return self._single(corners[0], sources[0], targets[0])
        (i1, j1), (i2, j2) = corners
        if abs(i1 - i2) + abs(j1 - j2) == 2:  # neighbours in the strip
            sites = dict.fromkeys(self._sites(corners[0]) + self._sites(corners[1]))
            return self._delta(corners, sources, targets, sites)
        a1, b1 = self._single(corners[0], sources[0], targets[0])
        a2, b2 = self._single(corners[1], sources[1], targets[1])
        return a1 + a2, b1 + b2

    def apply(self, corners, targets) -> None:
        for i, j in corners:
            for di in (-2, 0, 2):
                for dj in (-2, 0, 2):
                    self.cache.pop((i + di, j + dj), None)
        for corner, code in zip(corners, targets):
            self._write(corner, code)

    def image(self) -> BinaryImage:
        return BinaryImage(np.array(self.x, dtype=np.uint8))


def tv_descend(inst: Instance, img: BinaryImage, on_step=None) -> BinaryImage:
    """Greedy steepest descent of total variation over all rewrites.

    Both rewrite directions preserve the constraints, so every step keeps
    the image a solution; ties break toward the scan order and the loop
    stops at the first local optimum.  A 2x2 rewrite keeps the k x k block
    sums only when 2x2 blocks tile each k-block, so k must be even.
    """
    if inst.k % 2:
        raise ValueError(f"switch descent needs an even block size k, got k={inst.k}")
    if not verify_solution(inst, img).satisfied:
        raise ValueError("input image does not solve the instance")
    local = _LocalTV(img)
    grid = _codes(img.a).tolist()
    current_tv = tv(img)
    steps = 0
    while True:
        best = None
        for direction in (FORWARD, REVERSED):
            for found in _scan(grid, direction):
                da, db = local.delta(*found[2:])
                if _sign(da, db) < 0 and (best is None or _sign(da - best[0], db - best[1]) < 0):
                    best = (da, db, direction, found)
        if best is None:
            return local.image() if steps else img
        da, db, direction, found = best
        _, _, corners, _, targets = found
        local.apply(corners, targets)
        for (i, j), code in zip(corners, targets):
            grid[j // 2][i // 2] = code
        current_tv = TVValue(current_tv.a + da, current_tv.b + db)
        steps += 1
        if on_step is not None:
            on_step(_switch_move(direction, found), current_tv)
