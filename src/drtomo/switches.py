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
  keeps its value and the local difference is the exact global one.  A
  block's sites, its own four plus the two left of and the two below it,
  read only the blocks of its 3x3 neighbourhood.
  - The descent keeps a candidate table: each strip's least improving
    move over classes 1 to 6 of both directions, and for a horizontal
    strip also over the class-7 flips of its blocks.  A step takes the
    table's least entry, refreshes the single differences of the blocks
    in the 3x3 neighbourhood of each moved block (u, v), and re-scores
    the strips through them, rows v-1 to v+1 and columns u-1 to u+1.  No
    block of another strip has a site that reads a changed cell, so every
    other entry stays exact.
  - Moves compare by their exact difference (an integer key of a +
    b*sqrt(2)), then in the scan order of find_switch over both
    directions: forward before reversed; classes 1 to 6, then 7;
    horizontal strips bottom to top before vertical strips left to
    right; pairs (p1 < p2) in lexicographic order; class 7 row by row.
    That is the first least move of a full rescan.
  - Re-scoring a strip of len blocks takes O(len) per rule.  A pair of
    non-neighbours scores the sum of its two single differences, so each
    block is met with the best block of the other slot at least two
    positions before it, a running minimum; the at most len - 1
    neighbour pairs are scored on their own.  A step on an N x N image
    thus costs O(N), but steepest descent takes about 4x the steps per
    doubling of N, so the descent as a whole is not linear.
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
    return _has_reversed_switch(_even_codes(img))


def _has_reversed_switch(codes: np.ndarray) -> bool:
    """has_reversed_switch of the image with this code grid."""
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


# An exact, additive integer key for a + b*sqrt(2): a*_KA + b*_KB orders
# integer pairs as their real values do while |a| and |b| stay within 64.
# _KB is sqrt(2) * 2**32 to within 2049, and a nonzero a + b*sqrt(2) is at
# least 1 / (64 * (1 + sqrt(2))) away from 0, which 2**32 times outweighs
# 64 * 2049; a move changes at most 14 sites.  _KA is a multiple of 4096
# and _KB is 1 modulo 4096, so b is the key's residue and the key decodes.
_KA = 1 << 32
_KB = round(2 ** 0.5 * (1 << 20)) << 12 | 1


def _unkey(key: int) -> tuple[int, int]:
    b = (key + 2048 & 4095) - 2048
    return (key - b * _KB) // _KA, b


def _site_key(own: int, right: int, up: int) -> int:
    """Key of the gradient site at a cell, from the trits of the cell, the
    cell to its right and the cell above it; trit 2 marks a cell outside
    the image, where no site lies and no difference is taken."""
    if own == 2:
        return 0
    gx, gy = right not in (2, own), up not in (2, own)
    return _KB if gx and gy else _KA if gx or gy else 0


_SITE = np.array([_site_key(own, right, up) for own in range(3) for right in range(3) for up in range(3)])


def _site_table(sites, width: int) -> np.ndarray:
    """Keyed TV of some sites of a block, [context, code].

    A site lists its (own, right, up) cells as 0-3 for bit i of the
    block's code or 4 + j for trit j of the context, and a context indexes
    its width trits in base 3, the first most significant.
    """
    ctx = np.indices((3,) * width).reshape(width, -1, 1)
    cells = list(np.arange(16) >> np.arange(4)[:, None] & 1) + list(ctx)
    return sum(_SITE[cells[own] * 9 + cells[right] * 3 + cells[up]] for own, right, up in sites)


# The eight sites of the block whose bottom-left cell is (c, r), in three
# groups by the cells around it that they read: its own four sites read
# (c+2, r), (c+2, r+1), (c, r+2) and (c+1, r+2); the two left of it read
# (c-1, r), (c-1, r+1) and (c-1, r+2); the two below it read (c, r-1),
# (c+1, r-1) and (c+2, r-1).
_RIGHT_UP = _site_table([(0, 1, 2), (1, 4, 3), (2, 3, 6), (3, 5, 7)], 4)
_LEFT = _site_table([(4, 0, 5), (5, 2, 6)], 3)
_BELOW = _site_table([(4, 5, 0), (5, 6, 1)], 3)
_RIGHT_UP_L, _LEFT_L, _BELOW_L = _RIGHT_UP.tolist(), _LEFT.tolist(), _BELOW.tolist()


class _LocalTV:
    """Exact TV differences of block rewrites, kept per block.

    The image is held as trits with a frame of 2s (see _SITE), and blocks
    as (u, v) code-grid positions.  A block's sites are the gradient sites
    that read one of its cells: its own four plus the two left of and the
    two below it.  totals[v][u][t] is the keyed TV of those sites with the
    block rewritten to code t, so a single rewrite differs by totals[t] -
    totals[code]: no other site reads the block.  Those sites read only the
    block's 3x3 neighbourhood, so a rewrite refreshes the totals there.
    Two blocks of one strip that are not neighbours share no site and no
    site reads both, so a pair's difference is the sum of its singles; a
    neighbour pair is the first rewrite followed by the second one's
    difference in the rewritten image, cached per pair until a rewrite
    touches either block's neighbourhood.
    """

    def __init__(self, img: BinaryImage):
        n, m = img.a.shape
        e = np.full((n + 2, m + 2), 2, dtype=np.intp)
        e[1:-1, 1:-1] = img.a

        def context(*cells):
            """Base-3 index of the trits at offsets (dr, dc) from every block's bottom-left cell."""
            index = 0
            for dr, dc in cells:
                index = index * 3 + e[1 + dr : n + 1 + dr : 2, 1 + dc : m + 1 + dc : 2]
            return index

        self.totals = (
            _RIGHT_UP[context((0, 2), (1, 2), (2, 0), (2, 1))]
            + _LEFT[context((0, -1), (1, -1), (2, -1))]
            + _BELOW[context((-1, 0), (-1, 1), (-1, 2))]
        ).tolist()
        self.e = e.tolist()
        self.codes = _codes(img.a).tolist()
        self.pairs: dict[tuple[int, int, int], dict[tuple[int, int], int]] = {}

    def _tables(self, u: int, v: int) -> tuple[list[int], list[int], list[int]]:
        """The block's rows of _RIGHT_UP, _LEFT and _BELOW; totals are their sums."""
        e, c, r = self.e, 2 * u + 1, 2 * v + 1
        below, low, high, above = e[r - 1], e[r], e[r + 1], e[r + 2]
        return (
            _RIGHT_UP_L[((low[c + 2] * 3 + high[c + 2]) * 3 + above[c]) * 3 + above[c + 1]],
            _LEFT_L[(low[c - 1] * 3 + high[c - 1]) * 3 + above[c - 1]],
            _BELOW_L[(below[c] * 3 + below[c + 1]) * 3 + below[c + 2]],
        )

    def _write(self, u: int, v: int, code: int) -> None:
        c, r = 2 * u + 1, 2 * v + 1
        low, high = self.e[r], self.e[r + 1]
        low[c], low[c + 1] = code & 1, code >> 1 & 1
        high[c], high[c + 1] = code >> 2 & 1, code >> 3

    def single(self, u: int, v: int, target: int) -> int:
        totals = self.totals[v][u]
        return totals[target] - totals[self.codes[v][u]]

    def neighbours(self, o: int, u: int, v: int, first: int, second: int) -> int:
        """Key of rewriting (u, v) to first and the next block of its
        orientation-o strip, (u+1, v) or (u, v+1), to second."""
        per_targets = self.pairs.setdefault((u, v, o), {})
        key = per_targets.get((first, second))
        if key is None:
            u2, v2 = (u + 1, v) if o == 0 else (u, v + 1)
            now = self.codes[v2][u2]
            self._write(u, v, first)
            right_up, left, below = self._tables(u2, v2)
            self._write(u, v, self.codes[v][u])
            key = per_targets[first, second] = (
                self.single(u, v, first)
                + right_up[second] + left[second] + below[second]
                - (right_up[now] + left[now] + below[now])
            )
        return key

    def delta(self, corners, sources, targets) -> tuple[int, int]:
        """TV(after the rewrite) - TV(now), as (a, b) counts; sources are
        the blocks' current codes."""
        (u1, v1), *rest = [(i // 2, j // 2) for i, j in corners]
        key = self.single(u1, v1, targets[0])
        if rest:
            (u2, v2), = rest
            if abs(u1 - u2) + abs(v1 - v2) == 1:
                key = self.neighbours(int(u1 == u2), u1, v1, *targets)
            else:
                key += self.single(u2, v2, targets[1])
        return _unkey(key)

    def apply(self, corners, targets) -> set[tuple[int, int]]:
        """Rewrite the blocks; the blocks whose totals were refreshed."""
        blocks = [(i // 2, j // 2) for i, j in corners]
        for (u, v), code in zip(blocks, targets):
            self._write(u, v, code)
            self.codes[v][u] = code
        h, w = len(self.codes), len(self.codes[0])
        near = {
            (a, b)
            for u, v in blocks
            for a in range(max(u - 1, 0), min(u + 2, w))
            for b in range(max(v - 1, 0), min(v + 2, h))
        }
        for a, b in near:
            self.totals[b][a] = [x + y + z for x, y, z in zip(*self._tables(a, b))]
            for key in ((a, b, 0), (a - 1, b, 0), (a, b, 1), (a, b - 1, 1)):
                self.pairs.pop(key, None)
        return near

    def image(self) -> BinaryImage:
        return BinaryImage(np.array(self.e, dtype=np.uint8)[1:-1, 1:-1])


# _ROLES[o][c]: (rule, slot A target, slot B target) for each rule of
# orientation o that code c takes part in: rule 6*d + k is class k + 1 of
# direction d (forward 0), rule 12 + d the class-7 flip, which horizontal
# strips carry; None for a slot without c
_ROLES = [
    [
        tuple(
            (6 * d + k, a.get(c), b.get(c))
            for d, direction in enumerate((FORWARD, REVERSED))
            for k, (a, b) in enumerate(_CODED[direction][o])
            if c in a or c in b
        )
        + tuple(
            (12 + d, _CODED7[direction][c], None)
            for d, direction in enumerate((FORWARD, REVERSED))
            if o == 0 and c in _CODED7[direction]
        )
        for c in range(16)
    ]
    for o in (0, 1)
]
# rules in tv_descend's choice order: forward classes 1 to 7, then reversed
_RULE_ORDER = (0, 1, 2, 3, 4, 5, 12, 6, 7, 8, 9, 10, 11, 13)
# a strip's least improving move, or this: keys below 0 sort before it
_NO_MOVE = (0,)


def _members(o: int, p: int, code: int, totals: list[int]) -> tuple:
    """(rule, member) for each rule of orientation o that a block at
    position p of its strip takes part in; a member is (p, slot A key,
    slot A target, slot B key, slot B target), with None for a slot
    without the block's code."""
    now = totals[code]
    return tuple(
        (rule, (p, None if a is None else totals[a] - now, a, None if b is None else totals[b] - now, b))
        for rule, a, b in _ROLES[o][code]
    )


def _best_pair(local: _LocalTV, o: int, s: int, members: list) -> tuple:
    """Least (key, p1, p2, targets) over the pairs of one rule in a strip.

    members are the rule's members in the strip, by position.  As in
    _pairs, a block of slot A comes first in a pair, then one of slot B,
    unless the first block is in slot B only.  A pair of non-neighbours
    scores the sum of its singles, so each block as second meets the best
    first block before the previous member (the smallest position on
    ties) and the previous member itself, which _LocalTV.neighbours
    scores when it is the block's neighbour.
    """
    best = _NO_MOVE
    first_a = first_b = None  # best (key, p, target) in slot A, in slot B only, before last
    last = None
    for member in members:
        p, key_a, target_a, key_b, target_b = member
        # a pair's tuple is built only when its key can win
        if key_b is not None and first_a is not None and first_a[0] + key_b <= best[0]:
            found = (first_a[0] + key_b, first_a[1], p, (first_a[2], target_b))
            if found < best:
                best = found
        if key_a is not None and first_b is not None and first_b[0] + key_a <= best[0]:
            found = (first_b[0] + key_a, first_b[1], p, (first_b[2], target_a))
            if found < best:
                best = found
        if last is not None:
            q, last_a, last_ta, last_b, last_tb = last
            if last_a is not None and key_b is not None:
                key, targets = last_a + key_b, (last_ta, target_b)
            elif last_a is None and key_a is not None:
                key, targets = last_b + key_a, (last_tb, target_a)
            else:
                targets = None
            if targets is not None:
                if q == p - 1:
                    u, v = (q, s) if o == 0 else (s, q)
                    key = local.neighbours(o, u, v, *targets)
                # earlier candidates all start before q, so this one wins only on its key
                if key < best[0]:
                    best = (key, q, p, targets)
            if last_a is not None:
                if first_a is None or last_a < first_a[0]:
                    first_a = (last_a, q, last_ta)
            elif first_b is None or last_b < first_b[0]:
                first_b = (last_b, q, last_tb)
        last = member
    return best


def _strip_best(local: _LocalTV, o: int, s: int, strip: list) -> tuple:
    """The strip's least improving move as (key, direction, class index,
    o, s, p1, p2, targets), or _NO_MOVE; tuples order as tv_descend
    chooses (class index 6 is class 7, with p2 = -1).  strip holds the
    _members of the strip's blocks."""
    members: list[list] = [[] for _ in range(14)]
    for block in strip:
        for rule, member in block:
            members[rule].append(member)
    # rules come in choice order, so a later one must be strictly less
    best = _NO_MOVE
    for rule in _RULE_ORDER:
        found = members[rule]
        if rule >= 12:
            d = rule - 12
            for p, key, target, _, _ in found:
                if key < best[0]:
                    best = (key, d, 6, 0, s, p, -1, (target,))
        elif len(found) > 1:
            found = _best_pair(local, o, s, found)
            if found[0] < best[0]:
                key, p1, p2, targets = found
                best = (key, rule // 6, rule % 6, o, s, p1, p2, targets)
    return best


def tv_descend(inst: Instance, img: BinaryImage, on_step=None) -> BinaryImage:
    """Greedy steepest descent of total variation over all rewrites.

    Both rewrite directions preserve the constraints, so every step keeps
    the image a solution; ties break toward the scan order and the loop
    stops at the first local optimum.  A 2x2 rewrite keeps the k x k block
    sums only when 2x2 blocks tile each k-block, so k must be even.  Each
    strip keeps its least improving move, and a step re-scores only the
    strips of the blocks whose sites it changed (module docstring).
    """
    if inst.k % 2:
        raise ValueError(f"switch descent needs an even block size k, got k={inst.k}")
    if not verify_solution(inst, img).satisfied:
        raise ValueError("input image does not solve the instance")
    local = _LocalTV(img)
    codes, totals = local.codes, local.totals
    # strips[o][s][p]: the _members of block p of row (o = 0) or column s
    strips = (
        [[_members(0, u, c, t) for u, (c, t) in enumerate(zip(*row))] for row in zip(codes, totals)],
        [[_members(1, v, c, t) for v, (c, t) in enumerate(zip(*column))] for column in zip(zip(*codes), zip(*totals))],
    )
    best = {(o, s): _strip_best(local, o, s, strip) for o in (0, 1) for s, strip in enumerate(strips[o])}
    current_tv = tv(img)
    steps = 0
    while True:
        move = min(best.values(), default=_NO_MOVE)
        if move == _NO_MOVE:
            return local.image() if steps else img
        key, d, k, o, s, p1, p2, targets = move
        blocks = [(p, s) if o == 0 else (s, p) for p in (p1, p2)[: len(targets)]]
        corners = tuple((2 * u + 1, 2 * v + 1) for u, v in blocks)
        sources = tuple(codes[v][u] for u, v in blocks)
        dirty = set()
        for u, v in local.apply(corners, targets):
            strips[0][v][u] = _members(0, u, codes[v][u], totals[v][u])
            strips[1][u][v] = _members(1, v, codes[v][u], totals[v][u])
            dirty.update(((0, v), (1, u)))
        for strip in dirty:
            best[strip] = _strip_best(local, *strip, strips[strip[0]][strip[1]])
        da, db = _unkey(key)
        current_tv = TVValue(current_tv.a + da, current_tv.b + db)
        steps += 1
        if on_step is not None:
            direction = (FORWARD, REVERSED)[d]
            on_step(_switch_move(direction, (k + 1, _ORIENTATIONS[o], corners, sources, targets)), current_tv)
