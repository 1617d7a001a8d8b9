"""Local block rewrites that preserve all row, column and block sums.

Seven rewrite classes exist per orientation.  Classes 1 to 6 touch two
blocks sharing a strip, class 7 flips a single anti-diagonal block to the
main diagonal.  Forward application drives an image toward the reduced
form; the existence of an applicable reversed rewrite on a solution
certifies that the solution is not unique.

The fast routines read an image as one array of 4-bit block codes, the
values of its blocks' BlockTypes (bit dx + 2*dy holds cell (dx, dy)),
and the rules as one read-only uint8 table built from the paper's lists
_H_RULES and _V_RULES.  _RULES[d, o, r, i, c] is the code that code c
becomes in slot i (0 = A, 1 = B) of class r + 1, orientation o (0
horizontal) and direction d (0 forward), or _NONE if c is not in that
slot.  Class 7 is slot A of r = 6 under o = 0 only, as find_switch scans
it.  Numbered 7*d + r, the rules of one orientation come in tv_descend's
choice order: forward classes 1 to 7, then reversed.

The scan, the fixpoint and the reversed test find the strips that hold
both slots of a rule in one pass (_strip_pass) over one per-code mark
table: bit 4*r + 2*o + i of _SLOT_MARKS[d, c] marks code c in slot i of
class r + 1, orientation o and direction d (bit 24 marks class 7).

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
  - A strip of len blocks reaches its fixpoint in six O(len) steps, one
    per class in the order 1, 3, 2, 4, 5, 6.  A step rewrites the first
    n blocks of each of its class's two slots in position order, n the
    smaller slot count: the class's own run of first pairs, since no
    rewrite puts a block back into a slot of its class.  With A1 =
    {A11, A12}, A2 = {A21, A22}, C1 = {C11, C12}, C2 = {C21, C22}, the
    classes pair A1+B2, A2+B1, B1+B2, C2+B2, C1+B1 and A1+C1, and this
    order is the first-move order's:
    - B1 and B2 only decrease.
    - Once class 1 stops with B2 left, no A1 remains.  From there, class
      2 followed by class 1 rewrites the first B1 and the first B2
      exactly as class 3 does, and puts the A block back to its old
      code.  Once class 3 stops, B1 or B2 is gone, so the A1 that class
      2 makes and the C2 that class 5 makes feed no class 1 or 4.
    - Class 4 can fire only while B2 remains.  At that point no B1 and
      no A1 remain, so its C1 feed no class 5 or 6.
    - Class 6 fires only once no B1 is left (class 5 would take its C1
      first) and no B2 (class 1 would take its A1), so class 2 never
      fires again and its C2 feed no class 4.
- `has_reversed_switch` answers from the same codes: any B33 block
  admits the reversed class-7 flip.  Without one, no code lies in both
  slots of a rule, so a rule of classes 1 to 6 applies iff some strip
  holds a code of each of its slots.
- `tv_descend` scores a move by the change of total variation over the
  gradient sites that read one of its at most 8 changed cells.  A site
  (p, q) reads cells (p, q), (p+1, q) and (p, q+1), so every other site
  keeps its value and the local difference is the exact global one.  A
  block's sites, its own four plus the two left of and the two below it,
  read only the blocks of its 3x3 neighbourhood, so its differences are
  table rows indexed by the codes of those blocks (_LocalTV).
  - The descent keeps a candidate table: each strip's least improving
    move over classes 1 to 6 of both directions, and for a horizontal
    strip also over the class-7 flips of its blocks.  A step takes the
    table's least entry, writes the moved blocks' codes, recomputes the
    single differences of the blocks in the 3x3 neighbourhood of each
    moved block (u, v) from the code grid, and re-scores the strips
    through them, rows v-1 to v+1 and columns u-1 to u+1.  No block of
    another strip has a site that reads a changed cell, so every other
    entry stays exact.
  - Moves compare by their exact difference (an integer key of a +
    b*sqrt(2)), then in find_switch's scan order, forward moves before
    reversed ones.  That is the first least move of a full rescan.
  - Re-scoring a strip of len blocks takes O(len) per rule.  A pair of
    non-neighbours scores the sum of its two single differences, so each
    block is met with the best block of the other slot at least two
    positions before it, a running minimum; each of the at most len - 1
    neighbour pairs adds one correction to its singles, for the sites of
    its second block that read its first.  A step on an N x N image
    thus costs O(N), but steepest descent takes about 4x the steps per
    doubling of N, so the descent as a whole is not linear.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
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

FORWARD = "forward"
REVERSED = "reversed"
_DIRECTIONS = (FORWARD, REVERSED)  # direction index 0 and 1
_ORIENTATIONS = ("horizontal", "vertical")  # orientation index 0 and 1

_B33, _B34 = _T.B33.value, _T.B34.value
_NONE = 16  # the _RULES entry of a code outside the slot


def _rule_table() -> np.ndarray:
    """_RULES, laid out as the module docstring says."""
    table = np.full((2, 2, 7, 2, 16), _NONE, dtype=np.uint8)
    seven = (7, {_T.B34: _T.B33}, {})  # the anti-diagonal flip, scanned with the rows
    for o, rules in enumerate((_H_RULES + [seven], _V_RULES)):
        for cls, *slots in rules:
            for i, slot in enumerate(slots):
                for source, target in slot.items():
                    table[0, o, cls - 1, i, source.value] = target.value
                    table[1, o, cls - 1, i, target.value] = source.value
    table.flags.writeable = False
    return table


_RULES = _rule_table()
# bit 4*r + 2*o + i of _SLOT_MARKS[d, c]: code c is in slot i of class r + 1,
# orientation o and direction d; bit 24 is class 7, the highest
_SLOT_MARKS = ((_RULES != _NONE) << np.arange(28, dtype=np.uint32).reshape(7, 2, 2, 1).swapaxes(0, 1)).sum(
    axis=(1, 2, 3), dtype=np.uint32
)
_PAIR_BITS = 0x111111  # bit 4*r of classes 1 to 6, shifted by 2*o for orientation o


def _strip_pass(marks: np.ndarray, o: int) -> tuple[np.ndarray, int]:
    """Per orientation-o strip of a grid of _SLOT_MARKS (rows for o = 0),
    x & x >> 1 of its or-ed marks x, whose bit 4*r + 2*o is set iff the
    strip holds a code of each slot of class r + 1, and the or over all
    strips masked to those bits; the other bits straddle two slots."""
    x = np.bitwise_or.reduce(marks, axis=1 - o)
    both = x & x >> 1
    return both, int(np.bitwise_or.reduce(both)) & _PAIR_BITS << 2 * o


def _index(what: str, value: str, allowed: tuple[str, str]) -> int:
    if value not in allowed:
        raise ValueError(f"{what} must be {allowed[0]!r} or {allowed[1]!r}, got {value!r}")
    return allowed.index(value)


@dataclass(frozen=True)
class SwitchMove:
    orientation: str  # "horizontal" | "vertical"
    cls: int  # 1..7
    direction: str  # FORWARD | REVERSED
    corners: tuple[Corner, ...]  # one corner for class 7, two otherwise
    sources: tuple[BlockType, ...]  # current types, aligned with corners
    targets: tuple[BlockType, ...]  # rewritten types


# --------------------------------------------------------------------------
# Scan-order enumeration
# --------------------------------------------------------------------------

def _scan(codes: np.ndarray, direction: str) -> Iterator[tuple]:
    """find_switch's moves of a code grid in order, as (cls, orientation,
    corners, source codes, target codes).  Only the strips whose blocks'
    slot marks, or-ed together, hold both slot bits of a rule are listed."""
    d = _index("direction", direction, _DIRECTIONS)
    marks = _SLOT_MARKS[d].take(codes)
    both, live = zip(*(_strip_pass(marks, o) for o in (0, 1)))
    for r, o in product(range(6), (0, 1)):
        if not live[o] >> 4 * r + 2 * o & 1:
            continue
        slot_a, slot_b = _RULES[d, o, r]
        for s in np.flatnonzero(both[o] >> 4 * r + 2 * o & 1).tolist():
            line = codes[s] if o == 0 else codes[:, s]
            to_a, to_b = slot_a.take(line), slot_b.take(line)  # _NONE outside the slot
            is_a, is_b = to_a != _NONE, to_b != _NONE
            members, at_a, at_b = (np.flatnonzero(x).tolist() for x in (is_a | is_b, is_a, is_b))
            line, to_a, to_b = line.tolist(), to_a.tolist(), to_b.tolist()
            for p1 in members:
                # a block in both slots (reversed class 3 reads B33 in both) takes slot A
                mine, other, after = (to_a, to_b, at_b) if to_a[p1] != _NONE else (to_b, to_a, at_a)
                for p2 in after[bisect_right(after, p1) :]:
                    # (x, y) of blocks p1 and p2 of row s, swapped for column s
                    corners = tuple((2 * p + 1, 2 * s + 1)[:: 1 - 2 * o] for p in (p1, p2))
                    yield r + 1, _ORIENTATIONS[o], corners, (line[p1], line[p2]), (mine[p1], other[p2])
    vs, us = np.nonzero(marks >= 1 << 24)  # class 7, bit 24
    found = codes[vs, us]
    for v, u, c, t in zip(vs.tolist(), us.tolist(), found.tolist(), _RULES[d, 0, 6, 0].take(found).tolist()):
        yield 7, "horizontal", ((2 * u + 1, 2 * v + 1),), (c,), (t,)


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
    """First applicable rewrite of one direction in the scan order, if any:
    classes 1 to 6 in turn, horizontal strips bottom to top before vertical
    ones left to right, a strip's pairs (p1 < p2) in lexicographic order,
    a block in both slots of its rule (B33, reversed class 3) taking slot
    A; then class 7, block by block, row by row."""
    found = next(_scan(_even_codes(img), direction), None)
    return None if found is None else _switch_move(direction, found)


def all_switches(img: BinaryImage, direction: str = FORWARD) -> list[SwitchMove]:
    """Every applicable rewrite of one direction, in find_switch's scan order.

    The list holds every pair of a strip, so it grows as N**3 on an N x N
    image: 254,203 forward moves on the raw random_image(320, 320, 0.3, 0).
    """
    return [_switch_move(direction, f) for f in _scan(_even_codes(img), direction)]


def apply_switch(img: BinaryImage, move: SwitchMove) -> BinaryImage:
    """Rewrite the move's blocks; every line and block sum is unchanged.

    ValueError unless each source is its block's type and maps to its
    target in another slot of the move's rule in _RULES, and the blocks lie
    in one strip of its orientation (either one names class 7).
    """
    o = _index("orientation", move.orientation, _ORIENTATIONS)
    d = _index("direction", move.direction, _DIRECTIONS)
    rule = (d, 0 if move.cls == 7 else o, move.cls - 1)
    slots = _RULES[rule].tolist() if move.cls in range(1, 8) else [[_NONE] * 16] * 2
    rewrites = [(s.value, t.value) for s, t in zip(move.sources, move.targets)]
    corners = move.corners
    if not (
        len(corners) == len(move.sources) == len(move.targets) == (1 if move.cls == 7 else 2)
        and any(all(slot[s] == t for slot, (s, t) in zip(order, rewrites)) for order in (slots, slots[::-1]))
        # one strip: a single coordinate across it and distinct ones along it
        and len({c[1 - o] for c in corners}) == 1 and len({c[o] for c in corners}) == len(corners)
    ):
        raise ValueError(f"not a rewrite of the table within one strip: {move}")
    for corner, src in zip(corners, move.sources):
        if classify_block(img, corner) != src:
            raise ValueError(f"block at {corner} is not of type {src.name}")
    a = img.mutable()
    for (i, j), tgt in zip(corners, move.targets):
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


# The strip fixpoint's steps, horizontal forward classes 1, 3, 2, 4, 5
# and 6 (module docstring): per step, its class index r, which codes lie in
# each of its two slots and each code's target.
_STEPS = [(r, *(_RULES[0, 0, r] != _NONE), _RULES[0, 0, r].min(axis=0)) for r in (0, 2, 1, 3, 4, 5)]


def _reduce_strips(codes: np.ndarray) -> bool:
    """Run every row of a code grid, in place, to its own fixpoint under the
    horizontal forward rules 1 to 6; whether any block changed.

    Each step pairs the two slots of one class by rank: in every strip it
    rewrites the first n blocks of each slot in position order, n the
    smaller slot count.  A step no strip holds both slots of is skipped.
    """
    live = _strip_pass(_SLOT_MARKS[0].take(codes), 0)[1]
    moved = live != 0
    for s, (r, in_a, in_b, target) in enumerate(_STEPS):
        if not live >> 4 * r & 1:
            continue
        a, b = in_a.take(codes), in_b.take(codes)
        rank_a, rank_b = a.cumsum(axis=1, dtype=np.int32), b.cumsum(axis=1, dtype=np.int32)
        move = a & (rank_a <= rank_b[:, -1:]) | b & (rank_b <= rank_a[:, -1:])
        np.copyto(codes, target.take(codes), where=move)
        if s < len(_STEPS) - 1:
            live = _strip_pass(_SLOT_MARKS[0].take(codes), 0)[1]
    return moved


def reduce(img: BinaryImage) -> BinaryImage:
    """Apply forward rewrites until none applies.  Deterministic.

    Equivalent to repeatedly applying find_switch's first forward move:
    the horizontal strips, then the vertical strips, each run to its own
    fixpoint by _reduce_strips, then every anti-diagonal block flips (see
    the module docstring).  Returns img itself when nothing moves.
    """
    codes = _even_codes(img)
    moved = _reduce_strips(codes)
    columns = _TRANSPOSED.take(codes.T)
    if _reduce_strips(columns):
        codes = _TRANSPOSED.take(columns.T)
        moved = True
    flip = codes == _B34
    if not moved and not flip.any():
        return img
    codes[flip] = _B33  # class 7, all at once
    return BinaryImage(_decode(codes))


def has_reversed_switch(img: BinaryImage) -> bool:
    """Whether find_switch(img, REVERSED) finds a move."""
    return _has_reversed_switch(_even_codes(img))


def _has_reversed_switch(codes: np.ndarray) -> bool:
    """has_reversed_switch of the image with this code grid."""
    if (codes == _B33).any():
        return True  # the reversed class-7 flip
    # B33 is the one code in both slots of a rule (reversed class 3), so
    # from here a strip holding both slots of a rule holds a pair of it
    marks = _SLOT_MARKS[1].take(codes)
    return bool(_strip_pass(marks, 0)[1] or _strip_pass(marks, 1)[1])


# --------------------------------------------------------------------------
# Total variation
# --------------------------------------------------------------------------

def _sign(da: int, db: int) -> int:
    """Sign of da + db*sqrt(2) without floating point: the sign of the
    term of larger magnitude, |da| against |db|*sqrt(2) compared squared
    (they are equal only at 0, as sqrt(2) is irrational)."""
    x = da if da * da > 2 * db * db else db
    return (x > 0) - (x < 0)


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
_OUT = 16  # the code of a block outside the image
# _TRITS[c, i]: bit i of code c, or the trit 2 of a cell outside the image for _OUT
_TRITS = np.vstack((np.arange(16)[:, None] >> np.arange(4) & 1, np.full((1, 4), 2)))


def _site_tables(*groups) -> list[list[list[int]]]:
    """Keyed TV of each group of sites of a block, [context][code].

    A site lists its (own, right, up) cells as 0-3 for bit i of the
    block's code and 4 + 4*j + i for bit i of block j of the context, a
    pair of codes indexed as first * 17 + second.  The tables share one
    int object per distinct key.
    """
    context = np.indices((17, 17)).reshape(2, -1, 1)
    cells = [_TRITS[c, i] for c in (np.arange(16), *context) for i in range(4)]
    keys: dict[int, int] = {}
    tables = []
    for sites in groups:
        table = sum(_SITE[cells[own] * 9 + cells[right] * 3 + cells[up]] for own, right, up in sites)
        tables.append([[keys.setdefault(key, key) for key in row] for row in table.tolist()])
    return tables


# The eight sites of a block, in three groups by the two blocks around it
# that they read, context blocks 0 and 1: its own four sites read the block
# to its right (bits 0 and 2) and the one above it (bits 0 and 1); the two
# left of it read the block to its left (bits 1 and 3) and the one above
# that (bit 1); the two below it read the block below (bits 2 and 3) and
# the one right of that (bit 2).
_RIGHT_UP, _LEFT, _BELOW = _site_tables(
    [(0, 1, 2), (1, 4, 3), (2, 3, 8), (3, 6, 9)], [(5, 0, 7), (7, 2, 9)], [(6, 7, 0), (7, 10, 1)]
)


class _LocalTV:
    """Exact TV differences of block rewrites, read off one code grid.

    The image is held as its code grid framed by _OUT, so that
    codes[v + 1][u + 1] is the code of block (u, v).  A block's sites are
    the gradient sites that read one of its cells: its own four plus the
    two left of and the two below it.  They read only the block's 3x3
    neighbourhood, and no other site reads the block, so a single
    rewrite's key is the sum of its three table rows at the target less
    the same sum at the current code.  Two blocks of one strip that are
    not neighbours share no site and no site reads both, so a pair's key
    is the sum of its singles.  Of a neighbour pair's sites, only the
    next block's _LEFT (row pair) or _BELOW (column pair) sites read the
    first block; its key is the two singles plus that row with the first
    block at its target less the row at its current code, each read at
    the next block's target less at its current code.
    """

    def __init__(self, img: BinaryImage):
        h, w = img.n // 2, img.m // 2
        framed = np.full((h + 2, w + 2), _OUT, dtype=np.uint8)
        framed[1:-1, 1:-1] = _codes(img.a)
        self.codes = framed.tolist()

    def code(self, u: int, v: int) -> int:
        return self.codes[v + 1][u + 1]

    def _tables(self, u: int, v: int) -> tuple[list[int], list[int], list[int]]:
        """The block's rows of _RIGHT_UP, _LEFT and _BELOW."""
        codes = self.codes
        below, row, above = codes[v], codes[v + 1], codes[v + 2]
        return (
            _RIGHT_UP[row[u + 2] * 17 + above[u + 1]],
            _LEFT[row[u] * 17 + above[u]],
            _BELOW[below[u + 1] * 17 + below[u + 2]],
        )

    def totals(self, u: int, v: int) -> list[int]:
        """The keyed TV of the block's sites with the block at each code."""
        return [x + y + z for x, y, z in zip(*self._tables(u, v))]

    def single(self, u: int, v: int, target: int) -> int:
        now = self.code(u, v)
        return sum(row[target] - row[now] for row in self._tables(u, v))

    def correction(self, o: int, u: int, v: int, first: int, second: int) -> int:
        """A neighbour pair's key less its singles: (u, v) rewritten to
        first and the next block of its orientation-o strip, (u+1, v) or
        (u, v+1), to second."""
        codes = self.codes
        now = codes[v + 1][u + 1]
        if o == 0:  # (u+1, v) reads (u, v) in its _LEFT row, beside (u, v+1)
            beside, next_now, rows = codes[v + 2][u + 1], codes[v + 1][u + 2], _LEFT
        else:  # (u, v+1) reads (u, v) in its _BELOW row, beside (u+1, v)
            beside, next_now, rows = codes[v + 1][u + 2], codes[v + 2][u + 1], _BELOW
        new, old = rows[first * 17 + beside], rows[now * 17 + beside]
        return new[second] - new[next_now] - old[second] + old[next_now]

    def delta(self, corners, targets) -> tuple[int, int]:
        """TV(after the rewrite) - TV(now), as (a, b) counts; the blocks
        may be listed in either order along their strip."""
        blocks = [(i // 2, j // 2) for i, j in corners]
        moves = sorted(zip(blocks, targets))  # in position order along the strip
        key = sum(self.single(u, v, target) for (u, v), target in moves)
        if len(moves) == 2:
            ((u1, v1), first), ((u2, v2), second) = moves
            if abs(u2 - u1) + abs(v2 - v1) == 1:
                key += self.correction(int(u1 == u2), u1, v1, first, second)
        return _unkey(key)

    def apply(self, corners, targets) -> set[tuple[int, int]]:
        """Rewrite the blocks; return the blocks of their 3x3
        neighbourhoods, whose differences the rewrite may change."""
        blocks = [(i // 2, j // 2) for i, j in corners]
        for (u, v), code in zip(blocks, targets):
            self.codes[v + 1][u + 1] = code
        h, w = len(self.codes) - 2, len(self.codes[0]) - 2
        return {
            (a, b)
            for u, v in blocks
            for a in range(max(u - 1, 0), min(u + 2, w))
            for b in range(max(v - 1, 0), min(v + 2, h))
        }

    def image(self) -> BinaryImage:
        return BinaryImage(_decode(np.array(self.codes, dtype=np.uint8)[1:-1, 1:-1]))


# _ROLES[o][c]: (rule, slot A target, slot B target) for each rule of
# orientation o that code c takes part in, rule 7*d + r being class r + 1
# of direction d in _RULES; None for a slot without c
_ROLES = [
    [
        tuple(
            (rule, None if a == _NONE else a, None if b == _NONE else b)
            for rule, (a, b) in enumerate(_RULES[:, o, ..., c].reshape(14, 2).tolist())
            if (a, b) != (_NONE, _NONE)
        )
        for c in range(16)
    ]
    for o in (0, 1)
]
# a strip's least improving move, or this: keys below 0 sort before it
_NO_MOVE = (0,)


def _members(local: _LocalTV, u: int, v: int) -> tuple[tuple, tuple]:
    """The block's (rule, member) pairs in its row and in its column, one
    for each rule of the orientation that it takes part in; a member is
    (position in the strip, slot A key, slot A target, slot B key, slot B
    target), with None for a slot without the block's code."""
    code, totals = local.code(u, v), local.totals(u, v)
    now = totals[code]
    return tuple(
        tuple(
            (rule, (p, None if a is None else totals[a] - now, a, None if b is None else totals[b] - now, b))
            for rule, a, b in _ROLES[o][code]
        )
        for o, p in ((0, u), (1, v))
    )


def _best_pair(local: _LocalTV, o: int, s: int, members: list) -> tuple:
    """Least (key, p1, p2, targets) over the pairs of one rule in a strip.

    members are the rule's members in the strip, by position.  As in
    find_switch's scan, a block of slot A comes first in a pair, then one
    of slot B, unless the first block is in slot B only.  A pair of
    non-neighbours scores the sum of its singles, so each block as second
    meets the best first block before the previous member (the smallest
    position on ties) and the previous member itself, whose sum of singles
    _LocalTV.correction completes when it is the block's neighbour.
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
                    key += local.correction(o, u, v, *targets)
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
    # rules are numbered in choice order, so a later one must be strictly less
    best = _NO_MOVE
    for rule, found in enumerate(members):
        d, r = divmod(rule, 7)
        if r == 6:  # class 7 rewrites single blocks
            for p, key, target, _, _ in found:
                if key < best[0]:
                    best = (key, d, r, o, s, p, -1, (target,))
        elif len(found) > 1:
            found = _best_pair(local, o, s, found)
            if found[0] < best[0]:
                key, p1, p2, targets = found
                best = (key, d, r, o, s, p1, p2, targets)
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
    h, w = img.n // 2, img.m // 2
    # strips[o][s][p]: the _members of block p of row (o = 0) or column s
    strips = ([[None] * w for _ in range(h)], [[None] * h for _ in range(w)])
    for v in range(h):
        for u in range(w):
            strips[0][v][u], strips[1][u][v] = _members(local, u, v)
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
        sources = tuple(local.code(u, v) for u, v in blocks)
        dirty = set()
        for u, v in local.apply(corners, targets):
            strips[0][v][u], strips[1][u][v] = _members(local, u, v)
            dirty.update(((0, v), (1, u)))
        for strip in dirty:
            best[strip] = _strip_best(local, *strip, strips[strip[0]][strip[1]])
        da, db = _unkey(key)
        current_tv = TVValue(current_tv.a + da, current_tv.b + db)
        steps += 1
        if on_step is not None:
            on_step(_switch_move(_DIRECTIONS[d], (k + 1, _ORIENTATIONS[o], corners, sources, targets)), current_tv)
