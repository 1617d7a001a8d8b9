"""Slow reference versions of the switch routines, for differential tests.

`_scan` is the reference scan, a list engine: it reads the rules as one
dict per slot (`_RULE_MAPS`), walks every strip of a code grid held as
nested lists, and lists each strip's pairs one block at a time
(`_pairs`).  `scan_switches` gives its moves as
`SwitchMove`s, the output that `find_switch` and `all_switches` must
match, and `apply_switch_by_maps` is `apply_switch` checking a move
against those dicts.  `reduce_by_steps` applies find_switch's first
forward move until none applies, which is the definition `reduce` must
match.  `reduce_rows` runs each strip of a code grid to its fixpoint one
move at a time, the lowest class with both slots present taking its first
pair, which is the strip fixpoint `switches._reduce_strips` must match.
`tv_descend_full` is the plain steepest descent: it applies every
candidate move and recomputes the whole image's total variation.
"""

from typing import Iterator, Optional

import numpy as np

from drtomo.model import BinaryImage, Instance, _codes, _decode, classify_block, verify_solution
from drtomo.switches import (
    FORWARD,
    REVERSED,
    SwitchMove,
    TVValue,
    _DIRECTIONS,
    _NONE,
    _ORIENTATIONS,
    _RULES,
    _index,
    _switch_move,
    all_switches,
    apply_switch,
    find_switch,
    tv,
)

# _RULES as nested lists [d][o][r][i] of slot maps {code: target}
_RULE_MAPS = [
    [[[{c: t for c, t in enumerate(slot) if t != _NONE} for slot in rule] for rule in rules] for rules in by_o]
    for by_o in _RULES.tolist()
]


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
    rules = _RULE_MAPS[_index("direction", direction, _DIRECTIONS)]
    strips = (grid, [list(col) for col in zip(*grid)])
    present = [[set(strip) for strip in strips[o]] for o in (0, 1)]
    for r in range(6):
        for o, orientation in enumerate(_ORIENTATIONS):
            slot_a, slot_b = rules[o][r]
            for s, (strip, here) in enumerate(zip(strips[o], present[o])):
                if here.isdisjoint(slot_a) or here.isdisjoint(slot_b):
                    continue
                for p1, p2, sources, targets in _pairs(strip, slot_a, slot_b):
                    if o == 0:
                        corners = ((2 * p1 + 1, 2 * s + 1), (2 * p2 + 1, 2 * s + 1))
                    else:
                        corners = ((2 * s + 1, 2 * p1 + 1), (2 * s + 1, 2 * p2 + 1))
                    yield r + 1, orientation, corners, sources, targets
    flip = rules[0][6][0]
    for v, row in enumerate(grid):
        for u, c in enumerate(row):
            if c in flip:
                yield 7, "horizontal", ((2 * u + 1, 2 * v + 1),), (c,), (flip[c],)


def scan_switches(img: BinaryImage, direction: str) -> Iterator[SwitchMove]:
    """The moves of one direction that _scan lists on an image of even sides, in order."""
    return (_switch_move(direction, found) for found in _scan(_codes(img.a).tolist(), direction))


def apply_switch_by_maps(img: BinaryImage, move: SwitchMove) -> BinaryImage:
    """apply_switch, checking the move against the slot maps of _RULE_MAPS."""
    o = _index("orientation", move.orientation, _ORIENTATIONS)
    rules = _RULE_MAPS[_index("direction", move.direction, _DIRECTIONS)][0 if move.cls == 7 else o]
    slots = rules[move.cls - 1] if move.cls in range(1, 8) else ({}, {})
    rewrites = [(s.value, t.value) for s, t in zip(move.sources, move.targets)]
    corners = move.corners
    if not (
        len(corners) == len(move.sources) == len(move.targets) == (1 if move.cls == 7 else 2)
        and any(all(slot.get(s) == t for slot, (s, t) in zip(order, rewrites)) for order in (slots, slots[::-1]))
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


# The distinct slots of the horizontal forward rules 1 to 6 as code masks,
# each rule as the indices of its two slots, and per code its slot
# (len(_SLOTS) for none) and its forward target: a code lies in at most one
# slot and has one target in all of them.
_SLOTS, _PAIRS = np.unique((_RULES[0, 0, :6] != _NONE).reshape(12, 16), axis=0, return_inverse=True)
_PAIRS = _PAIRS.reshape(6, 2).tolist()
_SLOT_OF = np.where(_SLOTS.any(axis=0), _SLOTS.argmax(axis=0), len(_SLOTS)).tolist()
_FORWARD_TARGET = _RULES[0, 0, :6].min(axis=(0, 1)).tolist()


def reduce_rows(grid: list[list[int]]) -> bool:
    """Run every row of a code grid, in place, to its own fixpoint under the
    horizontal forward rules 1 to 6; whether any block changed.

    A row keeps one bit mask of positions per slot, so the lowest rule with
    both slots present and its first pair are read from lowest set bits.
    """
    moved = False
    for row in grid:
        masks = [0] * (len(_SLOTS) + 1)  # the last one collects blocks in no slot
        for p, c in enumerate(row):
            masks[_SLOT_OF[c]] |= 1 << p
        while True:
            for a, b in _PAIRS:
                if masks[a] and masks[b]:
                    break
            else:
                break
            moved = True
            for slot, bit in ((a, masks[a] & -masks[a]), (b, masks[b] & -masks[b])):
                p = bit.bit_length() - 1
                code = row[p] = _FORWARD_TARGET[row[p]]
                masks[slot] ^= bit
                masks[_SLOT_OF[code]] |= bit
    return moved


def reduce_by_steps(img: BinaryImage) -> BinaryImage:
    while (move := find_switch(img, FORWARD)) is not None:
        img = apply_switch(img, move)
    return img


def tv_descend_full(inst: Instance, img: BinaryImage, on_step=None) -> BinaryImage:
    if not verify_solution(inst, img).satisfied:
        raise ValueError("input image does not solve the instance")
    current = img
    current_tv = tv(current)
    while True:
        best: Optional[tuple[TVValue, SwitchMove]] = None
        for direction in (FORWARD, REVERSED):
            for move in all_switches(current, direction):
                t = tv(apply_switch(current, move))
                if t < current_tv and (best is None or t < best[0]):
                    best = (t, move)
        if best is None:
            return current
        current = apply_switch(current, best[1])
        current_tv = best[0]
        if on_step is not None:
            on_step(best[1], current_tv)
