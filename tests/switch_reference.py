"""Slow reference versions of the switch routines, for differential tests.

`reduce_by_steps` applies find_switch's first forward move until none
applies, which is the definition `reduce` must match.  `reduce_rows`
runs each strip of a code grid to its fixpoint one move at a time, the
lowest class with both slots present taking its first pair, which is
the strip fixpoint `switches._reduce_strips` must match.  `tv_descend_full`
is the plain steepest descent: it applies every candidate move and
recomputes the whole image's total variation.
"""

from typing import Optional

import numpy as np

from drtomo.model import BinaryImage, Instance, verify_solution
from drtomo.switches import (
    FORWARD,
    REVERSED,
    SwitchMove,
    TVValue,
    _NONE,
    _RULES,
    all_switches,
    apply_switch,
    find_switch,
    tv,
)


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
