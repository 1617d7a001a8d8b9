"""Slow reference versions of the switch routines, for differential tests.

`reduce_by_steps` applies find_switch's first forward move until none
applies, which is the definition `reduce` must match.  `tv_descend_full`
is the plain steepest descent: it applies every candidate move and
recomputes the whole image's total variation.
"""

from typing import Optional

from drtomo.model import BinaryImage, Instance, verify_solution
from drtomo.switches import (
    FORWARD,
    REVERSED,
    SwitchMove,
    TVValue,
    all_switches,
    apply_switch,
    find_switch,
    tv,
)


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
