"""The rescanning TV descent, kept as the differential reference.

`tv_descend` here scans every applicable move of both directions at every
step (`switches._scan`) and scores each through a cache of single-block
differences (`_LocalTV`).  `drtomo.switches.tv_descend` keeps a best move
per strip instead; its `on_step` traces and outputs must equal these.
"""

import numpy as np

from drtomo.model import BinaryImage, Corner, Instance, _codes, verify_solution
from drtomo.switches import FORWARD, REVERSED, TVValue, _scan, _sign, _switch_move, tv


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
