"""Exhaustive reference solver: exact answers at small scale, by search.

This is the ground truth the fast solver is measured against, and the only
way in this package to decide noisy or k > 2 instances exactly.

Every row, column and block is a window group: a set of cells that must
hold between lo and hi ones (lo = hi = the line sum for a line,
``Instance.window`` for a block), and every cell lies in exactly three
groups.  Each group keeps two rooms: room1 = hi - used, the ones it may
still take, and room0 = used + free - lo, the zeros.  Setting a cell to
b takes one from room_b of its three groups and leaves their other
rooms as they are, since used and free move by opposite amounts.  A
partial assignment is kept while no room is below 0.

One forcing rule runs everywhere: a group with room_b at 0 forces its
free cells, room0 + room1 - (hi - lo) of them, to 1 - b.  It is the unit
propagation step of DPLL.  Pre-elimination applies it from every group
with the pins counted, in two steps: one array sweep assigns every cell
that some group forces and tests every room, then a queue of the groups
that still force runs the rule to fixpoint one cell at a time.  Forcing
only adds assignments; as more cells are set, a group that fails keeps
failing and a group that forces a cell either still forces it or fails.
So the fixpoint, or the contradiction, does not depend on the order in
which groups force: the sweep and the queue reach the one the queue
alone reaches.  On a 60x60 gadget board the sweep settles about 3450 of
the 3600 cells, which the queue alone assigned one at a time in about
9.5k queue operations.

After each cell the search sets, propagation runs from those of its
groups whose room fell to 0: a room is tested only where it falls.
Backtracking undoes a trail of assigned cells.  The depth-first search
branches on the cells pre-elimination left undecided, in a static order
(bottom row up, left to right, 0 before 1), and steps over those
propagation has fixed since.  So propagation only cuts subtrees that
hold no solution: the solutions and their order are those of a search
that tests each cell against its own groups alone, which visits at
least as many nodes.  On a 60x60 gadget board that search needs 0.2M to
0.8M nodes; this one needs a few hundred.  The search keeps its path on
an explicit stack, so its depth is bounded by memory, not by the
interpreter's recursion limit.

A count needs no solution, only how many there are, and many vertices of
one depth root the same subtree.  At depth d every unset cell lies at d
or after, so a vertex's subtree depends only on d, the cells from d on
and the rooms for 1 of the frontier groups, those with undecided cells
both before d and at or after it (hi - used is one-to-one with used).
The search holds only the cells pre-elimination leaves undecided,
numbered in search order, so the cells from d on are one slice of its
cell list, read as one bytes object.  A counting run records the
(count, nodes) of each branching vertex whose subtree it has finished
under that state, and adds the record when the state comes back, unless
a cap falls inside the subtree.  The answers are those of the walk: a
node is counted whether it is walked or added from a record.  The
records grow with the vertices expanded, not with the nodes counted: a
6x6 eps = 1 count of 858 solutions over 11862 nodes records 157
vertices.  Runs that collect solutions keep no records.

A malformed instance (any ``validate_instance`` finding other than a sum
mismatch) and a pin outside the grid or with a bit other than 0 or 1 raise
``ValueError``; a sum mismatch is answered as infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import numpy as np

from .model import BinaryImage, Instance, _require_well_formed, validate_instance


@dataclass(frozen=True)
class SearchBudget:
    """Caps for a single search run, each an integer of at least 1.

    A node is one vertex of the search tree: the root, and each cell the
    depth-first search assigns or steps over because propagation already
    fixed it.  Cells fixed before the search (pins, pre-elimination) are
    not nodes.  A counting run counts a node whether it walks it or adds
    it from a recorded subtree.  A run stops with ``exhausted`` False on
    the node past ``max_nodes`` or at the ``max_solutions``-th solution;
    the solutions found by then are a prefix of the full ordered list.
    """

    max_solutions: int = 1_000_000
    max_nodes: int = 50_000_000

    def __post_init__(self):
        for name in ("max_solutions", "max_nodes"):
            cap = getattr(self, name)
            if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {cap!r}")


# room for the 26 board shapes of the gadget parsimony sweep (about 9 MB
# together), so a sweep that revisits a shape does not rebuild its layout
@lru_cache(maxsize=32)
def _layout(k: int, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The groups of a k-block m x n grid: per cell, and their sizes.

    Returns the three groups (row, column, block) of every cell as an
    (m*n, 3) array and the size of every group.  It depends on the shape
    alone, so instances of one shape share it.
    """
    q, p = np.divmod(np.arange(m * n), m)
    cell_groups = np.stack((q, n + p, n + m + (q // k) * (m // k) + p // k), axis=1)
    sizes = np.array([m] * n + [n] * m + [k * k] * ((m // k) * (n // k)))
    cell_groups.flags.writeable = sizes.flags.writeable = False  # shared by every search of the shape
    return cell_groups, sizes


class _Search:
    """One depth-first enumeration over the undecided cells of an instance.

    Cell (p, q) has index (q-1)*m + p-1 in ``image``, the array of all
    cells (2 while undecided).  Groups are numbered rows bottom up, then
    columns left to right, then blocks in ``Instance.corners`` order.
    Until pre-elimination the cells and the group bounds are arrays; from
    then on the search numbers the cells still undecided 0, 1, ... in
    index order (``at`` maps them back to ``image``) and reads lists one
    entry at a time: ``cell`` holds their bits (2 while unset),
    ``sides[b]`` the sides 2g + b of each one's three groups g,
    ``members`` each group's cells among them, ``room`` at side 2g + b
    room_b of group g, and ``slack`` each group's hi - lo.  Every cell
    assigned after the sweep goes on ``trail``; undoing the trail to a
    mark restores the state the mark was taken in.
    """

    def __init__(self, inst: Instance, budget: SearchBudget, collect: bool):
        self.inst = inst
        self.budget = budget
        self.collect = collect
        self.solutions: list[BinaryImage] = []
        self.count = 0
        self.nodes = 0
        self.exhausted = True

        m, n = inst.m, inst.n
        self.cell_groups, self.sizes = _layout(inst.k, m, n)
        sums = np.array(inst.row_sums + inst.col_sums)
        self.lo, self.hi = (np.concatenate((sums, bound.ravel())) for bound in inst._windows())
        self.image = np.full(m * n, 2, dtype=np.int8)
        self.trail: list[int] = []
        self.undecided: list[int] = []

    def _set(self, c: int, bit: int) -> list[int]:
        """Assign cell c and take it from its groups' rooms for bit; returns the sides that fell to 0."""
        self.cell[c] = bit
        self.trail.append(c)
        room, fell = self.room, []
        for side in self.sides[bit][c]:
            left = room[side] - 1
            room[side] = left
            if left <= 0:
                fell.append(side)
        return fell

    def _undo(self, mark: int) -> None:
        """Unassign the cells trailed since the trail had length mark."""
        cell, trail, room, sides = self.cell, self.trail, self.room, self.sides
        for c in trail[mark:]:
            for side in sides[cell[c]][c]:
                room[side] += 1
            cell[c] = 2
        del trail[mark:]

    def _propagate(self, queue: list[int]) -> bool:
        """Apply the forcing rule to fixpoint from the queued sides, whose rooms fell to 0 or below.

        A room below 0 makes this return False.  A side 2g + b at 0 forces
        the free cells of group g to 1 - b, and each of them queues the
        sides 2h + 1 - b of its groups h whose rooms fall to 0 or below, so
        every room below 0 is tested.  Group g's own room ends at its slack.
        """
        room, slack, members, sides = self.room, self.slack, self.members, self.sides
        cell, trail = self.cell, self.trail
        while queue:
            full = queue.pop()
            if room[full] < 0:
                return False
            g, own = full >> 1, full ^ 1
            free = room[own] - slack[g]  # room0 + room1 - (hi - lo), with room[full] == 0
            if free:
                bit = own & 1
                taken = sides[bit]
                for c in members[g]:
                    if cell[c] == 2:  # _set, inlined in the hottest loop
                        cell[c] = bit
                        trail.append(c)
                        for side in taken[c]:
                            left = room[side] - 1
                            room[side] = left
                            if left <= 0 and side != own:
                                queue.append(side)
                        free -= 1
                        if not free:
                            break
        return True

    def preeliminate(self) -> bool:
        """Apply the forcing rule from every group to fixpoint; False on a contradiction.

        One array sweep takes the pins from their groups' rooms, assigns
        every cell some group forces, takes again and tests every room.  A
        group that fails before the sweep fails after it too, and a cell
        forced both ways ends as 1 and fails the group that forced it to 0,
        so that one test finds both.  The state then moves into the lists
        the search reads, and the sides that still force go to `_propagate`.
        """
        cell, cell_groups, size = self.image, self.cell_groups, len(self.sizes)

        def rooms() -> np.ndarray:  # [g, b]: room_b of group g, from one count of each group's 0s, 1s and 2s
            held = sum(np.bincount(3 * col + cell, minlength=3 * size) for col in cell_groups.T).reshape(size, 3)
            return np.stack((self.sizes - self.lo - held[:, 0], self.hi - held[:, 1]), axis=1)

        undecided = cell == 2
        hit = ((rooms() == 0) @ np.uint8((2, 1)))[cell_groups]  # 1 from a group forcing the cell to 0, 2 to 1
        hit = (hit[:, 0] | hit[:, 1] | hit[:, 2]) * undecided
        cell[hit == 1], cell[hit > 1] = 0, 1  # a cell forced both ways ends as 1 and overfills its 0-forcing group
        room = rooms()
        if room.min() < 0:
            return False
        slack = self.hi - self.lo
        queue = np.flatnonzero((room == 0) & (room[:, 0] + room[:, 1] > slack)[:, None]).tolist()
        # from here on only the cells undecided now are set, undone or passed, so the search
        # numbers them 0, 1, ... in index order and reads them one at a time from lists
        self.at = np.flatnonzero(undecided & (hit == 0))
        at_groups = cell_groups[self.at]
        self.sides = tuple(list(map(tuple, (2 * at_groups + b).tolist())) for b in (0, 1))
        members = self.members = {}
        for c, three in enumerate(at_groups.tolist()):
            for g in three:
                members.setdefault(g, []).append(c)
        self.room, self.slack = room.ravel().tolist(), slack.tolist()
        self.cell = [2] * len(self.at)
        if not self._propagate(queue):
            return False
        self.undecided = [c for c, bit in enumerate(self.cell) if bit == 2]
        return True

    def run(self) -> None:
        """Visit the search tree in order, one node per vertex, within budget.

        A run that only counts records the (count, nodes) of each branching
        vertex whose subtree it has finished, under the vertex's state: its
        depth d, the cells from ``undecided[d]`` to the last as they
        stand, and the rooms for 1 of the frontier groups at d.  Nothing
        else reaches the subtree, so when the state comes back the recorded
        pair is added instead of walking the subtree again, provided
        neither cap falls inside it; otherwise the subtree is walked and
        the cap stops the run at the exact node or solution.
        """
        undecided = self.undecided
        cell, trail, room = self.cell, self.trail, self.room
        set_, undo, propagate = self._set, self._undo, self._propagate
        max_nodes, max_solutions = self.budget.max_nodes, self.budget.max_solutions
        memo: dict | None = None if self.collect else {}
        # the sides 2g + 1 of the frontier groups g at each depth d reached:
        # those whose first undecided cell lies before d and whose last does not
        frontier: dict[int, tuple[int, ...]] = {}
        span: dict[int, list[int]] = {}  # side 2g + 1: [first, last] position in undecided
        if memo is not None:
            for d, c in enumerate(undecided):
                for side in self.sides[1][c]:
                    span.setdefault(side, [d, d])[1] = d
        branches: list[tuple[int, int, int]] = []  # (depth, trail mark, bit) of each branch taken
        # (depth, state, count, nodes before it) of each branching vertex on the path being walked
        opened: list[tuple[int, tuple, int, int]] = []
        depth = nodes = 0
        while True:
            # a new vertex at this depth, then one per cell below it that
            # propagation already fixed, each the only child of the one before
            top = depth
            while depth < len(undecided) and cell[undecided[depth]] < 2:
                depth += 1
            nodes += depth - top + 1
            if nodes > max_nodes:
                self.nodes, self.exhausted = max_nodes + 1, False
                return
            self.nodes = nodes
            bit = 0
            if depth == len(undecided):
                self.count += 1
                if self.collect:
                    a = self.image.astype(np.uint8)
                    a[self.at] = cell
                    self.solutions.append(BinaryImage(a.reshape(self.inst.n, self.inst.m)))
                if self.count >= max_solutions:
                    self.exhausted = False
                    return
                bit = 2  # a leaf has no child to try
            elif memo is not None:
                if depth not in frontier:
                    # from a list: tuple() of a generator grows the tuple by reallocation,
                    # which left repeated counts about 1 MB more peak RSS
                    frontier[depth] = tuple([side for side, (first, last) in span.items() if first < depth <= last])
                # the cells from depth on, 2 while unset; those among them that
                # pre-elimination set read the same at every vertex
                ahead = bytes(cell[undecided[depth]:])
                state = (depth, ahead, *[room[side] for side in frontier[depth]])
                known = memo.get(state)
                if known and nodes + known[1] - 1 <= max_nodes and self.count + known[0] < max_solutions:
                    self.count += known[0]
                    self.nodes = nodes = nodes + known[1] - 1
                    bit = 2  # its subtree is counted
                else:
                    opened.append((depth, state, self.count, nodes - 1))
            # the next vertex is the first admissible untried child of the
            # deepest vertex on the path that still has one
            while True:
                if bit < 2:
                    c = undecided[depth]
                    mark = len(trail)
                    if propagate(set_(c, bit)):
                        branches.append((depth, mark, bit))
                        depth += 1
                        break
                    undo(mark)
                    bit += 1
                    continue
                if opened and opened[-1][0] == depth:  # its subtree is finished
                    _, state, count, start = opened.pop()
                    memo[state] = (self.count - count, nodes - start)
                if not branches:
                    return
                depth, mark, bit = branches.pop()
                undo(mark)
                bit += 1


def _run(
    inst: Instance, budget: SearchBudget, collect: bool, fixed: dict[tuple[int, int], int]
) -> _Search:
    """Check the input, pin the fixed cells, pre-eliminate and search.

    The pins are written before pre-elimination, which takes them from
    their groups' rooms and tests every room.
    """
    sums_agree = _require_well_formed(validate_instance(inst))
    s = _Search(inst, budget, collect)
    for (p, q), bit in fixed.items():
        if not (1 <= p <= inst.m and 1 <= q <= inst.n) or bit not in (0, 1):
            raise ValueError(f"pin ({p}, {q}) = {bit} is not a bit on the {inst.m}x{inst.n} grid")
        s.image[(q - 1) * inst.m + p - 1] = bit
    if sums_agree and s.preeliminate():
        s.run()
    return s


def oracle_solve(
    inst: Instance, budget: SearchBudget = SearchBudget()
) -> tuple[list[BinaryImage], bool]:
    """Enumerate solutions of an arbitrary instance by pruned search.

    Returns the solutions found (deterministic order: cells are tried in
    row-major order from the bottom row up, zero before one) and a flag
    that is True iff the whole space was covered within budget, so the
    list is complete up to max_solutions.  Propagation runs at every node
    but only cuts subtrees that hold no solution, so the order is that of
    a search without it.  A node is the root or a cell the search assigns
    or steps over (see SearchBudget); cells fixed before the search are
    not nodes.
    """
    s = _run(inst, budget, True, {})
    return s.solutions, s.exhausted


def constrained_solve(
    inst: Instance,
    fixed: dict[tuple[int, int], int],
    budget: SearchBudget = SearchBudget(),
) -> tuple[list[BinaryImage], bool]:
    """oracle_solve with some cells pinned to given bits beforehand.

    Useful when outside knowledge says certain cells must hold a known
    value in every solution; the search then only branches on the rest.
    A pin outside the grid or with a bit other than 0 or 1 raises
    ValueError.
    """
    s = _run(inst, budget, True, fixed)
    return s.solutions, s.exhausted


def oracle_count(
    inst: Instance, budget: SearchBudget = SearchBudget()
) -> tuple[int, bool]:
    """Count solutions without materializing them; same search as oracle_solve."""
    s = _run(inst, budget, False, {})
    return s.count, s.exhausted
