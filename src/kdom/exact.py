"""Exact minimum k-distance domination for desk-scale grids.

Independent ground truth for the constructive pipeline: exact_gamma
deepens on the set size with branch-and-bound.  A node budget, not wall
time, bounds its time, so runs are bit-reproducible, and MAX_SEARCH_BITS
bounds its memory.  exact_gamma's docstring gives the branching rule,
the cuts and why each one is sound.
"""
from __future__ import annotations

import heapq
from collections import namedtuple

import numpy as np

from .construction import construct
from .errors import DomainError
from .gridmodel import GridDims
from .lattice import Radius, VertexSet, integers, pairs_of_keys

DEFAULT_NODE_BUDGET = 5_000_000
# Mask bits for a search's two tables (2mn masks of mn bits), its failed-state
# memo and its per-cell lists of recent failures (mn bits per entry), cleared
# when full: at 144 cells 2^18 entries (about 30 MB).
MAX_SEARCH_BITS = 144 * (2 * 144 + (1 << 18))
# (border, next ring, deeper) cell weights per k, (3, 0, 1) past k=5: the optimum of the
# two-variable ring LP over half- and quarter-plane candidates, the deeper weight fixed at 1/p
_RING_WEIGHTS = {1: (10, 5, 7), 2: (12, 0, 5), 3: (5, 0, 2), 4: (11, 0, 4), 5: (29, 0, 10)}
_RECENT_FAILURES = 8  # failed uncovered sets kept per branch cell for the superset cut


class ExactResult(namedtuple("ExactResult", "gamma lower_bound witness nodes_explored time_budget_exceeded")):
    """gamma is exact unless the node budget ran out.  Then the witness is
    the smaller of a greedy cover and construct's set (greedy on a tie),
    gamma its size, and lower_bound the smallest size not ruled out, the
    size being searched; gamma is exact iff that smaller cover is no
    larger than it, and time_budget_exceeded flags the other case."""

    __slots__ = ()


class _BudgetExhausted(Exception):
    pass


def path_gamma(dims: GridDims, k: Radius) -> int:
    """Domination number of the 1 x n path, in either orientation: ceil(n / (2k+1))."""
    if min(dims) != 1:
        raise DomainError(f"a path is 1 wide, got {dims.m}x{dims.n}")
    return -(-dims.area // (2 * k.k + 1))


def _balls(dims: GridDims, radius: int) -> list[int]:
    """Bitmask of cells within distance radius of each cell (row-major index).

    Row j-r+y of the ball of (i, j), y = 0..2r, is the run of columns
    max(0, i-s)..min(m-1, i+s), s = r - |y-r|: column i's template on
    2r+1 unclipped rows, shifted to rows j-r..j+r and masked to the grid.
    Column i's template is column i-1's shifted one column east, less the
    bits past column m-1, plus column 0 on the rows with s >= |i|, from an
    empty one west of column -r.  r is radius clamped to m+n-2, the
    grid's diameter, past which every ball is the whole grid.
    """
    m, n = dims.m, dims.n
    r = min(radius, m + n - 2)
    full = (1 << m * n) - 1
    col0 = ((1 << (2 * r + 1) * m) - 1) // ((1 << m) - 1)  # column 0 of each of the 2r+1 rows
    east = col0 * ((1 << m) - 2)  # every column but 0
    template, templates = 0, []
    for i in range(-r, m):
        a = abs(i) * m  # col0 >> 2a << a keeps rows |i|..2r-|i|, where s >= |i|
        template = template << 1 & east | col0 >> 2 * a << a
        templates.append(template)
    templates, rm = templates[r:], r * m  # the ball of (i, j) is column i's template << (j-r)m
    return [mask >> a & full for a in range(rm, rm - min(r, n) * m, -m) for mask in templates] + [
        mask << a & full for a in range(0, (n - r) * m, m) for mask in templates]


def _rings(dims: GridDims, k: int, balls: list[int]) -> tuple[int, int, int, int, int, int]:
    """(border, ring, w, lift, dip, heavy): the border ring and the next one as masks, built from
    row 0 and column 0; the deeper cells' weight w and the other two rings' weights less w; and
    heavy, the largest weight of a ball.  A mask's weight is w * |mask| + lift * |mask & border|
    + dip * |mask & ring|.  Balls and rings are symmetric under both mirrors, so one quadrant's
    balls hold the heaviest, and under the 180-degree turn, so the search reads the rings as built."""
    m, n = dims.m, dims.n
    full = (1 << m * n) - 1
    row, col = (1 << m) - 1, full // ((1 << m) - 1)
    border = row | row << (n - 1) * m | col | col << m - 1
    ring = (row << m | row << max(n - 2, 0) * m | col << 1 | col << max(m - 2, 0)) & full & ~border
    w_border, w_ring, w = _RING_WEIGHTS.get(k, (3, 0, 1))
    lift, dip = w_border - w, w_ring - w
    heavy = max(w * ball.bit_count() + lift * (ball & border).bit_count() + dip * (ball & ring).bit_count()
                for j in range((n + 1) // 2) for ball in balls[j * m:j * m + (m + 1) // 2])
    return border, ring, w, lift, dip, heavy


def _images(dims: GridDims, c: int) -> list[int]:
    """The images of cell c (row-major index) under the grid's symmetries but the identity: the
    east-west mirror, the north-south one and the 180-degree turn, then on a square grid the
    transpose and its compositions with those three, one cell per symmetry in that order.  Each
    symmetry maps the grid onto itself and the ball of every cell onto the ball of its image."""
    m, n = dims.m, dims.n
    i, j = c % m, c // m
    cells = [(m - 1 - i, j), (i, n - 1 - j), (m - 1 - i, n - 1 - j)]
    if m == n:
        cells += [(y, x) for x, y in [(i, j)] + cells]
    return [y * m + x for x, y in cells]


def _greedy(full: int, balls: list[int]) -> list[int]:
    """Deterministic greedy cover, the answer when the node budget runs out: each pick covers the most
    uncovered cells, the lowest cell on a tie, and comes off a heap of the gains as last scored."""
    heap = sorted((-ball.bit_count(), c) for c, ball in enumerate(balls))  # a sorted list is a heap
    covered, chosen = 0, []
    while covered != full:
        stale, c = heapq.heappop(heap)
        if (gain := (balls[c] & ~covered).bit_count()) < -stale:  # fallen since scored: requeue it
            heapq.heappush(heap, (-gain, c))
        else:
            chosen.append(c)
            covered |= balls[c]
    return chosen


def exact_gamma(
    dims: GridDims,
    k: Radius,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ExactResult:
    """Exact minimum, or a budget-flagged upper value (see ExactResult).

    The search branches on the lowest uncovered cell v and only on the
    candidates x >= v in its ball.  Every cell before v is covered, so a
    candidate x < v can be swapped for x + (0, 1) if it lies in a row
    below v's, and for x + (1, 1) (x + (1, 0) on the top row) if it lies
    west of v.  The swap stays in v's ball, has a higher index and
    covers every uncovered cell that x covers, so a chain of swaps turns
    any cover into one that uses a candidate >= v: at most k^2+k+1
    branches instead of p.  A grid with m > n is searched as its n x m transpose,
    so rows are never longer than columns, and the witness is transposed
    back.

    The candidates are tried by the number of uncovered cells they cover,
    most first, then by index, and a candidate x is skipped when one
    already tried, y, covers every uncovered cell that x covers: a cover
    that uses x still covers with y in its place.  Of candidates that
    cover the same uncovered cells only the lowest is tried.  The order
    and the skips are functions of the uncovered set, so the search stays
    complete and the memo below stays sound.

    The first bound weighs each cell by its ring: the border, the next
    ring in, or deeper (_rings, with integer weights per k from
    _RING_WEIGHTS).  A new dominator covers uncovered cells of total
    weight at most heavy, the heaviest ball's, so a branch is cut once the
    uncovered cells weigh more than slots * heavy, the slots being the
    dominators it may still add.  Any nonnegative weights give a sound
    bound; weighing the border up makes it stronger, since a border cell
    lies in fewer balls.  The search starts at ceil(weight of the grid /
    heavy).

    The second bound is a packing.  Two cells share a candidate dominator
    iff they lie within 2k of each other; far[v], the radius-2k ball of v
    (built from the same column templates as the balls), holds the cells
    that share one with v.  The search picks the lowest uncovered cell,
    drops the cells of its far mask, and repeats.  The picked cells are
    uncovered and pairwise share no candidate, so each needs its own new
    dominator, and a branch with fewer dominators left than picked cells
    is cut.  A greedy packing need not be the largest; any packing is a
    sound bound.  It runs only where the ring bound leaves less than
    heavy of slack (slots * heavy less the uncovered weight).

    Since the branch vertex is a function of the uncovered set, whether a
    call fails depends only on (uncovered, slots), and a failure with s
    slots implies one with fewer.  So the memo maps each uncovered set to
    the most slots that failed from it, across the deepening sizes.  A
    call fails exactly when slots balls cannot cover its uncovered set,
    and a superset needs at least as many, so the search also keeps, per
    branch cell, the last _RECENT_FAILURES (uncovered, slots) that failed
    there, and cuts a node whose uncovered set contains one of them that
    failed with at least its slots.

    The search also carries allowed, the cells not yet ruled out, and
    branches only on allowed candidates.  When a candidate x fails at a
    node, no cover of the node's uncovered set with its slots uses x: the
    rest of such a cover would cover what x leaves with one slot fewer.
    A later sibling's subtree reaches the node's uncovered set less more
    balls, with as many fewer slots, and a cover there that used x would
    complete one at the node, so x is cleared for those subtrees.  At the
    root, the one node with cell 0 uncovered (branch bit area-1), the
    failure says that no cover of the grid of this size uses x.  Each
    symmetry of the grid (_images: both mirrors and the 180-degree turn,
    and on a square grid the transpose and its compositions with those)
    maps the grid and its balls onto themselves, so no such cover uses an
    image of x either.  The images are cleared for the rest of the size,
    and the root counts them as tried: the dominance test skips each,
    and any later candidate whose cells one covers, whose subtrees hold no
    cover either.  Each size starts with every cell allowed.  A cleared
    cell is in no cover of any node below where it was cleared, so the
    swap argument above still finds an allowed candidate in any cover, a
    failure with cells cleared is a failure outright, and what the memo
    and the lists record stays sound.

    A call that reaches a full cover returns an empty list, and each
    caller on the way back appends its candidate: that list is the
    witness.  The bounds, the memo, the superset cut and the cleared
    cells cut only subtrees that would fail: the branch order is
    unchanged, so the search finds the same witness as one without them,
    and only nodes_explored falls.  The bounds count dominators of any
    kind, so the candidate rules keep them sound.

    In the search, bit b of a mask stands for cell area-1-b, the cell of
    the grid turned by 180 degrees, so the lowest uncovered cell in
    row-major order is the highest set bit, found with one bit_length(),
    as is each pick of the packing.  The turn maps the radius-r ball of a
    cell onto the ball of the turned cell, so balls[b] and far[b], built
    row-major, are also the turned masks of cell area-1-b: the greedy
    cover reads them row-major and the search turned, from one list.
    The sort key and the witness use the row-major index area-1-b.

    Sizes are searched upward from that start until one succeeds.  If
    the node budget runs out at some size, every smaller size has
    failed, so the smaller of a greedy cover and construct's set is
    exact iff it is no larger than that size; otherwise it is the
    budget-flagged upper value.  The greedy cover keeps each cell's gain
    in a heap and re-scores only a popped entry whose gain has fallen.
    The memo entries and the list entries (mn bits each) are counted
    together against what the tables leave of MAX_SEARCH_BITS, and both
    are cleared once they reach it.  A grid whose tables (2mn^2 bits)
    leave no room for one entry, one of more than 4,346 cells (66 x 66
    but not 65 x 66), is refused before both.
    """
    if not integers(node_budget):
        raise DomainError(f"node budget must be an integer, got {node_budget!r}")
    if node_budget < 0:
        raise DomainError(f"node budget must be >= 0, got {node_budget}")
    area = dims.area
    if (max_failed := (MAX_SEARCH_BITS - 2 * area * area) // area) < 1:  # memo and list entries beside the tables
        raise DomainError(f"{dims.m}x{dims.n} needs {(2 * area + 1) * area} mask bits; "
                          f"exact search's bit budget is {MAX_SEARCH_BITS}")
    width, flip = min(dims.m, dims.n), dims.m > dims.n
    shape = GridDims(width, area // width)
    balls = _balls(shape, k.k)
    full = (1 << area) - 1
    # apart[c + 1], indexed by the bit_length() of c's bit: the cells sharing no candidate with c
    apart = [0] + [full ^ far for far in _balls(shape, 2 * k.k)]
    border, ring, w, lift, dip, heavy = _rings(shape, k.k, balls)

    nodes = held = 0
    failed: dict[int, int] = {}
    recent = [()] * area  # per branch bit, the last (uncovered, slots) that failed there, newest first

    def search(uncovered: int, slots: int, allowed: int) -> list[int] | None:
        nonlocal nodes, held
        nodes += 1
        if nodes > node_budget:
            raise _BudgetExhausted
        if not uncovered:
            return []
        if failed.get(uncovered, -1) >= slots:
            return None
        slack = slots * heavy - (w * uncovered.bit_count() + lift * (uncovered & border).bit_count()
                                 + dip * (uncovered & ring).bit_count())
        if slack < 0:
            return None
        v = uncovered.bit_length() - 1  # the lowest uncovered cell, area-1-v
        for seen, more in recent[v]:
            if more >= slots and seen & uncovered == seen:
                return None  # a subset of these uncovered cells failed with as many slots
        if slack < heavy:
            # pack uncovered cells that pairwise share no candidate, lowest first;
            # each needs its own dominator, so the branch is cut once none is left
            rest, left = uncovered & apart[v + 1], slots
            while rest and left:
                rest &= apart[rest.bit_length()]
                left -= 1
            if not left:
                return None
        c = balls[v] & (2 << v) - 1 & allowed
        options = []
        while c:
            b = c.bit_length() - 1
            c ^= 1 << b
            gain = balls[b] & uncovered
            options.append((-gain.bit_count(), area - 1 - b, gain))
        options.sort()
        kept = []
        for _, cand, gain in options:
            for other in kept:
                if gain | other == other:
                    break  # a kept candidate covers all that this one would
            else:
                kept.append(gain)
                if (hit := search(uncovered ^ gain, slots - 1, allowed)) is not None:
                    hit.append(cand)
                    return hit
                allowed ^= 1 << area - 1 - cand  # no cover of uncovered with these slots uses cand
                if v == area - 1:  # the root: nor does a cover of the grid of this size use an image of cand
                    for image in _images(shape, cand):
                        allowed &= ~(1 << area - 1 - image)
                        kept.append(balls[area - 1 - image])
        if len(failed) + held >= max_failed:
            failed.clear()  # loses pruning, never a solution
            recent[:] = [()] * area
            held = 0
        failed[uncovered] = slots
        held += len(recent[v]) < _RECENT_FAILURES
        recent[v] = ((uncovered, slots),) + recent[v][:_RECENT_FAILURES - 1]
        return None

    def to_set(indices: list[int]) -> VertexSet:
        # distinct cells; the caller's index j*m + i sorts row-major, as VertexSet requires
        if flip:
            indices = [c % width * dims.m + c // width for c in indices]
        return VertexSet(pairs_of_keys(np.array(sorted(indices), dtype=np.int64), dims.m))

    size = -(-(w * area + lift * border.bit_count() + dip * ring.bit_count()) // heavy)
    try:
        while (found := search(full, size, full)) is None:
            size += 1
        return ExactResult(size, size, to_set(found), nodes, False)
    except _BudgetExhausted:
        # every size below the one being searched has been exhausted, so a
        # cover of at most that size is optimal
        greedy, built = to_set(_greedy(full, balls)), construct(dims, k)[0]
        witness = built if len(built) < len(greedy) else greedy
        return ExactResult(len(witness), size, witness, nodes, len(witness) > size)
    finally:
        # search refers to itself through its closure; break that cycle so
        # the memo is freed on return, not by the cyclic collector
        del search
