"""Exact minimum k-distance domination for desk-scale grids.

Independent ground truth for the constructive pipeline: iterative
deepening on the set size with branch-and-bound, branching on the
first uncovered vertex in row-major order.  Grids are capped at 64
cells so coverage states fit in a single integer bitmask and the
search stays auditable.  The node budget (not wall time) makes runs
bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .gridmodel import GridDims
from .lattice import Radius, VertexSet

DEFAULT_MAX_CELLS = 64
DEFAULT_NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class ExactResult:
    """gamma is exact unless the node budget ran out; then it is the best
    size found, and lower_bound the smallest size not yet ruled out."""

    dims: GridDims
    k: Radius
    gamma: int
    lower_bound: int
    witness: VertexSet
    nodes_explored: int
    time_budget_exceeded: bool


class _BudgetExhausted(Exception):
    pass


def path_gamma(n: int, k: Radius) -> int:
    """Domination number of the 1 x n path: ceil(n / (2k+1))."""
    if n < 1:
        raise DomainError(f"path length must be >= 1, got {n}")
    window = 2 * k.k + 1
    return -(-n // window)


def _balls(dims: GridDims, k: Radius) -> list[int]:
    """Bitmask of cells within distance k of each cell (row-major index)."""
    m, n = dims.m, dims.n
    masks = []
    for j in range(n):
        for i in range(m):
            mask = 0
            for dj in range(-k.k, k.k + 1):
                span = k.k - abs(dj)
                jj = j + dj
                if not 0 <= jj < n:
                    continue
                for ii in range(max(0, i - span), min(m - 1, i + span) + 1):
                    mask |= 1 << (jj * m + ii)
            masks.append(mask)
    return masks


def _greedy(full: int, balls: list[int]) -> list[int]:
    """Deterministic greedy cover used as the search incumbent."""
    covered = 0
    chosen = []
    while covered != full:
        best_gain, best_c = -1, -1
        for c, ball in enumerate(balls):
            gain = (ball & ~covered).bit_count()
            if gain > best_gain:
                best_gain, best_c = gain, c
        chosen.append(best_c)
        covered |= balls[best_c]
    return chosen


def exact_gamma(
    dims: GridDims,
    k: Radius,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> ExactResult:
    """Exact minimum, or a budget-flagged best-known upper value.

    One dominator covers at most cap cells, the largest ball clipped to
    the grid (at most p = 2k^2+2k+1, and only 2k+1 on a 1 x n path).  So
    the search starts at ceil(mn/cap), and prunes a branch once
    ceil(uncovered/cap) exceeds the dominators it may still add.
    """
    area = dims.area
    if area > max_cells:
        raise DomainError(
            f"{dims.m}x{dims.n} has {area} cells; exact search is capped at {max_cells}"
        )
    m = dims.m
    balls = _balls(dims, k)
    full = (1 << area) - 1
    cap = max(ball.bit_count() for ball in balls)
    lower = -(-area // cap)
    incumbent = _greedy(full, balls)

    nodes = 0

    def search(target: int, covered: int, chosen: list[int]) -> list[int] | None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise _BudgetExhausted
        if covered == full:
            return list(chosen)
        slots = target - len(chosen)
        uncovered = full & ~covered
        if slots == 0 or -(-uncovered.bit_count() // cap) > slots:
            return None
        v = (uncovered & -uncovered).bit_length() - 1
        candidates = balls[v]
        c = candidates
        while c:
            cand = (c & -c).bit_length() - 1
            c &= c - 1
            chosen.append(cand)
            hit = search(target, covered | balls[cand], chosen)
            chosen.pop()
            if hit is not None:
                return hit
        return None

    def to_set(indices: list[int]) -> VertexSet:
        return VertexSet.from_iterable((idx % m, idx // m) for idx in indices)

    best = len(incumbent)
    try:
        for size in range(lower, best):
            found = search(size, 0, [])
            if found is not None:
                return ExactResult(dims, k, size, size, to_set(found), nodes, False)
    except _BudgetExhausted:
        # every size below the one being searched has been exhausted
        return ExactResult(dims, k, best, size, to_set(incumbent), nodes, True)
    # every size below the greedy solution is exhausted: greedy is optimal
    return ExactResult(dims, k, best, best, to_set(incumbent), nodes, False)
