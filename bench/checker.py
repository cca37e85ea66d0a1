"""Independent checker for k-distance domination on m x n grids.

Uses numpy only and never imports kdom, so the benchmark can judge
kdom's outputs with code that shares none of kdom's logic.  Vertices are
(i, j) with 0 <= i < m (column) and 0 <= j < n (row); distance is
Manhattan.  Points may lie off the grid: they cover whatever part of
their radius-k ball meets it.

Coverage is counted by painting each point's ball as 2k+1 column spans
into a difference array and taking one cumulative sum, which is neither
kdom's dilation nor its shifted-copy sum.
"""
from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


def modulus(k: int) -> int:
    """p = 2k^2 + 2k + 1, the number of lattice points in a radius-k ball."""
    return 2 * k * k + 2 * k + 1


def floor_bound(m: int, n: int, k: int, minus_four: bool = False) -> int:
    """floor((m+2k)(n+2k)/p), less 4 when the corner removal applies."""
    return (m + 2 * k) * (n + 2 * k) // modulus(k) - (4 if minus_four else 0)


def lower_bound(m: int, n: int, k: int) -> int:
    """ceil(mn/p): one dominator covers at most p vertices."""
    return -(-m * n // modulus(k))


def closed_form_gamma(m: int, n: int, k: int) -> int | None:
    """Published domination numbers, or None where none is known here.

    Any k on a 1 x n path: ceil(n/(2k+1)).  At k=1 (Jacobson-Kinch):
    2 x n -> floor((n+2)/2), 3 x n -> floor((3n+4)/4), and
    4 x n -> n, or n+1 when n is 1, 2, 3, 5, 6 or 9.
    """
    a, b = sorted((m, n))
    if a == 1:
        return -(-b // (2 * k + 1))
    if k != 1:
        return None
    if a == 2:
        return (b + 2) // 2
    if a == 3:
        return (3 * b + 4) // 4
    if a == 4:
        return b + 1 if b in (1, 2, 3, 5, 6, 9) else b
    return None


def _as_array(points: Iterable[tuple[int, int]]) -> np.ndarray:
    return np.asarray([(int(i), int(j)) for i, j in points], dtype=np.int64).reshape(-1, 2)


def _spans(m: int, n: int, k: int, points) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per column offset di, the clipped j-span [lo, hi] of every ball in column i+di."""
    pts = _as_array(points)
    a, b = pts[:, 0], pts[:, 1]
    for di in range(-k, k + 1):
        reach = k - abs(di)
        cols = a + di
        lo = np.maximum(b - reach, 0)
        hi = np.minimum(b + reach, n - 1)
        keep = (cols >= 0) & (cols < m) & (lo <= hi)
        yield cols[keep], lo[keep], hi[keep]


def multiplicity(m: int, n: int, k: int, points) -> np.ndarray:
    """m x n array: how many points lie within distance k of each vertex."""
    diff = np.zeros((m, n + 1), dtype=np.int64)
    for cols, lo, hi in _spans(m, n, k, points):
        np.add.at(diff, (cols, lo), 1)
        np.add.at(diff, (cols, hi + 1), -1)
    return np.cumsum(diff, axis=1)[:, :n]


def ball_grid_sum(m: int, n: int, k: int, points) -> int:
    """Sum over the points of |ball(point, k) intersected with the grid|."""
    return sum(int((hi - lo + 1).sum()) for _, lo, hi in _spans(m, n, k, points))


def uncovered(m: int, n: int, k: int, points) -> set[tuple[int, int]]:
    """The exact set of vertices with no point within distance k."""
    ui, uj = np.nonzero(multiplicity(m, n, k, points) == 0)
    return set(zip(ui.tolist(), uj.tolist()))


def dominates(m: int, n: int, k: int, points) -> bool:
    return not uncovered(m, n, k, points)
