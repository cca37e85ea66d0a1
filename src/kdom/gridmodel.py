"""The finite grid graph, its k-margin, and domination verification.

Grid vertices are the lattice points [0, m-1] x [0, n-1]; graph distance
between orthogonal neighbors equals Manhattan distance.  Dominators may
lie outside the grid (the construction keeps them in the enlarged box Y
until the final projection), so the verifier works on the grid enlarged
by k on every side and reads off the grid portion.  One coverage kernel
serves both checks.  It runs at radius r = min(k, m+n-1), so that once k
passes the grid's diameter the arrays follow the grid, not k: it costs
O(|S| r + mn) array work and one (m+4r+1) x (n+4r) int32 difference
array.  The report adds one cheap pass over the multiplicities: the
covered count and the cells above 1 give the histogram (a good set has
few such cells), and the uncovered cells are listed by a flat scan only
when there are some.  Grids whose difference array at radius k and one
index chunk would exceed MAX_DENSE_CELLS are rejected with DomainError
before anything is allocated.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import DomainError
from .lattice import (
    MAX_BOX_SIDE,
    Box,
    Radius,
    Validated,
    VertexSet,
    integers,
    pairs_of_keys,
)

# The coverage kernel holds one (m+4k+1) x (n+4k) int32 difference array
# and scatters into it SCATTER_CHUNK int64 flat indices at a time;
# check_dense_size caps the difference array's cells plus one chunk.  The
# multiplicity is a view of that array, and verify_domination's one-byte
# masks over the grid bring the traced peak to about 6 bytes a cell
# (tracemalloc, 1000x1001 k=3 and 2000x2001 k=5 with a point dropped), so
# about 0.6 GB at the cap.  8000x8001 at k=5 needs 64,336,441 + 65,536.
# The cap bounds memory only: corner removal's range of k is
# construction.CERTIFIED_K.
MAX_DENSE_CELLS = 100_000_000
# Flat indices the kernel builds and scatters per step (at least one
# point's 2k+1 per step), so a dense set at large k never holds
# |S| (2k+1) indices at once.
SCATTER_CHUNK = 2 ** 16


class GridDims(Validated, namedtuple("GridDims", "m n")):
    """Grid dimensions: m columns (i in [0, m-1]), n rows (j in [0, n-1])."""

    __slots__ = ()

    def _check(self):
        if not integers(self.m, self.n):
            raise DomainError(f"grid dims must be integers, got {self.m!r}x{self.n!r}")
        if self.m < 1 or self.n < 1:
            raise DomainError(f"grid dims must be >= 1, got {self.m}x{self.n}")
        if self.m > MAX_BOX_SIDE or self.n > MAX_BOX_SIDE:
            raise DomainError(f"grid side exceeds the supported cap {MAX_BOX_SIDE}")

    @property
    def area(self) -> int:
        return self.m * self.n


class CoverageReport(namedtuple("CoverageReport", "covered_count uncovered multiplicity_histogram")):
    """Coverage summary of one verification run.

    uncovered is a VertexSet; multiplicity_histogram maps a cover count
    to the number of grid vertices with that many dominators in range.
    """

    __slots__ = ()


def neighborhood_box(dims: GridDims, k: Radius) -> Box:
    """The grid enlarged by k rows and columns on every side."""
    return Box(-k.k, dims.m + k.k - 1, -k.k, dims.n + k.k - 1)


def check_dense_size(dims: GridDims, k: Radius) -> None:
    """Raise DomainError if the coverage kernel's arrays would exceed MAX_DENSE_CELLS."""
    cells = (dims.m + 4 * k.k + 1) * (dims.n + 4 * k.k) + SCATTER_CHUNK
    if cells > MAX_DENSE_CELLS:
        raise DomainError(
            f"{dims.m}x{dims.n} at k={k.k} needs {cells} verifier cells, "
            f"above the cap of {MAX_DENSE_CELLS}"
        )


def _multiplicity(dims: GridDims, k: Radius, s: VertexSet) -> np.ndarray:
    """m x n int32 array counting the dominators within distance k of each vertex.

    The radius-k ball is 2k+1 segments along i, one per offset dj in j,
    of half-width k-|dj|.  Each segment adds 1 at its first cell and
    subtracts 1 just past its last in a difference array padded by 2k
    rows and columns on every side (and one more row below), so no
    segment needs clipping; one cumulative sum along i then gives the
    counts.  The work is O(|S| k + mn).  Points outside the k-padded box
    cannot reach the grid and are skipped.  Past the grid's diameter,
    m+n-2, the kernel runs at r = m+n-1 < k instead, so the array follows
    the grid, not k: a point p whose clamp onto the grid is c lies
    d = |p-c| + |c-g| from each cell g, so dropping the points with
    |p-c| > k and moving each other one up to k-r toward the grid (along
    i, then j) keeps every count.  The result is a view of the call's
    own difference array, not a copy: its callers only read it.
    """
    check_dense_size(dims, k)
    kk, m, n = k.k, dims.m, dims.n
    pts = s.array
    lo, hi = np.searchsorted(pts[:, 1], (-kk, n + kk))  # s is sorted by j, then i
    pts = pts[lo:hi]
    pts = pts.compress((pts[:, 0] >= -kk) & (pts[:, 0] < m + kk), axis=0)
    r = min(kk, m + n - 1)  # the grid's diameter is m+n-2
    if r < kk:  # a point up to kk-r from its clamp onto the grid covers every cell at either radius
        gap = pts.clip(0, (m - 1, n - 1)) - pts
        near = np.abs(gap).sum(axis=1) <= kk
        pts, gap = pts.compress(near, axis=0), gap.compress(near, axis=0)
        di = gap[:, 0].clip(r - kk, kk - r)
        left = kk - r - np.abs(di)
        pts = pts + np.stack((di, gap[:, 1].clip(-left, left)), axis=1)
        kk = r
    w = n + 4 * kk
    diff = np.zeros((m + 4 * kk + 1, w), dtype=np.int32)
    dj = np.arange(-kk, kk + 1)[:, None]
    span = kk - np.abs(dj)
    first, past = dj - span * w, dj + (span + 1) * w  # flat offsets from a point's cell
    at = (pts[:, 0] + 2 * kk) * w + (pts[:, 1] + 2 * kk)
    step = max(1, SCATTER_CHUNK // (2 * kk + 1))
    flat, one = diff.reshape(-1), np.int32(1)  # add.at's fast path needs values in diff's own dtype
    for a in range(0, len(at), step):
        part = at[a:a + step]
        np.add.at(flat, (first + part).ravel(), one)
        np.subtract.at(flat, (past + part).ravel(), one)
    top = diff[:2 * kk + m, 2 * kk:2 * kk + n]
    np.cumsum(top, axis=0, out=top)
    return diff[2 * kk:2 * kk + m, 2 * kk:2 * kk + n]


def verify_domination(dims: GridDims, k: Radius, s: VertexSet) -> CoverageReport:
    """Exact coverage report; an empty s yields all vertices uncovered."""
    mult = _multiplicity(dims, k, s)
    excess = mult[mult > 1]
    covered = int(np.count_nonzero(mult))
    freqs = np.bincount(excess, minlength=2)
    freqs[:2] = dims.area - covered, covered - len(excess)
    uncovered = VertexSet.empty()
    if freqs[0]:
        uncovered = VertexSet(pairs_of_keys(np.flatnonzero(mult.T == 0), dims.m))  # row-major, as VertexSet requires
    histogram = {c: f for c, f in enumerate(freqs.tolist()) if f}
    return CoverageReport(covered, uncovered, histogram)


def is_dominating(dims: GridDims, k: Radius, s: VertexSet) -> bool:
    """True iff every grid vertex has a dominator within distance k."""
    return bool(_multiplicity(dims, k, s).all())
