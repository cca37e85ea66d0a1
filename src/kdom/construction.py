"""Builds dominating sets: best residue class, corner removal, projection.

The pipeline intersects the best fiber of the diagonal code with the
k-margin box Y, removes one code point at each corner of Y via the
three-case shift procedure (only where m, n > 2p), and finally clamps
every out-of-grid point onto the grid, all on one integer key per
point.  construct states the size bound and why its result dominates.

Corner geometry is always computed in a rotated frame that carries the
corner onto the northwest corner of Y.  A quarter turn (never a
reflection) maps the code lattice onto itself, so every corner's case
and plan are functions of k and the offset of s along Y's north row
alone.  Case classification uses exact integer cross products; no
floating point enters this module.
"""
from __future__ import annotations

import enum
import functools
from collections import namedtuple

import numpy as np

from .errors import DomainError, VerificationError
from .gridmodel import GridDims, check_dense_size, is_dominating, neighborhood_box, verify_domination
from .lattice import Radius, Rows, VertexSet, fiber_counts_in_box, fiber_keys, inverse_image_in_box, pairs_of_keys


class Corner(enum.Enum):
    NW = "NW"
    NE = "NE"
    SW = "SW"
    SE = "SE"


class CornerCase(enum.Enum):
    NEGATIVE_SLOPE = "negative"
    STEEP_SLOPE = "steep"
    SHALLOW_SLOPE = "shallow"


CORNER_ORDER = (Corner.NW, Corner.NE, Corner.SW, Corner.SE)
_NO_PLAN = (None, np.zeros((0, 2), dtype=np.int64), np.zeros((0, 4), dtype=np.int64))  # _corner_step's, no corners


# The rotation carrying each corner of Y onto NW, as real = matrix @ frame +
# shift, with the shift in units of (m - 1, n - 1).
_ROTATIONS = {
    Corner.NW: (((1, 0), (0, 1)), (0, 0)),
    Corner.NE: (((0, 1), (-1, 0)), (0, 1)),
    Corner.SW: (((0, -1), (1, 0)), (1, 0)),
    Corner.SE: (((-1, 0), (0, -1)), (1, 1)),
}


class CornerContext(namedtuple("CornerContext", "corner s z case")):
    """Geometry of one corner in its own (rotated) frame.

    s is the westernmost code point on the frame's north row of Y; z the
    northernmost code point one column west of the frame grid; both are
    (i, j) tuples.  L1, through z and s, has slope (s.j - z.j)/(s.i - z.i),
    except where s = z (s on column -1), handled like the negative case.
    """

    __slots__ = ()


class ShiftedPairs(Rows):
    """A run's moves: the stacked (N, 4) array of _corner_step, read-only; iteration yields
    ((i, j), (u, v)) pairs, source and target, of plain int tuples."""

    __slots__ = ()
    WIDTH, NAME, ROW = 4, "a moves array", "(i, j, u, v)"

    def __iter__(self):
        i, j, u, v = self.array.T.tolist()
        return zip(zip(i, j), zip(u, v))


class ConstructionTrace(namedtuple("ConstructionTrace", "dims k chosen_residue base_size corner_removal_applied"
                                   " corner_cases removed shifted_pairs projection_merged final_size")):
    """Audit record of one construction run.

    chosen_residue is the int in [0, p) whose fiber was built; corner_cases
    is None where corner removal is skipped; removed is a VertexSet.
    """

    __slots__ = ()


def best_residue(dims: GridDims, k: Radius) -> tuple[int, int]:
    """The residue, an int in [0, p), whose fiber meets Y in the fewest points, and that count.

    Ties break toward the smallest residue.  The p fibers partition Y, so
    the count never exceeds floor((m+2k)(n+2k)/p), the mean.  O(p) work.
    """
    counts = fiber_counts_in_box(k, neighborhood_box(dims, k))
    ell = int(counts.argmin())
    return ell, int(counts[ell])


def base_set(dims: GridDims, k: Radius, ell: int) -> VertexSet:
    """The fiber of ell intersected with the k-margin box Y; refuses an ell outside [0, p)."""
    return inverse_image_in_box(k, ell, neighborhood_box(dims, k))


def project_inward(dims: GridDims, s: VertexSet) -> VertexSet:
    """Clamp every point onto the grid box and dedupe."""
    n, pts = dims.n, s.array
    lo, hi = pts[:, 1].searchsorted((1, n - 1)) if n > 1 else (0, 0)  # the rows merged into rows 0 and n-1
    return VertexSet(pairs_of_keys(_settle(_grid_keys(dims, pts[:, 0].copy(), pts[:, 1].copy(), 0), lo, hi), dims.m))


def _grid_keys(dims: GridDims, i: np.ndarray, j: np.ndarray, off: int) -> np.ndarray:
    """Grid keys j*m + i < 2**62 of the points (i - off, j - off) clamped onto the grid; edits i and j."""
    np.minimum(np.maximum(i, off, out=i), dims.m + off - 1, out=i)  # np.clip's result, at less cost per call
    np.minimum(np.maximum(j, off, out=j), dims.n + off - 1, out=j)
    j *= dims.m
    j += i - off * (dims.m + 1)
    return j


def _settle(keys: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The keys, with the bands [:lo] and [hi:] sorted in place, less the -1 sentinels and the repeats.
    The keys outside the bands must be in order: then one neighbour compare finds each repeat and
    each sentinel, which sorts first in its band."""
    keys[:lo].sort()
    keys[hi:].sort()
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = keys[:1] >= 0
    np.greater(keys[1:], keys[:-1], out=keep[1:])
    return keys.compress(keep)


def _corner_shape(k: Radius, si: int) -> tuple[int, CornerCase]:
    """z.j and the case of the corner whose code is s + L, s = (si, 0).

    Frame coordinates with the north row of Y at j = 0: z = (-1, zj) is
    the northernmost code point on column -1.
    """
    kk, p = k.k, k.p
    # (-1, zj) is on s + L iff zj = (k+1)(si+1)/k (mod p); z takes the largest zj <= 0.
    zj = -(-(kk + 1) * (si + 1) * pow(kk, -1, p) % p)
    if si <= -1:
        # at si = -1, s sits on column -1, so s = z: its ball misses the grid, like Case 1.
        return zj, CornerCase.NEGATIVE_SLOPE
    if (kk + 1) * -zj > kk * (si + 1):  # L1's slope -zj/(si+1) > k/(k+1), by cross multiplication
        return zj, CornerCase.STEEP_SLOPE
    return zj, CornerCase.SHALLOW_SLOPE


def _corner_moves(k: Radius, si: int, zj: int,
                  case: CornerCase) -> dict[tuple[int, int], tuple[int, int]]:
    """The shifts, source -> target, of the corner whose code is s + L, s = (si, 0).

    Frame coordinates with the north row of Y at j = 0; z = (-1, zj).
    Shift sets per case, all in a p x p window (see _corner_step):
      negative: nothing moves, s is simply removed.
      steep:    every code point on or northwest of L1 at or above z's row
                moves east one unit; z additionally moves up one unit.
      shallow:  code points on the line through s with slope k/(k+1) move
                east one unit; code points strictly above that line move
                down one unit.
    Candidates lie in columns -k..si, a segment of at most p cells, so
    each scanned row holds at most one code point; on row 0 it is s.
    The scan starts at row -1, so s is no source.  A target is a code
    point moved by (1, 0), (0, -1) or (1, 1), changing phi by k+1, -k or
    2k+1, none 0 mod p, so no target is deleted.  Two targets could meet
    only if two code points differed by (1, 1) (shallow), or if column -1
    held a code point one row above z (steep), but column -1 holds no
    code point within p rows of z.
    """
    kk, p = k.k, k.p
    step = kk * pow(kk + 1, -1, p) % p  # row j - 1 meets s + L step columns east of row j

    def west_of_s(bottom: int):
        """Code points of rows -1..bottom in columns -k..si."""
        for j in range(-1, bottom - 1, -1):
            i = (si + kk - step * j) % p - kk
            if i <= si:
                yield i, j

    moves: dict[tuple[int, int], tuple[int, int]] = {}
    if case is CornerCase.STEEP_SLOPE:
        delta, rise = si + 1, -zj
        for i, j in west_of_s(zj):
            if delta * (j - zj) - rise * (i + 1) >= 0:
                moves[(i, j)] = (i + 1, j)
        moves[(-1, zj)] = (0, zj + 1)
    elif case is CornerCase.SHALLOW_SLOPE:
        for i, j in west_of_s(1 - p):
            cross = j * (kk + 1) - kk * (i - si)
            if cross == 0:
                moves[(i, j)] = (i + 1, j)
            elif cross > 0:
                moves[(i, j)] = (i, j - 1)
    return moves


@functools.lru_cache(maxsize=256)
def _frame_plan(corner: Corner, k: Radius, si: int) -> tuple[int, CornerCase, np.ndarray]:
    """_corner_shape(k, si) and the moves, rotated by the corner's matrix and sorted row-major by
    source: a read-only (N, 4) int64 array of (i, j, u, v) offsets from the frame origin (_corner)."""
    ((a, b), (c, d)), _ = _ROTATIONS[corner]
    zj, case = _corner_shape(k, si)
    rotated = sorted((c * i + d * j, a * i + b * j, a * u + b * v, c * u + d * v)
                     for (i, j), (u, v) in _corner_moves(k, si, zj, case).items())
    moves = np.array([(i, j, u, v) for j, i, u, v in rotated], dtype=np.int64).reshape(-1, 4)
    moves.flags.writeable = False
    return zj, case, moves


def _corner(corner: Corner, dims: GridDims, k: Radius,
            ell: int) -> tuple[CornerContext, tuple[int, ...], np.ndarray]:
    """One corner's context, in its frame; its removed point and its frame origin (x0, y0, x0, y0),
    in one tuple; and its moves, as offsets from the frame origin.

    The frame is the rotation real = matrix @ frame + shift of _ROTATIONS
    that carries the corner onto the NW corner of Y.  A quarter turn maps
    the Lee lattice L = {(k+1)i + kj = 0 (mod p)} onto itself, so in the
    frame the code is s + L, where s = (si, north) is the first code point
    from column -k on the north row of Y.  Along that row phi is linear in
    the frame's i, phi = origin + step * i (mod p) with step = (k+1)a + kc
    for the matrix's first column (a, c), so si is one modular solve.  The
    offsets are a pure function of (corner, k, si), which _frame_plan
    memoizes, read-only: at most 256 plans of at most 2,352 moves each
    (k = 48, the largest k corner removal reaches), about 19 MB.
    """
    kk, p = k.k, k.p
    ((a, b), (c, d)), (sx, sy) = _ROTATIONS[corner]
    north = (dims.m if b else dims.n) + kk - 1  # at NE and SW, frame j runs along real i
    # the real point of frame (0, north): the origin of the frame with its north row at j = 0
    x0, y0 = b * north + sx * (dims.m - 1), d * north + sy * (dims.n - 1)
    origin, step = (kk + 1) * x0 + kk * y0, (kk + 1) * a + kk * c
    si = (pow(step, -1, p) * (ell - origin) + kk) % p - kk
    zj, case, moves = _frame_plan(corner, k, si)
    ctx = tuple.__new__(CornerContext, (corner, (si, north), (-1, north + zj), case))
    return ctx, (a * si + x0, c * si + y0, x0, y0, x0, y0), moves


def _corner_step(dims: GridDims, k: Radius, ell: int) -> tuple[tuple[CornerContext, ...], np.ndarray, np.ndarray]:
    """The four corners' contexts and their stacked plan, in CORNER_ORDER and real coordinates: the
    removed points, a (4, 2) int64 array, and the moves, one (N, 4) int64 array of (i, j, u, v) rows,
    source (i, j) and target (u, v), row-major by source within a corner.

    Plans exist only for m, n > 2p, checked here, where the four corners
    cannot interact, and for a residue in [0, p), which fiber_keys checks
    first.  No two plans touch the same point.  In its frame, with Y's
    north row at j = 0, every point a plan removes, moves or fills lies in
    the p x p window of columns -k..p-k-1 and rows -(p-1)..0: a steep scan
    stops at z.j >= 1-p and lifts z to row z.j+1 <= 0; a shallow candidate
    moves only if (k+1)j >= k(i - s.i) >= -k(p-1); and no code point but s
    lies in column s.i within p rows, so east shifts end by column s.i.  In real
    coordinates the windows lie in Y's columns, NW and NE in Y's north p
    rows (j >= n+k-p), SW and SE in its south p rows (j < p-k).  The two
    bands are disjoint once n > 2p-2k-1, and the two windows within a
    band once m > 2p-2k-1, both implied by m, n > 2p.
    """
    p = k.p
    if dims.m <= 2 * p or dims.n <= 2 * p:
        raise DomainError(f"corner removal needs m, n > 2p = {2 * p}, got {dims.m}x{dims.n}")
    contexts, rows, frames = zip(*(_corner(corner, dims, k, ell) for corner in CORNER_ORDER))
    rows = np.array(rows, dtype=np.int64)
    moves = np.concatenate(frames)
    moves += rows[:, 2:].repeat([len(f) for f in frames], axis=0)
    return contexts, rows[:, :2], moves


def _apply_plans(dims: GridDims, k: Radius, keys: np.ndarray, removed: np.ndarray,
                 moves: np.ndarray) -> tuple[int, int, np.ndarray]:
    """Overwrite, in place, each source's key by its target's in a base set's ascending Y keys.

    A Y key is a point's row-major index in Y, (j+k)(m+2k) + (i+k) < 2**62
    + 2**31.  The plan (_corner_step, or _NO_PLAN) must come from the base
    set's grid, k and residue: then every deleted point is in the set, and
    the targets are distinct points outside it that no plan deletes
    (_corner_moves), so no fault is checked for.  Returns the bounds lo, hi
    of the edge bands, Y's rows j < p-k and j >= n+k-p, which hold every
    plan (_corner_step), or without plans the rows j < 1 and j >= n-1 that
    the clamp merges (one band if n = 1); and the removed keys' positions,
    for the caller's -1 sentinels (_settle).
    """
    kk, p, n, w, r = k.k, k.p, dims.n, dims.m + 2 * k.k, len(removed)
    rows = (p - kk, n + kk - p) if r else (1, n - 1) if n > 1 else (-kk, -kk)
    bounds = ((-kk, rows[0]), (-kk, rows[1]))  # the first points of the bands' rows
    q = np.concatenate((removed, moves.reshape(-1, 2), bounds)) @ (1, w) + kk * (w + 1)
    found = keys.searchsorted(q)  # removed, then source, target, source, ..., then the bounds
    keys[found[r:-2:2]] = q[r + 1:-2:2]
    return found[-2], found[-1], found[:r]  # only the bands lose their order


def _trace(dims: GridDims, k: Radius, ell: int, base_size: int, contexts: tuple[CornerContext, ...] | None,
           removed: np.ndarray, moves: np.ndarray, merged: int, final: VertexSet) -> ConstructionTrace:
    """The audit record of one run; contexts is None where corner removal is skipped.  The removed
    points need no dedupe: they lie in the four disjoint p x p windows of _corner_step."""
    return tuple.__new__(ConstructionTrace, (
        dims, k, ell, base_size, contexts is not None, contexts,
        VertexSet(removed[np.lexsort(removed.T)]), ShiftedPairs(moves), merged, len(final)))


def remove_corners(dims: GridDims, k: Radius, ell: int, s_set: VertexSet,
                   verify: bool = True) -> tuple[VertexSet, ConstructionTrace]:
    """Remove one code point at each corner of Y, preserving domination.

    s_set must equal base_set(dims, k, ell), the only set the plans are
    proved for.  The fiber's Y keys are listed first, as in construct,
    which refuses an ell that is not an int in [0, p); then the plans,
    which refuse m or n <= 2p; then any set but those keys as pairs.  Each
    raises DomainError.  The keys take the same edit as in construct, with
    no clamp.  With verify, the edited set is checked once on the whole
    grid, and a failure raises VerificationError carrying the uncovered
    vertices.
    """
    box = neighborhood_box(dims, k)
    keys = fiber_keys(k, ell, box)
    contexts, removed, moves = _corner_step(dims, k, ell)
    w = box.width
    if not np.array_equal(s_set.array, pairs_of_keys(keys, w) - k.k):  # base_set's pairs
        raise DomainError("remove_corners takes only base_set(dims, k, ell), the set its plans fit")
    lo, hi, gone = _apply_plans(dims, k, keys, removed, moves)
    keys[gone] = -1
    current = VertexSet(pairs_of_keys(_settle(keys, lo, hi), w) - k.k)
    if verify and not is_dominating(dims, k, current):
        uncovered = verify_domination(dims, k, current).uncovered
        raise VerificationError(f"corner shifts broke domination ({len(uncovered)} uncovered)", uncovered=uncovered)
    return current, _trace(dims, k, ell, len(keys), contexts, removed, moves, 0, current)


def construct(dims: GridDims, k: Radius) -> tuple[VertexSet, ConstructionTrace]:
    """Full pipeline: best residue, base set, corner removal, projection.

    Each point is one key from the fiber to the clamp: the fiber's
    ascending Y keys, edited in place by the stacked plan, then one divmod,
    one clamp and one grid key j*m + i.  Only the two edge bands are
    sorted: no plan touches the other rows, which lie strictly inside the
    grid, and clamping i is monotone, so they stay in order (_settle).

    For m, n > 2p the result has at most floor((m+2k)(n+2k)/p) - 4
    points; otherwise corner removal is skipped and the floor bound
    holds without the -4.  The result is not checked; it dominates by
    proof.  The base set is a perfect Lee code's fiber, so each grid
    cell has exactly one fiber point within k, and it lies in Y
    (acceptance criterion 4); clamping uncovers no cell, as
    |clamp(x) - g|_1 <= |x - g|_1 for every grid cell g.  Where m, n >= 2
    it merges no two base points either: the clamp's preimage in Y of a
    grid cell is that cell, a (k+1)-cell segment at an edge or the
    (k+1)^2 square at a corner, each of L1 diameter <= 2k, and two fiber
    points are >= 2k+1 apart.  test_projection_merges_nothing_two_wide
    checks the edited sets too; 1-wide grids can merge (3x1 at k=1).
    Each plan keeps domination in its p x p window, certified for k <= 20
    by test_corner_plans_keep_domination_locally_up_to_k20 and for
    21 <= k <= 48 by a run of tests/corner_certificate.py.  Grids too
    large for the coverage kernel are rejected with DomainError up front,
    so kdom verify can check every set construct returns, and corner
    removal never runs past k = 48: at k = 49, (2p+1)^2 is over the cap.

    The base set's size needs no check against best_residue's count:
    both count floor(W/p) points per row of width W, plus one where the
    row's W mod p leftover columns hold a fiber point, as tests check on
    random boxes (acceptance criterion 5).
    """
    check_dense_size(dims, k)
    box = neighborhood_box(dims, k)
    ell = int(fiber_counts_in_box(k, box).argmin())  # best_residue's choice
    keys = fiber_keys(k, ell, box)
    contexts, removed, moves = _corner_step(dims, k, ell) if min(dims) > 2 * k.p else _NO_PLAN
    lo, hi, gone = _apply_plans(dims, k, keys, removed, moves)
    j, i = np.divmod(keys, box.width)
    grid = _grid_keys(dims, i, j, k.k)
    grid[gone] = -1
    final = VertexSet(pairs_of_keys(_settle(grid, lo, hi), dims.m))
    merged = len(keys) - len(removed) - len(final)
    return final, _trace(dims, k, ell, len(keys), contexts, removed, moves, merged, final)
