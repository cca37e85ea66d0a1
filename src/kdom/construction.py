"""Builds dominating sets: best residue class, corner removal, projection.

The pipeline intersects the best fiber of the diagonal code with the
k-margin box Y, removes one code point at each corner of Y via the
three-case shift procedure (only where m, n > 2p), and finally clamps
every out-of-grid point onto the grid.  construct states the size bound
and why its result dominates.

Corner geometry is always computed in a rotated frame that carries the
corner onto the northwest corner of Y.  A quarter turn (never a
reflection) maps the code lattice onto itself, so every corner's case
and plan are functions of k and the offset of s along Y's north row
alone.  Case classification uses exact integer cross products; no
floating point enters this module.
"""
from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import DomainError, VerificationError
from .gridmodel import (
    GridDims,
    check_dense_size,
    is_dominating,
    neighborhood_box,
    verify_domination,
)
from .lattice import (
    LatticePoint,
    Radius,
    Residue,
    VertexSet,
    fiber_counts_in_box,
    inverse_image_in_box,
    repeats,
)


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


# The rotation carrying each corner of Y onto NW, as real = matrix @ frame +
# shift, with the shift in units of (m - 1, n - 1).
_ROTATIONS = {
    Corner.NW: (((1, 0), (0, 1)), (0, 0)),
    Corner.NE: (((0, 1), (-1, 0)), (0, 1)),
    Corner.SW: (((0, -1), (1, 0)), (1, 0)),
    Corner.SE: (((-1, 0), (0, -1)), (1, 1)),
}


class CornerContext(namedtuple("CornerContext", "corner s z slope_l1 case")):
    """Geometry of one corner in its own (rotated) frame.

    s is the westernmost code point on the frame's north boundary row of
    Y; z the northernmost code point one column west of the frame grid.
    slope_l1 (a Fraction) is None exactly when s and z coincide (s on
    column -1), a degenerate configuration handled like the negative-slope
    case.
    """

    __slots__ = ()


class ConstructionTrace(namedtuple("ConstructionTrace", "dims k chosen_residue base_size corner_removal_applied"
                                   " corner_cases removed shifted_pairs projection_merged final_size")):
    """Audit record of one construction run.

    corner_cases is None where corner removal is skipped; removed is a
    VertexSet, and shifted_pairs holds (source, target) LatticePoint pairs.
    """

    __slots__ = ()


def best_residue(dims: GridDims, k: Radius) -> tuple[Residue, int]:
    """The residue whose fiber meets Y in the fewest points.

    Ties break toward the smallest residue value.  The p fibers partition
    Y, so the counts sum to |Y| and the winning count never exceeds
    floor((m+2k)(n+2k)/p), the mean count.  O(p) work.
    """
    counts = fiber_counts_in_box(k, neighborhood_box(dims, k))
    value = int(counts.argmin())
    return Residue(value, k.p), int(counts[value])


def base_set(dims: GridDims, k: Radius, ell: Residue) -> VertexSet:
    """The fiber of ell intersected with the k-margin box Y."""
    return inverse_image_in_box(k, ell, neighborhood_box(dims, k))


def project_inward(dims: GridDims, s: VertexSet) -> VertexSet:
    """Clamp every point onto the grid box and dedupe."""
    n = dims.n
    pts = np.clip(s.array, 0, (dims.m - 1, n - 1))
    # Clamping i is monotone, so rows strictly inside the grid stay in order;
    # only the rows merged into row 0 and row n-1 need a sort before the dedupe.
    lo, hi = np.searchsorted(s.array[:, 1], (1, n - 1)) if n > 1 else (0, 0)
    for a, b in ((0, lo), (hi, len(pts))):
        pts[a:b] = pts[a:b][np.argsort(pts[a:b, 0], kind="stable")]
    return VertexSet(pts.compress(~repeats(pts), axis=0))


def _corner_shape(k: Radius, si: int) -> tuple[int, Fraction | None, CornerCase]:
    """z.j, the slope of L1 and the case of the corner whose code is s + L, s = (si, 0).

    Frame coordinates with the north row of Y at j = 0: z = (-1, zj) is
    the northernmost code point on column -1.
    """
    kk, p = k.k, k.p
    # (-1, zj) is on s + L iff zj = (k+1)(si+1)/k (mod p); z takes the largest zj <= 0.
    zj = -(-(kk + 1) * (si + 1) * pow(kk, -1, p) % p)
    if si == -1:
        # s sits on column -1, so s = z: its ball misses the grid, like Case 1.
        return zj, None, CornerCase.NEGATIVE_SLOPE
    delta, rise = si + 1, -zj
    if si < -1:
        case = CornerCase.NEGATIVE_SLOPE
    elif (kk + 1) * rise > kk * delta:  # rise/delta > k/(k+1), by cross multiplication
        case = CornerCase.STEEP_SLOPE
    else:
        case = CornerCase.SHALLOW_SLOPE
    return zj, Fraction(rise, delta), case


class _CornerPlan(namedtuple("_CornerPlan", "removed moves")):
    """One corner's edit, in real coordinates: remove one point (an (i, j)
    tuple), and move others (a tuple of LatticePoint pairs, source first)."""

    __slots__ = ()


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


def _corner(corner: Corner, dims: GridDims, k: Radius, ell: Residue) -> tuple[CornerContext, _CornerPlan]:
    """One corner's context, in its frame, and its plan, in real coordinates.

    The frame is the rotation real = matrix @ frame + shift of _ROTATIONS,
    in plain integers, that carries the corner onto the NW corner of Y.
    A quarter turn maps the Lee lattice L = {(k+1)i + kj = 0 (mod p)}
    onto itself, so in the frame the code is s + L, where s = (si, north)
    is the first code point from column -k on the north row of Y.  Along
    that row phi is linear in the frame's i, phi = origin + step * i
    (mod p) with step = (k+1)a + kc for the matrix's first column (a, c),
    so si is one modular solve.  Every move is rotated with the integer
    matrix, and one sort of plain (j, i, ...) tuples puts the sources in
    row-major order.  _corner_step checks m, n > 2p; ell is mod p, since
    its callers have built base_set(dims, k, ell), which checks that.
    """
    kk, p = k.k, k.p
    ((a, b), (c, d)), (sx, sy) = _ROTATIONS[corner]
    north = (dims.m if b else dims.n) + kk - 1  # at NE and SW, frame j runs along real i
    # the real point of frame (0, north): the origin of the frame with its north row at j = 0
    x0, y0 = b * north + sx * (dims.m - 1), d * north + sy * (dims.n - 1)
    origin, step = (kk + 1) * x0 + kk * y0, (kk + 1) * a + kk * c
    si = (pow(step, -1, p) * (ell.value - origin) + kk) % p - kk
    zj, slope_l1, case = _corner_shape(k, si)
    rotated = sorted((c * i + d * j + y0, a * i + b * j + x0, a * u + b * v + x0, c * u + d * v + y0)
                     for (i, j), (u, v) in _corner_moves(k, si, zj, case).items())
    moves = tuple((LatticePoint(i, j), LatticePoint(u, v)) for j, i, u, v in rotated)
    ctx = CornerContext(corner, LatticePoint(si, north), LatticePoint(-1, north + zj), slope_l1, case)
    return ctx, _CornerPlan((a * si + x0, c * si + y0), moves)


def _apply_plans(dims: GridDims, k: Radius, s_set: VertexSet, plans: list[_CornerPlan]) -> VertexSet:
    """Delete every plan's removed point and shift sources and insert its targets, in one edit.

    The plans must come from the set's own base set, through _corner_step
    on the grid, k and residue it was built from.  Then every deleted
    point is in the set, and the targets are distinct points outside it
    that no plan deletes (_corner_moves), so no fault is checked for.
    Only the two bands that hold every plan (_corner_step) are edited:
    Y's south p rows (j < p-k) and its north p rows (j >= n+k-p), which
    one binary search on the row column bounds.  The edit works on keys,
    Y's row-major index (j+k)(m+2k) + (i+k), below 2**62 since Y's sides
    are at most 2**31, so int64 holds it: deleted points are found by
    binary search on the bands' keys, the targets' keys are added, and
    one sort and one divmod give the edited bands back as points.  The
    rest of the set is copied once, never sorted.
    """
    kk, w, north = k.k, dims.m + 2 * k.k, dims.n + k.k - k.p
    whole = s_set.array
    lo, hi = np.searchsorted(whole[:, 1], (k.p - kk, north))
    keys = (np.concatenate((whole[:lo], whole[hi:])) + kk) @ (1, w)
    gone = [plan.removed for plan in plans] + [src for plan in plans for src, _ in plan.moves]
    keep = np.ones(len(keys), dtype=bool)
    keep[np.searchsorted(keys, [(i + kk) + (j + kk) * w for i, j in gone])] = False
    added = np.array([(i + kk) + (j + kk) * w for plan in plans for _, (i, j) in plan.moves], dtype=np.int64)
    j, i = np.divmod(np.sort(np.concatenate((keys[keep], added))), w)
    edited = np.column_stack((i, j)) - kk
    cut = np.searchsorted(j, north + kk)
    return VertexSet(np.concatenate((edited[:cut], whole[lo:hi], edited[cut:])))


def _corner_step(dims: GridDims, k: Radius,
                 ell: Residue) -> tuple[tuple[CornerContext, ...], list[_CornerPlan]]:
    """The four corners' contexts and plans, in CORNER_ORDER.

    Corner plans exist only for m, n > 2p, where the four corners cannot
    interact, which is checked here, and for a residue mod p, which
    base_set has checked before any call.  The rest is Python-int
    arithmetic on the rotations' integer matrices, with no numpy call.  No
    two plans touch the same point.  In its frame, with Y's north row at
    j = 0, every point a plan removes, moves or fills lies in the p x p
    window of columns -k..p-k-1 and rows -(p-1)..0: a steep scan stops at
    z.j >= 1-p and lifts z to row z.j+1 <= 0; a shallow candidate moves
    only if (k+1)j >= k(i - s.i) >= -k(p-1); and no code point but s lies
    in column s.i within p rows, so east shifts end by column s.i.  In
    real coordinates the windows lie in Y's columns, NW and NE in Y's
    north p rows (j >= n+k-p), SW and SE in its south p rows (j < p-k).
    The two bands are disjoint once n > 2p-2k-1, and the two windows
    within a band once m > 2p-2k-1, both implied by m, n > 2p.
    """
    p = k.p
    if dims.m <= 2 * p or dims.n <= 2 * p:
        raise DomainError(f"corner removal needs m, n > 2p = {2 * p}, got {dims.m}x{dims.n}")
    contexts, plans = zip(*(_corner(corner, dims, k, ell) for corner in CORNER_ORDER))
    return contexts, list(plans)


def _trace(dims: GridDims, k: Radius, ell: Residue, base: VertexSet,
           contexts: tuple[CornerContext, ...] | None, plans: list[_CornerPlan],
           merged: int, final: VertexSet) -> ConstructionTrace:
    """The audit record of one run; contexts is None where corner removal is skipped.

    The removed points need no dedupe: they lie in the four disjoint p x p
    windows of _corner_step.
    """
    removed = sorted((plan.removed for plan in plans), key=lambda q: (q[1], q[0]))  # row-major
    return ConstructionTrace(
        dims=dims,
        k=k,
        chosen_residue=ell,
        base_size=len(base),
        corner_removal_applied=contexts is not None,
        corner_cases=contexts,
        removed=VertexSet(np.fromiter(chain.from_iterable(removed), np.int64, 2 * len(removed)).reshape(-1, 2)),
        shifted_pairs=tuple(move for plan in plans for move in plan.moves),
        projection_merged=merged,
        final_size=len(final),
    )


def remove_corners(dims: GridDims, k: Radius, ell: Residue, s_set: VertexSet,
                   verify: bool = True) -> tuple[VertexSet, ConstructionTrace]:
    """Remove one code point at each corner of Y, preserving domination.

    s_set must equal base_set(dims, k, ell), the only set the corner plans
    are proved for.  The base set is rebuilt first, which refuses a
    residue not mod p; then the plans, which refuse m or n <= 2p; then
    any set but the rebuild is refused.  Each raises DomainError.  The
    four plans are applied to the rebuild in one edit, as construct
    applies them.  With verify, the edited set is checked once on the
    whole grid, and a failure raises VerificationError carrying the
    uncovered vertices.
    """
    base = base_set(dims, k, ell)
    contexts, plans = _corner_step(dims, k, ell)
    if s_set != base:
        raise DomainError("remove_corners takes only base_set(dims, k, ell), the set its plans fit")
    current = _apply_plans(dims, k, base, plans)
    if verify and not is_dominating(dims, k, current):
        uncovered = verify_domination(dims, k, current).uncovered
        raise VerificationError(f"corner shifts broke domination ({len(uncovered)} uncovered)", uncovered=uncovered)
    return current, _trace(dims, k, ell, base, contexts, plans, 0, current)


def construct(dims: GridDims, k: Radius) -> tuple[VertexSet, ConstructionTrace]:
    """Full pipeline: best residue, base set, corner removal, projection.

    For m, n > 2p the result has at most floor((m+2k)(n+2k)/p) - 4
    points; otherwise corner removal is skipped and the floor bound
    holds without the -4.  The result is not checked; it dominates by
    proof.  The base set is a perfect Lee code's fiber, so each grid
    cell has exactly one fiber point within k, and it lies in Y
    (acceptance criterion 4); clamping uncovers no cell, as
    |clamp(x) - g|_1 <= |x - g|_1 for every grid cell g; each plan keeps
    domination in its p x p window, certified for k <= 20 by
    test_corner_plans_keep_domination_locally_up_to_k20 and for
    21 <= k <= 48 by a run of tests/corner_certificate.py.  Grids too
    large for the coverage kernel are still rejected with DomainError
    up front, so kdom verify can check every set construct returns, and
    corner removal never runs past k = 48: at k = 49 the smallest grid
    with corners, (2p+1)^2, is over the cap
    (test_corner_removal_reaches_k48_and_no_further).

    The base set's size needs no check against best_residue's count:
    fiber_counts_in_box counts floor(W/p) points per row of width W, plus
    one where the row's W mod p leftover columns hold a fiber point,
    which is what inverse_image_in_box lists.  Tests check both against
    a row-by-row reference count on random boxes (acceptance criterion 5,
    test_count_matches_enumeration_randomized and
    test_fiber_counts_in_box_match_per_residue_counts).
    """
    check_dense_size(dims, k)
    ell, _ = best_residue(dims, k)
    base = base_set(dims, k, ell)
    contexts, plans = None, []
    if dims.m > 2 * k.p and dims.n > 2 * k.p:
        contexts, plans = _corner_step(dims, k, ell)
    shifted = _apply_plans(dims, k, base, plans) if plans else base
    projected = project_inward(dims, shifted)
    return projected, _trace(dims, k, ell, base, contexts, plans, len(shifted) - len(projected), projected)
