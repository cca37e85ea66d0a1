"""Builds dominating sets: best residue class, corner removal, projection.

The pipeline intersects the best fiber of the diagonal code with the
k-margin box Y, removes one code point at each corner of Y via the
three-case shift procedure, and finally clamps every out-of-grid point
onto the grid.  For m, n > 2p the result has at most
floor((m+2k)(n+2k)/p) - 4 points; smaller grids skip corner removal and
get the floor bound without the -4.

Corner geometry is always computed in a rotated frame that carries the
corner onto the northwest corner of Y.  Rotations (never reflections)
keep the rotated set inside the same code family, so one NW procedure
serves all four corners.  Case classification uses exact integer cross
products; no floating point enters this module.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from .errors import (
    CornerOverlapError,
    DomainError,
    GridTooSmallError,
    KdomError,
    VerificationError,
)
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
    row_major_keys,
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


class _Frame:
    """Rotation of the plane carrying one corner of Y onto the NW corner.

    A rotation keeps the code a fiber of a linear form: in frame
    coordinates phi(to_real(i, j)) = a*i + b*j + c (mod p), where |a| and
    |b| are k and k+1, both units mod p.  So the code point of a row (or
    a column) nearest any start is one modular solve away, and the hits
    of a row are spaced exactly p apart.  Corner frames exist only for
    m, n > 2p, where the four corner regions cannot interact.
    """

    def __init__(self, corner: Corner, dims: GridDims, k: Radius, ell: Residue):
        p = k.p
        if dims.m <= 2 * p or dims.n <= 2 * p:
            raise GridTooSmallError(
                f"corner removal needs m, n > 2p = {2 * p}, got {dims.m}x{dims.n}"
            )
        if ell.modulus != p:
            raise DomainError(f"residue modulus {ell.modulus} does not match p={p}")
        self.corner, self.k, self.ell = corner, k, ell
        m, n = self._m, self._n = dims.m, dims.n
        kk = k.k
        a, b, c = {
            Corner.NW: (kk + 1, kk, 0),
            Corner.NE: (-kk, kk + 1, kk * (n - 1)),
            Corner.SW: (kk, -(kk + 1), (kk + 1) * (m - 1)),
            Corner.SE: (-(kk + 1), -kk, (kk + 1) * (m - 1) + kk * (n - 1)),
        }[corner]
        self._p, self._a, self._b = p, a, b
        self._target = (ell.value - c) % p
        self._inv_a, self._inv_b = pow(a, -1, p), pow(b, -1, p)
        nf = n if corner in (Corner.NW, Corner.SE) else m
        self.north = nf + kk - 1  # the frame's north boundary row of Y

    def to_real(self, q: tuple[int, int]) -> LatticePoint:
        i, j = q
        m, n = self._m, self._n
        if self.corner is Corner.NW:
            return LatticePoint(i, j)
        if self.corner is Corner.NE:
            return LatticePoint(j, n - 1 - i)
        if self.corner is Corner.SW:
            return LatticePoint(m - 1 - j, i)
        return LatticePoint(m - 1 - i, n - 1 - j)

    def first_in_row(self, j: int, i_lo: int) -> int:
        """Smallest i >= i_lo with (i, j) on the code."""
        i0 = self._inv_a * (self._target - self._b * j) % self._p
        return i_lo + (i0 - i_lo) % self._p

    def last_in_column(self, i: int, j_hi: int) -> int:
        """Largest j <= j_hi with (i, j) on the code."""
        j0 = self._inv_b * (self._target - self._a * i) % self._p
        return j_hi - (j_hi - j0) % self._p


@dataclass(frozen=True)
class CornerContext:
    """Geometry of one corner in its own (rotated) frame.

    s is the westernmost code point on the frame's north boundary row of
    Y; z the northernmost code point one column west of the frame grid.
    slope_l1 is None exactly when s and z coincide (s on column -1), a
    degenerate configuration handled like the negative-slope case.
    """

    corner: Corner
    residue: Residue
    s: LatticePoint
    z: LatticePoint
    slope_l1: Fraction | None
    slope_l2: Fraction
    case: CornerCase


@dataclass(frozen=True)
class ConstructionTrace:
    """Audit record of one construction run."""

    dims: GridDims
    k: Radius
    chosen_residue: Residue
    base_size: int
    corner_removal_applied: bool
    corner_cases: tuple[CornerContext, ...] | None
    removed: VertexSet
    shifted_pairs: tuple[tuple[LatticePoint, LatticePoint], ...]
    projection_merged: int
    final_size: int


def best_residue(dims: GridDims, k: Radius) -> tuple[Residue, int]:
    """The residue whose fiber meets Y in the fewest points.

    Ties break toward the smallest residue value; the winning count never
    exceeds floor((m+2k)(n+2k)/p), the mean count.  O(p) work.
    """
    box = neighborhood_box(dims, k)
    counts = fiber_counts_in_box(k, box)
    value = int(counts.argmin())
    count = int(counts[value])
    floor_mean = box.area // k.p
    if count > floor_mean:
        raise KdomError(f"best residue count {count} exceeds floor(|Y|/p) = {floor_mean}")
    return Residue(value, k.p), count


def base_set(dims: GridDims, k: Radius, ell: Residue) -> VertexSet:
    """The fiber of ell intersected with the k-margin box Y."""
    return inverse_image_in_box(k, ell, neighborhood_box(dims, k))


def project_inward(dims: GridDims, s: VertexSet) -> VertexSet:
    """Clamp every point onto the grid box and dedupe."""
    projected, _ = _project_counted(dims, s)
    return projected


def _project_counted(dims: GridDims, s: VertexSet) -> tuple[VertexSet, int]:
    n = dims.n
    pts = np.clip(s.array, 0, (dims.m - 1, n - 1)).astype(np.int64, copy=False)
    # Clamping i is monotone, so rows strictly inside the grid stay in order;
    # only the rows merged into row 0 and row n-1 need a sort before the dedupe.
    lo, hi = np.searchsorted(s.array[:, 1], (1, n - 1)) if n > 1 else (0, 0)
    for a, b in ((0, lo), (hi, len(pts))):
        pts[a:b] = pts[a:b][np.argsort(pts[a:b, 0], kind="stable")]
    result = VertexSet(pts[~repeats(pts)])
    return result, len(s) - len(result)


def classify_corner(dims: GridDims, k: Radius, ell: Residue, corner: Corner) -> CornerContext:
    """Locate s and z for the corner and classify the slope of L1.

    Requires m, n > 2p so the four corner regions cannot interact.
    """
    return _classify(_Frame(corner, dims, k, ell))


def _classify(fr: _Frame) -> CornerContext:
    """classify_corner in the corner's frame."""
    corner, k, ell = fr.corner, fr.k, fr.ell
    s = LatticePoint(fr.first_in_row(fr.north, -k.k), fr.north)
    z = LatticePoint(-1, fr.last_in_column(-1, fr.north))
    slope_l2 = Fraction(k.k, k.k + 1)
    if s == z:
        # s sits on column -1: its ball misses the grid, like Case 1.
        return CornerContext(corner, ell, s, z, None, slope_l2, CornerCase.NEGATIVE_SLOPE)
    slope_l1 = Fraction(s.j - z.j, s.i - z.i)
    if s.i <= -1:
        case = CornerCase.NEGATIVE_SLOPE
    else:
        delta, rise = s.i + 1, s.j - z.j
        # slope comparison by cross multiplication: rise/delta vs k/(k+1)
        case = (
            CornerCase.STEEP_SLOPE
            if (k.k + 1) * rise > k.k * delta
            else CornerCase.SHALLOW_SLOPE
        )
    return CornerContext(corner, ell, s, z, slope_l1, slope_l2, case)


class _CornerPlan(NamedTuple):  # a NamedTuple, not a dataclass: far cheaper to create at import
    """One corner's edit, in real coordinates: remove one point, move others."""

    removed: LatticePoint
    moves: tuple[tuple[LatticePoint, LatticePoint], ...]

    def touched(self) -> frozenset:
        return frozenset((self.removed, *chain.from_iterable(self.moves)))


def _corner_plan(ctx: CornerContext, dims: GridDims, k: Radius) -> _CornerPlan:
    """The shift plan for a classified corner."""
    return _plan(_Frame(ctx.corner, dims, k, ctx.residue), ctx)


def _plan(fr: _Frame, ctx: CornerContext) -> _CornerPlan:
    """Compute the shift plan for a corner classified in the frame fr.

    Shift sets per case (frame coordinates; window of side 2p per design):
      negative: nothing moves, s is simply removed.
      steep:    every code point on or northwest of L1 at or above z's row
                moves east one unit; z additionally moves up one unit.
      shallow:  code points on the line through s with slope k/(k+1) move
                east one unit; code points strictly above that line move
                down one unit.
    Candidates lie in columns -k..s.i, a segment of at most p cells, so
    each scanned row holds at most one code point.
    """
    kk, p = fr.k.k, fr.k.p
    s, z = ctx.s, ctx.z

    def west_of_s(bottom: int):
        """Code points of rows north..bottom in columns -k..s.i, s excluded."""
        for j in range(fr.north, bottom - 1, -1):
            i = fr.first_in_row(j, -kk)
            if i <= s.i and (i, j) != s:
                yield i, j

    moves: dict[tuple[int, int], tuple[int, int]] = {}
    if ctx.case is CornerCase.STEEP_SLOPE:
        delta, rise = s.i - z.i, s.j - z.j
        for i, j in west_of_s(z.j):
            if delta * (j - z.j) - rise * (i - z.i) >= 0:
                moves[(i, j)] = (i + 1, j)
        moves[z] = (z.i + 1, z.j + 1)
    elif ctx.case is CornerCase.SHALLOW_SLOPE:
        for i, j in west_of_s(fr.north - 2 * p):
            cross = (j - s.j) * (kk + 1) - kk * (i - s.i)
            if cross == 0:
                moves[(i, j)] = (i + 1, j)
            elif cross > 0:
                moves[(i, j)] = (i, j - 1)
    real_moves = tuple(
        sorted(
            ((fr.to_real(a), fr.to_real(b)) for a, b in moves.items()),
            key=lambda ab: (ab[0].j, ab[0].i),  # row-major
        )
    )
    return _CornerPlan(removed=fr.to_real(s), moves=real_moves)


def _repeated(keys: np.ndarray) -> np.ndarray:
    """Mask of the keys equal to an earlier key."""
    seen, mask = set(), []
    for key in keys.tolist():
        mask.append(key in seen)
        seen.add(key)
    return np.array(mask, dtype=bool)


def _find(have: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each key is, or would go, in the sorted have; and whether it is there."""
    at = np.searchsorted(have, keys)
    found = at < len(have)
    found[found] = have[at[found]] == keys[found]
    return at, found


def _apply_plans(s_set: VertexSet, plans: list[_CornerPlan]) -> VertexSet:
    """Delete every plan's removed point and shift sources and insert its targets, in one edit.

    The plans' touched points must be pairwise disjoint, so this equals
    applying them one by one, faults included.  Only two row bands are
    edited, split at the widest run of rows no plan touches (north and
    south corners): points are found by binary search on row-major keys,
    and the rest of the set is copied once, never sorted.
    """
    gone = np.array([q for plan in plans for q in (plan.removed, *(src for src, _ in plan.moves))],
                    dtype=np.int64).reshape(-1, 2)
    new = np.array([dst for plan in plans for _, dst in plan.moves], dtype=np.int64).reshape(-1, 2)
    touched = np.concatenate((gone[:, 1], new[:, 1]))
    rows = np.append(np.sort(touched, kind="stable"), touched.max() + 1)  # touched rows, a sentinel
    t = np.diff(rows).argmax()  # band one ends at rows[t], band two starts at rows[t + 1]
    whole = s_set.array
    lo, mid_lo, mid_hi, hi = np.searchsorted(whole[:, 1], (rows[0], rows[t] + 1, rows[t + 1], rows[-1]))
    window = np.concatenate((whole[lo:mid_lo], whole[mid_hi:hi]))
    have, gone_keys, new_keys = row_major_keys(window, gone, new)
    at, found = _find(have, gone_keys)
    found &= ~_repeated(gone_keys)  # a point listed twice is gone the second time
    keep = np.ones(len(window), dtype=bool)
    keep[at[found]] = False
    kept_keys = have[keep]
    _, clash = _find(kept_keys, new_keys)
    clash |= _repeated(new_keys)
    if len(plans) > 1 and (not found.all() or clash.any()):
        for plan in plans:  # the first plan that does not fit the set raises its own error
            _apply_plans(s_set, [plan])
    if not found[0]:
        raise CornerOverlapError(f"corner point {plans[0].removed} missing; set does not match the plan")
    if not found.all():
        raise CornerOverlapError(f"shift source {plans[0].moves[found.argmin() - 1][0]} missing from the set")
    if clash.any():
        raise CornerOverlapError(f"shift target {plans[0].moves[clash.argmax()][1]} collides")
    order = np.argsort(np.concatenate((kept_keys, new_keys)), kind="stable")
    edited = np.concatenate((window[keep], new))[order]
    cut = np.searchsorted(edited[:, 1], rows[t + 1])
    pieces = (whole[:lo], edited[:cut], whole[mid_lo:mid_hi], edited[cut:], whole[hi:])
    return VertexSet(np.concatenate(pieces))


def _edit_corners(dims: GridDims, k: Radius, s_set: VertexSet, contexts: tuple[CornerContext, ...],
                  plans: list[_CornerPlan], verify: bool) -> VertexSet:
    """Apply the corners' plans; with verify, raise at the first corner that breaks domination.

    Without verify, all plans go in one edit.  With verify, corner c
    applies plans[:c+1] to the input in one edit and checks the whole
    grid, so a plan that does not fit raises its own CornerOverlapError
    in its own turn, as one corner at a time would.
    """
    if not verify:
        return _apply_plans(s_set, plans)
    for c, ctx in enumerate(contexts):
        result = _apply_plans(s_set, plans[:c + 1])
        if not is_dominating(dims, k, result):
            uncovered = verify_domination(dims, k, result).uncovered
            raise VerificationError(
                f"{ctx.corner.value} corner shift broke domination ({len(uncovered)} uncovered)",
                uncovered=uncovered,
            )
    return result


def apply_corner_case(ctx: CornerContext, s_set: VertexSet, dims: GridDims, k: Radius,
                      verify: bool = True) -> VertexSet:
    """Apply one corner's removal and shifts; optionally verify domination."""
    return _edit_corners(dims, k, s_set, (ctx,), [_corner_plan(ctx, dims, k)], verify)


def remove_corners(dims: GridDims, k: Radius, ell: Residue, s_set: VertexSet,
                   verify: bool = True) -> tuple[VertexSet, ConstructionTrace]:
    """Remove one code point at each corner of Y, preserving domination.

    The four plans are computed from the same base set; their touched
    points are pairwise disjoint (guaranteed for m, n > 2p, checked
    here) so the corners commute and are applied in one edit.  Every
    corner configuration for k <= 12 is certified by the test suite, so
    construct skips this check and relies on its own end check; with
    verify, the first corner (in CORNER_ORDER) whose set no longer
    dominates raises VerificationError.
    """
    frames = [_Frame(c, dims, k, ell) for c in CORNER_ORDER]
    contexts = tuple(_classify(fr) for fr in frames)
    plans = [_plan(fr, ctx) for fr, ctx in zip(frames, contexts)]
    touched = [plan.touched() for plan in plans]
    for a, b in combinations(range(4), 2):
        overlap = touched[a] & touched[b]
        if overlap:
            raise CornerOverlapError(
                f"{CORNER_ORDER[a].value} and {CORNER_ORDER[b].value} corner "
                f"regions overlap at {sorted(overlap)[:4]}"
            )
    current = _edit_corners(dims, k, s_set, contexts, plans, verify)
    trace = ConstructionTrace(
        dims=dims,
        k=k,
        chosen_residue=ell,
        base_size=len(s_set),
        corner_removal_applied=True,
        corner_cases=contexts,
        removed=VertexSet.from_iterable(plan.removed for plan in plans),
        shifted_pairs=tuple(move for plan in plans for move in plan.moves),
        projection_merged=0,
        final_size=len(current),
    )
    return current, trace


def construct(
    dims: GridDims, k: Radius, verify: bool = True
) -> tuple[VertexSet, ConstructionTrace]:
    """Full pipeline: best residue, base set, corner removal, projection.

    For m, n > 2p the result has at most floor((m+2k)(n+2k)/p) - 4
    points; otherwise corner removal is skipped and the floor bound
    holds without the -4.  With verify, the final set is checked once on
    the whole grid; a failure raises VerificationError carrying the
    uncovered vertices and the trace.
    """
    if verify:
        check_dense_size(dims, k)
    p = k.p
    ell, count = best_residue(dims, k)
    base = base_set(dims, k, ell)
    if len(base) != count:
        raise KdomError(f"base set has {len(base)} points, the residue count says {count}")
    if dims.m > 2 * p and dims.n > 2 * p:
        shifted, trace = remove_corners(dims, k, ell, base, verify=False)
        projected, merged = _project_counted(dims, shifted)
        trace = replace(trace, projection_merged=merged, final_size=len(projected))
    else:
        projected, merged = _project_counted(dims, base)
        trace = ConstructionTrace(
            dims=dims,
            k=k,
            chosen_residue=ell,
            base_size=len(base),
            corner_removal_applied=False,
            corner_cases=None,
            removed=VertexSet.empty(),
            shifted_pairs=(),
            projection_merged=merged,
            final_size=len(projected),
        )
    if verify and not is_dominating(dims, k, projected):
        report = verify_domination(dims, k, projected)
        raise VerificationError(
            "constructed set fails domination", uncovered=report.uncovered, trace=trace
        )
    return projected, trace
