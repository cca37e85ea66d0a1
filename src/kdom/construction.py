"""Builds dominating sets: best residue class, corner removal, projection.

The pipeline intersects the best fiber of the diagonal code with the
k-margin box Y, removes one code point at each corner of Y via the
three-case shift procedure, and finally clamps every out-of-grid point
onto the grid.  For m, n > 2p the result has at most
floor((m+2k)(n+2k)/p) - 4 points; smaller grids skip corner removal and
get the floor bound without the -4.

Corner geometry is always computed in a rotated frame that carries the
corner onto the northwest corner of Y.  A quarter turn (never a
reflection) maps the code lattice onto itself, so every corner's case
and plan are functions of k and the offset of s along Y's north row
alone.  Case classification uses exact integer cross products; no
floating point enters this module.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
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
    phi,
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


# The rotation carrying each corner of Y onto NW, as real = matrix @ frame +
# shift, with the shift in units of (m - 1, n - 1).
_ROTATIONS = {
    Corner.NW: (((1, 0), (0, 1)), (0, 0)),
    Corner.NE: (((0, 1), (-1, 0)), (0, 1)),
    Corner.SW: (((0, -1), (1, 0)), (1, 0)),
    Corner.SE: (((-1, 0), (0, -1)), (1, 1)),
}


class _Frame:
    """Rotation of the plane carrying one corner of Y onto the NW corner.

    A quarter turn maps the Lee lattice L = {(k+1)i + kj = 0 (mod p)}
    onto itself, so in every frame the code is s + L, where s = (si,
    north) is the first code point from column -k on the north row of Y.
    Corner frames exist only for m, n > 2p, where the four corner
    regions cannot interact.
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
        self._matrix, (x0, y0) = _ROTATIONS[corner]
        self._shift = (x0 * (dims.m - 1), y0 * (dims.n - 1))
        height = dims.m if self._matrix[0][1] else dims.n  # at NE and SW, frame j runs along real i
        self.north = height + k.k - 1  # the frame's north boundary row of Y
        # Along the north row phi(to_real(i, north)) = origin + step * i (mod p).
        origin = phi(k, self.to_real((0, self.north))).value
        step = phi(k, self.to_real((1, self.north))).value - origin
        self.si = (pow(step, -1, p) * (ell.value - origin) + k.k) % p - k.k

    def to_real(self, q: tuple[int, int]) -> LatticePoint:
        i, j = q
        (a, b), (c, d) = self._matrix
        x0, y0 = self._shift
        return LatticePoint(a * i + b * j + x0, c * i + d * j + y0)


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
    n = dims.n
    pts = np.clip(s.array, 0, (dims.m - 1, n - 1)).astype(np.int64, copy=False)
    # Clamping i is monotone, so rows strictly inside the grid stay in order;
    # only the rows merged into row 0 and row n-1 need a sort before the dedupe.
    lo, hi = np.searchsorted(s.array[:, 1], (1, n - 1)) if n > 1 else (0, 0)
    for a, b in ((0, lo), (hi, len(pts))):
        pts[a:b] = pts[a:b][np.argsort(pts[a:b, 0], kind="stable")]
    return VertexSet(pts[~repeats(pts)])


def classify_corner(dims: GridDims, k: Radius, ell: Residue, corner: Corner) -> CornerContext:
    """Locate s and z for the corner and classify the slope of L1.

    Requires m, n > 2p so the four corner regions cannot interact.
    """
    return _classify(_Frame(corner, dims, k, ell))


def _classify(fr: _Frame) -> CornerContext:
    """classify_corner in the corner's frame."""
    zj, slope_l1, case = _corner_shape(fr.k, fr.si)
    s, z = LatticePoint(fr.si, fr.north), LatticePoint(-1, fr.north + zj)
    return CornerContext(fr.corner, fr.ell, s, z, slope_l1, Fraction(fr.k.k, fr.k.k + 1), case)


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


class _CornerPlan(NamedTuple):  # a NamedTuple, not a dataclass: far cheaper to create at import
    """One corner's edit, in real coordinates: remove one point, move others."""

    removed: LatticePoint
    moves: tuple[tuple[LatticePoint, LatticePoint], ...]

    def touched(self) -> frozenset:
        return frozenset((self.removed, *chain.from_iterable(self.moves)))


def _corner_moves(k: Radius, si: int, zj: int,
                  case: CornerCase) -> dict[tuple[int, int], tuple[int, int]]:
    """The shifts, source -> target, of the corner whose code is s + L, s = (si, 0).

    Frame coordinates with the north row of Y at j = 0; z = (-1, zj).
    Shift sets per case (window of side 2p per design):
      negative: nothing moves, s is simply removed.
      steep:    every code point on or northwest of L1 at or above z's row
                moves east one unit; z additionally moves up one unit.
      shallow:  code points on the line through s with slope k/(k+1) move
                east one unit; code points strictly above that line move
                down one unit.
    Candidates lie in columns -k..si, a segment of at most p cells, so
    each scanned row holds at most one code point; on row 0 it is s.
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
        for i, j in west_of_s(-2 * p):
            cross = j * (kk + 1) - kk * (i - si)
            if cross == 0:
                moves[(i, j)] = (i + 1, j)
            elif cross > 0:
                moves[(i, j)] = (i, j - 1)
    return moves


def _plan(fr: _Frame, ctx: CornerContext) -> _CornerPlan:
    """The shift plan of a corner classified in the frame fr, in real coordinates."""

    def real(q: tuple[int, int]) -> LatticePoint:  # from the frame with its north row at j = 0
        return fr.to_real((q[0], q[1] + fr.north))

    moves = _corner_moves(fr.k, ctx.s.i, ctx.z.j - fr.north, ctx.case)
    real_moves = tuple(
        sorted(
            ((real(a), real(b)) for a, b in moves.items()),
            key=lambda ab: (ab[0].j, ab[0].i),  # row-major
        )
    )
    return _CornerPlan(removed=fr.to_real(ctx.s), moves=real_moves)


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


def _corner_step(dims: GridDims, k: Radius,
                 ell: Residue) -> tuple[tuple[CornerContext, ...], list[_CornerPlan]]:
    """The four corners' contexts and plans, in CORNER_ORDER.

    Raises CornerOverlapError if two plans touch the same point, which
    cannot happen for m, n > 2p.
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
    return contexts, plans


def _trace(dims: GridDims, k: Radius, ell: Residue, base: VertexSet,
           contexts: tuple[CornerContext, ...] | None, plans: list[_CornerPlan],
           merged: int, final: VertexSet) -> ConstructionTrace:
    """The audit record of one run; contexts is None where corner removal is skipped."""
    return ConstructionTrace(
        dims=dims,
        k=k,
        chosen_residue=ell,
        base_size=len(base),
        corner_removal_applied=contexts is not None,
        corner_cases=contexts,
        removed=VertexSet.from_iterable(plan.removed for plan in plans),
        shifted_pairs=tuple(move for plan in plans for move in plan.moves),
        projection_merged=merged,
        final_size=len(final),
    )


def remove_corners(dims: GridDims, k: Radius, ell: Residue, s_set: VertexSet,
                   verify: bool = True) -> tuple[VertexSet, ConstructionTrace]:
    """Remove one code point at each corner of Y, preserving domination.

    The four plans are computed from the same base set; their touched
    points are pairwise disjoint (guaranteed for m, n > 2p, checked
    here) so the corners commute and are applied in one edit.  Every
    corner plan for k <= 20 is certified by the test suite, and
    construct applies the plans itself and checks only its final set.
    With verify, corner c applies plans[:c+1] to the input in one edit
    and checks the whole grid: a plan that does not fit raises its own
    CornerOverlapError in its own turn, and the first corner (in
    CORNER_ORDER) whose set no longer dominates raises
    VerificationError.
    """
    contexts, plans = _corner_step(dims, k, ell)
    if not verify:
        current = _apply_plans(s_set, plans)
    else:
        for c, ctx in enumerate(contexts):
            current = _apply_plans(s_set, plans[:c + 1])
            if not is_dominating(dims, k, current):
                uncovered = verify_domination(dims, k, current).uncovered
                raise VerificationError(
                    f"{ctx.corner.value} corner shift broke domination ({len(uncovered)} uncovered)",
                    uncovered=uncovered,
                )
    return current, _trace(dims, k, ell, s_set, contexts, plans, 0, current)


def construct(dims: GridDims, k: Radius) -> tuple[VertexSet, ConstructionTrace]:
    """Full pipeline: best residue, base set, corner removal, projection.

    For m, n > 2p the result has at most floor((m+2k)(n+2k)/p) - 4
    points; otherwise corner removal is skipped and the floor bound
    holds without the -4.  Grids too large for the coverage kernel are
    rejected with DomainError up front.  The final set is checked once
    on the whole grid; a failure raises VerificationError carrying the
    uncovered vertices and the trace.
    """
    check_dense_size(dims, k)
    ell, count = best_residue(dims, k)
    base = base_set(dims, k, ell)
    if len(base) != count:
        raise KdomError(f"base set has {len(base)} points, the residue count says {count}")
    contexts, plans = None, []
    if dims.m > 2 * k.p and dims.n > 2 * k.p:
        contexts, plans = _corner_step(dims, k, ell)
    shifted = _apply_plans(base, plans) if plans else base
    projected = project_inward(dims, shifted)
    trace = _trace(dims, k, ell, base, contexts, plans, len(shifted) - len(projected), projected)
    if not is_dominating(dims, k, projected):
        report = verify_domination(dims, k, projected)
        raise VerificationError(
            "constructed set fails domination", uncovered=report.uncovered, trace=trace
        )
    return projected, trace
