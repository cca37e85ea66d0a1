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

from .errors import (
    CornerOverlapError,
    DomainError,
    GridTooSmallError,
    KdomError,
    VerificationError,
)
from .gridmodel import GridDims, is_dominating, neighborhood_box, verify_domination
from .lattice import (
    LatticePoint,
    Radius,
    Residue,
    VertexSet,
    fiber_counts_in_box,
    inverse_image_in_box,
    row_major_key,
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
    of a row are spaced exactly p apart.
    """

    def __init__(self, corner: Corner, dims: GridDims, k: Radius, ell: Residue):
        self.corner = corner
        m, n = self._m, self._n = dims.m, dims.n
        kk, p = k.k, k.p
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
    m, n = dims.m, dims.n
    clamped = [
        LatticePoint(min(max(i, 0), m - 1), min(max(j, 0), n - 1)) for (i, j) in s
    ]
    result = VertexSet.from_iterable(clamped)
    return result, len(s) - len(result)


def classify_corner(dims: GridDims, k: Radius, ell: Residue, corner: Corner) -> CornerContext:
    """Locate s and z for the corner and classify the slope of L1.

    Requires m, n > 2p so the four corner regions cannot interact.
    """
    p = k.p
    if dims.m <= 2 * p or dims.n <= 2 * p:
        raise GridTooSmallError(
            f"corner removal needs m, n > 2p = {2 * p}, got {dims.m}x{dims.n}"
        )
    if ell.modulus != p:
        raise DomainError(f"residue modulus {ell.modulus} does not match p={p}")
    fr = _Frame(corner, dims, k, ell)
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


@dataclass(frozen=True)
class _CornerPlan:
    """One corner's edit, in real coordinates: remove one point, move others."""

    removed: LatticePoint
    moves: tuple[tuple[LatticePoint, LatticePoint], ...]

    def touched(self) -> frozenset:
        pts = {self.removed}
        for a, b in self.moves:
            pts.add(a)
            pts.add(b)
        return frozenset(pts)


def _corner_plan(ctx: CornerContext, dims: GridDims, k: Radius) -> _CornerPlan:
    """Compute the shift plan for a classified corner.

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
    kk, p = k.k, k.p
    fr = _Frame(ctx.corner, dims, k, ctx.residue)
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
            key=lambda ab: row_major_key(ab[0]),
        )
    )
    return _CornerPlan(removed=fr.to_real(s), moves=real_moves)


def _apply_plan(s_set: VertexSet, plan: _CornerPlan) -> VertexSet:
    current = set(s_set.points)
    if plan.removed not in current:
        raise CornerOverlapError(
            f"corner point {plan.removed} missing; set does not match the plan"
        )
    current.remove(plan.removed)
    for src, _ in plan.moves:
        if src not in current:
            raise CornerOverlapError(f"shift source {src} missing from the set")
        current.remove(src)
    for _, dst in plan.moves:
        if dst in current:
            raise CornerOverlapError(f"shift target {dst} collides")
        current.add(dst)
    return VertexSet.from_iterable(current)


def _apply_checked(
    ctx: CornerContext,
    plan: _CornerPlan,
    s_set: VertexSet,
    dims: GridDims,
    k: Radius,
    verify: bool,
) -> VertexSet:
    """Apply one corner's plan; with verify, raise if domination broke."""
    result = _apply_plan(s_set, plan)
    if verify and not is_dominating(dims, k, result):
        uncovered = verify_domination(dims, k, result).uncovered
        raise VerificationError(
            f"{ctx.corner.value} corner shift broke domination ({len(uncovered)} uncovered)",
            uncovered=uncovered,
        )
    return result


def apply_corner_case(
    ctx: CornerContext,
    s_set: VertexSet,
    dims: GridDims,
    k: Radius,
    verify: bool = True,
) -> VertexSet:
    """Apply one corner's removal and shifts; optionally verify domination."""
    return _apply_checked(ctx, _corner_plan(ctx, dims, k), s_set, dims, k, verify)


def remove_corners(
    dims: GridDims,
    k: Radius,
    ell: Residue,
    s_set: VertexSet,
    verify: bool = True,
) -> tuple[VertexSet, ConstructionTrace]:
    """Remove one code point at each corner of Y, preserving domination.

    The four plans are computed from the same base set; their touched
    points are pairwise disjoint (guaranteed for m, n > 2p, checked
    here) so the corners commute.  Every corner configuration for
    k <= 8 is certified by the test suite; with verify, a corner that
    breaks domination raises VerificationError.
    """
    contexts = tuple(classify_corner(dims, k, ell, c) for c in CORNER_ORDER)
    plans = [_corner_plan(ctx, dims, k) for ctx in contexts]
    touched = [plan.touched() for plan in plans]
    for a in range(4):
        for b in range(a + 1, 4):
            overlap = touched[a] & touched[b]
            if overlap:
                raise CornerOverlapError(
                    f"{CORNER_ORDER[a].value} and {CORNER_ORDER[b].value} corner "
                    f"regions overlap at {sorted(overlap)[:4]}"
                )
    current = s_set
    for ctx, plan in zip(contexts, plans):
        current = _apply_checked(ctx, plan, current, dims, k, verify)
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
    holds without the -4.
    """
    p = k.p
    ell, count = best_residue(dims, k)
    base = base_set(dims, k, ell)
    if len(base) != count:
        raise KdomError(f"base set has {len(base)} points, the residue count says {count}")
    if dims.m > 2 * p and dims.n > 2 * p:
        shifted, trace = remove_corners(dims, k, ell, base, verify=verify)
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
