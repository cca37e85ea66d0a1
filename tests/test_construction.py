import random
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_dominates, count_in_box
from corner_certificate import certify
from kdom import (
    DomainError,
    GridDims,
    LatticePoint,
    Radius,
    Residue,
    VerificationError,
    VertexSet,
    base_set,
    best_residue,
    construct,
    exact_gamma,
    is_dominating,
    neighborhood_box,
    new_bound,
    project_inward,
    remove_corners,
    verify_domination,
)
from kdom import construction, gridmodel
from kdom.construction import (
    CORNER_ORDER,
    Corner,
    CornerCase,
    CornerContext,
    _apply_plans,
    _corner,
    _corner_moves,
    _corner_shape,
    _corner_step,
    _CornerPlan,
)
from kdom.lattice import COORD_LIMIT, phi

K1, K2, K3 = Radius(1), Radius(2), Radius(3)


def _classify_corner(dims, k, ell, corner):
    """Locate s and z for one corner of a grid and classify the slope of L1."""
    contexts, _ = _corner_step(dims, k, ell)
    return contexts[CORNER_ORDER.index(corner)]


def _corner_plan(ctx, dims, k, ell):
    """The plan of one classified corner, in real coordinates."""
    return _corner(ctx.corner, dims, k, ell)[1]


def test_best_residue_uniform_when_side_is_p():
    # m + 2k = 25 = p: every residue counts (25*25)/25 = 25; tie-break
    # lands on the smallest residue
    ell, count = best_residue(GridDims(19, 19), K3)
    assert (ell.value, count) == (0, 25)
    for v in range(25):
        assert count_in_box(K3, Residue(v, 25), neighborhood_box(GridDims(19, 19), K3)) == 25


def test_best_residue_51x52():
    ell, count = best_residue(GridDims(51, 52), K3)
    assert count <= 3306 // 25 == 132
    box = neighborhood_box(GridDims(51, 52), K3)
    counts = [count_in_box(K3, Residue(v, 25), box) for v in range(25)]
    assert count == min(counts)
    assert ell.value == min(v for v, c in enumerate(counts) if c == count)


def _assert_best_residue_is_min_count(m, n, k):
    box = neighborhood_box(GridDims(m, n), k)
    counts = [count_in_box(k, Residue(v, k.p), box) for v in range(k.p)]
    ell, count = best_residue(GridDims(m, n), k)
    assert count == min(counts), (m, n, k)
    assert ell.value == counts.index(count), (m, n, k)  # ties go to the smallest residue


@pytest.mark.parametrize("kk", [1, 2, 3, 4])
def test_best_residue_closed_form_matches_counting(kk):
    k = Radius(kk)
    for m in range(1, 31):
        for n in range(1, 31):
            _assert_best_residue_is_min_count(m, n, k)


def test_best_residue_closed_form_thin_and_wide_k_grids():
    for kk in (1, 2, 3, 4):
        for side in (1, 2, 7, 40, 97, 200):
            _assert_best_residue_is_min_count(1, side, Radius(kk))
            _assert_best_residue_is_min_count(side, 1, Radius(kk))
    _assert_best_residue_is_min_count(200, 201, Radius(20))
    _assert_best_residue_is_min_count(150, 151, Radius(40))


def test_best_residue_tiny_grid():
    _, count = best_residue(GridDims(1, 1), K1)
    assert count <= 9 // 5 == 1


def test_base_set_known_6x6_fiber():
    # the 6x6, k=3 margin box meets the 0-residue fiber in exactly six
    # points; projection clamps the four outside ones onto the grid
    pts = base_set(GridDims(6, 6), K3, Residue(0, 25))
    assert {tuple(q) for q in pts} == {(0, 0), (4, 3), (-3, 4), (1, 7), (7, -1), (8, 6)}
    assert is_dominating(GridDims(6, 6), K3, pts)
    projected = project_inward(GridDims(6, 6), pts)
    assert {tuple(q) for q in projected} == {(0, 0), (5, 0), (4, 3), (0, 4), (1, 5), (5, 5)}
    assert is_dominating(GridDims(6, 6), K3, projected)


def test_base_set_sizes_13x13():
    sizes = [len(base_set(GridDims(13, 13), K2, Residue(v, 13))) for v in range(13)]
    assert min(sizes) <= 289 // 13 == 22


def test_base_set_always_dominates():
    for dims in (GridDims(1, 1), GridDims(4, 9), GridDims(13, 13), GridDims(40, 31)):
        for k in (K1, K2, K3):
            for v in range(0, k.p, max(1, k.p // 5)):
                pts = base_set(dims, k, Residue(v, k.p))
                assert is_dominating(dims, k, pts)


def test_project_inward_examples():
    dims = GridDims(6, 6)
    assert project_inward(dims, VertexSet.from_iterable([(-1, 3)])).points == (
        LatticePoint(0, 3),
    )
    assert project_inward(dims, VertexSet.from_iterable([(2, 2)])).points == (
        LatticePoint(2, 2),
    )
    assert project_inward(dims, VertexSet.from_iterable([(-2, 7)])).points == (
        LatticePoint(0, 5),
    )


def test_projection_preserves_domination():
    import random

    rng = random.Random(17)
    for _ in range(30):
        k = Radius(rng.randint(1, 3))
        dims = GridDims(rng.randint(1, 12), rng.randint(1, 12))
        pts = VertexSet.from_iterable(
            (rng.randint(-k.k, dims.m + k.k - 1), rng.randint(-k.k, dims.n + k.k - 1))
            for _ in range(rng.randint(1, 8))
        )
        rep = verify_domination(dims, k, pts)
        projected = project_inward(dims, pts)
        rep2 = verify_domination(dims, k, projected)
        assert len(rep2.uncovered) <= len(rep.uncovered)


def test_classify_corner_requires_big_grid():
    with pytest.raises(DomainError, match="corner removal needs"):
        _corner_step(GridDims(6, 6), K3, Residue(0, 25))
    with pytest.raises(DomainError, match="corner removal needs"):
        _corner_step(GridDims(100, 26), K2, Residue(0, 13))


def test_classify_corner_cases_27x27_k2():
    dims = GridDims(27, 27)
    # residues chosen so the NW corner hits each case; values derived by
    # solving 3*s_i + 2*28 = ell (mod 13) for the boundary scan
    ctx = _classify_corner(dims, K2, Residue(12, 13), Corner.NW)
    assert ctx.case is CornerCase.SHALLOW_SLOPE
    assert ctx.slope_l1 == Fraction(1, 8)
    assert (tuple(ctx.s), tuple(ctx.z)) == ((7, 28), (-1, 27))

    ctx = _classify_corner(dims, K2, Residue(11, 13), Corner.NW)
    assert ctx.case is CornerCase.NEGATIVE_SLOPE
    assert ctx.slope_l1 == Fraction(-8, 1)

    ctx = _classify_corner(dims, K2, Residue(1, 13), Corner.NW)
    assert ctx.case is CornerCase.NEGATIVE_SLOPE
    assert ctx.slope_l1 is None  # s and z coincide on column -1
    assert ctx.s == ctx.z

    ctx = _classify_corner(dims, K2, Residue(4, 13), Corner.NW)
    assert ctx.case is CornerCase.STEEP_SLOPE
    assert ctx.slope_l1 == Fraction(5, 1)


def test_slopes_are_exact_rationals():
    ctx = _classify_corner(GridDims(27, 27), K2, Residue(4, 13), Corner.NW)
    assert isinstance(ctx.slope_l1, Fraction)
    assert ctx.slope_l1 > Fraction(2, 3)  # steep: L1 rises faster than L2, of slope k/(k+1)


def test_equality_shallow_slope_is_k_over_k_plus_1():
    # delta = e*(k+1) makes L1 coincide with L2
    dims = GridDims(27, 27)
    found = False
    for v in range(13):
        ctx = _classify_corner(dims, K2, Residue(v, 13), Corner.NW)
        if ctx.case is CornerCase.SHALLOW_SLOPE and ctx.slope_l1 == Fraction(2, 3):
            found = True
    assert found


def test_apply_corner_case_every_corner_and_residue():
    # Whole-grid cross-check of the local certificate below, for k <= 8.
    # In its own frame a corner sees the code s + L for one fixed lattice
    # L, so its plan depends only on the offset s.i of s along the north
    # row of Y.  The p residues give p distinct offsets at each corner, so
    # these cases cover every local corner configuration of each k.
    for kk in range(1, 9):
        k = Radius(kk)
        p = k.p
        dims = GridDims(2 * p + 1, 2 * p + 2)
        offsets = {corner: set() for corner in CORNER_ORDER}
        for v in range(p):
            ell = Residue(v, p)
            pts = base_set(dims, k, ell)
            for corner in CORNER_ORDER:
                ctx = _classify_corner(dims, k, ell, corner)
                offsets[corner].add(ctx.s.i)
                out = _apply_plans(dims, k, pts, [_corner_plan(ctx, dims, k, ell)])
                assert is_dominating(dims, k, out), (kk, v, corner)
                assert len(out) == len(pts) - 1
        for corner, seen in offsets.items():
            assert len(seen) == p, (kk, corner)


def test_corner_plans_lie_in_the_edge_bands_of_y():
    # The premise of the one-edit _apply_plans, in real coordinates: every
    # point a plan removes, moves or fills lies in Y's columns, and in Y's
    # north p rows (j >= n+k-p) at NW and NE, its south p rows (j < p-k)
    # at SW and SE.
    for kk in range(1, 9):
        k = Radius(kk)
        p = k.p
        for m, n in ((2 * p + 1, 2 * p + 2), (2 * p + 3, 3 * p + 2)):
            dims = GridDims(m, n)
            rows = {Corner.NW: (n + kk - p, n + kk - 1), Corner.NE: (n + kk - p, n + kk - 1),
                    Corner.SW: (-kk, p - kk - 1), Corner.SE: (-kk, p - kk - 1)}
            for v in range(p):
                contexts, plans = _corner_step(dims, k, Residue(v, p))
                for ctx, plan in zip(contexts, plans):
                    points = np.array([plan.removed, *chain(*plan.moves)], dtype=np.int64)
                    lo, hi = rows[ctx.corner]
                    assert (points.min(axis=0) >= (-kk, lo)).all(), (kk, m, n, v, ctx.corner)
                    assert (points.max(axis=0) <= (m + kk - 1, hi)).all(), (kk, m, n, v, ctx.corner)


def test_corner_plans_keep_domination_locally_up_to_k20():
    # corner_certificate's docstring gives the argument; a script run of it
    # certifies 21 <= k <= 48, the rest of the range where construct reaches
    # corner removal (test_corner_removal_reaches_k48_and_no_further)
    for kk in range(1, 21):
        assert certify(kk)[2] == [], kk


def _explicit_maps(m, n):
    """Each corner's frame -> real map written out, and the frame's north row of Y."""
    maps = {
        Corner.NW: lambda i, j: (i, j),
        Corner.NE: lambda i, j: (j, n - 1 - i),
        Corner.SW: lambda i, j: (m - 1 - j, i),
        Corner.SE: lambda i, j: (m - 1 - i, n - 1 - j),
    }
    height = {Corner.NW: n, Corner.NE: m, Corner.SW: m, Corner.SE: n}
    return maps, height


def test_frame_rotations_match_the_explicit_maps():
    rng = random.Random(41)
    for kk in range(1, 6):
        k = Radius(kk)
        p = k.p
        for _ in range(3):
            m, n = rng.randint(2 * p + 1, 5 * p), rng.randint(2 * p + 1, 5 * p)
            explicit, height = _explicit_maps(m, n)
            for v in range(p):
                ell = Residue(v, p)
                for corner in CORNER_ORDER:
                    ctx, plan = _corner(corner, GridDims(m, n), k, ell)
                    north = height[corner] + kk - 1
                    assert ctx.s.j == north, (kk, m, n, corner)
                    assert plan.removed == explicit[corner](*ctx.s), (kk, m, n, v, corner)
                    first = next(i for i in range(-kk, p - kk) if phi(k, explicit[corner](i, north)) == ell)
                    assert ctx.s.i == first, (kk, m, n, v, corner)


def _reference_corner_trace(dims, k, ell):
    """corner_cases, removed and shifted_pairs of a trace, the slow way.

    s.i is found by scanning the north row of Y through the explicit
    maps; the moves of _corner_moves, in frame coordinates, are mapped
    the same way and sorted row-major by source, corner by corner.
    """
    explicit, height = _explicit_maps(dims.m, dims.n)
    contexts, removed, pairs = [], [], []
    for corner in CORNER_ORDER:
        north = height[corner] + k.k - 1

        def real(q):
            return LatticePoint(*explicit[corner](q[0], q[1] + north))  # from the frame with north at j = 0

        si = next(i for i in range(-k.k, k.p - k.k) if phi(k, real((i, 0))) == ell)
        zj, slope, case = _corner_shape(k, si)
        contexts.append(CornerContext(corner, LatticePoint(si, north), LatticePoint(-1, north + zj), slope, case))
        removed.append(real((si, 0)))
        moves = [(real(a), real(b)) for a, b in _corner_moves(k, si, zj, case).items()]
        pairs += sorted(moves, key=lambda ab: (ab[0].j, ab[0].i))
    return tuple(contexts), VertexSet.from_iterable(removed), tuple(pairs)


def test_corner_trace_matches_the_explicit_map_reference():
    for kk in range(1, 7):
        k = Radius(kk)
        p = k.p
        for m, n in ((2 * p + 1, 2 * p + 1), (3 * p + 2, 2 * p + 1), (2 * p + 3, 3 * p - 1)):
            dims = GridDims(m, n)
            for v in range(p):
                ell = Residue(v, p)
                _, trace = remove_corners(dims, k, ell, base_set(dims, k, ell), verify=False)
                contexts, removed, pairs = _reference_corner_trace(dims, k, ell)
                assert trace.corner_cases == contexts, (kk, m, n, v)
                assert trace.removed == removed, (kk, m, n, v)
                assert trace.shifted_pairs == pairs, (kk, m, n, v)
                assert {type(q) for pair in trace.shifted_pairs for q in pair} <= {LatticePoint}


def test_remove_corners_11x11_k1():
    dims = GridDims(11, 11)
    ell, _ = best_residue(dims, K1)
    base = base_set(dims, K1, ell)
    out, trace = remove_corners(dims, K1, ell, base)
    assert len(out) == len(base) - 4
    assert is_dominating(dims, K1, out)
    assert len(trace.removed) == 4
    assert trace.corner_removal_applied


def test_remove_corners_51x52_k3():
    dims = GridDims(51, 52)
    ell, _ = best_residue(dims, K3)
    base = base_set(dims, K3, ell)
    out, _ = remove_corners(dims, K3, ell, base)
    projected = project_inward(dims, out)
    assert len(projected) <= 128
    assert is_dominating(dims, K3, projected)


def test_construct_16x16_k1():
    pts, trace = construct(GridDims(16, 16), K1)
    assert len(pts) <= 18 * 18 // 5 - 4 == 60
    assert is_dominating(GridDims(16, 16), K1, pts)
    assert trace.corner_removal_applied


def test_construct_53x54_k3():
    pts, _ = construct(GridDims(53, 54), K3)
    assert len(pts) <= 137
    assert is_dominating(GridDims(53, 54), K3, pts)


def test_construct_small_grid_path():
    # 2p = 50 > 6: no corner removal, floor bound only
    pts, trace = construct(GridDims(6, 6), K3)
    assert len(pts) <= 144 // 25 == 5
    assert is_dominating(GridDims(6, 6), K3, pts)
    assert not trace.corner_removal_applied
    assert trace.corner_cases is None
    assert len(trace.removed) == 0


def test_trace_arithmetic_identity():
    for dims, k in ((GridDims(12, 14), K1), (GridDims(29, 27), K2), (GridDims(6, 6), K3)):
        pts, trace = construct(dims, k)
        assert trace.final_size == len(pts)
        assert trace.final_size == trace.base_size - len(trace.removed) - trace.projection_merged
        if trace.corner_removal_applied:
            assert len(trace.removed) == 4
            assert len(trace.corner_cases) == 4


def test_construct_brute_force_cross_check():
    # small grids where the dumb oracle is instant
    for dims, k in ((GridDims(11, 11), K1), (GridDims(13, 12), K1), (GridDims(8, 5), K2)):
        pts, _ = construct(dims, k)
        assert brute_dominates(dims.m, dims.n, k.k, [tuple(q) for q in pts])


def test_construct_runs_no_coverage_kernel(monkeypatch):
    # the result dominates by proof (construct's docstring), so no build checks it
    kernel = gridmodel._multiplicity
    calls = []

    def counted(*args):
        calls.append(args[0])
        return kernel(*args)

    for module in (gridmodel, construction):  # wherever the kernel is bound
        monkeypatch.setattr(module, "_multiplicity", counted, raising=False)
    for dims, k in ((GridDims(30, 31), K1), (GridDims(30, 31), K2), (GridDims(53, 54), K3), (GridDims(5, 6), K2)):
        construct(dims, k)
    assert calls == []


def test_corner_removal_reaches_k48_and_no_further():
    # corner_certificate certifies the plans for k <= 48; the dense cap keeps
    # construct from any grid with corners, m, n > 2p, at k = 49
    p = Radius(48).p
    _, trace = construct(GridDims(2 * p + 1, 2 * p + 1), Radius(48))
    assert trace.corner_removal_applied
    p = Radius(49).p
    with pytest.raises(DomainError, match="verifier cells"):
        construct(GridDims(2 * p + 1, 2 * p + 1), Radius(49))


def test_construct_size_never_beats_exact_optimum():
    for m, n, k in ((2, 2, K1), (4, 4, K1), (3, 5, K2), (1, 7, K1)):
        dims = GridDims(m, n)
        pts, _ = construct(dims, k)
        assert exact_gamma(dims, k).gamma <= len(pts)


def test_construct_sweep_small():
    # a thumbnail of the acceptance sweep
    for k in (K1, K2):
        p = k.p
        for m in range(2 * p + 1, 2 * p + 6):
            for n in range(2 * p + 1, 2 * p + 6):
                dims = GridDims(m, n)
                pts, _ = construct(dims, k)
                assert is_dominating(dims, k, pts)
                assert len(pts) <= new_bound(m, n, k)


def test_mismatched_residue_modulus_rejected():
    # base_set refuses the foreign modulus before remove_corners plans anything
    with pytest.raises(DomainError, match="residue modulus 25 does not match p=13"):
        remove_corners(GridDims(27, 27), K2, Residue(0, 25), VertexSet.empty())


def test_remove_corners_rejects_wrong_set():
    dims = GridDims(27, 27)
    ell = Residue(4, 13)
    with pytest.raises(DomainError, match=r"takes only base_set\(dims, k, ell\)"):
        remove_corners(dims, K2, ell, VertexSet.from_iterable([(0, 0)]))


def test_remove_corners_rejects_a_same_size_set_off_the_fiber_or_outside_y():
    # each set has the base set's size: one point leaves the fiber, or leaves Y along it
    dims = GridDims(27, 27)
    ell = Residue(4, 13)
    base = base_set(dims, K2, ell)
    box = neighborhood_box(dims, K2)
    first, last = base.points[0], base.points[-1]
    off_fiber = [q for q in base if q != first] + [(first.i + 1, first.j)]  # phi moves by k+1
    outside = [q for q in base if q != last] + [(last.i + K2.p, last.j)]  # phi is kept
    assert first.i + 1 <= box.i_hi < last.i + K2.p
    for points in (off_fiber, outside):
        wrong = VertexSet.from_iterable(points)
        assert len(wrong) == len(base)
        for verify in (True, False):
            with pytest.raises(DomainError, match=r"takes only base_set\(dims, k, ell\)"):
                remove_corners(dims, K2, ell, wrong, verify=verify)


def test_verification_failure_carries_uncovered(monkeypatch):
    dims = GridDims(27, 27)
    ell = Residue(12, 13)  # a genuinely shallow corner
    ctx = _classify_corner(dims, K2, ell, Corner.NW)
    forged = ctx._replace(case=CornerCase.STEEP_SLOPE)
    # the steep moves of the NW corner, whose frame is the real plane
    north = ctx.s.j
    moves = _corner_moves(K2, ctx.s.i, ctx.z.j - north, CornerCase.STEEP_SLOPE)
    steep = _CornerPlan(tuple(ctx.s), tuple(sorted(
        ((LatticePoint(i, j + north), LatticePoint(u, v + north)) for (i, j), (u, v) in moves.items()),
        key=lambda pair: (pair[0].j, pair[0].i))))
    corner_of = construction._corner
    monkeypatch.setattr(construction, "_corner",
                        lambda c, *args: (forged, steep) if c is Corner.NW else corner_of(c, *args))
    pts = base_set(dims, K2, ell)
    with pytest.raises(VerificationError) as err:
        remove_corners(dims, K2, ell, pts, verify=True)
    assert len(err.value.uncovered) > 0
    assert str(err.value) == f"corner shifts broke domination ({len(err.value.uncovered)} uncovered)"
    # the vertex due south of s is the one the wrong case strands
    assert (7, 26) in {tuple(q) for q in err.value.uncovered}


def _reference_apply_plan(points, plan):
    """The set-based corner edit, kept as the reference for the array version."""
    current = set(points) - {plan.removed, *(src for src, _ in plan.moves)}
    return VertexSet.from_iterable(current | {dst for _, dst in plan.moves})


# Y's south band, rows -k..p-k-1 in Y's columns, holds every point of the random universes
_BAND_DIMS, _BAND_K = GridDims(51, 51), K3


def _fitting_plans(rng, universe, count):
    """A random set of the universe and up to count plans that fit it.

    Each plan's removed point and sources are popped from the set's
    points and its targets from the other points, so no two plans touch
    the same point, as for the corner plans of a base set.
    """
    rng.shuffle(universe)
    pts = VertexSet.from_iterable(universe[:rng.randint(1, len(universe) // 2)])
    inside = [q for q in universe if q in pts]
    outside = [q for q in universe if q not in pts]
    plans = []
    while inside and len(plans) < count:
        moves = min(rng.randint(0, 5), len(inside) - 1, len(outside))
        plans.append(_CornerPlan(inside.pop(), tuple((inside.pop(), outside.pop()) for _ in range(moves))))
    return pts, plans


def test_apply_plan_matches_the_set_reference():
    rng = random.Random(23)
    universe = [LatticePoint(i, j) for i in range(-3, 5) for j in range(-3, 5)]
    sizes = set()
    for _ in range(3000):
        pts, [plan] = _fitting_plans(rng, universe, 1)
        assert _apply_plans(_BAND_DIMS, _BAND_K, pts, [plan]) == _reference_apply_plan(pts, plan), (pts, plan)
        sizes.add(len(plan.moves))
    assert sizes == set(range(6))


def test_apply_plan_moves_a_source_onto_a_free_target():
    pts = VertexSet.from_iterable([(0, 0), (3, 0), (1, 2)])
    moved = _apply_plans(_BAND_DIMS, _BAND_K, pts, [_CornerPlan(LatticePoint(0, 0), ((LatticePoint(3, 0), LatticePoint(0, 2)),))])
    assert list(moved) == [LatticePoint(0, 2), LatticePoint(1, 2)]


def test_corner_edit_sorts_only_the_two_row_bands(monkeypatch):
    # ROADMAP aim 1: corner removal costs O(p^2) points per corner, never O(|S| log |S|).
    # Each band is at most p rows of ceil((m+2k)/p) points, and each corner fills at most p targets.
    lengths = []

    class Recorder:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if name not in ("sort", "argsort", "lexsort", "unique"):
                return attr

            def sort(a, *args, **kwargs):
                lengths.append(np.shape(a)[-1] if name == "lexsort" else len(a))
                return attr(a, *args, **kwargs)
            return sort

    dims, k = GridDims(1000, 1001), K3
    ell, _ = best_residue(dims, k)
    base = base_set(dims, k, ell)
    _, plans = construction._corner_step(dims, k, ell)
    monkeypatch.setattr(construction, "np", Recorder())
    edited = _apply_plans(dims, k, base, plans)
    monkeypatch.undo()
    assert lengths and max(lengths) <= 2 * (dims.m + 2 * k.k) + 6 * k.p < len(base) // 10
    assert edited == _one_by_one(dims, k, base, plans)


def _one_by_one(dims, k, points, plans):
    for plan in plans:
        points = _apply_plans(dims, k, points, [plan])
    return points


def test_apply_plans_in_one_edit_equals_one_plan_at_a_time():
    # the four corner plans of real bases, in Y's south and north row bands,
    # which are apart even at m, n = 2p + 1
    for kk in (1, 2, 3):
        k = Radius(kk)
        p = k.p
        for m, n in ((2 * p + 1, 2 * p + 1), (2 * p + 2, 2 * p + 3), (3 * p, 3 * p + 1), (5 * p + 2, 4 * p)):
            dims = GridDims(m, n)
            for v in range(0, p, max(1, p // 6)):
                ell = Residue(v, p)
                base = base_set(dims, k, ell)
                plans = [_corner_plan(_classify_corner(dims, k, ell, c), dims, k, ell) for c in CORNER_ORDER]
                assert _apply_plans(dims, k, base, plans) == _one_by_one(dims, k, base, plans)


def test_apply_plans_matches_the_set_reference_plan_by_plan():
    rng = random.Random(31)
    universe = [LatticePoint(i, j) for i in range(-3, 9) for j in range(-3, 9)]
    for _ in range(1500):
        pts, plans = _fitting_plans(rng, universe, rng.randint(1, 4))
        want = pts
        for plan in plans:
            want = _reference_apply_plan(want, plan)
        assert _apply_plans(_BAND_DIMS, _BAND_K, pts, plans) == want, (pts, plans)


def _reference_remove_corners(dims, k, ell, points):
    """The corners one at a time, each edit followed by a whole-grid check."""
    current = points
    for corner in CORNER_ORDER:
        ctx = _classify_corner(dims, k, ell, corner)
        current = _reference_apply_plan(current, _corner_plan(ctx, dims, k, ell))
        assert is_dominating(dims, k, current), (dims, k, corner)
    return current


def test_remove_corners_matches_the_corner_by_corner_reference():
    rng = random.Random(37)
    changed = set()
    for _ in range(300):
        k = Radius(rng.randint(1, 3))
        p = k.p
        dims = GridDims(rng.randint(2 * p + 1, 3 * p), rng.randint(2 * p + 1, 3 * p))
        ell, _ = best_residue(dims, k)
        base = base_set(dims, k, ell)
        out, trace = remove_corners(dims, k, ell, base)
        assert out == _reference_remove_corners(dims, k, ell, base), (dims, k)
        plans = [_corner_plan(ctx, dims, k, ell) for ctx in trace.corner_cases]
        assert [ctx.corner for ctx in trace.corner_cases] == list(CORNER_ORDER)
        assert trace.removed == VertexSet.from_iterable(plan.removed for plan in plans)
        assert trace.shifted_pairs == tuple(move for plan in plans for move in plan.moves)
        assert (trace.base_size, trace.final_size) == (len(base), len(out))
        # the plans are proved only for the base set, so any other set is refused
        near = sorted({q for plan in plans for q in (plan.removed, *chain(*plan.moves))})
        drops = tuple(rng.randrange(len(base)) for _ in range(rng.randint(0, 3)))
        adds = [rng.choice(near) if rng.random() < 0.5 else
                (rng.randint(-2 * k.k, dims.m + 2 * k.k), rng.randint(-2 * k.k, dims.n + 2 * k.k))
                for _ in range(rng.randint(0, 3))]
        points = VertexSet.from_iterable([q for t, q in enumerate(base) if t not in drops] + adds)
        changed.add(points != base)
        if points == base:
            assert remove_corners(dims, k, ell, points)[0] == out
            continue
        for verify in (True, False):
            with pytest.raises(DomainError, match=r"takes only base_set\(dims, k, ell\)"):
                remove_corners(dims, k, ell, points, verify=verify)
    assert changed == {True, False}


def test_remove_corners_in_both_bench_forms_matches_construct_before_projection():
    for dims, k in ((GridDims(11, 11), K1), (GridDims(30, 31), K2), (GridDims(53, 54), K3)):
        ell, _ = best_residue(dims, k)
        base = base_set(dims, k, ell)
        checked, trace = remove_corners(dims, k, ell, base)
        unchecked, unchecked_trace = remove_corners(dims, k, ell, base, verify=False)
        built, built_trace = construct(dims, k)
        assert checked == unchecked
        assert project_inward(dims, checked) == built
        assert trace == unchecked_trace
        before_projection = dict(projection_merged=0, final_size=len(checked))
        assert trace == built_trace._replace(**before_projection)


_coordinate = st.one_of(st.integers(-12, 20), st.sampled_from([COORD_LIMIT - 1, 1 - COORD_LIMIT]))


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    pts=st.lists(st.tuples(_coordinate, _coordinate), max_size=40),
)
def test_projection_matches_clip_and_lexsort(m, n, pts):
    s = VertexSet.from_iterable(pts)
    clipped = np.clip(s.array, 0, (m - 1, n - 1))
    clipped = clipped[np.lexsort((clipped[:, 0], clipped[:, 1]))]
    first = np.ones(len(clipped), dtype=bool)
    first[1:] = (clipped[1:] != clipped[:-1]).any(axis=1)
    got = project_inward(GridDims(m, n), s)
    merged = len(s) - len(got)  # what construct records as projection_merged
    assert got.array.dtype == np.int64
    assert got.array.tobytes() == clipped[first].tobytes()
    assert merged == len(s) - int(first.sum())
