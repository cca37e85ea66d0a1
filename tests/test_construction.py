import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_dominates, brute_uncovered, count_in_box
from kdom import (
    CornerOverlapError,
    DomainError,
    GridDims,
    GridTooSmallError,
    LatticePoint,
    Radius,
    Residue,
    VerificationError,
    VertexSet,
    base_set,
    best_residue,
    classify_corner,
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
    _apply_plans,
    _corner_moves,
    _corner_shape,
    _CornerPlan,
    _Frame,
    _plan,
)
from kdom.lattice import phi

K1, K2, K3 = Radius(1), Radius(2), Radius(3)


def _corner_plan(ctx, dims, k):
    """The plan of one classified corner, in real coordinates."""
    return _plan(_Frame(ctx.corner, dims, k, ctx.residue), ctx)


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


def test_best_residue_count_bound_is_an_explicit_error(monkeypatch):
    import numpy as np

    from kdom import KdomError, construction

    monkeypatch.setattr(construction, "fiber_counts_in_box",
                        lambda k, box: np.full(k.p, box.area, dtype=np.int64))
    with pytest.raises(KdomError):
        best_residue(GridDims(6, 6), K1)


def test_construct_base_size_mismatch_is_an_explicit_error(monkeypatch):
    from kdom import KdomError, construction

    monkeypatch.setattr(construction, "base_set", lambda dims, k, ell: VertexSet.empty())
    with pytest.raises(KdomError):
        construct(GridDims(6, 6), K1)


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
    with pytest.raises(GridTooSmallError):
        classify_corner(GridDims(6, 6), K3, Residue(0, 25), Corner.NW)
    with pytest.raises(GridTooSmallError):
        classify_corner(GridDims(100, 26), K2, Residue(0, 13), Corner.NE)


def test_classify_corner_cases_27x27_k2():
    dims = GridDims(27, 27)
    # residues chosen so the NW corner hits each case; values derived by
    # solving 3*s_i + 2*28 = ell (mod 13) for the boundary scan
    ctx = classify_corner(dims, K2, Residue(12, 13), Corner.NW)
    assert ctx.case is CornerCase.SHALLOW_SLOPE
    assert ctx.slope_l1 == Fraction(1, 8)
    assert (tuple(ctx.s), tuple(ctx.z)) == ((7, 28), (-1, 27))

    ctx = classify_corner(dims, K2, Residue(11, 13), Corner.NW)
    assert ctx.case is CornerCase.NEGATIVE_SLOPE
    assert ctx.slope_l1 == Fraction(-8, 1)

    ctx = classify_corner(dims, K2, Residue(1, 13), Corner.NW)
    assert ctx.case is CornerCase.NEGATIVE_SLOPE
    assert ctx.slope_l1 is None  # s and z coincide on column -1
    assert ctx.s == ctx.z

    ctx = classify_corner(dims, K2, Residue(4, 13), Corner.NW)
    assert ctx.case is CornerCase.STEEP_SLOPE
    assert ctx.slope_l1 == Fraction(5, 1)


def test_slopes_are_exact_rationals():
    ctx = classify_corner(GridDims(27, 27), K2, Residue(4, 13), Corner.NW)
    assert isinstance(ctx.slope_l2, Fraction)
    assert ctx.slope_l2 == Fraction(2, 3)
    assert isinstance(ctx.slope_l1, Fraction)


def test_equality_shallow_slope_is_k_over_k_plus_1():
    # delta = e*(k+1) makes L1 coincide with L2
    dims = GridDims(27, 27)
    found = False
    for v in range(13):
        ctx = classify_corner(dims, K2, Residue(v, 13), Corner.NW)
        if ctx.case is CornerCase.SHALLOW_SLOPE and ctx.slope_l1 == ctx.slope_l2:
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
                ctx = classify_corner(dims, k, ell, corner)
                offsets[corner].add(ctx.s.i)
                out = _apply_plans(pts, [_corner_plan(ctx, dims, k)])
                assert is_dominating(dims, k, out), (kk, v, corner)
                assert len(out) == len(pts) - 1
        for corner, seen in offsets.items():
            assert len(seen) == p, (kk, corner)


def _paint(points, k, lo, shape):
    """Mask of the box of this shape at corner lo, marking the cells within distance k of a point.

    The box must hold every point's whole ball."""
    d = np.arange(-k, k + 1)
    di, dj = np.nonzero(np.abs(d[:, None]) + np.abs(d) <= k)
    ball = (di - k) * shape[1] + (dj - k)
    at = (points - lo) @ (shape[1], 1)
    mask = np.zeros(shape, dtype=bool)
    mask.reshape(-1)[(at[:, None] + ball).ravel()] = True
    return mask


def _stranded(kk, gone, new):
    """Cells of the frame quadrant i >= 0, j <= -k within k of a gone point and of no new point.

    Only the points' bounding box grown by k is painted.
    """
    both = np.concatenate((gone, new))
    lo, hi = both.min(axis=0) - kk, both.max(axis=0) + kk
    shape = tuple(hi - lo + 1)
    stranded = _paint(gone, kk, lo, shape) & ~_paint(new, kk, lo, shape)
    return stranded[max(-lo[0], 0):, :max(-kk - lo[1] + 1, 0)]


def test_corner_plans_keep_domination_locally_up_to_k20():
    # Certificate of the corner step for k <= 20.  A quarter turn maps the
    # Lee lattice L = {(k+1)i + kj = 0 (mod p)} onto itself, so in its own
    # frame, with the north row of Y at j = 0, every corner of every grid
    # with m, n > 2p sees the code s + L for s = (si, 0), si in -k..p-1-k,
    # and its plan is a function of (k, si) alone.  The base set is a
    # perfect Lee code, so each grid cell is within k of exactly one of its
    # points.  A plan deletes code points (s and the sources) and inserts
    # non-code points (the targets), so the edited set dominates iff every
    # grid cell within k of a deleted point is within k of a target.  The
    # grid is the quadrant i >= 0, j <= -k: plans lie in columns -k..p-k
    # and rows -2p..0, so for m, n > 2p no ball around them passes the far
    # grid edges.
    for kk in range(1, 21):
        k = Radius(kk)
        p = k.p
        for si in range(-kk, p - kk):
            zj, _, case = _corner_shape(k, si)
            moves = _corner_moves(k, si, zj, case)
            gone = np.array([(si, 0), *moves], dtype=np.int64)
            new = np.array(list(moves.values()), dtype=np.int64).reshape(-1, 2)
            assert ((gone - (si, 0)) @ (kk + 1, kk) % p == 0).all(), (kk, si)
            assert ((new - (si, 0)) @ (kk + 1, kk) % p != 0).all(), (kk, si)
            stranded = _stranded(kk, gone, new)
            assert not stranded.any(), (kk, si, case)


def test_frame_rotations_match_the_explicit_maps():
    rng = random.Random(41)
    for kk in range(1, 6):
        k = Radius(kk)
        p = k.p
        for _ in range(3):
            m, n = rng.randint(2 * p + 1, 5 * p), rng.randint(2 * p + 1, 5 * p)
            explicit = {
                Corner.NW: lambda i, j: (i, j),
                Corner.NE: lambda i, j: (j, n - 1 - i),
                Corner.SW: lambda i, j: (m - 1 - j, i),
                Corner.SE: lambda i, j: (m - 1 - i, n - 1 - j),
            }
            height = {Corner.NW: n, Corner.NE: m, Corner.SW: m, Corner.SE: n}
            points = [(rng.randint(-3 * p, 3 * p), rng.randint(-3 * p, 3 * p)) for _ in range(20)]
            for v in range(p):
                ell = Residue(v, p)
                for corner in CORNER_ORDER:
                    fr = _Frame(corner, GridDims(m, n), k, ell)
                    for q in points:
                        assert tuple(fr.to_real(q)) == explicit[corner](*q), (kk, m, n, corner, q)
                    assert fr.north == height[corner] + kk - 1
                    first = next(i for i in range(-kk, p - kk) if phi(k, fr.to_real((i, fr.north))) == ell)
                    assert fr.si == first, (kk, m, n, v, corner)


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


def test_construct_checks_domination_once_at_the_end(monkeypatch):
    kernel = gridmodel._multiplicity
    calls = []

    def counted(*args):
        calls.append(args[0])
        return kernel(*args)

    for module in (gridmodel, construction):  # wherever the kernel is bound
        monkeypatch.setattr(module, "_multiplicity", counted, raising=False)
    for dims, k in ((GridDims(30, 31), K1), (GridDims(30, 31), K2), (GridDims(53, 54), K3)):
        calls.clear()
        construct(dims, k)
        assert calls == [dims]
    # at k=2 the NW corner of 30x31 is steep and the NE corner shallow
    dims, plan = GridDims(30, 31), construction._plan
    for dropped, case in ((Corner.NW, CornerCase.STEEP_SLOPE), (Corner.NE, CornerCase.SHALLOW_SLOPE)):
        monkeypatch.setattr(construction, "_plan", lambda fr, ctx: (
            plan(fr, ctx)._replace(moves=()) if ctx.corner is dropped else plan(fr, ctx)))
        with pytest.raises(VerificationError, match="constructed set fails domination") as err:
            construct(dims, K2)
        trace = err.value.trace
        assert trace.corner_removal_applied
        assert [ctx.corner for ctx in trace.corner_cases] == list(CORNER_ORDER)
        assert trace.corner_cases[CORNER_ORDER.index(dropped)].case is case
        edited = set(base_set(dims, K2, trace.chosen_residue)) - set(trace.removed)
        edited = (edited - {src for src, _ in trace.shifted_pairs}) | {dst for _, dst in trace.shifted_pairs}
        points = [tuple(q) for q in project_inward(dims, VertexSet.from_iterable(edited))]
        assert len(points) == trace.final_size
        want = brute_uncovered(dims.m, dims.n, 2, points)
        assert want and [tuple(q) for q in err.value.uncovered] == want


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
    with pytest.raises(DomainError):
        classify_corner(GridDims(27, 27), K2, Residue(0, 25), Corner.NW)


def test_remove_corners_rejects_wrong_set():
    dims = GridDims(27, 27)
    ell = Residue(4, 13)
    with pytest.raises(CornerOverlapError):
        remove_corners(dims, K2, ell, VertexSet.from_iterable([(0, 0)]))


def test_verification_failure_carries_uncovered(monkeypatch):
    import dataclasses

    from kdom import VerificationError

    dims = GridDims(27, 27)
    ell = Residue(12, 13)  # a genuinely shallow corner
    ctx = classify_corner(dims, K2, ell, Corner.NW)
    forged = dataclasses.replace(ctx, case=CornerCase.STEEP_SLOPE)
    classify = construction._classify
    monkeypatch.setattr(construction, "_classify",
                        lambda fr: forged if fr.corner is Corner.NW else classify(fr))
    pts = base_set(dims, K2, ell)
    with pytest.raises(VerificationError, match="NW corner shift broke domination") as err:
        remove_corners(dims, K2, ell, pts, verify=True)
    assert len(err.value.uncovered) > 0
    # the vertex due south of s is the one the wrong case strands
    assert (7, 26) in {tuple(q) for q in err.value.uncovered}



def _reference_apply_plan(points, plan):
    """The set-based corner edit, kept as the reference for the array version."""
    current = set(points)
    if plan.removed not in current:
        raise CornerOverlapError(f"corner point {plan.removed} missing; set does not match the plan")
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


def _outcome(apply, points, plan):
    try:
        return apply(points, plan)
    except CornerOverlapError as exc:
        return str(exc)


def test_apply_plan_matches_the_set_reference():
    import random

    rng = random.Random(23)

    def pt():
        return LatticePoint(rng.randint(-3, 4), rng.randint(-3, 4))

    outcomes = set()
    for _ in range(3000):
        pts = VertexSet.from_iterable(pt() for _ in range(rng.randint(0, 30)))
        pool = list(pts) or [pt()]
        plan = _CornerPlan(
            removed=rng.choice(pool) if rng.random() < 0.9 else pt(),
            moves=tuple(
                (rng.choice(pool) if rng.random() < 0.85 else pt(), pt())
                for _ in range(rng.randint(0, 5))
            ),
        )
        want = _outcome(_reference_apply_plan, pts, plan)
        assert _outcome(lambda s, q: _apply_plans(s, [q]), pts, plan) == want, (pts, plan)
        outcomes.add(" ".join(want.split()[:2]) if isinstance(want, str) else "ok")
    assert outcomes == {"ok", "corner point", "shift source", "shift target"}


def test_apply_plan_rejects_missing_source_and_colliding_target():
    pts = VertexSet.from_iterable([(0, 0), (3, 0), (1, 2)])
    missing = _CornerPlan(LatticePoint(0, 0), ((LatticePoint(3, 0), LatticePoint(4, 0)),
                                              (LatticePoint(2, 2), LatticePoint(2, 3))))
    with pytest.raises(CornerOverlapError, match=r"shift source LatticePoint\(i=2, j=2\) missing"):
        _apply_plans(pts, [missing])
    collides = _CornerPlan(LatticePoint(0, 0), ((LatticePoint(3, 0), LatticePoint(1, 2)),))
    with pytest.raises(CornerOverlapError, match=r"shift target LatticePoint\(i=1, j=2\) collides"):
        _apply_plans(pts, [collides])
    moved = _apply_plans(pts, [_CornerPlan(LatticePoint(0, 0), ((LatticePoint(3, 0), LatticePoint(0, 2)),))])
    assert list(moved) == [LatticePoint(0, 2), LatticePoint(1, 2)]


def _one_by_one(points, plans):
    for plan in plans:
        points = _apply_plans(points, [plan])
    return points


def test_apply_plans_in_one_edit_equals_one_plan_at_a_time():
    # the four corner plans of real bases, whose north and south row bands
    # are apart even at m, n = 2p + 1; the random plans below also merge
    for kk in (1, 2, 3):
        k = Radius(kk)
        p = k.p
        for m, n in ((2 * p + 1, 2 * p + 1), (2 * p + 2, 2 * p + 3), (3 * p, 3 * p + 1), (5 * p + 2, 4 * p)):
            dims = GridDims(m, n)
            for v in range(0, p, max(1, p // 6)):
                ell = Residue(v, p)
                base = base_set(dims, k, ell)
                plans = [_corner_plan(classify_corner(dims, k, ell, c), dims, k) for c in CORNER_ORDER]
                assert _apply_plans(base, plans) == _one_by_one(base, plans)


def test_apply_plans_reports_the_fault_of_the_first_plan_that_does_not_fit():
    rng = random.Random(31)
    universe = [LatticePoint(i, j) for i in range(-3, 9) for j in range(-3, 9)]
    outcomes, apart = set(), set()
    for _ in range(1500):
        rng.shuffle(universe)
        pts = VertexSet.from_iterable(universe[:rng.randint(0, 60)])
        inside = [q for q in universe if q in pts]
        outside = [q for q in universe if q not in pts]

        def draw(usual, other, p_usual):
            pool = usual if usual and (rng.random() < p_usual or not other) else other
            return pool.pop()

        plans = []
        for _ in range(rng.randint(1, 4)):  # points are popped, so the plans are disjoint
            if len(inside) + len(outside) < 11:
                break
            removed = draw(inside, outside, 0.95)
            moves = tuple((draw(inside, outside, 0.95), draw(outside, inside, 0.95))
                          for _ in range(rng.randint(0, 5)))
            plans.append(_CornerPlan(removed, moves))
        want = _outcome(_one_by_one, pts, plans)
        assert _outcome(_apply_plans, pts, plans) == want, (pts, plans)
        outcomes.add(" ".join(want.split()[:2]) if isinstance(want, str) else "ok")
        rows = sorted({q.j for plan in plans for q in plan.touched()})
        apart.add(max(np.diff(rows), default=1) > 1)  # some row between the two bands
    assert outcomes == {"ok", "corner point", "shift source", "shift target"}
    assert apart == {True, False}


def _reference_remove_corners(dims, k, ell, points):
    """The corners one at a time, each edit followed by a whole-grid check."""
    current = points
    for corner in CORNER_ORDER:
        ctx = classify_corner(dims, k, ell, corner)
        current = _reference_apply_plan(current, _corner_plan(ctx, dims, k))
        uncovered = verify_domination(dims, k, current).uncovered
        if len(uncovered):
            raise VerificationError(
                f"{corner.value} corner shift broke domination ({len(uncovered)} uncovered)",
                uncovered=uncovered,
            )
    return current


def _removal_outcome(remove, dims, k, ell, points):
    try:
        out = remove(dims, k, ell, points)
    except (CornerOverlapError, VerificationError) as exc:
        uncovered = getattr(exc, "uncovered", None)
        return type(exc).__name__, str(exc), None if uncovered is None else uncovered.array.tolist()
    if isinstance(out, tuple):  # remove_corners: the trace must list the same plans
        out, trace = out
        plans = [_corner_plan(ctx, dims, k) for ctx in trace.corner_cases]
        assert [ctx.corner for ctx in trace.corner_cases] == list(CORNER_ORDER)
        assert trace.removed == VertexSet.from_iterable(plan.removed for plan in plans)
        assert trace.shifted_pairs == tuple(move for plan in plans for move in plan.moves)
        assert (trace.base_size, trace.final_size) == (len(points), len(out))
    return "ok", out.array.tolist()


def test_remove_corners_matches_the_corner_by_corner_reference():
    rng = random.Random(37)
    # dropping base points 8 and 60 and adding (35, 19) on 52x53 at k=3
    # breaks the NW check before the NE plan, which no longer fits, is reached
    cases = [(GridDims(52, 53), K3, (8, 60), [(35, 19)])]
    for _ in range(300):
        k = Radius(rng.randint(1, 3))
        p = k.p
        dims = GridDims(rng.randint(2 * p + 1, 3 * p), rng.randint(2 * p + 1, 3 * p))
        ell, _ = best_residue(dims, k)
        size = len(base_set(dims, k, ell))
        plans = [_corner_plan(classify_corner(dims, k, ell, c), dims, k) for c in CORNER_ORDER]
        near = sorted(set().union(*(plan.touched() for plan in plans)))
        drops = tuple(rng.randrange(size) for _ in range(rng.randint(0, 3)))
        adds = [rng.choice(near) if rng.random() < 0.5 else
                (rng.randint(-2 * k.k, dims.m + 2 * k.k), rng.randint(-2 * k.k, dims.n + 2 * k.k))
                for _ in range(rng.randint(0, 3))]
        cases.append((dims, k, drops, adds))
    kinds = []
    for dims, k, drops, adds in cases:
        ell, _ = best_residue(dims, k)
        base = base_set(dims, k, ell)
        points = VertexSet.from_iterable([q for t, q in enumerate(base) if t not in drops] + adds)
        want = _removal_outcome(_reference_remove_corners, dims, k, ell, points)
        assert _removal_outcome(remove_corners, dims, k, ell, points) == want, (dims, k, drops, adds)
        kinds.append(want[0] if want[0] != "CornerOverlapError" else " ".join(want[1].split()[:2]))
    assert kinds[0] == "VerificationError"
    assert set(kinds) == {"ok", "VerificationError", "corner point", "shift source", "shift target"}


_coordinate = st.one_of(st.integers(-12, 20), st.sampled_from([10 ** 30, -(10 ** 30), 2 ** 63]))


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    pts=st.lists(st.tuples(_coordinate, _coordinate), max_size=40),
)
def test_projection_matches_clip_and_lexsort(m, n, pts):
    s = VertexSet.from_iterable(pts)
    clipped = np.clip(s.array, 0, (m - 1, n - 1)).astype(np.int64)
    clipped = clipped[np.lexsort((clipped[:, 0], clipped[:, 1]))]
    first = np.ones(len(clipped), dtype=bool)
    first[1:] = (clipped[1:] != clipped[:-1]).any(axis=1)
    got = project_inward(GridDims(m, n), s)
    merged = len(s) - len(got)  # what construct records as projection_merged
    assert got.array.dtype == np.int64
    assert got.array.tobytes() == clipped[first].tobytes()
    assert merged == len(s) - int(first.sum())
