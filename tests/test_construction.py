from fractions import Fraction

import pytest

from conftest import brute_dominates
from kdom import (
    CornerOverlapError,
    DomainError,
    GridDims,
    GridTooSmallError,
    LatticePoint,
    Radius,
    Residue,
    VertexSet,
    apply_corner_case,
    base_set,
    best_residue,
    classify_corner,
    construct,
    count_in_box,
    exact_gamma,
    is_dominating,
    neighborhood_box,
    new_bound,
    project_inward,
    remove_corners,
    verify_domination,
)
from kdom.construction import CORNER_ORDER, Corner, CornerCase

K1, K2, K3 = Radius(1), Radius(2), Radius(3)


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
    # Certificate of the corner step for k <= 8.  In its own frame a
    # corner sees the code s + L for one fixed lattice L, so its plan
    # depends only on the offset s.i of s along the north row of Y.  The
    # p residues give p distinct offsets at each corner, so these cases
    # cover every local corner configuration of each k.
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
                # verify=True raises VerificationError if domination broke
                out = apply_corner_case(ctx, pts, dims, k, verify=True)
                assert len(out) == len(pts) - 1
        for corner, seen in offsets.items():
            assert len(seen) == p, (kk, corner)


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


def test_apply_corner_case_rejects_wrong_set():
    dims = GridDims(27, 27)
    ell = Residue(4, 13)
    ctx = classify_corner(dims, K2, ell, Corner.NW)
    with pytest.raises(CornerOverlapError):
        apply_corner_case(ctx, VertexSet.from_iterable([(0, 0)]), dims, K2)


def test_verification_failure_carries_uncovered():
    import dataclasses

    from kdom import VerificationError

    dims = GridDims(27, 27)
    ell = Residue(12, 13)  # a genuinely shallow corner
    ctx = classify_corner(dims, K2, ell, Corner.NW)
    forged = dataclasses.replace(ctx, case=CornerCase.STEEP_SLOPE)
    pts = base_set(dims, K2, ell)
    with pytest.raises(VerificationError) as err:
        apply_corner_case(forged, pts, dims, K2)
    assert len(err.value.uncovered) > 0
    # the vertex due south of s is the one the wrong case strands
    assert (7, 26) in {tuple(q) for q in err.value.uncovered}

