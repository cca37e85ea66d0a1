import copy
import pickle
import random
import sys
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corner_certificate
from conftest import brute_uncovered, count_in_box
from corner_certificate import certify
from kdom import (
    DomainError,
    GridDims,
    Radius,
    VerificationError,
    VertexSet,
    base_set,
    best_residue,
    construct,
    exact_gamma,
    is_dominating,
    neighborhood_box,
    project_inward,
    remove_corners,
    verify_domination,
)
from kdom import construction, gridmodel, lattice
from kdom.cli import trace_lines
from kdom.construction import (
    CERTIFIED_K,
    CORNER_ORDER,
    CornerContext,
    ShiftedPairs,
    _apply_plans,
    _corner,
    _corner_moves,
    _corner_shape,
    _corner_step,
    _frame_plan,
)
from kdom.lattice import COORD_LIMIT, pairs_of_keys, phi, settle

K1, K2, K3 = Radius(1), Radius(2), Radius(3)


# One corner's plan, in real coordinates: the removed (i, j) tuple and an (N, 4) int64 array of
# (i, j, u, v) moves, sorted row-major by source.  _corner_step stacks the four corners' plans.
_Plan = namedtuple("_Plan", "removed moves")


def _classify_corner(dims, k, ell, corner):
    """Locate s and z for one corner of a grid and classify the slope of L1."""
    return _corner_step(dims, k, ell)[0][CORNER_ORDER.index(corner)]


def _corner_plan(ctx, dims, k, ell):
    """The plan of one classified corner, in real coordinates."""
    _, row, offsets = _corner(ctx.corner, dims, k, ell)
    return _Plan(row[:2], offsets + row[2:])


def _apply(dims, k, points, plans):
    """The library's corner edit without the clamp, as remove_corners runs it, of plans stacked in order.

    The points must lie in Y; each plan's removed point is deleted, and its
    sources move onto its targets.
    """
    removed = np.array([plan.removed for plan in plans], dtype=np.int64).reshape(-1, 2)
    moves = np.concatenate([plan.moves for plan in plans]).reshape(-1, 4)
    w = dims.m + 2 * k.k
    keys = (points.array + k.k) @ (1, w)  # Y keys
    keys[_apply_plans(dims, k, keys, removed, moves)] = -1
    return VertexSet(pairs_of_keys(settle(keys), w) - k.k)


def _slope(ctx):
    """The slope of L1, through z and s, or None where s = z."""
    (si, sj), (zi, zj) = ctx.s, ctx.z
    return None if ctx.s == ctx.z else Fraction(sj - zj, si - zi)


def _plan_moves(pairs):
    """A plan's moves array from (source, target) pairs, in the order given."""
    return np.array([(*src, *dst) for src, dst in pairs], dtype=np.int64).reshape(-1, 4)


def test_best_residue_51x52():
    ell, count = best_residue(GridDims(51, 52), K3)
    assert count <= 3306 // 25 == 132
    box = neighborhood_box(GridDims(51, 52), K3)
    counts = [count_in_box(K3, v, box) for v in range(25)]
    assert count == min(counts)
    assert ell == min(v for v, c in enumerate(counts) if c == count)


def _assert_best_residue_is_min_count(m, n, k):
    box = neighborhood_box(GridDims(m, n), k)
    counts = [count_in_box(k, v, box) for v in range(k.p)]
    ell, count = best_residue(GridDims(m, n), k)
    assert count == min(counts), (m, n, k)
    assert type(ell) is int and ell == counts.index(count), (m, n, k)  # ties go to the smallest residue


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


def test_base_set_known_6x6_fiber():
    # the 6x6, k=3 margin box meets the 0-residue fiber in exactly six
    # points; projection clamps the four outside ones onto the grid
    pts = base_set(GridDims(6, 6), K3, 0)
    assert {tuple(q) for q in pts} == {(0, 0), (4, 3), (-3, 4), (1, 7), (7, -1), (8, 6)}
    assert is_dominating(GridDims(6, 6), K3, pts)
    projected = project_inward(GridDims(6, 6), pts)
    assert {tuple(q) for q in projected} == {(0, 0), (5, 0), (4, 3), (0, 4), (1, 5), (5, 5)}
    assert is_dominating(GridDims(6, 6), K3, projected)


def test_base_set_always_dominates():
    # the fiber restricted to the k-margin box dominates the grid: fixed grids, then random ones
    for dims in (GridDims(1, 1), GridDims(4, 9), GridDims(13, 13), GridDims(40, 31)):
        for k in (K1, K2, K3):
            for v in range(0, k.p, max(1, k.p // 5)):
                pts = base_set(dims, k, v)
                assert is_dominating(dims, k, pts)
    rng = random.Random(41)
    for _ in range(30):
        k = Radius(rng.randint(1, 4))
        dims = GridDims(rng.randint(1, 3 * k.p), rng.randint(1, 3 * k.p))
        ell = rng.randrange(k.p)
        assert is_dominating(dims, k, base_set(dims, k, ell)), (k, dims, ell)


def test_project_inward_examples():
    dims = GridDims(6, 6)
    assert list(project_inward(dims, VertexSet.from_iterable([(-1, 3)]))) == [(0, 3)]
    assert list(project_inward(dims, VertexSet.from_iterable([(2, 2)]))) == [(2, 2)]
    assert list(project_inward(dims, VertexSet.from_iterable([(-2, 7)]))) == [(0, 5)]


def test_projection_merges_nothing_two_wide():
    # construct's no-merge argument, on the edited sets too: where m, n >= 2 the size is
    # best_residue's count, less 4 where corners were removed; 1-wide grids can merge
    for k in (K1, K2, K3):
        for m in range(2, 2 * k.p + 4):
            for n in range(2, 2 * k.p + 4):
                dims = GridDims(m, n)
                trace = construct(dims, k)[1]
                assert trace.projection_merged == 0, (k, m, n)
                assert trace.base_size == best_residue(dims, k)[1], (k, m, n)
                assert trace.final_size == trace.base_size - 4 * trace.corner_removal_applied, (k, m, n)
    for m in (3, 8):
        assert construct(GridDims(m, 1), K1)[1].projection_merged == 1, m


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
        _corner_step(GridDims(6, 6), K3, 0)
    with pytest.raises(DomainError, match="corner removal needs"):
        _corner_step(GridDims(100, 26), K2, 0)
    with pytest.raises(DomainError, match="corner removal needs"):
        _corner_step(GridDims(26, 100), K2, 0)


def test_classify_corner_cases_27x27_k2():
    dims = GridDims(27, 27)
    # residues chosen so the NW corner hits each case; values derived by
    # solving 3*s_i + 2*28 = ell (mod 13) for the boundary scan
    ctx = _classify_corner(dims, K2, 12, "NW")
    assert ctx.case == "shallow"
    assert _slope(ctx) == Fraction(1, 8)
    assert (tuple(ctx.s), tuple(ctx.z)) == ((7, 28), (-1, 27))

    ctx = _classify_corner(dims, K2, 11, "NW")
    assert ctx.case == "negative"
    assert _slope(ctx) == Fraction(-8, 1)

    ctx = _classify_corner(dims, K2, 1, "NW")
    assert ctx.case == "negative"
    assert _slope(ctx) is None  # s and z coincide on column -1
    assert ctx.s == ctx.z

    ctx = _classify_corner(dims, K2, 4, "NW")
    assert ctx.case == "steep"
    assert _slope(ctx) == Fraction(5, 1)


def test_slopes_are_exact_rationals():
    # the trace prints L1's slope exactly, and a corner is steep iff L1 rises faster than L2, of slope k/(k+1)
    dims = GridDims(27, 27)
    for ell in range(13):
        _, trace = remove_corners(dims, K2, ell, base_set(dims, K2, ell), verify=False)
        printed = dict(line.split("=", 1) for line in trace_lines(trace))
        for ctx in trace.corner_cases:
            slope = printed[f"corner_{ctx.corner}_slope_l1"]
            assert slope == ("none" if _slope(ctx) is None else str(_slope(ctx))), (ell, ctx)
            steep = slope != "none" and Fraction(slope) > Fraction(2, 3)
            assert steep == (ctx.case == "steep"), (ell, ctx)


def test_equality_shallow_slope_is_k_over_k_plus_1():
    # delta = e*(k+1) makes L1 coincide with L2
    dims = GridDims(27, 27)
    found = False
    for v in range(13):
        ctx = _classify_corner(dims, K2, v, "NW")
        if ctx.case == "shallow" and _slope(ctx) == Fraction(2, 3):
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
        for ell in range(p):
            pts = base_set(dims, k, ell)
            for corner in CORNER_ORDER:
                ctx = _classify_corner(dims, k, ell, corner)
                offsets[corner].add(ctx.s[0])
                out = _apply(dims, k, pts, [_corner_plan(ctx, dims, k, ell)])
                assert is_dominating(dims, k, out), (kk, ell, corner)
                assert len(out) == len(pts) - 1
        for corner, seen in offsets.items():
            assert len(seen) == p, (kk, corner)


def test_corner_plans_lie_in_the_edge_bands_of_y():
    # The premise of _corner_step's disjoint corner windows, in real coordinates:
    # every point a plan removes, moves or fills lies in Y's columns, and in Y's
    # north p rows (j >= n+k-p) at NW and NE, its south p rows (j < p-k)
    # at SW and SE.
    for kk in range(1, 9):
        k = Radius(kk)
        p = k.p
        for m, n in ((2 * p + 1, 2 * p + 2), (2 * p + 3, 3 * p + 2)):
            dims = GridDims(m, n)
            rows = {"NW": (n + kk - p, n + kk - 1), "NE": (n + kk - p, n + kk - 1),
                    "SW": (-kk, p - kk - 1), "SE": (-kk, p - kk - 1)}
            for v in range(p):
                contexts, removed, moves = _corner_step(dims, k, v)
                plans = [_corner_plan(ctx, dims, k, v) for ctx in contexts]
                assert removed.tolist() == [list(plan.removed) for plan in plans]
                assert (moves == np.concatenate([plan.moves for plan in plans])).all()
                for ctx, plan in zip(contexts, plans):
                    points = np.concatenate(([plan.removed], plan.moves.reshape(-1, 2)))
                    lo, hi = rows[ctx.corner]
                    assert (points.min(axis=0) >= (-kk, lo)).all(), (kk, m, n, v, ctx.corner)
                    assert (points.max(axis=0) <= (m + kk - 1, hi)).all(), (kk, m, n, v, ctx.corner)


def test_corner_plans_keep_domination_locally_up_to_k20():
    # corner_certificate's docstring gives the argument; a script run of it
    # certifies 21 <= k <= 48, the rest of the range where construct reaches
    # corner removal (test_corner_removal_reaches_k48_and_no_further)
    for kk in range(1, 21):
        assert certify(kk)[2] == [], kk


def test_certificate_script_reports_each_failure(monkeypatch, capsys):
    # the script's own report: one summary line per k, then one line per failing offset and check
    assert corner_certificate.main(["1", "2"]) == 0
    assert [line.rsplit(" ", 1)[1] for line in capsys.readouterr().out.splitlines()] == ["failures=0"] * 2
    moves_of = corner_certificate._corner_moves

    def no_lift(k, si, zj, case):  # a steep plan that leaves z = (-1, zj) where it is
        moves = moves_of(k, si, zj, case)
        if case == "steep":
            del moves[(-1, zj)]
        return moves

    monkeypatch.setattr(corner_certificate, "_corner_moves", no_lift)
    assert corner_certificate.main(["1", "2"]) == 1
    report = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  ")]
    assert report == [f"  si={si} case=steep: nothing stranded" for si in (0, 2, 0, 1, 3, 4, 6, 9)]


def test_a_cached_frame_plan_is_read_only():
    # the memo hands one array to every caller, so no caller may write to it
    for corner in CORNER_ORDER:
        moves = _frame_plan(corner, K2, 1)[2]  # s.i = 1 at k = 2 is steep: z and the points above it move
        assert len(moves)
        with pytest.raises(ValueError, match="read-only"):
            moves[0, 0] += 1
        ctx, _, offsets = _corner(corner, GridDims(30, 31), K2, 0)
        assert offsets is _frame_plan(corner, K2, ctx.s[0])[2]  # _corner hands out the cached array
    contexts, _, stacked = _corner_step(GridDims(30, 31), K2, 0)
    stacked[:] = 0  # the stacked plan is a translated copy of the cached ones
    assert all((_frame_plan(ctx.corner, K2, ctx.s[0])[2] != 0).any() for ctx in contexts)


def test_frame_plan_memo_stays_within_its_bound():
    _frame_plan.cache_clear()
    keys = [(corner, Radius(kk), si) for kk in range(1, 5) for si in range(-kk, Radius(kk).p - kk)
            for corner in CORNER_ORDER]
    assert len(keys) > 256
    for corner, k, si in keys:
        assert _frame_plan(corner, k, si)[:2] == _corner_shape(k, si)
        assert _frame_plan.cache_info().currsize <= 256
    info = _frame_plan.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (len(keys), 256, 256)


def _explicit_maps(m, n):
    """Each corner's frame -> real map written out, and the frame's north row of Y."""
    maps = {
        "NW": lambda i, j: (i, j),
        "NE": lambda i, j: (j, n - 1 - i),
        "SW": lambda i, j: (m - 1 - j, i),
        "SE": lambda i, j: (m - 1 - i, n - 1 - j),
    }
    height = {"NW": n, "NE": m, "SW": m, "SE": n}
    return maps, height


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
            return explicit[corner](q[0], q[1] + north)  # from the frame with north at j = 0

        si = next(i for i in range(-k.k, k.p - k.k) if phi(k, real((i, 0))) == ell)
        zj, case = _corner_shape(k, si)
        contexts.append(CornerContext(corner, (si, north), (-1, north + zj), case))
        removed.append(real((si, 0)))
        moves = [(real(a), real(b)) for a, b in _corner_moves(k, si, zj, case).items()]
        pairs += sorted(moves, key=lambda ab: (ab[0][1], ab[0][0]))
    return tuple(contexts), VertexSet.from_iterable(removed), tuple(pairs)


def test_corner_trace_matches_the_explicit_map_reference():
    for kk in range(1, 7):
        k = Radius(kk)
        p = k.p
        for m, n in ((2 * p + 1, 2 * p + 1), (3 * p + 2, 2 * p + 1), (2 * p + 3, 3 * p - 1)):
            dims = GridDims(m, n)
            for ell in range(p):
                _, trace = remove_corners(dims, k, ell, base_set(dims, k, ell), verify=False)
                contexts, removed, pairs = _reference_corner_trace(dims, k, ell)
                assert trace.corner_cases == contexts, (kk, m, n, ell)
                assert trace.removed == removed, (kk, m, n, ell)
                assert tuple(trace.shifted_pairs) == pairs, (kk, m, n, ell)
                assert all(type(q) is tuple and {type(c) for c in q} == {int} for pair in trace.shifted_pairs for q in pair)


def test_construct_brute_force_cross_check():
    # small grids where the dumb oracle is instant
    for dims, k in ((GridDims(11, 11), K1), (GridDims(13, 12), K1), (GridDims(8, 5), K2)):
        pts, _ = construct(dims, k)
        assert not brute_uncovered(dims.m, dims.n, k.k, [tuple(q) for q in pts])


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


def test_corner_removal_reaches_k48_and_no_further(monkeypatch):
    # the plans are certified for k <= CERTIFIED_K = 48 (test_corner_plans_keep_domination_locally_up_to_k20
    # and a recorded run of corner_certificate 21 48), and _corner_step refuses k = 49 on every path, whatever
    # the dense cap: raising the constant fails this test until the certificate covers the new k
    assert CERTIFIED_K == 48
    p = Radius(48).p
    _, trace = construct(GridDims(2 * p + 1, 2 * p + 1), Radius(48))
    assert trace.corner_removal_applied
    k = Radius(49)
    dims = GridDims(2 * k.p + 1, 2 * k.p + 1)  # 9803 x 9803, the smallest grid with corners at k = 49
    refused = "corner removal is certified only for k <= 48, got k=49"
    base = base_set(dims, k, 0)
    for verify in (False, True):
        with pytest.raises(DomainError, match=refused):
            remove_corners(dims, k, 0, base, verify=verify)
    with pytest.raises(DomainError, match="verifier cells"):  # construct checks the dense cap first
        construct(dims, k)
    monkeypatch.setattr(gridmodel, "MAX_DENSE_CELLS", 101_000_000)  # admits 100,055,536 cells
    with pytest.raises(DomainError, match=refused):
        construct(dims, k)


def test_construct_size_never_beats_exact_optimum():
    for m, n, k in ((2, 2, K1), (4, 4, K1), (3, 5, K2), (1, 7, K1)):
        dims = GridDims(m, n)
        pts, _ = construct(dims, k)
        assert exact_gamma(dims, k).gamma <= len(pts)


def test_remove_corners_rejects_wrong_set():
    dims = GridDims(27, 27)
    ell = 4
    with pytest.raises(DomainError, match=r"takes only base_set\(dims, k, ell\)"):
        remove_corners(dims, K2, ell, VertexSet.from_iterable([(0, 0)]))


def test_remove_corners_rejects_a_same_size_set_off_the_fiber_or_outside_y():
    # each set has the base set's size: one point leaves the fiber, or leaves Y along it
    dims = GridDims(27, 27)
    ell = 4
    base = base_set(dims, K2, ell)
    box = neighborhood_box(dims, K2)
    (fi, fj), *_, (li, lj) = base
    off_fiber = [q for q in base if q != (fi, fj)] + [(fi + 1, fj)]  # phi moves by k+1
    outside = [q for q in base if q != (li, lj)] + [(li + K2.p, lj)]  # phi is kept
    assert fi + 1 <= box.i_hi < li + K2.p
    for points in (off_fiber, outside):
        wrong = VertexSet.from_iterable(points)
        assert len(wrong) == len(base)
        for verify in (True, False):
            with pytest.raises(DomainError, match=r"takes only base_set\(dims, k, ell\)"):
                remove_corners(dims, K2, ell, wrong, verify=verify)


def test_verification_failure_carries_uncovered(monkeypatch):
    dims = GridDims(27, 27)
    ell = 12  # a genuinely shallow corner
    ctx = _classify_corner(dims, K2, ell, "NW")
    forged = ctx._replace(case="steep")
    # the steep moves of the NW corner, whose frame is the real plane
    (si, north), (_, zj) = ctx.s, ctx.z
    # in frame coordinates, offsets from the frame origin (0, north), as _corner gives them
    moves = _corner_moves(K2, si, zj - north, "steep")
    steep = _plan_moves(sorted(moves.items(), key=lambda pair: (pair[0][1], pair[0][0])))
    corner_of = construction._corner
    monkeypatch.setattr(construction, "_corner", lambda c, *args: (
        (forged, (si, north, 0, north, 0, north), steep) if c == "NW" else corner_of(c, *args)))
    pts = base_set(dims, K2, ell)
    with pytest.raises(VerificationError) as err:
        remove_corners(dims, K2, ell, pts, verify=True)
    assert len(err.value.uncovered) > 0
    assert str(err.value) == f"corner shifts broke domination ({len(err.value.uncovered)} uncovered)"
    # the vertex due south of s is the one the wrong case strands
    assert (7, 26) in {tuple(q) for q in err.value.uncovered}


def _reference_apply_plan(points, plan):
    """The set-based corner edit, kept as the reference for the array version."""
    moves = plan.moves.tolist()
    current = set(points) - {tuple(plan.removed), *((i, j) for i, j, _, _ in moves)}
    return VertexSet.from_iterable(current | {(u, v) for _, _, u, v in moves})


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
        plans.append(_Plan(inside.pop(), _plan_moves([(inside.pop(), outside.pop()) for _ in range(moves)])))
    return pts, plans


def test_apply_plan_moves_a_source_onto_a_free_target():
    pts = VertexSet.from_iterable([(0, 0), (3, 0), (1, 2)])
    moved = _apply(_BAND_DIMS, _BAND_K, pts, [_Plan((0, 0), np.array([(3, 0, 0, 2)], dtype=np.int64))])
    assert list(moved) == [(0, 2), (1, 2)]


def test_corner_edit_sorts_once_keys_out_of_order_at_few_points(monkeypatch):
    # ROADMAP aim 1: corner removal costs O(p^2) points per corner, never O(|S| log |S|).  construct
    # sorts its keys once, stably: timsort is linear on keys that are out of order at a number of
    # points that depends on k and the plans alone.  The clamp's 2k row joins break the order, and
    # each removed or shifted key at most with its two neighbours.  np.lexsort is seen through the
    # modules' np; every ndarray sort method, with a copy of the keys it gets, through a profile
    # hook, which also sees the sort inside np.sort, np.argsort and np.unique.
    sorted_keys = []

    class Recorder:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if name != "lexsort":
                return attr

            def lexsort(keys, *args, **kwargs):
                sorted_keys.append(np.array(keys[-1]))  # the primary key
                return attr(keys, *args, **kwargs)
            return lexsort

    def profile(frame, event, arg):
        if event == "c_call" and isinstance(getattr(arg, "__self__", None), np.ndarray) and arg.__name__ in (
                "sort", "argsort", "partition", "argpartition"):
            sorted_keys.append(arg.__self__.ravel().copy())

    dims, k = GridDims(1000, 1001), K3
    for module in (construction, lattice):
        monkeypatch.setattr(module, "np", Recorder())
    sys.setprofile(profile)
    try:
        built, trace = construct(dims, k)
    finally:
        sys.setprofile(None)
        monkeypatch.undo()
    large = [keys for keys in sorted_keys if len(keys) > len(trace.removed)]
    assert [len(keys) for keys in large] == [trace.base_size]
    descents = int(np.count_nonzero(large[0][1:] < large[0][:-1]))
    assert descents <= 2 * k.k + 2 * (len(trace.removed) + len(trace.shifted_pairs)) < trace.base_size // 100
    base = base_set(dims, k, trace.chosen_residue)
    plans = [_corner_plan(ctx, dims, k, trace.chosen_residue) for ctx in trace.corner_cases]
    assert built == project_inward(dims, _one_by_one(dims, k, base, plans))


def _one_by_one(dims, k, points, plans):
    for plan in plans:
        points = _apply(dims, k, points, [plan])
    return points


def test_apply_plans_matches_the_set_reference_plan_by_plan():
    # one to four plans per draw, single plans included, with every move count 0..5
    rng = random.Random(31)
    universe = [(i, j) for i in range(-3, 9) for j in range(-3, 9)]
    sizes, counts = set(), set()
    for _ in range(1500):
        pts, plans = _fitting_plans(rng, universe, rng.randint(1, 4))
        counts.add(len(plans))
        want = pts
        for plan in plans:
            want = _reference_apply_plan(want, plan)
            sizes.add(len(plan.moves))
        assert _apply(_BAND_DIMS, _BAND_K, pts, plans) == want, (pts, plans)
    assert (sizes, counts) == (set(range(6)), {1, 2, 3, 4})


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
        assert tuple(trace.shifted_pairs) == tuple(((i, j), (u, v)) for plan in plans for i, j, u, v in plan.moves.tolist())
        assert (trace.base_size, trace.final_size) == (len(base), len(out))
        # the plans are proved only for the base set, so any other set is refused
        near = sorted({q for plan in plans for q in (plan.removed, *map(tuple, plan.moves.reshape(-1, 2).tolist()))})
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


BENCH_GRIDS = tuple((GridDims(m, n), Radius(kk)) for m, n, kk in (
    *((m, n, 2) for m in range(27, 40) for n in range(27, 40)),
    (300, 301, 3), (350, 351, 5), (200, 201, 20), (150, 151, 40)))


def test_remove_corners_in_both_bench_forms_matches_construct_before_projection():
    # bench/run.py's staged pipeline, on every grid it builds and three more, against construct
    corners = set()
    for dims, k in ((GridDims(11, 11), K1), (GridDims(30, 31), K2), (GridDims(51, 52), K3), (GridDims(53, 54), K3),
                    *BENCH_GRIDS):
        ell, _ = best_residue(dims, k)
        base = base_set(dims, k, ell)
        built, built_trace = construct(dims, k)
        assert (built_trace.chosen_residue, built_trace.base_size) == (ell, len(base))
        corners.add(built_trace.corner_removal_applied)
        if not built_trace.corner_removal_applied:  # the bench projects the base set
            assert min(dims) <= 2 * k.p
            assert project_inward(dims, base) == built
            assert (built_trace.corner_cases, len(built_trace.removed), len(built_trace.shifted_pairs)) == (None, 0, 0)
            continue
        checked, trace = remove_corners(dims, k, ell, base)
        unchecked, unchecked_trace = remove_corners(dims, k, ell, base, verify=False)
        assert checked == unchecked
        assert project_inward(dims, checked) == built, (dims, k)
        assert trace == unchecked_trace
        before_projection = dict(projection_merged=0, final_size=len(checked))
        assert trace == built_trace._replace(**before_projection), (dims, k)
    assert corners == {True, False}


def test_shifted_pairs_is_a_read_only_value_that_iterates_as_pairs_of_ints():
    dims, k = GridDims(53, 54), K3
    _, trace = construct(dims, k)
    _, again = construct(dims, k)
    moves = trace.shifted_pairs
    assert type(moves) is ShiftedPairs and moves.array.dtype == np.int64 and moves.array.shape[1] == 4
    assert len(moves) == len(moves.array) > 0
    with pytest.raises(ValueError, match="read-only"):
        moves.array[0, 0] += 1
    pairs = list(moves)
    assert pairs == [((i, j), (u, v)) for i, j, u, v in moves.array.tolist()]
    assert {(type(pair), len(pair)) for pair in pairs} == {(tuple, 2)}
    assert {type(q) for pair in pairs for q in pair} == {tuple}
    assert {type(c) for pair in pairs for q in pair for c in q} == {int}
    # equal traces are equal, and hash equal, however they were built
    assert again is not trace and again.shifted_pairs.array is not moves.array
    assert again == trace and hash(again) == hash(trace) and hash(again.shifted_pairs) == hash(moves)
    assert moves != ShiftedPairs(moves.array[:-1].copy()) and moves != tuple(pairs)
    copies = [pickle.loads(pickle.dumps(moves, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in copies + [copy.copy(moves), copy.deepcopy(moves)]:
        assert type(back) is ShiftedPairs and back == moves and hash(back) == hash(moves)
        assert not back.array.flags.writeable
    # the constructor takes only (N, 4) int64 rows
    with pytest.raises(DomainError, match="a moves array is an int64 array, got int32"):
        ShiftedPairs(np.zeros((1, 4), dtype=np.int32))
    with pytest.raises(DomainError, match=r"a moves array is an \(N, 4\) array of \(i, j, u, v\) rows"):
        ShiftedPairs(np.zeros((1, 2), dtype=np.int64))


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
