import random
from collections import deque

import pytest

from conftest import brute_dominates, brute_multiplicity, brute_uncovered
from kdom import (
    Box,
    GridDims,
    LatticePoint,
    Radius,
    Residue,
    VertexSet,
    DomainError,
    grid_box,
    grid_distance,
    inverse_image_in_box,
    is_dominating,
    neighborhood_box,
    verify_domination,
)
from kdom.gridmodel import _multiplicity


def bfs_distance(m, n, a, b):
    """Plain BFS over the explicit grid adjacency; oracle for grid_distance."""
    seen = {a: 0}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        if v == b:
            return seen[v]
        i, j = v
        for w in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if 0 <= w[0] < m and 0 <= w[1] < n and w not in seen:
                seen[w] = seen[v] + 1
                queue.append(w)
    raise AssertionError("grid is connected")


@pytest.mark.parametrize(
    "dims,box",
    [((6, 6), (0, 5, 0, 5)), ((1, 1), (0, 0, 0, 0)), ((51, 52), (0, 50, 0, 51))],
)
def test_grid_box(dims, box):
    assert grid_box(GridDims(*dims)) == Box(*box)


def test_neighborhood_box():
    b = neighborhood_box(GridDims(6, 6), Radius(3))
    assert b == Box(-3, 8, -3, 8)
    assert b.area == 144
    assert neighborhood_box(GridDims(1, 1), Radius(1)).area == 9
    assert neighborhood_box(GridDims(51, 52), Radius(3)).area == 57 * 58 == 3306


def test_dims_validation():
    with pytest.raises(DomainError):
        GridDims(0, 4)
    with pytest.raises(DomainError):
        GridDims(4, -1)


def test_grid_distance_basics():
    assert grid_distance(LatticePoint(0, 0), LatticePoint(0, 0)) == 0
    assert grid_distance(LatticePoint(0, 0), LatticePoint(2, 3)) == 5


def test_grid_distance_matches_bfs():
    rng = random.Random(99)
    for _ in range(30):
        a = (rng.randrange(7), rng.randrange(7))
        b = (rng.randrange(7), rng.randrange(7))
        assert grid_distance(LatticePoint(*a), LatticePoint(*b)) == bfs_distance(7, 7, a, b)


def test_grid_distance_is_a_metric():
    rng = random.Random(5)
    for _ in range(200):
        pts = [LatticePoint(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(3)]
        a, b, c = pts
        assert grid_distance(a, b) == grid_distance(b, a)
        assert grid_distance(a, b) >= 0
        assert grid_distance(a, c) <= grid_distance(a, b) + grid_distance(b, c)
        assert (grid_distance(a, b) == 0) == (a == b)


def test_path_center_covers():
    # the center of a 5-path covers everything at radius 2 (both orientations)
    rep = verify_domination(GridDims(5, 1), Radius(2), VertexSet.from_iterable([(2, 0)]))
    assert len(rep.uncovered) == 0
    rep = verify_domination(GridDims(1, 5), Radius(2), VertexSet.from_iterable([(0, 2)]))
    assert len(rep.uncovered) == 0
    # the ends sit at distance exactly 2: at radius 1 they are the only gaps
    rep = verify_domination(GridDims(1, 5), Radius(1), VertexSet.from_iterable([(0, 2)]))
    assert [tuple(q) for q in rep.uncovered] == brute_uncovered(1, 5, 1, [(0, 2)]) == [(0, 0), (0, 4)]


def test_single_cell_grid():
    assert is_dominating(GridDims(1, 1), Radius(1), VertexSet.from_iterable([(0, 0)]))


def test_full_pipeline_output_verifies_30x30_k2():
    from kdom import construct

    dims, k = GridDims(30, 30), Radius(2)
    pts, _ = construct(dims, k)
    assert is_dominating(dims, k, pts)


def test_2x2_corner_misses_diagonal():
    rep = verify_domination(GridDims(2, 2), Radius(1), VertexSet.from_iterable([(0, 0)]))
    assert [tuple(q) for q in rep.uncovered] == [(1, 1)]
    assert rep.covered_count == 3
    assert not is_dominating(GridDims(2, 2), Radius(1), VertexSet.from_iterable([(0, 0)]))


def test_empty_set_everything_uncovered():
    rep = verify_domination(GridDims(3, 4), Radius(2), VertexSet.empty())
    assert rep.covered_count == 0
    assert len(rep.uncovered) == 12
    assert rep.multiplicity_histogram == {0: 12}


def test_report_counts_add_up():
    rng = random.Random(11)
    for _ in range(25):
        m, n, k = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 3)
        pts = VertexSet.from_iterable(
            (rng.randint(-k, m + k - 1), rng.randint(-k, n + k - 1))
            for _ in range(rng.randint(0, 6))
        )
        rep = verify_domination(GridDims(m, n), Radius(k), pts)
        assert rep.covered_count + len(rep.uncovered) == m * n
        assert sum(rep.multiplicity_histogram.values()) == m * n
        assert rep.covered_count == m * n - len(brute_uncovered(m, n, k, pts))
        # cross-check against the dumb oracle
        assert [tuple(q) for q in rep.uncovered] == brute_uncovered(m, n, k, pts)


def test_verifier_matches_brute_force_with_outside_dominators():
    rng = random.Random(21)
    for _ in range(25):
        m, n, k = rng.randint(2, 8), rng.randint(2, 8), rng.randint(1, 3)
        pts = VertexSet.from_iterable(
            (rng.randint(-2 * k, m + 2 * k), rng.randint(-2 * k, n + 2 * k))
            for _ in range(rng.randint(1, 7))
        )
        assert is_dominating(GridDims(m, n), Radius(k), pts) == brute_dominates(m, n, k, pts)


def test_monotone_in_added_points():
    rng = random.Random(31)
    for _ in range(40):
        m, n, k = rng.randint(2, 10), rng.randint(2, 10), rng.randint(1, 3)
        pts = [(rng.randrange(m), rng.randrange(n)) for _ in range(rng.randint(0, 5))]
        before = len(verify_domination(GridDims(m, n), Radius(k),
                                       VertexSet.from_iterable(pts)).uncovered)
        pts.append((rng.randrange(m), rng.randrange(n)))
        after = len(verify_domination(GridDims(m, n), Radius(k),
                                      VertexSet.from_iterable(pts)).uncovered)
        assert after <= before


def test_far_points_do_not_change_report():
    dims, k = GridDims(4, 5), Radius(2)
    near = VertexSet.from_iterable([(1, 1), (-2, 4)])
    with_far = VertexSet.from_iterable(list(near) + [(-3, 0), (100, 100), (0, -40)])
    assert verify_domination(dims, k, near) == verify_domination(dims, k, with_far)


def test_fiber_in_margin_box_always_dominates():
    # the fiber restricted to the k-margin box dominates the grid
    rng = random.Random(41)
    for _ in range(30):
        k = rng.randint(1, 4)
        p = Radius(k).p
        dims = GridDims(rng.randint(1, 3 * p), rng.randint(1, 3 * p))
        ell = Residue(rng.randrange(p), p)
        pts = inverse_image_in_box(Radius(k), ell, neighborhood_box(dims, Radius(k)))
        assert is_dominating(dims, Radius(k), pts), (k, dims, ell)


def test_multiplicity_matches_brute_ball_count():
    # dominators anywhere: inside the grid, in the k-margin, and beyond it
    rng = random.Random(51)
    for _ in range(60):
        m, n, k = rng.randint(1, 10), rng.randint(1, 10), rng.randint(1, 5)
        pts = VertexSet.from_iterable(
            (rng.randint(-3 * k, m + 3 * k), rng.randint(-3 * k, n + 3 * k))
            for _ in range(rng.randint(0, 15))
        )
        want = brute_multiplicity(m, n, k, pts)
        mult = _multiplicity(GridDims(m, n), Radius(k), pts)
        assert mult.shape == (m, n)
        assert {(i, j): int(mult[i, j]) for j in range(n) for i in range(m)} == want
        hist = {}
        for c in want.values():
            hist[c] = hist.get(c, 0) + 1
        assert verify_domination(GridDims(m, n), Radius(k), pts).multiplicity_histogram == hist


def test_coordinates_beyond_int64_are_ignored():
    pts = VertexSet.from_iterable([(1, 1), (10 ** 30, 0), (0, -(10 ** 30))])
    rep = verify_domination(GridDims(3, 3), Radius(1), pts)
    assert [tuple(q) for q in rep.uncovered] == brute_uncovered(3, 3, 1, [(1, 1)])
