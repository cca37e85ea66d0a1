import random
from collections import deque

import numpy as np
import pytest

from conftest import brute_multiplicity, brute_uncovered
from kdom import (
    Box,
    GridDims,
    Radius,
    VertexSet,
    DomainError,
    base_set,
    best_residue,
    is_dominating,
    neighborhood_box,
    verify_domination,
)
from kdom import gridmodel
from kdom.gridmodel import MAX_DENSE_CELLS, _multiplicity, check_dense_size
from kdom.lattice import COORD_LIMIT, MAX_RADIUS


def bfs_distance(m, n, a, b):
    """Plain BFS over the explicit grid adjacency."""
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


def test_neighborhood_box():
    b = neighborhood_box(GridDims(6, 6), Radius(3))
    assert b == Box(-3, 8, -3, 8)
    assert (b.width, b.height) == (12, 12)
    b = neighborhood_box(GridDims(1, 1), Radius(1))
    assert (b.width, b.height) == (3, 3)
    b = neighborhood_box(GridDims(51, 52), Radius(3))
    assert (b.width, b.height) == (57, 58)


@pytest.mark.parametrize("dims", [GridDims(2 ** 31, 1), GridDims(1, 2 ** 31), GridDims(2 ** 31 - 1, 7)],
                         ids=lambda d: f"{d.m}x{d.n}")
def test_box_side_cap_is_reached_through_the_pipeline(dims):
    # the grid fits the cap, its k = 1 margin box does not
    k = Radius(1)
    for stage in (lambda: neighborhood_box(dims, k), lambda: best_residue(dims, k),
                  lambda: base_set(dims, k, 0)):
        with pytest.raises(DomainError) as refused:
            stage()
        assert str(refused.value) == "box side exceeds the supported cap 2147483648"
    assert neighborhood_box(GridDims(2 ** 31 - 2, 1), k) == Box(-1, 2 ** 31 - 2, -1, 1)


def test_dims_validation():
    with pytest.raises(DomainError):
        GridDims(0, 4)
    with pytest.raises(DomainError):
        GridDims(4, -1)
    for m, n in ((30.5, 31), (30, 31.0), (True, 40), (30, False), ("30", 31), (np.int64(30), 31)):
        with pytest.raises(DomainError, match="must be integers"):
            GridDims(m, n)


def test_grid_distance_basics():
    assert bfs_distance(7, 7, (0, 0), (0, 0)) == 0
    assert bfs_distance(7, 7, (0, 0), (2, 3)) == 5


def test_grid_distance_matches_bfs():
    # graph distance on the grid is |di| + |dj|: the oracles in conftest rely on it
    rng = random.Random(99)
    for _ in range(30):
        a = (rng.randrange(7), rng.randrange(7))
        b = (rng.randrange(7), rng.randrange(7))
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == bfs_distance(7, 7, a, b)


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


def _multiplicity_cases():
    # dominators anywhere: inside the grid, in the k-margin, and beyond it
    rng = random.Random(51)
    for _ in range(60):
        m, n, k = rng.randint(1, 10), rng.randint(1, 10), rng.randint(1, 5)
        yield m, n, k, VertexSet.from_iterable(
            (rng.randint(-3 * k, m + 3 * k), rng.randint(-3 * k, n + 3 * k))
            for _ in range(rng.randint(0, 15))
        )
    # k far larger than the grid
    rng = random.Random(52)
    for _ in range(30):
        m, n, k = rng.randint(1, 10), rng.randint(1, 10), rng.randint(6, 40)
        yield m, n, k, VertexSet.from_iterable(
            (rng.randint(-3 * k, m + 3 * k), rng.randint(-3 * k, n + 3 * k))
            for _ in range(rng.randint(0, 15))
        )
    for m, n in ((1, 1), (1, 3)):
        k = MAX_RADIUS
        edge = [(-k, 0), (m + k - 1, n - 1), (0, -k), (m - 1, n + k - 1), (-k - 1, 0), (0, n + k),
                (-k, -k), (m + k - 1, n + k - 1), (-k // 2, n + k // 2), (m - 1, -k // 3)]
        yield m, n, k, VertexSet.from_iterable(edge)
        yield m, n, k, VertexSet.from_iterable(
            (rng.randint(-2 * k, m + 2 * k), rng.randint(-2 * k, n + 2 * k)) for _ in range(20)
        )
    # paths: 1 x n and m x 1, with dominators on and off the path
    rng = random.Random(53)
    for m, n in ((1, 17), (17, 1), (1, 2), (2, 1), (1, 40), (40, 1)):
        for k in (1, 2, 5):
            yield m, n, k, VertexSet.from_iterable(
                (rng.randint(-2 * k, m + 2 * k), rng.randint(-2 * k, n + 2 * k))
                for _ in range(rng.randint(0, 8))
            )
    # dense sets: every cell of the k-padded box, and every cell of the grid
    for m, n, k in ((1, 1, 1), (1, 6, 2), (4, 3, 1), (7, 5, 3), (3, 8, 5), (10, 9, 2), (12, 1, 2), (1, 11, 3)):
        box = neighborhood_box(GridDims(m, n), Radius(k))
        yield m, n, k, VertexSet.from_iterable(
            (i, j) for j in range(box.j_lo, box.j_hi + 1) for i in range(box.i_lo, box.i_hi + 1)
        )
        yield m, n, k, VertexSet.from_iterable((i, j) for j in range(n) for i in range(m))


def test_multiplicity_matches_brute_ball_count(monkeypatch):
    for m, n, k, pts in _multiplicity_cases():
        want = brute_multiplicity(m, n, k, pts)
        hist = {}
        for c in want.values():
            hist[c] = hist.get(c, 0) + 1
        # the real chunk, then chunks of one point and of a few points, so
        # that the scatter takes more than one step
        previous = None
        for chunk in (gridmodel.SCATTER_CHUNK, 1, 9):
            monkeypatch.setattr(gridmodel, "SCATTER_CHUNK", chunk)
            mult = _multiplicity(GridDims(m, n), Radius(k), pts)
            assert mult.shape == (m, n) and mult.dtype == np.int32
            # its callers only read it, so it is a view of the call's own difference array, not a copy
            assert mult.base is not None and (previous is None or not np.shares_memory(mult, previous))
            previous = mult
            assert {(i, j): int(mult[i, j]) for j in range(n) for i in range(m)} == want, (m, n, k, chunk)
            assert verify_domination(GridDims(m, n), Radius(k), pts).multiplicity_histogram == hist


def test_whole_report_matches_brute_force():
    reached_p = empty = False
    for m, n, k, pts in _multiplicity_cases():
        counts = brute_multiplicity(m, n, k, pts)
        hist = {c: list(counts.values()).count(c) for c in sorted(set(counts.values()))}
        rep = verify_domination(GridDims(m, n), Radius(k), pts)
        uncovered = brute_uncovered(m, n, k, pts)
        assert rep.covered_count == m * n - hist.get(0, 0), (m, n, k)
        assert [tuple(q) for q in rep.uncovered] == uncovered, (m, n, k)
        assert is_dominating(GridDims(m, n), Radius(k), pts) == (not uncovered), (m, n, k)
        assert rep.uncovered.array.dtype == np.int64
        assert list(rep.multiplicity_histogram.items()) == list(hist.items()), (m, n, k)
        assert all(type(v) is int for v in (rep.covered_count, *rep.multiplicity_histogram.values()))
        reached_p |= max(hist) == Radius(k).p
        empty |= len(pts) == 0
    assert reached_p and empty


def test_coordinates_at_the_limit_are_ignored():
    pts = VertexSet.from_iterable([(1, 1), (COORD_LIMIT - 1, 0), (0, 1 - COORD_LIMIT)])
    rep = verify_domination(GridDims(3, 3), Radius(1), pts)
    assert [tuple(q) for q in rep.uncovered] == brute_uncovered(3, 3, 1, [(1, 1)])


def test_dense_verifier_cap_raises_before_allocating():
    with pytest.raises(DomainError, match="verifier cells"):
        _multiplicity(GridDims(2 ** 31, 2 ** 31), Radius(1), VertexSet.from_iterable([(0, 0)]))


def test_dense_verifier_cap_admits_8000x8001_at_k5():
    k = Radius(5)
    assert (8000 + 2 * k.k) * (8001 + 2 * k.k + 1) <= MAX_DENSE_CELLS
    check_dense_size(GridDims(8000, 8001), k)
    with pytest.raises(DomainError):
        check_dense_size(GridDims(MAX_DENSE_CELLS, 1), Radius(1))
