import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_fiber, count_in_box
from kdom import (
    Box,
    DomainError,
    GridDims,
    Radius,
    VertexSet,
    phi,
    verify_domination,
)
from kdom.lattice import COORD_LIMIT, _as_pairs, fiber_counts_in_box, fiber_keys, inverse_image_in_box

TOP = COORD_LIMIT - 1  # the largest coordinate a set or a box may hold; -TOP the smallest


def test_modulus_is_sum_of_squares():
    assert [Radius(k).p for k in (1, 2, 3)] == [5, 13, 25]
    for k in range(1, 33):
        p = Radius(k).p
        assert p == k * k + (k + 1) * (k + 1)
        assert p % 2 == 1


@pytest.mark.parametrize(
    "k,point,expected",
    [
        (2, (0, 0), 0),
        (2, (1, 0), 3),
        (2, (-1, -1), 8),  # -5 mod 13, canonical nonnegative representative
    ],
)
def test_phi_examples(k, point, expected):
    res = phi(Radius(k), point)
    assert type(res) is int and res == expected


@pytest.mark.parametrize("make", [
    lambda: inverse_image_in_box(Radius(2), 2.0, Box(0, 12, 0, 0)),
    lambda: inverse_image_in_box(Radius(2), True, Box(0, 12, 0, 0)),
    lambda: inverse_image_in_box(Radius(2), Fraction(2), Box(0, 12, 0, 0)),
    lambda: inverse_image_in_box(Radius(2), np.int64(2), Box(0, 12, 0, 0)),
    lambda: Box(True, 3, 0, 3),
    lambda: Box(0, 3, 0.0, 3),
    lambda: phi(Radius(2), (1.5, 2)),  # would give 8.5
])
def test_residue_and_box_reject_fields_that_are_not_integers(make):
    with pytest.raises(DomainError, match="must be integers"):
        make()


def test_fiber_counts_in_box_match_per_residue_counts():
    rng = random.Random(321)
    cases = []
    for _ in range(300):
        k = Radius(rng.randint(1, 5))
        i_lo = rng.randint(-80, 40)
        j_lo = rng.randint(-80, 40)
        # heights past p exercise the whole-period shortcut
        cases.append((k, Box(i_lo, i_lo + rng.randint(0, 3 * k.p), j_lo, j_lo + rng.randint(0, 3 * k.p))))
    # corners at the coordinate limit, which inverse_image_in_box accepts too
    cases += [(Radius(1), Box(TOP - 2, TOP, 4, 4)), (Radius(1), Box(-TOP, 2 - TOP, 0, 0))]

    def near(edge, span):
        """The low end of a span-long side that lies within 3p + 40 of edge, inside the limit."""
        return edge - span - rng.randint(0, 3 * k.p + 40) if edge > 0 else edge + rng.randint(0, 3 * k.p + 40)

    for edge in (TOP, -TOP):
        for _ in range(20):
            k = Radius(rng.randint(1, 5))
            w, h = rng.randint(0, 3 * k.p), rng.randint(0, 3 * k.p)
            i_lo, j_lo = near(edge, w), rng.choice((rng.randint(-40, 40), near(edge, h)))
            cases.append((k, Box(i_lo, i_lo + w, j_lo, j_lo + h)))
    for k, box in cases:
        counts = fiber_counts_in_box(k, box)
        assert counts.tolist() == [count_in_box(k, v, box) for v in range(k.p)]
        assert counts.sum() == box.width * box.height


def test_least_fiber_count_falls_short_of_the_average_by_at_most_half_k():
    # Delta(a, b) = floor(ab/p) - the least fiber count of an a x b box, for every a, b in [1, p):
    # construct's base set beats floor(WH/p) by Delta(W mod p, H mod p), and never by more than k // 2
    def delta(k, i_lo, j_lo, a, b):
        return a * b // k.p - int(fiber_counts_in_box(k, Box(i_lo, i_lo + a - 1, j_lo, j_lo + b - 1)).min())

    rng = random.Random(9)
    for kk in range(1, 7):
        k = Radius(kk)
        sides = range(1, k.p)
        gaps = {(a, b): delta(k, 0, 0, a, b) for a in sides for b in sides}
        worst = max(gaps.values())
        assert (min(gaps.values()), worst) == (0, kk // 2), kk
        if kk == 2:
            assert gaps[2, 7] == worst
        # the box's offset only rotates the fibers' leftover intervals, so Delta ignores it
        for _ in range(20):
            a, b = rng.choice(sides), rng.choice(sides)
            i_lo, j_lo = rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6)
            assert delta(k, i_lo, j_lo, a, b) == gaps[a, b], (kk, i_lo, j_lo, a, b)


def test_ball_size_matches_enumeration():
    # independent oracle: literal point enumeration of the diamond, 5 points at k=1 and 61 at k=5
    for k in range(1, 7):
        diamond = {
            (x, y)
            for x in range(-k, k + 1)
            for y in range(-k, k + 1)
            if abs(x) + abs(y) <= k
        }
        assert Radius(k).p == len(diamond)


def test_coprimality():
    for k in range(1, 33):
        p = Radius(k).p
        assert math.gcd(k, p) == 1
        assert math.gcd(k + 1, p) == 1


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 5),
    i=st.integers(-10 ** 6, 10 ** 6),
    j=st.integers(-10 ** 6, 10 ** 6),
    a=st.integers(-50, 50),
)
def test_translation_covariance(k, i, j, a):
    rad = Radius(k)
    p = rad.p
    base = phi(rad, (i, j))
    assert phi(rad, (i + a * p, j)) == base
    assert phi(rad, (i, j + a * p)) == base


def test_vertexset_canonical():
    vs = VertexSet.from_iterable([(3, 1), (0, 2), (3, 1), (1, 1)])
    # deduped, row-major: ascending j, then ascending i
    assert list(vs) == [(1, 1), (3, 1), (0, 2)]
    assert len(vs) == 3
    assert (3, 1) in vs
    assert (9, 9) not in vs
    assert repr(VertexSet.from_iterable([(3, -1)])) == "VertexSet([(3, -1)])"
    assert list(VertexSet.empty()) == [] and repr(VertexSet.empty()) == "VertexSet([])"


_coordinate = st.one_of(st.integers(-40, 40), st.sampled_from([TOP, -TOP, TOP - 1]))


@settings(max_examples=150, deadline=None)
@given(pts=st.lists(st.tuples(_coordinate, _coordinate), max_size=30))
def test_from_iterable_is_sorted_set(pts):
    want = sorted(set(pts), key=lambda q: (q[1], q[0]))
    from_list = VertexSet.from_iterable(pts)
    assert list(from_list) == want
    assert len(from_list) == len(want)
    assert all(q in from_list for q in pts)
    from_array = VertexSet.from_iterable(np.array(pts, dtype=np.int64).reshape(-1, 2))
    assert from_array == from_list
    assert hash(from_array) == hash(from_list)
    assert from_array.array.tolist() == [list(q) for q in want]


def _from_iterable_cases():
    rng = np.random.default_rng(61)
    for size, span in ((1, 1), (2, 0), (60, 3), (400, 20), (300, 10 ** 6), (200, 2 ** 40)):
        a = rng.integers(-span, span + 1, size=(size, 2))
        yield np.concatenate((a, a[rng.integers(0, size, size=size // 2 + 1)]))  # repeated rows
    yield np.zeros((0, 2), dtype=np.int64)
    # Python ints past the limit, which from_iterable refuses whatever their span
    yield np.array([(10 ** 30, 1), (-(10 ** 30), 1), (5, -(2 ** 70)), (5, 1), (10 ** 30, 1)], dtype=object)
    yield np.array([(2 ** 63, 7), (2 ** 63 + 2, 7), (2 ** 63, 6), (2 ** 63, 7)], dtype=object)  # small span
    # coordinates at the limit, whose key (j - j_min) w + (i - i_min) would pass 2**63: two stable argsorts sort them
    yield np.array([(TOP, 0), (-TOP, 1), (0, 1), (-TOP, 0), (TOP, 1), (0, 0), (-TOP, 0)], dtype=np.int64)
    yield np.array([(0, TOP), (0, -TOP), (1, 0), (0, -TOP), (1, TOP), (-1, 0)], dtype=np.int64)
    yield np.array([(0, 0), (TOP, 1), (0, 1), (TOP, 0), (0, 0)], dtype=np.int64)  # h w = 2**63
    yield np.array([(TOP, 3), (0, 3), (5, 3), (-TOP, 3)], dtype=np.int64)  # w = 2**63 - 1 on one row: the key fits
    yield np.array([(0, 0), (TOP, 0), (5, 0), (0, 0)], dtype=np.int64)  # h w = 2**62 fits


@pytest.mark.parametrize("pairs", list(_from_iterable_cases()), ids=lambda a: f"{a.dtype}-{len(a)}")
def test_from_iterable_is_lexsorted_distinct_rows(pairs):
    # the row-major key's settle, or the two stable argsorts past 2**63, against np.lexsort of the distinct rows
    if pairs.dtype == object:
        with pytest.raises(DomainError, match=r"\|c\| < 2\*\*62"):
            VertexSet.from_iterable(pairs)
        return
    distinct = np.unique(pairs, axis=0)
    assert VertexSet.from_iterable(pairs).array.tolist() == distinct[np.lexsort(distinct.T)].tolist()


def test_vertexset_equality_is_by_content():
    a = VertexSet.from_iterable([(1, 2), (0, 5)])
    assert a == VertexSet.from_iterable(iter([(0, 5), (1, 2), (1, 2)]))
    assert a != VertexSet.from_iterable([(1, 2)])
    assert a != VertexSet.from_iterable([(1, 2), (0, 6)])
    assert VertexSet.empty() == VertexSet.from_iterable([])
    assert len({a, VertexSet.from_iterable([(0, 5), (1, 2)])}) == 1
    assert (a == ()) is False and a != ()  # __eq__ returns NotImplemented for a non-set
    assert not a.array.flags.writeable


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(1, 5),
    ell=st.integers(0, 10 ** 6),
    i_lo=st.one_of(st.integers(-60, 60), st.sampled_from([-TOP, TOP - 45])),
    j_lo=st.one_of(st.integers(-60, 60), st.sampled_from([-TOP, TOP - 45])),
    w=st.integers(0, 45),
    h=st.integers(0, 45),
)
@example(k=2, ell=0, i_lo=0, j_lo=0, w=12, h=0)  # one row of p cells holds only (0, 0)
@example(k=1, ell=0, i_lo=0, j_lo=0, w=4, h=4)  # a p x p box holds p points
@example(k=2, ell=3, i_lo=-6, j_lo=-4, w=26, h=13)  # a box across the origin, in row-major order
# 3p x 3p boxes: hits are p apart in every row and column, the first within p cells of the edge
@example(k=1, ell=2, i_lo=0, j_lo=0, w=14, h=14)
@example(k=5, ell=40, i_lo=0, j_lo=0, w=182, h=182)
def test_inverse_image_matches_brute_fiber(k, ell, i_lo, j_lo, w, h):
    p = Radius(k).p
    box = (i_lo, i_lo + w, j_lo, j_lo + h)
    got = inverse_image_in_box(Radius(k), ell % p, Box(*box))
    want = sorted(brute_fiber(k, ell, box), key=lambda q: (q[1], q[0]))
    assert [tuple(q) for q in got] == want
    assert got == VertexSet.from_iterable(want)


@pytest.mark.parametrize("items", [
    [(1, 2, 3), (4, 5, 6)],
    [(1, 2), (3,)],
    [1, 2],
    [(1, 2), 3],
    np.zeros((2, 3), dtype=np.int64),
    np.arange(4),
])
def test_from_iterable_rejects_items_that_are_not_pairs(items):
    with pytest.raises(DomainError, match="pairs"):
        VertexSet.from_iterable(items)


@pytest.mark.parametrize("points", [
    [(1.9, 1.9)],
    [(0, 0), (Fraction(1, 2), 1)],
    np.array([[0.0, 1.0], [2.0, 2.0]]),
    [(float("inf"), 0)],
    [(0, float("nan"))],
    [(10 ** 30, 0), (1.5, 0)],  # a float after a coordinate past the limit: the type error wins
    [("1", "2")],
    [(True, 0)],  # a bool is not read as 1
    np.array([[True, False]]),
])
def test_from_iterable_rejects_coordinates_that_are_not_integers(points):
    with pytest.raises(DomainError, match="vertex coordinates must be integers"):
        VertexSet.from_iterable(points)


@pytest.mark.parametrize("edge", [COORD_LIMIT, -COORD_LIMIT, 2 ** 63, -(2 ** 63) - 1, 10 ** 30])
def test_from_iterable_takes_the_limit_and_refuses_past_it(edge):
    inside = [(TOP, -TOP), (0, 0), (-TOP, TOP)]
    assert VertexSet.from_iterable(inside).array.tolist() == [[TOP, -TOP], [0, 0], [-TOP, TOP]]
    assert VertexSet.from_iterable(np.array(inside)) == VertexSet.from_iterable(inside)
    for pts in ([(edge, 0), (0, 0)], [(0, 0), (1, edge)]):
        with pytest.raises(DomainError, match=r"\|c\| < 2\*\*62"):
            VertexSet.from_iterable(pts)
        if abs(edge) < 2 ** 63:  # an array that int64 holds
            with pytest.raises(DomainError, match=r"\|c\| < 2\*\*62"):
                VertexSet.from_iterable(np.array(pts, dtype=np.int64))


def test_an_int64_pair_array_is_taken_as_it_is():
    # an (N, 2) int64 array skips the per-coordinate checks: its dtype already says every
    # coordinate is an integer, and from_iterable checks the bound
    pts = [(3, 1), (0, 2), (3, 1), (TOP, -TOP), (-5, 7)]
    arr = np.array(pts, dtype=np.int64)
    assert _as_pairs(arr) is arr
    for form in (arr, arr[::-1], np.asfortranarray(arr), np.array(pts, dtype=np.int64)[:, ::-1][:, ::-1]):
        assert VertexSet.from_iterable(form) == VertexSet.from_iterable(pts)
    assert VertexSet.from_iterable(arr[:0]) == VertexSet.empty() == VertexSet.from_iterable([])
    assert arr.flags.writeable and arr.tolist() == [list(q) for q in pts]  # the input is neither edited nor frozen
    assert VertexSet.from_iterable(arr[:3].astype(np.int32)) == VertexSet.from_iterable(pts[:3])
    # other dtypes still go through the per-coordinate checks
    for bad in (arr[:3].astype(float), arr.astype(bool), np.array([[1.5, 2]], dtype=object)):
        with pytest.raises(DomainError, match="vertex coordinates must be integers"):
            VertexSet.from_iterable(bad)


def test_fiber_keys_are_the_fiber_in_row_major_box_keys():
    rng = random.Random(43)
    for _ in range(300):
        k = Radius(rng.randint(1, 6))
        i_lo, j_lo = rng.randint(-60, 60), rng.randint(-60, 60)
        box = Box(i_lo, i_lo + rng.randint(0, 90), j_lo, j_lo + rng.randint(0, 90))
        ell = rng.randrange(k.p)
        keys = fiber_keys(k, ell, box)
        assert keys.dtype == np.int64 and (np.diff(keys) > 0).all()
        want = [(j - box.j_lo) * box.width + i - box.i_lo for i, j in inverse_image_in_box(k, ell, box)]
        assert keys.tolist() == want
        assert all(phi(k, (box.i_lo + key % box.width, box.j_lo + key // box.width)) == ell for key in want)


def test_box_takes_the_limit_and_refuses_past_it():
    box = Box(TOP - 4, TOP, -TOP, 3 - TOP)
    assert (box.width, box.height) == (5, 4)
    for bounds in ((COORD_LIMIT - 4, COORD_LIMIT, 0, 0), (-COORD_LIMIT, 1 - COORD_LIMIT, 0, 0),
                   (0, 0, COORD_LIMIT, COORD_LIMIT), (0, 0, -COORD_LIMIT, 3 - COORD_LIMIT)):
        with pytest.raises(DomainError, match=r"\|c\| < 2\*\*62"):
            Box(*bounds)


def test_from_iterable_never_truncates_a_coordinate():
    # (1.9, 1.9) once became (1, 1), and 3x3 k=1 then reported 4 uncovered cells
    with pytest.raises(DomainError):
        verify_domination(GridDims(3, 3), Radius(1), VertexSet.from_iterable([(1.9, 1.9)]))
    got = VertexSet.from_iterable([(np.int64(4), 1), (TOP, np.int32(-2))])
    assert got.array.tolist() == [[TOP, -2], [4, 1]]
