"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""
import random
import time

import numpy as np

from conftest import count_in_box, fiber_window, naive_gamma
from kdom import (
    Box,
    GridDims,
    Radius,
    base_set,
    best_residue,
    construct,
    cor_bound,
    exact_gamma,
    fss_bound,
    neighborhood_box,
    new_bound,
    path_gamma,
    verify_domination,
)
from kdom.cli import main
from kdom.lattice import inverse_image_in_box


class _Criterion:
    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {verdict} {self.description} "
              f"({elapsed:.2f}s, limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget: {elapsed:.2f}s"
            )
        return False


TABLE1_CSV = (
    "M,N,New Bound,Old Bound\n"
    "51,52,128,139\n"
    "53,54,137,148\n"
    "55,56,147,158\n"
    "57,58,157,168\n"
    "59,60,167,178\n"
    "61,62,178,189\n"
    "63,64,189,200\n"
    "65,66,200,211\n"
)


def test_criterion_1_table1_regression(capsys):
    with _Criterion(1, "table regression: eight (New, Old) pairs", 1.0):
        assert main(["table", "--csv"]) == 0
        assert capsys.readouterr().out == TABLE1_CSV


def test_criterion_2_construction_end_to_end():
    with _Criterion(2, "construction meets floor((m+2k)(n+2k)/p)-4 on 3x625 grids", 60.0):
        for kk in (1, 2, 3):
            k = Radius(kk)
            p = k.p
            for m in range(2 * p + 1, 2 * p + 26):
                for n in range(2 * p + 1, 2 * p + 26):
                    dims = GridDims(m, n)
                    pts, _ = construct(dims, k)
                    report = verify_domination(dims, k, pts)
                    assert len(report.uncovered) == 0, (kk, m, n)
                    assert len(pts) <= new_bound(dims, k), (kk, m, n)


def test_criterion_3_small_grid_bound():
    with _Criterion(3, "small grids dominate within floor((m+2k)(n+2k)/p)", 60.0):
        for kk in (1, 2, 3):
            k = Radius(kk)
            p = k.p
            for m in range(1, 2 * p + 1):
                for n in range(1, 2 * p + 1):
                    dims = GridDims(m, n)
                    pts, trace = construct(dims, k)
                    report = verify_domination(dims, k, pts)
                    assert len(report.uncovered) == 0, (kk, m, n)
                    assert len(pts) <= cor_bound(dims, k), (kk, m, n)
                    assert not trace.corner_removal_applied


def test_criterion_4_perfect_code_property():
    with _Criterion(4, "each 3p x 3p window point sees exactly one code point "
                       "within k; rows/columns have spacing p", 10.0):
        for kk in range(1, 6):
            p = Radius(kk).p
            w = 3 * p
            for ell in range(p):
                code = fiber_window(kk, ell, -kk, w - 1 + kk)
                counts = np.zeros((w, w), dtype=np.int32)
                for dx in range(-kk, kk + 1):
                    span = kk - abs(dx)
                    for dy in range(-span, span + 1):
                        counts += code[kk + dx:kk + dx + w, kk + dy:kk + dy + w]
                assert (counts == 1).all(), (kk, ell)
                # spacing: within the window, hits in any row/column are
                # exactly p apart and start inside the leading p cells
                inner = code[kk:kk + w, kk:kk + w]
                for axis in (0, 1):
                    hits = [np.flatnonzero(line) for line in
                            (inner if axis == 0 else inner.T)]
                    for line_hits in hits:
                        assert line_hits[0] < p
                        assert (np.diff(line_hits) == p).all()


def test_criterion_5_fiber_counting():
    with _Criterion(5, "closed-form counts match enumeration; multiple-of-p "
                       "boxes are uniform; best residue beats the floor", 30.0):
        rng = random.Random(20240901)
        for _ in range(500):
            kk = rng.randint(1, 5)
            k = Radius(kk)
            p = k.p
            ell = rng.randrange(p)
            i_lo = rng.randint(-60, 30)
            j_lo = rng.randint(-60, 30)
            box = Box(i_lo, i_lo + rng.randint(0, 59), j_lo, j_lo + rng.randint(0, 59))
            assert count_in_box(k, ell, box) == len(inverse_image_in_box(k, ell, box))
        # a side that is a multiple of p forces every residue to mn/p
        for kk in (1, 2, 3):
            k = Radius(kk)
            p = k.p
            for mult, other in ((1, 7), (2, 11), (1, p)):
                box = Box(0, mult * p - 1, 0, other - 1)
                for v in range(p):
                    assert count_in_box(k, v, box) == box.width * box.height // p
        # best_residue picks the first fiber with the fewest points in the k-margin box, at or below the floor
        for _ in range(200):
            k = Radius(rng.randint(1, 5))
            dims = GridDims(rng.randint(1, 60), rng.randint(1, 60))
            box = neighborhood_box(dims, k)
            counts = [count_in_box(k, v, box) for v in range(k.p)]
            assert best_residue(dims, k) == (counts.index(min(counts)), min(counts))
            assert min(counts) <= (dims.m + 2 * k.k) * (dims.n + 2 * k.k) // k.p
        # base_set's fibers too: on 13x13 at k=2, a 17x17 margin box, one is at or below the floor
        assert min(len(base_set(GridDims(13, 13), Radius(2), v)) for v in range(13)) <= 17 * 17 // 13


def test_criterion_6_oracle_consistency():
    with _Criterion(6, "exact solver matches naive enumeration, the path "
                       "formula, and never beats the construction", 300.0):
        grids = [(m, n) for m in range(1, 17) for n in range(1, 17) if m * n <= 16]
        for kk in (1, 2):
            k = Radius(kk)
            for (m, n) in grids:
                res = exact_gamma(GridDims(m, n), k)
                assert not res.time_budget_exceeded
                assert res.gamma == naive_gamma(m, n, kk), (m, n, kk)
        for kk in (1, 2, 3):
            k = Radius(kk)
            for n in range(1, 31):
                dims = GridDims(1, n)
                assert exact_gamma(dims, k).gamma == path_gamma(dims, k)
        for kk in (1, 2):
            k = Radius(kk)
            for (m, n) in grids:
                dims = GridDims(m, n)
                pts, _ = construct(dims, k)
                assert exact_gamma(dims, k).gamma <= len(pts)


def test_criterion_7_k1_sharpness():
    with _Criterion(7, "k=1 construction attains floor((m+2)(n+2)/5)-4 exactly", 10.0):
        k = Radius(1)
        for m in range(16, 25):
            for n in range(16, 25):
                pts, _ = construct(GridDims(m, n), k)
                assert len(pts) == (m + 2) * (n + 2) // 5 - 4, (m, n)


def test_criterion_8_bound_domination():
    with _Criterion(8, "new bound strictly beats the old; k=1/k=2 formulas "
                       "coincide with their published forms", 5.0):
        for kk in (1, 2, 3):
            k = Radius(kk)
            p = k.p
            for m in range(2 * p + 1, 2 * p + 201):
                for n in range(2 * p + 1, 2 * p + 201, 7):
                    dims = GridDims(m, n)
                    assert new_bound(dims, k) < fss_bound(dims, k)
        for m in range(11, 120):  # Chang's form
            for n in range(11, 120):
                assert (m + 2) * (n + 2) // 5 - 4 == new_bound(GridDims(m, n), Radius(1))
        for m in range(27, 140):  # the published k=2 form
            for n in range(27, 140):
                assert (m + 4) * (n + 4) // 13 - 4 == new_bound(GridDims(m, n), Radius(2))
