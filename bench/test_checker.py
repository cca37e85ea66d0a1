"""Tests of the benchmark's independent checker on hand-built sets.

Run with:  python3 bench/test_checker.py
"""
from __future__ import annotations

import itertools
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402


def brute_uncovered(m, n, k, points):
    return {
        (i, j)
        for i in range(m)
        for j in range(n)
        if all(abs(i - a) + abs(j - b) > k for a, b in points)
    }


def brute_gamma(m, n, k):
    """Smallest dominating set by exhaustive search over vertex subsets."""
    cells = [(i, j) for i in range(m) for j in range(n)]
    for size in range(1, len(cells) + 1):
        for subset in itertools.combinations(cells, size):
            if not brute_uncovered(m, n, k, subset):
                return size
    raise AssertionError("the full vertex set always dominates")


class CheckerTest(unittest.TestCase):
    def test_set_missing_exactly_one_vertex(self):
        points = [(0, 1), (2, 1), (1, 2)]
        self.assertEqual(checker.uncovered(3, 3, 1, points), {(1, 0)})
        self.assertFalse(checker.dominates(3, 3, 1, points))
        self.assertTrue(checker.dominates(3, 3, 1, points + [(1, 0)]))

    def test_centre_of_3x3_misses_the_four_corners(self):
        self.assertEqual(
            checker.uncovered(3, 3, 1, [(1, 1)]), {(0, 0), (0, 2), (2, 0), (2, 2)}
        )
        self.assertTrue(checker.dominates(3, 3, 2, [(1, 1)]))

    def test_empty_set_leaves_every_vertex_uncovered(self):
        self.assertEqual(len(checker.uncovered(4, 5, 2, [])), 20)
        self.assertEqual(checker.ball_grid_sum(4, 5, 2, []), 0)

    def test_off_grid_points_cover_only_their_clipped_ball(self):
        self.assertEqual(checker.uncovered(2, 2, 1, [(-1, 0)]), {(1, 0), (0, 1), (1, 1)})
        self.assertEqual(checker.ball_grid_sum(2, 2, 1, [(-1, 0)]), 1)
        self.assertEqual(checker.ball_grid_sum(2, 2, 1, [(5, 5)]), 0)

    def test_matches_brute_force_on_hand_built_sets(self):
        cases = [
            (5, 4, 1, [(0, 0), (4, 3), (2, 2)]),
            (6, 3, 2, [(1, 1), (5, 0)]),
            (7, 7, 3, [(3, 3), (-2, 6), (9, 0)]),
            (1, 9, 1, [(0, 1), (0, 4), (0, 7)]),
        ]
        for m, n, k, points in cases:
            with self.subTest(m=m, n=n, k=k):
                self.assertEqual(
                    checker.uncovered(m, n, k, points), brute_uncovered(m, n, k, points)
                )
                mult = checker.multiplicity(m, n, k, points)
                self.assertEqual(int(mult.sum()), checker.ball_grid_sum(m, n, k, points))
                ball_sum = sum(
                    1
                    for a, b in points
                    for i in range(m)
                    for j in range(n)
                    if abs(i - a) + abs(j - b) <= k
                )
                self.assertEqual(checker.ball_grid_sum(m, n, k, points), ball_sum)

    def test_bounds(self):
        self.assertEqual(checker.modulus(3), 25)
        self.assertEqual(checker.floor_bound(51, 52, 3), 132)
        self.assertEqual(checker.floor_bound(51, 52, 3, minus_four=True), 128)
        self.assertEqual(checker.lower_bound(51, 52, 3), 107)
        self.assertEqual(checker.lower_bound(1, 64, 1), 13)

    def test_closed_forms_match_brute_force(self):
        for m, n, k in [(1, 7, 1), (1, 11, 2), (2, 5, 1), (3, 3, 1), (3, 5, 1),
                        (4, 4, 1), (4, 5, 1), (5, 4, 1), (2, 2, 1)]:
            with self.subTest(m=m, n=n, k=k):
                self.assertEqual(checker.closed_form_gamma(m, n, k), brute_gamma(m, n, k))
        self.assertEqual(checker.closed_form_gamma(1, 64, 1), 22)
        self.assertEqual(checker.closed_form_gamma(4, 9, 1), 10)
        self.assertIsNone(checker.closed_form_gamma(5, 5, 1))
        self.assertIsNone(checker.closed_form_gamma(3, 3, 2))


if __name__ == "__main__":
    unittest.main()
