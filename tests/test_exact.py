import gc
import hashlib
import math
import random
from fractions import Fraction
from functools import cache
from itertools import combinations

import numpy as np
import pytest

from conftest import naive_gamma
import kdom.exact
from kdom import (
    DomainError,
    GridDims,
    Radius,
    VertexSet,
    construct,
    is_dominating,
    exact_gamma,
    new_bound,
    path_gamma,
    verify_domination,
)
from kdom.exact import ExactResult, _balls, _greedy, _images, _rings

K1, K2, K3 = Radius(1), Radius(2), Radius(3)


def kept_candidates(balls, v, uncovered):
    """The forward candidates of v that the search tries, in its order: most
    uncovered cells covered first, then lowest index, skipping any whose
    uncovered cells an earlier one covers."""
    order = sorted((c for c in range(v, len(balls)) if balls[v] >> c & 1),
                   key=lambda c: (-(balls[c] & uncovered).bit_count(), c))
    kept = []
    for c in order:
        if all(balls[c] & uncovered & ~balls[d] for d in kept):
            kept.append(c)
    return kept


def reference_exact_gamma(dims, k, forward=True):
    """exact_gamma's branch-and-bound without the packing bound, the failed-state memo, the superset
    cut, the ruled-out cells or a budget.

    It branches on the candidates at or after the branch cell, most
    uncovered cells covered first, and skips one whose uncovered cells an
    earlier one covers, as exact_gamma does; with forward=False it tries
    the whole ball in index order and skips none.  It searches the
    caller's orientation, so compare witnesses only on grids with m <= n.
    """
    area, m = dims.area, dims.m
    balls = _balls(dims, k.k)
    full = (1 << area) - 1
    cap = max(ball.bit_count() for ball in balls)
    nodes = 0

    def search(target, covered, chosen):
        nonlocal nodes
        nodes += 1
        if covered == full:
            return list(chosen)
        slots = target - len(chosen)
        uncovered = full & ~covered
        if slots == 0 or -(-uncovered.bit_count() // cap) > slots:
            return None
        v = (uncovered & -uncovered).bit_length() - 1
        if forward:
            branches = kept_candidates(balls, v, uncovered)
        else:
            branches = [c for c in range(area) if balls[v] >> c & 1]
        for cand in branches:
            chosen.append(cand)
            hit = search(target, covered | balls[cand], chosen)
            chosen.pop()
            if hit is not None:
                return hit
        return None

    size = -(-area // cap)
    while (found := search(size, 0, [])) is None:
        size += 1
    witness = VertexSet.from_iterable((idx % m, idx // m) for idx in found)
    return ExactResult(size, size, witness, nodes, False)


@cache
def solved(m, n, k):
    """exact_gamma at the default budget, searched once per (m, n, k) in a session and shared by the
    tests below that pin it; only tests that patch nothing call this, so each result is the solver's own."""
    return exact_gamma(GridDims(m, n), Radius(k))


def test_5x5_k1_matches_naive():
    res = exact_gamma(GridDims(5, 5), K1)
    assert res.gamma == naive_gamma(5, 5, 1)
    assert res.gamma <= 7


def test_witness_always_dominates():
    for m, n, k in ((3, 4, K1), (5, 5, K2), (1, 9, K1), (2, 7, K3)):
        res = exact_gamma(GridDims(m, n), k)
        assert len(res.witness) == res.gamma
        assert is_dominating(GridDims(m, n), k, res.witness)


def test_transpose_symmetry():
    for m, n, k in ((2, 5, K1), (3, 4, K1), (2, 6, K2)):
        assert exact_gamma(GridDims(m, n), k).gamma == exact_gamma(GridDims(n, m), k).gamma


def test_nonincreasing_in_k():
    for m, n in ((4, 4), (3, 5), (1, 12)):
        dims = GridDims(m, n)
        gammas = [exact_gamma(dims, Radius(k)).gamma for k in (1, 2, 3)]
        assert gammas == sorted(gammas, reverse=True)


def test_thin_grids_finish_within_budget():
    # a dominator covers only 2k+1 cells of a path, far fewer than p
    for k in (K1, K2):
        for n in range(61, 65):
            for dims in (GridDims(1, n), GridDims(n, 1)):
                res = exact_gamma(dims, k)
                assert not res.time_budget_exceeded, (dims, k)
                assert res.gamma == path_gamma(dims, k)
                assert is_dominating(dims, k, res.witness)


@pytest.mark.parametrize("n,k,expected", [(4, 1, 2), (5, 2, 1)])
def test_path_gamma_examples(n, k, expected):
    assert path_gamma(GridDims(1, n), Radius(k)) == expected


def test_path_gamma_window_boundary():
    # one vertex covers only 2k+1 of a (2k+2)-path
    for k in (1, 2, 3):
        n = 2 * k + 2
        assert path_gamma(GridDims(1, n), Radius(k)) == 2 == naive_gamma(1, n, k)


def test_path_gamma_validates():
    # GridDims checks the sides; path_gamma refuses a grid that is not 1 wide in either orientation
    for m, n in ((2, 5), (5, 2), (2, 2)):
        with pytest.raises(DomainError, match=f"a path is 1 wide, got {m}x{n}"):
            path_gamma(GridDims(m, n), K1)


def test_cell_cap_enforced(monkeypatch):
    class TablesBuilt(Exception):
        pass

    def no_tables(*_):
        raise TablesBuilt

    # 2mn^2 table bits and one mn-bit memo entry must fit MAX_SEARCH_BITS, checked before any table is built
    monkeypatch.setattr(kdom.exact, "_balls", no_tables)
    for m, n in ((66, 66), (65, 67), (10**6, 10**6)):
        with pytest.raises(DomainError, match="bit budget"):
            exact_gamma(GridDims(m, n), K1)
    with pytest.raises(TablesBuilt):
        exact_gamma(GridDims(65, 66), K1)
    monkeypatch.undo()
    exact_gamma(GridDims(12, 12), K2, node_budget=200)  # 144 cells allowed
    # a budget of exactly the tables and one memo entry runs the search, and finds what the default finds
    dims = GridDims(4, 4)
    expected = exact_gamma(dims, K1)
    monkeypatch.setattr(kdom.exact, "MAX_SEARCH_BITS", (2 * dims.area + 1) * dims.area)
    res = exact_gamma(dims, K1)
    assert (res.gamma, res.witness) == (expected.gamma, expected.witness)
    monkeypatch.setattr(kdom.exact, "MAX_SEARCH_BITS", (2 * dims.area + 1) * dims.area - 1)
    with pytest.raises(DomainError, match="bit budget"):
        exact_gamma(dims, K1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_memo_finds_what_the_memo_free_search_finds(k):
    grids = [(m, n) for m in range(3, 37) for n in range(m, 37) if m * n <= 36]
    for m, n in grids:
        dims = GridDims(m, n)
        res = exact_gamma(dims, Radius(k))
        ref = reference_exact_gamma(dims, Radius(k))
        assert (res.gamma, res.lower_bound, res.time_budget_exceeded) == (
            ref.gamma, ref.lower_bound, False), (m, n)
        assert res.witness == ref.witness, (m, n)
        assert res.nodes_explored <= ref.nodes_explored, (m, n)


def test_forward_candidates_keep_gamma_and_lower_bound():
    # the whole-ball search is the independent check of the forward-candidate rule
    for k in (K1, K2):
        for m in range(1, 37):
            for n in range(1, 36 // m + 1):
                res = exact_gamma(GridDims(m, n), k)
                ref = reference_exact_gamma(GridDims(m, n), k, forward=False)
                assert (res.gamma, res.lower_bound) == (ref.gamma, ref.lower_bound), (m, n, k)


def forward_step(x, v, n):
    """The swap for a candidate x before the branch cell v: one row up if x lies
    in a row below v's, else one column east and one row up (east only on the top row)."""
    (a, b), j = x, v[1]
    if b < j:
        return a, b + 1
    return (a + 1, b + 1) if b + 1 < n else (a + 1, b)


def test_a_candidate_before_the_branch_cell_is_dominated_by_a_later_one():
    for k in (1, 2, 3):
        for m in range(1, 9):
            for n in range(1, 9):
                balls = manhattan_masks(m, n, k)
                for v in range(m * n):
                    cell = (v % m, v // m)
                    for x in range(v):
                        if not balls[v] >> x & 1:
                            continue
                        a, b = forward_step((x % m, x // m), cell, n)
                        assert 0 <= a < m and 0 <= b < n, (m, n, k, v, x)
                        y = b * m + a
                        assert balls[v] >> y & 1 and y > x, (m, n, k, v, x)
                        # every cell from v on that x covers, y covers too
                        assert (balls[x] & ~balls[y]) >> v == 0, (m, n, k, v, x)


def test_kept_candidates_reach_the_minimum_cover_of_all_forward_candidates():
    # a cover that uses a skipped candidate still covers with the kept one that covers all it does
    rng = random.Random(23)
    for k in (1, 2):
        for m in range(1, 7):
            for n in range(1, 7):
                balls = manhattan_masks(m, n, k)
                full = (1 << m * n) - 1

                @cache
                def needed(uncovered):
                    if not uncovered:
                        return 0
                    v = (uncovered & -uncovered).bit_length() - 1
                    return 1 + min(needed(uncovered & ~balls[c]) for c in range(m * n) if balls[v] >> c & 1)

                for _ in range(40):
                    # covered below v, v uncovered, and any cells after v
                    v = rng.randrange(m * n)
                    uncovered = (rng.getrandbits(m * n) | 1 << v) >> v << v & full
                    forward = [c for c in range(v, m * n) if balls[v] >> c & 1]
                    kept = kept_candidates(balls, v, uncovered)
                    assert kept and set(kept) <= set(forward), (m, n, k, uncovered)
                    assert min(needed(uncovered & ~balls[c]) for c in kept) == min(
                        needed(uncovered & ~balls[c]) for c in forward), (m, n, k, uncovered)


def test_a_grid_is_searched_with_its_shorter_rows():
    # searched with its long rows, 21x3 k=1 took many times the nodes of 3x21
    for m, n, k in ((21, 3, K1), (9, 4, K2), (7, 5, K1), (16, 2, K3)):
        res = exact_gamma(GridDims(m, n), k)
        tr = exact_gamma(GridDims(n, m), k)
        assert not res.time_budget_exceeded
        assert (res.gamma, res.lower_bound, res.nodes_explored) == (tr.gamma, tr.lower_bound, tr.nodes_explored)
        assert is_dominating(GridDims(m, n), k, res.witness)
        assert res.witness == VertexSet.from_iterable((j, i) for i, j in tr.witness)


# 6x7 and 5x8 at k=1 and 8x8 at k=2, since on 5x5, 6x6 and 4x9 at k=1 and 7x7 at k=2
# the other cuts leave the memo nothing to save
@pytest.mark.parametrize("m,n,k", [(6, 7, 1), (8, 8, 2), (5, 8, 1)])
def test_clearing_the_memo_loses_only_pruning(monkeypatch, m, n, k):
    dims, rad = GridDims(m, n), Radius(k)
    whole = exact_gamma(dims, rad)
    monkeypatch.setattr(kdom.exact, "MAX_SEARCH_BITS", (2 * m * n + 8) * m * n)  # the tables and 8 memo entries
    cleared = exact_gamma(dims, rad)
    assert (cleared.gamma, cleared.lower_bound) == (whole.gamma, whole.lower_bound)
    assert cleared.witness == whole.witness
    assert cleared.nodes_explored > whole.nodes_explored


def test_search_leaves_nothing_for_the_cyclic_collector():
    gc.collect()
    gc.disable()
    try:
        exact_gamma(GridDims(6, 6), K1)
        assert gc.collect() == 0
        exact_gamma(GridDims(8, 8), K1, node_budget=50)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("m,n,k,gamma", [(10, 10, 1, 24), (11, 11, 1, 29), (12, 12, 1, 35), (10, 10, 2, 11)])
def test_gamma_proven_at_the_edge_of_the_paper_domain(m, n, k, gamma):
    dims, rad = GridDims(m, n), Radius(k)
    res = solved(m, n, k)
    assert not res.time_budget_exceeded
    assert res.gamma == res.lower_bound == gamma
    assert is_dominating(dims, rad, res.witness)
    built = len(construct(dims, rad)[0])
    assert built >= gamma
    if min(m, n) > 2 * rad.p:
        # the paper's bound is tight on the smallest grids of its domain
        assert built == gamma == new_bound(dims, rad)


@pytest.mark.parametrize("m,n,k,gamma,nodes", [(14, 14, 2, 20, 24_951), (16, 16, 3, 15, 27_634)],
                         ids=["14x14-k2", "16x16-k3"])
def test_gamma_proven_past_144_cells_at_k2_and_k3(m, n, k, gamma, nodes):
    dims, rad = GridDims(m, n), Radius(k)
    res = solved(m, n, k)
    assert (res.gamma, res.lower_bound, res.nodes_explored, res.time_budget_exceeded) == (gamma, gamma, nodes, False)
    assert len(res.witness) == gamma
    assert verify_domination(dims, rad, res.witness).uncovered == VertexSet.empty()


def test_budget_flagging():
    res = exact_gamma(GridDims(8, 8), K1, node_budget=50)
    assert res.time_budget_exceeded
    assert is_dominating(GridDims(8, 8), K1, res.witness)
    assert res.gamma == len(res.witness)
    # the flagged value is only an upper bound, and lower_bound a proven one
    exact = exact_gamma(GridDims(8, 8), K1)
    assert res.lower_bound <= exact.gamma == exact.lower_bound <= res.gamma
    # a budget of 0 is valid and runs out at the first node; a negative one is not a budget
    zero = exact_gamma(GridDims(8, 8), K1, node_budget=0)
    assert (zero.time_budget_exceeded, zero.nodes_explored) == (True, 1)
    with pytest.raises(DomainError):
        exact_gamma(GridDims(8, 8), K1, node_budget=-1)
    # nor is anything but an int: no bool, float or numpy integer
    for bad in (True, 2.5, 1e9, np.int64(50), "5", None):
        with pytest.raises(DomainError) as refused:
            exact_gamma(GridDims(8, 8), K1, node_budget=bad)
        assert str(refused.value) == f"node budget must be an integer, got {bad!r}"


@pytest.mark.parametrize("m,n,k", [(6, 10, 1), (8, 8, 2)], ids=["6x10-k1", "8x8-k2"])
def test_a_budget_of_exactly_the_nodes_needed_is_enough(m, n, k):
    dims, rad = GridDims(m, n), Radius(k)
    whole = exact_gamma(dims, rad)
    nodes = whole.nodes_explored
    assert not whole.time_budget_exceeded
    assert exact_gamma(dims, rad, node_budget=nodes) == whole
    # one node short, it runs out at the last node of the search at size gamma
    short = exact_gamma(dims, rad, node_budget=nodes - 1)
    assert (short.time_budget_exceeded, short.nodes_explored, short.lower_bound) == (True, nodes, whole.gamma)
    assert short.gamma > whole.gamma


def test_a_greedy_cover_of_the_size_being_searched_is_exact():
    # 1x64 k=1 starts at ceil(64/3) = 22, the size of greedy's cover, so when
    # the budget runs out there every smaller size has failed
    dims = GridDims(1, 64)
    res = exact_gamma(dims, K1, node_budget=5)
    greedy = _greedy((1 << 64) - 1, _balls(dims, K1.k))
    assert (res.gamma, res.lower_bound, res.time_budget_exceeded, res.nodes_explored) == (22, 22, False, 6)
    assert len(greedy) == 22
    assert res.witness == VertexSet.from_iterable((0, c) for c in greedy)


def test_exhausted_search_answers_with_the_smaller_of_greedy_and_construct():
    # construct's 35 beats greedy's 40 on 12x12; greedy's 17 beats construct's 27
    # on 2x32; on 9x9 both have 24 points, and greedy's set is kept
    for m, n, budget, winner in ((12, 12, 1000, "construct"), (2, 32, 2, "greedy"), (9, 9, 5, "greedy")):
        dims = GridDims(m, n)
        res = exact_gamma(dims, K1, node_budget=budget)
        greedy = VertexSet.from_iterable((c % m, c // m) for c in _greedy((1 << dims.area) - 1, _balls(dims, K1.k)))
        built = construct(dims, K1)[0]
        assert res.time_budget_exceeded, (m, n)
        assert res.witness == (built if winner == "construct" else greedy), (m, n)
        assert res.gamma == len(res.witness), (m, n)


def test_construct_meeting_the_size_being_searched_is_exact():
    # one node short of the whole 11x11 k=1 search, the budget runs out at its last node, while
    # size 29 is searched; greedy's cover is larger, but construct's 29 points meet that size,
    # and every smaller size has failed
    dims = GridDims(11, 11)
    whole = exact_gamma(dims, K1)
    res = exact_gamma(dims, K1, node_budget=whole.nodes_explored - 1)
    built = construct(dims, K1)[0]
    assert len(_greedy((1 << dims.area) - 1, _balls(dims, K1.k))) > 29
    assert (res.gamma, res.lower_bound, res.time_budget_exceeded, res.nodes_explored) == (
        29, 29, False, whole.nodes_explored)
    assert res.witness == built


def rescanning_greedy(full, balls):
    """The greedy cover by a full rescan per pick: the cell covering the most
    uncovered cells, the lowest on a tie."""
    covered, chosen = 0, []
    while covered != full:
        best_gain, best_c = -1, -1
        for c, ball in enumerate(balls):
            gain = (ball & ~covered).bit_count()
            if gain > best_gain:
                best_gain, best_c = gain, c
        chosen.append(best_c)
        covered |= balls[best_c]
    return chosen


def test_the_heap_greedy_picks_what_a_rescan_picks():
    # the 1,137 (m, n, k) with m <= n, mn <= 144 and k <= 3, each grid in both orientations
    cases = [(m, n, k) for m in range(1, 13) for n in range(m, 144 // m + 1) for k in (1, 2, 3)]
    assert len(cases) == 1137
    for m, n, k in cases:
        for dims in (GridDims(m, n), GridDims(n, m)):
            balls, full = _balls(dims, k), (1 << dims.area) - 1
            assert _greedy(full, balls) == rescanning_greedy(full, balls), (dims, k)


def manhattan_masks(m, n, radius):
    """All-pairs reference: bitmask of the cells within radius of each cell, row-major."""
    j, i = np.divmod(np.arange(m * n), m)
    near = np.abs(i[:, None] - i) + np.abs(j[:, None] - j) <= radius
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in near]


def test_balls_and_far_masks_match_all_pairs_distances():
    # every shape up to 64 cells, and shapes of 144 cells in both orientations
    shapes = [(m, n) for m in range(1, 65) for n in range(1, 64 // m + 1)]
    for m, n in ((12, 12), (11, 13), (9, 16), (8, 18), (5, 28), (3, 48), (2, 72), (1, 144)):
        shapes += [(m, n), (n, m)]
    # radii 1-6: the balls of k = 1-6, the far masks (radius 2k) of k = 1-3 among them
    for radius in range(1, 7):
        for m, n in shapes:
            assert _balls(GridDims(m, n), radius) == manhattan_masks(m, n, radius), (m, n, radius)


def test_the_ring_start_is_never_below_the_area_bound():
    # exact_gamma starts at ceil(W(grid) / heavy) and checks no area bound; every searched
    # shape (rows no longer than columns) up to 144 cells, k = 1-7
    for m in range(1, 13):
        for n in range(m, 144 // m + 1):
            dims = GridDims(m, n)
            for k in range(1, 8):
                balls = _balls(dims, k)
                border, ring, w, lift, dip, heavy = _rings(dims, k, balls)
                start = -(-(w * m * n + lift * border.bit_count() + dip * ring.bit_count()) // heavy)
                assert start >= -(-m * n // max(map(int.bit_count, balls))), (m, n, k)


def test_balls_past_the_diameter_are_the_whole_grid():
    for m, n in ((1, 12), (3, 7), (12, 12)):
        full = (1 << m * n) - 1
        for radius in (m + n - 2, m + n + 5):
            balls = _balls(GridDims(m, n), radius)
            assert balls == manhattan_masks(m, n, radius), (m, n, radius)
            assert set(balls) == {full}, (m, n, radius)
    # the k = 2000 balls and far masks are built from 45-row templates, not 4,001-row ones;
    # the search takes the root and its first candidate, which covers the grid
    dims = GridDims(12, 12)
    res = exact_gamma(dims, Radius(2000))
    assert (res.gamma, res.lower_bound, res.nodes_explored) == (1, 1, 2)
    assert is_dominating(dims, Radius(2000), res.witness)


def greedy_packing(uncovered, far):
    """The search's packing count: lowest uncovered cell first, dropping its far mask."""
    count = 0
    while uncovered:
        uncovered &= ~far[(uncovered & -uncovered).bit_length() - 1]
        count += 1
    return count


def union_of_balls(balls, rng):
    """The cells covered by up to three random dominators."""
    covered = 0
    for c in rng.sample(range(len(balls)), rng.randint(0, min(3, len(balls)))):
        covered |= balls[c]
    return covered


def test_packing_bound_never_exceeds_the_dominators_still_needed():
    rng = random.Random(17)
    for k in (K1, K2):
        for m in range(1, 17):
            for n in range(1, 16 // m + 1):
                balls = _balls(GridDims(m, n), k.k)
                far = _balls(GridDims(m, n), 2 * k.k)

                @cache
                def needed(uncovered):
                    if not uncovered:
                        return 0
                    v = (uncovered & -uncovered).bit_length() - 1
                    cands = balls[v]
                    return 1 + min(needed(uncovered & ~balls[c]) for c in range(m * n) if cands >> c & 1)

                full = (1 << m * n) - 1
                for _ in range(60):
                    # an arbitrary uncovered set, and one left by a few dominators
                    for uncovered in (rng.getrandbits(m * n), full & ~union_of_balls(balls, rng)):
                        assert greedy_packing(uncovered, far) <= needed(uncovered), (m, n, k, uncovered)


def reversed_bits(mask, width):
    """mask with bit b moved to bit width-1-b."""
    return int(format(mask, f"0{width}b")[::-1], 2)


def test_a_ball_reversed_is_the_ball_of_the_rotated_cell():
    # search reads bit b as cell area-1-b, the grid turned by 180 degrees, and
    # takes its balls and far masks from _balls unchanged; radii 1-4, 6 and one
    # past the diameter m+n-2
    for m in range(1, 65):
        for n in range(1, 64 // m + 1):
            area = m * n
            for radius in (1, 2, 3, 4, 6, m + n - 1):
                balls = _balls(GridDims(m, n), radius)
                for c in range(area):
                    assert balls[area - 1 - c] == reversed_bits(balls[c], area), (m, n, radius, c)


def test_the_transpose_maps_the_root_candidates_and_their_balls_onto_each_other():
    # on a square grid the root's candidates are the ball of cell 0, and the transpose
    # c % m * m + c // m of one is one too, its ball read from the same table
    for m in range(1, 9):
        for k in (1, 2, 3, 2 * m):
            balls = _balls(GridDims(m, m), k)
            root = [c for c in range(m * m) if balls[0] >> c & 1]
            for c in root:
                t = c % m * m + c // m
                assert t in root, (m, k, c)
                assert balls[t] == sum(1 << (b % m * m + b // m) for b in range(m * m) if balls[c] >> b & 1), (m, k, c)
    # the search rules out the images of a failed root candidate under each symmetry _images lists,
    # and reads their balls from the same table: on every grid of up to 64 cells, squares and
    # rectangles, each symmetry is one-to-one on the cells and maps every ball onto a ball
    for m in range(1, 65):
        for n in range(1, 64 // m + 1):
            dims, area = GridDims(m, n), m * n
            maps = np.array([_images(dims, c) for c in range(area)]).T  # maps[s, c]: c under symmetry s
            assert len(maps) == (7 if m == n else 3), (m, n)
            assert (np.sort(maps, axis=1) == np.arange(area)).all(), (m, n)
            for k in (1, 2, 3):
                ball = np.array([[b >> c & 1 for c in range(area)] for b in _balls(dims, k)], dtype=bool)
                for sigma in maps:
                    assert (ball[np.ix_(sigma, sigma)] == ball).all(), (m, n, k, sigma)


# budgets 0-500 on k=1 grids in both orientations and 8x8 k=2
DIGEST_CASES = [(m, n, k, budget) for budget in (0, 1, 5, 50, 500)
                for m, n, k in ((8, 8, 1), (6, 10, 1), (10, 6, 1), (9, 7, 1), (1, 64, 1), (8, 8, 2))]
DIGEST_SHA256 = "b16de2ca92eb88feb57c1a0dca119ce9cd2f6f3f1771f57066bfc08e1c8bb9ad"


def test_outputs_on_the_benchmark_grids_and_budgets_are_pinned():
    # gamma, lower_bound, nodes, the budget flag and the witness under a node budget; the
    # searches at the default budget are pinned by SMALL_SHA256; recompute with the lines
    # below only when an output change is intended
    lines = []
    for m, n, k, budget in DIGEST_CASES:
        res = exact_gamma(GridDims(m, n), Radius(k), node_budget=budget)
        witness = [(int(i), int(j)) for i, j in res.witness]
        lines.append(repr((m, n, k, res.gamma, res.lower_bound, res.nodes_explored, res.time_budget_exceeded, witness)))
    assert len(lines) == 30
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST_SHA256


# gamma and the witness alone, over the exact workload's 99 searches and three larger proofs:
# computed before the ring bound and never recomputed since, because a sound cut moves neither
GAMMA_WITNESS_CASES = [(m, n, k) for k in (1, 2) for m in range(3, 65) for n in range(m, 65) if m * n <= 64]
GAMMA_WITNESS_CASES += [(1, 64, 1), (12, 12, 1), (14, 14, 2), (16, 16, 3)]
GAMMA_WITNESS_SHA256 = "c3b2b83409afe535bd5091bf4f1ad30028f7f8bd85536c2bbf6705c685b72203"


def test_gammas_and_witnesses_are_pinned():
    lines = []
    for m, n, k in GAMMA_WITNESS_CASES:
        res = solved(m, n, k)
        lines.append(repr((m, n, k, res.gamma, [(int(i), int(j)) for i, j in res.witness])))
    assert len(lines) == 102
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GAMMA_WITNESS_SHA256


# every (m, n, k) with mn <= 64 and k <= 3, in both orientations: 840 searches
SMALL_CASES = [(m, n, k) for k in (1, 2, 3) for m in range(1, 65) for n in range(1, 64 // m + 1)]
SMALL_SHA256 = "0fae662b270191dae49013d35074df90fd25244898d7628b463fc6dc99938e40"


def test_outputs_on_every_grid_up_to_64_cells_are_pinned():
    # gamma, lower_bound, nodes, the budget flag and the witness: the one pin of the node counts
    # at the default budget on grids of up to 64 cells, the exact workload's 99 among them; a
    # solver change that only drops work must leave the node-free digest below as it is
    lines = []
    for m, n, k in SMALL_CASES:
        res = solved(m, n, k)
        witness = [(int(i), int(j)) for i, j in res.witness]
        lines.append(repr((m, n, k, res.gamma, res.lower_bound, res.nodes_explored, res.time_budget_exceeded, witness)))
    assert len(lines) == 840
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SMALL_SHA256


# the same 840 searches without the node counts, computed before the superset cut, the root
# transpose and the packing gate: a cut that drops only failing subtrees leaves it as it is
SMALL_NODE_FREE_SHA256 = "0932e52aa844f755f00ea1d7c9504895630b81371cb834481c4bea14c6906880"


def test_outputs_but_node_counts_on_every_grid_up_to_64_cells_are_pinned():
    lines = []
    for m, n, k in SMALL_CASES:
        res = solved(m, n, k)
        witness = [(int(i), int(j)) for i, j in res.witness]
        lines.append(repr((m, n, k, res.gamma, res.lower_bound, res.time_budget_exceeded, witness)))
    assert len(lines) == 840
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SMALL_NODE_FREE_SHA256


def bits(flags):
    """The int whose bit c is flags[c]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def test_the_heaviest_ball_bounds_every_ball_and_the_ring_bound_is_sound():
    # every shape up to 64 cells in both orientations, k <= 4; each cell weighed by its
    # depth from the border, and gamma from the reference search, which has no ring bound
    for m in range(1, 65):
        for n in range(m, 64 // m + 1):
            for k in (1, 2, 3, 4):
                gamma = reference_exact_gamma(GridDims(m, n), Radius(k)).gamma
                for a, b in ((m, n), (n, m)):
                    dims = GridDims(a, b)
                    border, ring, w, lift, dip, heavy = _rings(dims, k, _balls(dims, k))
                    j, i = np.divmod(np.arange(a * b), a)
                    depth = np.minimum(np.minimum(i, a - 1 - i), np.minimum(j, b - 1 - j))
                    assert (border, ring) == (bits(depth == 0), bits(depth == 1)), (a, b)
                    weights = np.array([w + lift, w + dip, w])[np.minimum(depth, 2)]
                    assert weights.min() >= 0
                    near = np.abs(i[:, None] - i) + np.abs(j[:, None] - j) <= k
                    assert heavy == (near @ weights).max(), (a, b, k)
                    assert -(-int(weights.sum()) // heavy) <= gamma, (a, b, k)
                    assert exact_gamma(dims, Radius(k), node_budget=0).lower_bound <= gamma, (a, b, k)


def ring_lp_optima(k):
    """The optimal vertices (a, b) of the ring LP, in exact rationals: maximize a + b subject
    to a|B(x) & border| + b|B(x) & ring| + |B(x) & deeper|/p <= 1 and a, b >= 0, over the
    candidates x of the quarter-plane i, j >= 0, a cell's ring being min(i, j, 2).  Candidates
    with i = k+2 see no column below 2, so they are the half-plane's; past k+2 a ball is all
    deeper.  Each vertex is where two constraints are tight."""
    p = Radius(k).p
    offsets = [(di, dj) for di in range(-k, k + 1) for dj in range(abs(di) - k, k - abs(di) + 1)]
    rows = {(-1, 0, Fraction(0)), (0, -1, Fraction(0))}
    for x in range(k + 3):
        for y in range(k + 3):
            counts = [0, 0, 0]
            for di, dj in offsets:
                if x + di >= 0 and y + dj >= 0:
                    counts[min(x + di, y + dj, 2)] += 1
            rows.add((counts[0], counts[1], 1 - Fraction(counts[2], p)))
    vertices = set()
    for (a1, b1, c1), (a2, b2, c2) in combinations(rows, 2):
        if det := a1 * b2 - a2 * b1:
            a, b = (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det
            if all(ra * a + rb * b <= rc for ra, rb, rc in rows):
                vertices.add((a, b))
    best = max(a + b for a, b in vertices)
    return {(a, b) for a, b in vertices if a + b == best}


@pytest.mark.parametrize("k", range(1, 8))
def test_ring_weights_are_an_optimum_of_the_ring_lp(k):
    # the deeper weight is 1/p, so (border, ring, deeper) = (a, b, 1/p) scaled to coprime
    # ints; at k=2 the LP ties, and (12, 0, 5) is one of its two optimal vertices
    dims = GridDims(9, 9)
    w, lift, dip = _rings(dims, k, _balls(dims, k))[2:5]
    assert math.gcd(w + lift, w + dip, w) == 1
    p = Radius(k).p
    assert (Fraction(w + lift, w * p), Fraction(w + dip, w * p)) in ring_lp_optima(k)
