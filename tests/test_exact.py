import itertools

import pytest

from kdom import (
    DomainError,
    GridDims,
    Radius,
    is_dominating,
    exact_gamma,
    path_gamma,
)

K1, K2, K3 = Radius(1), Radius(2), Radius(3)


def naive_gamma(m, n, k):
    """Subset enumeration by increasing size over ball bitmasks."""
    cells = [(i, j) for j in range(n) for i in range(m)]
    full = (1 << len(cells)) - 1
    masks = []
    for (i, j) in cells:
        mask = 0
        for idx, (a, b) in enumerate(cells):
            if abs(i - a) + abs(j - b) <= k:
                mask |= 1 << idx
        masks.append(mask)
    for size in range(1, len(cells) + 1):
        for combo in itertools.combinations(range(len(cells)), size):
            acc = 0
            for c in combo:
                acc |= masks[c]
            if acc == full:
                return size
    raise AssertionError("unreachable: the full set always dominates")


def test_2x2_k1():
    res = exact_gamma(GridDims(2, 2), K1)
    assert res.gamma == 2 == naive_gamma(2, 2, 1)
    assert not res.time_budget_exceeded


def test_path_of_5_k2():
    assert exact_gamma(GridDims(1, 5), K2).gamma == 1
    assert exact_gamma(GridDims(5, 1), K2).gamma == 1


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


def test_path_formula_matches_search():
    for k in (1, 2, 3):
        for n in range(1, 31):
            assert exact_gamma(GridDims(1, n), Radius(k)).gamma == path_gamma(n, Radius(k))


def test_thin_grids_finish_within_budget():
    # a dominator covers only 2k+1 cells of a path, far fewer than p
    for k in (K1, K2):
        for n in range(61, 65):
            for dims in (GridDims(1, n), GridDims(n, 1)):
                res = exact_gamma(dims, k)
                assert not res.time_budget_exceeded, (dims, k)
                assert res.gamma == path_gamma(n, k)
                assert is_dominating(dims, k, res.witness)


@pytest.mark.parametrize("n,k,expected", [(4, 1, 2), (5, 2, 1)])
def test_path_gamma_examples(n, k, expected):
    assert path_gamma(n, Radius(k)) == expected


def test_path_gamma_window_boundary():
    # one vertex covers only 2k+1 of a (2k+2)-path
    for k in (1, 2, 3):
        n = 2 * k + 2
        assert path_gamma(n, Radius(k)) == 2 == naive_gamma(1, n, k)


def test_path_gamma_validates():
    with pytest.raises(DomainError):
        path_gamma(0, K1)


def test_cell_cap_enforced():
    with pytest.raises(DomainError):
        exact_gamma(GridDims(9, 9), K1)
    exact_gamma(GridDims(8, 8), K2, node_budget=200)  # 64 cells allowed


def test_budget_flagging():
    res = exact_gamma(GridDims(8, 8), K1, node_budget=50)
    assert res.time_budget_exceeded
    assert is_dominating(GridDims(8, 8), K1, res.witness)
    assert res.gamma == len(res.witness)
    # the flagged value is only an upper bound
    assert res.gamma >= exact_gamma(GridDims(8, 8), K1).gamma


def test_determinism():
    a = exact_gamma(GridDims(4, 4), K1)
    b = exact_gamma(GridDims(4, 4), K1)
    assert a == b
    assert a.nodes_explored == b.nodes_explored
