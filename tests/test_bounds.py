import pytest

from kdom import (
    BoundRow,
    DomainError,
    GridDims,
    Radius,
    bijm_bound,
    chang_bound,
    comparison_table,
    construct,
    cor_bound,
    fss_bound,
    new_bound,
)
from kdom.bounds import TABLE1_PAIRS

K1, K2, K3 = Radius(1), Radius(2), Radius(3)

TABLE1_EXPECTED = [
    (51, 52, 128, 139),
    (53, 54, 137, 148),
    (55, 56, 147, 158),
    (57, 58, 157, 168),
    (59, 60, 167, 178),
    (61, 62, 178, 189),
    (63, 64, 189, 200),
    (65, 66, 200, 211),
]


@pytest.mark.parametrize("m,n,expected", [(51, 52, 128), (63, 64, 189)])
def test_new_bound_table_rows(m, n, expected):
    assert new_bound(m, n, K3) == expected


def test_new_bound_k1():
    assert new_bound(11, 11, K1) == 13 * 13 // 5 - 4 == 29


def test_new_bound_domain():
    with pytest.raises(DomainError):
        new_bound(50, 52, K3)  # m = 2p exactly is out of domain
    with pytest.raises(DomainError):
        new_bound(51, 50, K3)
    new_bound(51, 51, K3)


@pytest.mark.parametrize("m,n,k,expected", [(51, 52, 3, 132), (1, 1, 1, 1), (19, 19, 3, 25)])
def test_cor_bound(m, n, k, expected):
    assert cor_bound(m, n, Radius(k)) == expected


@pytest.mark.parametrize("m,n,expected", [(51, 52, 139), (65, 66, 211), (59, 60, 178)])
def test_fss_bound_table_rows(m, n, expected):
    assert fss_bound(m, n, K3) == expected


def test_fss_single_outer_ceiling():
    # ceil(a/p + p/4) can be smaller than ceil(a/p) + ceil(p/4); the
    # one-outer-ceiling reading must win
    # (20+6)^2 = 676: 676/25 + 25/4 = 33.29 -> 34, but 28 + 7 = 35
    assert fss_bound(20, 20, K3) == 34
    assert fss_bound(19, 19, K3) == 32  # 25 + 6.25 -> 32


def test_chang_bound():
    assert chang_bound(16, 16) == 60
    assert chang_bound(9, 9) == 121 // 5 - 4 == 20
    with pytest.raises(DomainError):
        chang_bound(8, 9)


def test_chang_equals_new_bound_at_k1():
    for m in range(11, 41):
        for n in range(11, 41):
            assert chang_bound(m, n) == new_bound(m, n, K1)


def test_bijm_bound():
    assert bijm_bound(27, 27) == 961 // 13 - 4 == 69
    assert bijm_bound(30, 40) == 34 * 44 // 13 - 4 == 111
    with pytest.raises(DomainError):
        bijm_bound(26, 30)


def test_bijm_equals_new_bound_at_k2():
    for m in range(27, 57):
        for n in range(27, 57):
            assert bijm_bound(m, n) == new_bound(m, n, K2)


def test_new_beats_fss_strictly():
    for k in (K1, K2, K3):
        p = k.p
        for m in range(2 * p + 1, 2 * p + 41):
            for n in (2 * p + 1, 2 * p + 17, 2 * p + 40):
                assert new_bound(m, n, k) < fss_bound(m, n, k)


def test_new_bound_symmetry_and_cor_gap():
    for k in (K1, K2, K3):
        p = k.p
        for (m, n) in ((2 * p + 1, 2 * p + 9), (2 * p + 5, 2 * p + 2)):
            assert new_bound(m, n, k) == new_bound(n, m, k)
            assert cor_bound(m, n, k) - new_bound(m, n, k) == 4


def test_comparison_table_reproduces_table1():
    rows = comparison_table(TABLE1_PAIRS, K3)
    got = [(r.m, r.n, r.new_bound, r.fss_bound) for r in rows]
    assert got == TABLE1_EXPECTED


def test_comparison_table_empty():
    assert comparison_table([], K3) == []


def test_comparison_table_reports_domain_errors_per_row():
    rows = comparison_table([(5, 5), (51, 52), (0, 5)], K3)
    assert rows[0].new_bound is None
    assert rows[0].note is not None
    assert rows[1].new_bound == 128
    assert rows[1].note is None
    # no bound is defined on a grid without vertices; the row is still made
    assert (rows[2].new_bound, rows[2].fss_bound, rows[2].note) == (
        None, None, "new bound needs m, n > 2p = 50, got 0x5")


def test_comparison_table_with_build():
    rows = comparison_table([(51, 52)], K3, build=True)
    assert rows[0].constructed_size is not None
    assert rows[0].constructed_size <= rows[0].new_bound
    # cross-check against a direct pipeline run
    pts, _ = construct(GridDims(51, 52), K3)
    assert rows[0].constructed_size == len(pts)


def test_bound_row_is_plain_data():
    row = BoundRow(m=51, n=52, k=3, new_bound=128, fss_bound=139)
    assert row.chang_bound is None and row.bijm_bound is None
