import pytest

from kdom import DomainError, Radius, cor_bound, fss_bound, new_bound
from kdom.bounds import TABLE1_PAIRS
from kdom.cli import _in_domain, main

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


_BOUNDS = {
    "new": lambda m, n: new_bound(m, n, K3),
    "cor": lambda m, n: cor_bound(m, n, K3),
    "fss": lambda m, n: fss_bound(m, n, K3),
}


@pytest.mark.parametrize("name", _BOUNDS)
@pytest.mark.parametrize("m, n", [(51.5, 52), (60.0, 61), (True, 52), (60, False)])
def test_bounds_refuse_dims_that_are_not_integers(name, m, n):
    with pytest.raises(DomainError) as refused:
        _BOUNDS[name](m, n)
    assert str(refused.value) == f"grid dims must be integers, got {m!r}x{n!r}"


def test_bounds_name_their_domain_when_they_refuse():
    messages = {}
    for name, m, n in (("new", 50, 52), ("cor", 0, 5), ("fss", 5, -1)):
        with pytest.raises(DomainError) as refused:
            _BOUNDS[name](m, n)
        messages[name] = str(refused.value)
    assert messages == {"new": "new bound needs m, n > 2p = 50, got 50x52",
                        "cor": "grid dims must be >= 1, got 0x5",
                        "fss": "grid dims must be >= 1, got 5x-1"}


# new_bound at k=1 is Chang's form and at k=2 the published k=2 form; each is written out as the oracle


def test_chang_bound():
    assert new_bound(16, 16, K1) == 18 * 18 // 5 - 4 == 60
    with pytest.raises(DomainError):
        new_bound(10, 11, K1)  # Chang's form holds from m, n > 8, new_bound's domain from m, n > 10


def test_chang_equals_new_bound_at_k1():
    for m in range(11, 41):
        for n in range(11, 41):
            assert (m + 2) * (n + 2) // 5 - 4 == new_bound(m, n, K1)


def test_bijm_bound():
    assert new_bound(27, 27, K2) == 961 // 13 - 4 == 69
    assert new_bound(30, 40, K2) == 34 * 44 // 13 - 4 == 111
    with pytest.raises(DomainError):
        new_bound(26, 30, K2)


def test_bijm_equals_new_bound_at_k2():
    for m in range(27, 57):
        for n in range(27, 57):
            assert (m + 4) * (n + 4) // 13 - 4 == new_bound(m, n, K2)


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
    got = [(m, n, new_bound(m, n, K3), fss_bound(m, n, K3)) for m, n in TABLE1_PAIRS]
    assert got == TABLE1_EXPECTED


def test_comparison_table_empty(capsys):
    assert main(["table", "--pairs", ""]) == 0
    assert capsys.readouterr() == ("# kdom table k=3\n   M   N New Bound Old Bound\n", "")


def test_comparison_table_reports_domain_errors_per_row():
    # the cells kdom table prints: a bound's DomainError on one grid blanks that cell, not the table
    pairs = [(5, 5), (51, 52), (0, 5), (True, 52), (51.5, 52)]
    rows = [(_in_domain(new_bound, m, n, K3), _in_domain(fss_bound, m, n, K3)) for m, n in pairs]
    assert rows[0] == (None, 12)
    assert rows[1] == (128, 139)
    # no bound is defined on a grid without vertices, or on dims that are not integers; the row is still made
    assert rows[2:] == [(None, None)] * 3
