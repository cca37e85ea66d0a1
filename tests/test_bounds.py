import pytest

from kdom import DomainError, Radius, cor_bound, fss_bound, new_bound
from kdom.cli import _in_domain, main

K3 = Radius(3)


@pytest.mark.parametrize("m,n,k,expected", [(51, 52, 3, 132), (1, 1, 1, 1), (19, 19, 3, 25)])
def test_cor_bound(m, n, k, expected):
    assert cor_bound(m, n, Radius(k)) == expected


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


def test_table_text_of_no_pairs_is_its_title_and_header(capsys):
    assert main(["table", "--pairs", ""]) == 0
    assert capsys.readouterr() == ("# kdom table k=3\n   M   N New Bound Old Bound\n", "")


def test_table_cells_are_n_a_where_a_bound_refuses_the_grid():
    # the cells kdom table prints: a bound's DomainError on one grid blanks that cell, not the table
    pairs = [(5, 5), (51, 52), (0, 5), (True, 52), (51.5, 52)]
    rows = [(_in_domain(new_bound, m, n, K3), _in_domain(fss_bound, m, n, K3)) for m, n in pairs]
    assert rows[0] == (None, 12)
    assert rows[1] == (128, 139)
    # no bound is defined on a grid without vertices, or on dims that are not integers; the row is still made
    assert rows[2:] == [(None, None)] * 3
