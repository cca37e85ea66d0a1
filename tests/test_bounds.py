import pytest

from kdom import DomainError, GridDims, Radius, cor_bound, fss_bound, new_bound
from kdom.cli import _in_domain, main

K3 = Radius(3)


@pytest.mark.parametrize("m,n,k,expected", [(51, 52, 3, 132), (1, 1, 1, 1), (19, 19, 3, 25)])
def test_cor_bound(m, n, k, expected):
    assert cor_bound(GridDims(m, n), Radius(k)) == expected


def test_fss_single_outer_ceiling():
    # ceil(a/p + p/4) can be smaller than ceil(a/p) + ceil(p/4); the
    # one-outer-ceiling reading must win
    # (20+6)^2 = 676: 676/25 + 25/4 = 33.29 -> 34, but 28 + 7 = 35
    assert fss_bound(GridDims(20, 20), K3) == 34
    assert fss_bound(GridDims(19, 19), K3) == 32  # 25 + 6.25 -> 32


def test_bounds_name_their_domain_when_they_refuse():
    # GridDims refuses a grid without vertices before any bound sees it; new_bound alone has a domain
    with pytest.raises(DomainError) as refused:
        new_bound(GridDims(50, 52), K3)
    assert str(refused.value) == "new bound needs m, n > 2p = 50, got 50x52"


def test_table_text_of_no_pairs_is_its_title_and_header(capsys):
    assert main(["table", "--pairs", ""]) == 0
    assert capsys.readouterr() == ("# kdom table k=3\n   M   N New Bound Old Bound\n", "")


def test_table_cells_are_n_a_where_a_bound_refuses_the_grid():
    # the cells kdom table prints: a DomainError from GridDims or a bound on one grid blanks its cells, not the table
    pairs = [(5, 5), (51, 52), (0, 5), (5, -1), (2 ** 31 + 1, 5)]
    rows = []
    for m, n in pairs:
        dims = _in_domain(GridDims, m, n)
        rows.append((None, None) if dims is None else (_in_domain(new_bound, dims, K3), fss_bound(dims, K3)))
    assert rows[0] == (None, 12)
    assert rows[1] == (128, 139)
    # no bound is defined on a grid without vertices, or past the side cap; the row is still made
    assert rows[2:] == [(None, None)] * 3
