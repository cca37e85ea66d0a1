"""Closed-form upper bounds on grid domination numbers.

All formulas are evaluated in exact integer arithmetic.  Each bound is
valid only on its proven domain and raises outside it rather than
returning a number its proof does not back.
"""
from __future__ import annotations

from collections import namedtuple
from typing import Sequence

from .construction import construct
from .errors import DomainError
from .gridmodel import GridDims
from .lattice import Radius, integers


class BoundRow(namedtuple("BoundRow", "m n new_bound fss_bound constructed_size", defaults=(None,))):
    """One comparison-table row; a bound is None outside its domain, and so
    is constructed_size where it was not built."""

    __slots__ = ()


def _require(m, n, least: int, domain: str) -> None:
    """Raise DomainError unless m and n are ints >= least; domain opens the message."""
    if not integers(m, n):
        raise DomainError(f"grid dims must be integers, got {m!r}x{n!r}")
    if m < least or n < least:
        raise DomainError(f"{domain}, got {m}x{n}")


def new_bound(m: int, n: int, k: Radius) -> int:
    """floor((m+2k)(n+2k)/p) - 4, valid for m, n > 2p."""
    _require(m, n, 2 * k.p + 1, f"new bound needs m, n > 2p = {2 * k.p}")
    return (m + 2 * k.k) * (n + 2 * k.k) // k.p - 4


def cor_bound(m: int, n: int, k: Radius) -> int:
    """floor((m+2k)(n+2k)/p); valid for every grid."""
    _require(m, n, 1, "grid dims must be >= 1")
    return (m + 2 * k.k) * (n + 2 * k.k) // k.p


def fss_bound(m: int, n: int, k: Radius) -> int:
    """ceil((m+2k)(n+2k)/p + p/4), the earlier ceiling-form bound.

    The sum goes over the common denominator 4p before the single outer
    ceiling; ceiling the terms separately would overshoot.
    """
    _require(m, n, 1, "grid dims must be >= 1")
    p = k.p
    numerator = 4 * (m + 2 * k.k) * (n + 2 * k.k) + p * p
    return -(-numerator // (4 * p))


def chang_bound(m: int, n: int) -> int:
    """floor((m+2)(n+2)/5) - 4 for ordinary domination, m, n > 8."""
    _require(m, n, 9, "chang bound needs m, n > 8")
    return (m + 2) * (n + 2) // 5 - 4


def bijm_bound(m: int, n: int) -> int:
    """floor((m+4)(n+4)/13) - 4 for 2-distance domination.

    Stated in the literature for "large m and n" with no numeric
    threshold; this library requires m, n > 26 (= 2p at k=2) so the
    domain matches new_bound's.
    """
    _require(m, n, 27, "bijm bound needs m, n > 26")
    return (m + 4) * (n + 4) // 13 - 4


def _in_domain(bound, *args) -> int | None:
    """bound(*args), or None outside the bound's domain."""
    try:
        return bound(*args)
    except DomainError:
        return None


def comparison_table(
    pairs: Sequence[tuple[int, int]],
    k: Radius,
    build: bool = False,
) -> list[BoundRow]:
    """One BoundRow per (m, n); per-row domain errors never abort the table.

    With build=True the construction pipeline runs per row and its size
    is recorded, or None where construct raises DomainError: a grid
    beyond the dense cap, which construct keeps so that kdom verify can
    check every set it returns.
    """
    rows = []
    for m, n in pairs:
        nb = _in_domain(new_bound, m, n, k)
        built = _in_domain(lambda: len(construct(GridDims(m, n), k)[0])) if build and nb is not None else None
        rows.append(
            BoundRow(
                m=m,
                n=n,
                new_bound=nb,
                fss_bound=_in_domain(fss_bound, m, n, k),
                constructed_size=built,
            )
        )
    return rows


TABLE1_PAIRS = (
    (51, 52), (53, 54), (55, 56), (57, 58),
    (59, 60), (61, 62), (63, 64), (65, 66),
)
