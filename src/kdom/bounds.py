"""Closed-form upper bounds on grid domination numbers.

All formulas are evaluated in exact integer arithmetic.  Each bound is
valid only on its proven domain and raises outside it rather than
returning a number its proof does not back.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .construction import construct
from .errors import DomainError
from .gridmodel import GridDims
from .lattice import Radius


@dataclass(frozen=True)
class BoundRow:
    """One comparison-table row; a bound is None outside its domain."""

    m: int
    n: int
    k: int
    new_bound: int | None
    fss_bound: int | None
    chang_bound: int | None = None
    bijm_bound: int | None = None
    constructed_size: int | None = None
    note: str | None = None


def new_bound(m: int, n: int, k: Radius) -> int:
    """floor((m+2k)(n+2k)/p) - 4, valid for m, n > 2p."""
    p = k.p
    if m <= 2 * p or n <= 2 * p:
        raise DomainError(
            f"new bound needs m, n > 2p = {2 * p}, got {m}x{n}"
        )
    return (m + 2 * k.k) * (n + 2 * k.k) // p - 4


def cor_bound(m: int, n: int, k: Radius) -> int:
    """floor((m+2k)(n+2k)/p); valid for every grid."""
    if m < 1 or n < 1:
        raise DomainError(f"grid dims must be >= 1, got {m}x{n}")
    return (m + 2 * k.k) * (n + 2 * k.k) // k.p


def fss_bound(m: int, n: int, k: Radius) -> int:
    """ceil((m+2k)(n+2k)/p + p/4), the earlier ceiling-form bound.

    The sum goes over the common denominator 4p before the single outer
    ceiling; ceiling the terms separately would overshoot.
    """
    if m < 1 or n < 1:
        raise DomainError(f"grid dims must be >= 1, got {m}x{n}")
    p = k.p
    numerator = 4 * (m + 2 * k.k) * (n + 2 * k.k) + p * p
    return -(-numerator // (4 * p))


def chang_bound(m: int, n: int) -> int:
    """floor((m+2)(n+2)/5) - 4 for ordinary domination, m, n > 8."""
    if m <= 8 or n <= 8:
        raise DomainError(f"chang bound needs m, n > 8, got {m}x{n}")
    return (m + 2) * (n + 2) // 5 - 4


def bijm_bound(m: int, n: int) -> int:
    """floor((m+4)(n+4)/13) - 4 for 2-distance domination.

    Stated in the literature for "large m and n" with no numeric
    threshold; this library requires m, n > 26 (= 2p at k=2) so the
    domain matches new_bound's.
    """
    if m <= 26 or n <= 26:
        raise DomainError(f"bijm bound needs m, n > 26, got {m}x{n}")
    return (m + 4) * (n + 4) // 13 - 4


def _in_domain(bound, *args) -> tuple[int | None, str | None]:
    """bound(*args) and None, or None and the DomainError text outside the bound's domain."""
    try:
        return bound(*args), None
    except DomainError as exc:
        return None, str(exc)


def comparison_table(
    pairs: Sequence[tuple[int, int]],
    k: Radius,
    build: bool = False,
) -> list[BoundRow]:
    """One BoundRow per (m, n); per-row domain errors never abort the table.

    chang_bound is filled in at k=1 and bijm_bound at k=2, each inside
    its own domain.  With build=True the construction pipeline runs per
    row and its size is recorded.
    """
    rows = []
    for m, n in pairs:
        nb, note = _in_domain(new_bound, m, n, k)
        constructed = len(construct(GridDims(m, n), k)[0]) if (build and note is None) else None
        rows.append(
            BoundRow(
                m=m,
                n=n,
                k=k.k,
                new_bound=nb,
                fss_bound=_in_domain(fss_bound, m, n, k)[0],
                chang_bound=_in_domain(chang_bound, m, n)[0] if k.k == 1 else None,
                bijm_bound=_in_domain(bijm_bound, m, n)[0] if k.k == 2 else None,
                constructed_size=constructed,
                note=note,
            )
        )
    return rows


TABLE1_PAIRS = (
    (51, 52), (53, 54), (55, 56), (57, 58),
    (59, 60), (61, 62), (63, 64), (65, 66),
)
