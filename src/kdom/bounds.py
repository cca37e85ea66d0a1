"""Closed-form upper bounds on grid domination numbers.

All formulas are evaluated in exact integer arithmetic.  Each bound is
valid only on its proven domain and raises outside it rather than
returning a number its proof does not back.
"""
from __future__ import annotations

from .errors import DomainError
from .lattice import Radius, integers


def _require(m, n, least: int, domain: str) -> None:
    """Raise DomainError unless m and n are ints >= least; domain opens the message."""
    if not integers(m, n):
        raise DomainError(f"grid dims must be integers, got {m!r}x{n!r}")
    if m < least or n < least:
        raise DomainError(f"{domain}, got {m}x{n}")


def new_bound(m: int, n: int, k: Radius) -> int:
    """floor((m+2k)(n+2k)/p) - 4, valid for m, n > 2p.

    At k=1 this is Chang's (m+2)(n+2)/5 - 4 form, and at k=2 the published
    (m+4)(n+4)/13 - 4 form for 2-distance domination.
    """
    _require(m, n, 2 * k.p + 1, f"new bound needs m, n > 2p = {2 * k.p}")
    return cor_bound(m, n, k) - 4


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


TABLE1_PAIRS = (
    (51, 52), (53, 54), (55, 56), (57, 58),
    (59, 60), (61, 62), (63, 64), (65, 66),
)
