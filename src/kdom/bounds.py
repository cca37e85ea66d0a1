"""Closed-form upper bounds on grid domination numbers.

All formulas are evaluated in exact integer arithmetic on a validated
GridDims.  Each bound is valid only on its proven domain and raises
outside it rather than returning a number its proof does not back.
"""
from __future__ import annotations

from .errors import DomainError
from .lattice import Radius


def new_bound(dims: "GridDims", k: Radius) -> int:
    """floor((m+2k)(n+2k)/p) - 4, valid for m, n > 2p.

    At k=1 this is Chang's (m+2)(n+2)/5 - 4 form, and at k=2 the published
    (m+4)(n+4)/13 - 4 form for 2-distance domination.
    """
    if min(dims) <= 2 * k.p:
        raise DomainError(f"new bound needs m, n > 2p = {2 * k.p}, got {dims.m}x{dims.n}")
    return cor_bound(dims, k) - 4


def cor_bound(dims: "GridDims", k: Radius) -> int:
    """floor((m+2k)(n+2k)/p); valid for every grid."""
    return (dims.m + 2 * k.k) * (dims.n + 2 * k.k) // k.p


def fss_bound(dims: "GridDims", k: Radius) -> int:
    """ceil((m+2k)(n+2k)/p + p/4), the earlier ceiling-form bound.

    The sum goes over the common denominator 4p before the single outer
    ceiling; ceiling the terms separately would overshoot.
    """
    p = k.p
    numerator = 4 * (dims.m + 2 * k.k) * (dims.n + 2 * k.k) + p * p
    return -(-numerator // (4 * p))


TABLE1_PAIRS = (
    (51, 52), (53, 54), (55, 56), (57, 58),
    (59, 60), (61, 62), (63, 64), (65, 66),
)
