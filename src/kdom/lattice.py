"""Arithmetic for the diagonal-code homomorphism on the integer lattice.

A point (i, j) maps to (k+1)*i + k*j modulo p, where p = 2k^2 + 2k + 1 is
the number of lattice points in a closed Manhattan ball of radius k.  The
fibers of this map are perfect Lee codes of Z^2: the radius-k balls around
the fiber's points tile the plane.  This module provides the map, fiber
enumeration inside finite boxes, and the closed-form fiber count.

All arithmetic is exact integer arithmetic; Python integers cannot wrap,
and the documented envelope (k <= 2000, box sides <= 2**31) is enforced
at construction time.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DomainError

MAX_RADIUS = 2000
MAX_BOX_SIDE = 2 ** 31


class LatticePoint(NamedTuple):
    """A point of Z^2; i is the column (west->east), j the row (south->north)."""

    i: int
    j: int


def row_major_key(point: LatticePoint) -> tuple[int, int]:
    """Canonical sort key: ascending row j, then ascending column i."""
    return (point[1], point[0])


@dataclass(frozen=True)
class Radius:
    """Domination distance k >= 1 with its derived modulus p = 2k^2+2k+1."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise DomainError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        if self.k > MAX_RADIUS:
            raise DomainError(f"k={self.k} exceeds the supported cap {MAX_RADIUS}")

    @property
    def p(self) -> int:
        return 2 * self.k * self.k + 2 * self.k + 1


@dataclass(frozen=True)
class Residue:
    """An element of Z_p, stored as its canonical representative in [0, p-1]."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise DomainError(f"modulus must be positive, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            raise DomainError(
                f"residue value {self.value} outside [0, {self.modulus - 1}]"
            )

    @classmethod
    def reduce(cls, value: int, k: Radius) -> "Residue":
        """Reduce an arbitrary integer into Z_p for the given radius."""
        p = k.p
        return cls(value % p, p)


@dataclass(frozen=True)
class Box:
    """Axis-aligned integer rectangle [i_lo, i_hi] x [j_lo, j_hi], inclusive."""

    i_lo: int
    i_hi: int
    j_lo: int
    j_hi: int

    def __post_init__(self):
        if self.i_lo > self.i_hi or self.j_lo > self.j_hi:
            raise DomainError(
                f"empty box [{self.i_lo},{self.i_hi}]x[{self.j_lo},{self.j_hi}]"
            )
        if self.width > MAX_BOX_SIDE or self.height > MAX_BOX_SIDE:
            raise DomainError(f"box side exceeds the supported cap {MAX_BOX_SIDE}")

    @property
    def width(self) -> int:
        return self.i_hi - self.i_lo + 1

    @property
    def height(self) -> int:
        return self.j_hi - self.j_lo + 1

    @property
    def area(self) -> int:
        return self.width * self.height

    def contains(self, point: LatticePoint) -> bool:
        return self.i_lo <= point[0] <= self.i_hi and self.j_lo <= point[1] <= self.j_hi


@dataclass(frozen=True)
class VertexSet:
    """A deduplicated vertex set in canonical row-major order."""

    points: tuple[LatticePoint, ...]
    _index: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", frozenset(self.points))

    @classmethod
    def from_iterable(cls, points: Iterable[tuple[int, int]]) -> "VertexSet":
        """Canonicalize: dedupe and sort row-major."""
        unique = {LatticePoint(int(i), int(j)) for (i, j) in points}
        return cls(tuple(sorted(unique, key=row_major_key)))

    @classmethod
    def empty(cls) -> "VertexSet":
        return cls(())

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[LatticePoint]:
        return iter(self.points)

    def __contains__(self, point) -> bool:
        return point in self._index


def modulus(k: Radius) -> int:
    """Size p = 2k^2+2k+1 of the closed radius-k ball; k^2 + (k+1)^2."""
    return k.p


def phi(k: Radius, point: LatticePoint) -> Residue:
    """The homomorphism (i, j) -> (k+1)*i + k*j reduced into [0, p-1]."""
    return Residue.reduce((k.k + 1) * point[0] + k.k * point[1], k)


def _phi_raw(k: int, p: int, i: int, j: int) -> int:
    # Hot-path variant used by fiber scans; same arithmetic as phi().
    return ((k + 1) * i + k * j) % p


def _first_hit_in_row(inv: int, k: int, p: int, ell: int, j: int, i_lo: int) -> int:
    """Smallest i >= i_lo with (k+1)*i + k*j = ell (mod p); inv = (k+1)^-1 mod p.

    Within a row the fiber's points are spaced exactly p apart, so the
    first hit determines the whole row.
    """
    a = (inv * (ell - k * j)) % p
    return i_lo + ((a - i_lo) % p)


def inverse_image_in_box(k: Radius, ell: Residue, box: Box) -> VertexSet:
    """All fiber points of ell inside the box, row-major ordered."""
    if ell.modulus != k.p:
        raise DomainError(
            f"residue modulus {ell.modulus} does not match p={k.p} for k={k.k}"
        )
    kk, p, e = k.k, k.p, ell.value
    inv = pow(kk + 1, -1, p)
    pts = []
    for j in range(box.j_lo, box.j_hi + 1):
        i = _first_hit_in_row(inv, kk, p, e, j, box.i_lo)
        while i <= box.i_hi:
            pts.append(LatticePoint(i, j))
            i += p
    return VertexSet(tuple(pts))


def count_in_box(k: Radius, ell: Residue, box: Box) -> int:
    """|inverse_image_in_box(k, ell, box)| without materializing the set."""
    if ell.modulus != k.p:
        raise DomainError(
            f"residue modulus {ell.modulus} does not match p={k.p} for k={k.k}"
        )
    kk, p, e = k.k, k.p, ell.value
    inv = pow(kk + 1, -1, p)
    total = 0
    for j in range(box.j_lo, box.j_hi + 1):
        first = _first_hit_in_row(inv, kk, p, e, j, box.i_lo)
        if first <= box.i_hi:
            total += (box.i_hi - first) // p + 1
    return total


def fiber_counts_in_box(k: Radius, box: Box) -> np.ndarray:
    """count_in_box for every residue at once, as an int64 array indexed by ell.

    A row of width W meets every fiber floor(W/p) times.  Its W mod p
    extra hits, written in u = ell/(k+1) coordinates, fill one cyclic
    interval of length W mod p that starts at i_lo + j*k/(k+1) (mod p).
    Rows j and j+p start at the same place, and the starts of p
    consecutive rows are all of Z_p, so every whole period of p rows
    adds W mod p to each count and only height mod p rows go through the
    difference array.  O(p) work, whatever the box size.
    """
    kk, p = k.k, k.p
    inv = pow(kk + 1, -1, p)
    per_row, r = divmod(box.width, p)
    periods, rest = divmod(box.height, p)
    j = np.arange(rest, dtype=np.int64) + box.j_lo % p
    start = (box.i_lo + (inv * kk % p) * j) % p
    end = start + r
    diff = np.zeros(p, dtype=np.int64)
    np.add.at(diff, start, 1)
    np.add.at(diff, end % p, -1)
    diff[0] += np.count_nonzero(end >= p)  # intervals that wrap past p - 1
    np.cumsum(diff, out=diff)
    ell = np.arange(p, dtype=np.int64)
    ell *= kk + 1
    ell %= p
    counts = np.empty(p, dtype=np.int64)
    counts[ell] = diff
    counts += per_row * box.height + periods * r
    return counts


def ball_size(k: Radius) -> int:
    """Point count of the closed Manhattan ball of radius k; equals p."""
    size = sum(2 * (k.k - abs(x)) + 1 for x in range(-k.k, k.k + 1))
    assert size == k.p, "ball size must equal the modulus"
    return size
