"""Arithmetic for the diagonal-code homomorphism on the integer lattice.

A point (i, j) maps to (k+1)*i + k*j modulo p, where p = 2k^2 + 2k + 1 is
the number of lattice points in a closed Manhattan ball of radius k.  The
fibers of this map are perfect Lee codes of Z^2: the radius-k balls around
the fiber's points tile the plane.  This module provides the map, fiber
enumeration inside finite boxes, and the closed-form fiber count.

A vertex set is one (N, 2) int64 array of (i, j) rows, deduplicated and
sorted row-major (VertexSet).  Sets and boxes refuse a coordinate with
|c| >= COORD_LIMIT = 2**62, so the difference of two coordinates fits
int64.  The documented envelope (k <= 2000, box sides <= 2**31, enforced
at construction time) lies far inside it, and modular products are
reduced first so they stay below p^2 < 2**46.
"""
from __future__ import annotations

import operator
from collections import namedtuple
from itertools import chain, repeat
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError

MAX_RADIUS = 2000
MAX_BOX_SIDE = 2 ** 31
COORD_LIMIT = 2 ** 62
OUT_OF_RANGE = "vertex coordinates must satisfy |c| < 2**62"


def integers(*values) -> bool:
    """True iff every value is an int and none is a bool."""
    return all(isinstance(v, int) and not isinstance(v, bool) for v in values)


class LatticePoint(namedtuple("LatticePoint", "i j")):
    """A point of Z^2; i is the column (west->east), j the row (south->north)."""

    __slots__ = ()


class Validated:
    """Base of a namedtuple subclass whose _check method validates the fields.

    Put it first among the bases.  The call, _make, _replace, copying and
    unpickling all build through __new__, so each runs _check; a plain
    namedtuple's _make, and so its _replace, would skip it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class Radius(Validated, namedtuple("Radius", "k")):
    """Domination distance k >= 1 with its derived modulus p = 2k^2+2k+1.

    p = k^2 + (k+1)^2 is also the point count of the closed radius-k ball.
    """

    __slots__ = ()

    def _check(self):
        if not integers(self.k):
            raise DomainError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        if self.k > MAX_RADIUS:
            raise DomainError(f"k={self.k} exceeds the supported cap {MAX_RADIUS}")

    @property
    def p(self) -> int:
        return 2 * self.k * self.k + 2 * self.k + 1


class Residue(Validated, namedtuple("Residue", "value modulus")):
    """An element of Z_p, stored as its canonical representative in [0, p-1]."""

    __slots__ = ()

    def _check(self):
        if not integers(self.value, self.modulus):
            raise DomainError(f"residue fields must be integers, got {self!r}")
        if self.modulus < 1:
            raise DomainError(f"modulus must be positive, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            raise DomainError(
                f"residue value {self.value} outside [0, {self.modulus - 1}]"
            )


class Box(Validated, namedtuple("Box", "i_lo i_hi j_lo j_hi")):
    """Axis-aligned integer rectangle [i_lo, i_hi] x [j_lo, j_hi], inclusive, within +-COORD_LIMIT."""

    __slots__ = ()

    def _check(self):
        if not integers(self.i_lo, self.i_hi, self.j_lo, self.j_hi):
            raise DomainError(f"box bounds must be integers, got {self!r}")
        if self.i_lo > self.i_hi or self.j_lo > self.j_hi:
            raise DomainError(
                f"empty box [{self.i_lo},{self.i_hi}]x[{self.j_lo},{self.j_hi}]"
            )
        if min(self.i_lo, self.j_lo) <= -COORD_LIMIT or max(self.i_hi, self.j_hi) >= COORD_LIMIT:
            raise DomainError(f"box bounds must satisfy |c| < 2**62, got {self!r}")
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


def _as_pairs(points) -> np.ndarray:
    """The points as an (N, 2) int64 array of (i, j) rows.

    Raises TypeError on a bool coordinate, through operator.index on one
    that is not an integer, and DomainError on one that int64 cannot hold.
    """
    pts = points.tolist() if isinstance(points, np.ndarray) else list(points)
    try:
        pairs = set(map(len, pts)) <= {2}
    except TypeError:  # an item without a length
        pairs = False
    if not pairs:
        raise DomainError("vertex set items must be (i, j) pairs")
    flat = list(chain.from_iterable(pts))
    kinds = set(map(type, flat))
    if bool in kinds:
        raise TypeError("a bool is not a coordinate")
    if not kinds <= {int}:
        flat = list(map(operator.index, flat))
    try:
        return np.fromiter(flat, np.int64, len(flat)).reshape(-1, 2)
    except OverflowError:
        raise DomainError(OUT_OF_RANGE) from None


def canonical_order(pairs: np.ndarray) -> np.ndarray:
    """Indices that sort (i, j) rows row-major: ascending j, then ascending i; stable.

    Raises DomainError if |c| >= COORD_LIMIT, which the extremes show for free.  One stable argsort
    of the key (j - j_min) w + (i - i_min) while the spans give h w < 2**63; np.lexsort, slower, past that.
    """
    if not len(pairs):
        return np.arange(0)
    i, j = pairs[:, 0], pairs[:, 1]
    i_lo, i_hi, j_lo, j_hi = int(i.min()), int(i.max()), int(j.min()), int(j.max())
    if min(i_lo, j_lo) <= -COORD_LIMIT or max(i_hi, j_hi) >= COORD_LIMIT:
        raise DomainError(OUT_OF_RANGE)
    w = i_hi - i_lo + 1
    if (j_hi - j_lo + 1) * w >= 2 ** 63:
        return np.lexsort((i, j))
    return np.argsort((j - j_lo) * w + (i - i_lo), kind="stable")


def repeats(sorted_pairs: np.ndarray) -> np.ndarray:
    """Mask of the rows of a canonically sorted array that equal the row before them."""
    mask = np.zeros(len(sorted_pairs), dtype=bool)
    if len(sorted_pairs) > 1:
        np.all(sorted_pairs[1:] == sorted_pairs[:-1], axis=1, out=mask[1:])
    return mask


class VertexSet:
    """A deduplicated vertex set in canonical row-major order.

    The set is one read-only (N, 2) int64 array of (i, j) rows, sorted by
    j and then by i, every |c| < COORD_LIMIT.  `points` and iteration
    build LatticePoint views of it on first use.  Build sets with
    from_iterable; the constructor takes an array that is already
    canonical and refuses any dtype but int64.  Copying and unpickling
    go through the constructor, so the copy is read-only too.
    """

    __slots__ = ("array", "_points")

    def __init__(self, array: np.ndarray):
        if array.dtype != np.int64:  # __hash__ reads the bytes, so equal sets must share a dtype
            raise DomainError(f"a vertex set is an int64 array, got {array.dtype}")
        array.flags.writeable = False
        self.array = array
        self._points = None

    @classmethod
    def from_iterable(cls, points: Iterable[tuple[int, int]] | np.ndarray) -> "VertexSet":
        """Canonicalize (i, j) pairs, or an (N, 2) array of them: dedupe and sort row-major.

        Raises DomainError if an item is not a pair or a coordinate is a bool, not an integer or
        past COORD_LIMIT; 1.9, Fraction(1, 2) and float arrays are never truncated.
        """
        try:
            pairs = _as_pairs(points)
        except TypeError as exc:  # a bool, or from operator.index
            raise DomainError(f"vertex coordinates must be integers: {exc}") from None
        pairs = pairs.take(canonical_order(pairs), axis=0)
        return cls(pairs.compress(~repeats(pairs), axis=0))

    @classmethod
    def empty(cls) -> "VertexSet":
        return cls(np.zeros((0, 2), dtype=np.int64))

    @property
    def points(self) -> tuple[LatticePoint, ...]:
        if self._points is None:
            self._points = tuple(map(tuple.__new__, repeat(LatticePoint), zip(*self.array.T.tolist())))
        return self._points

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self) -> Iterator[LatticePoint]:
        return iter(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.array.shape == other.array.shape and bool((self.array == other.array).all())

    def __hash__(self) -> int:
        return hash(self.array.tobytes())

    def __reduce__(self):
        return type(self), (self.array,)

    def __repr__(self) -> str:
        return f"VertexSet({list(self.points)!r})"


def phi(k: Radius, point: LatticePoint) -> Residue:
    """The homomorphism (i, j) -> (k+1)*i + k*j reduced into [0, p-1]."""
    return Residue(((k.k + 1) * point[0] + k.k * point[1]) % k.p, k.p)


def inverse_image_in_box(k: Radius, ell: Residue, box: Box) -> VertexSet:
    """All fiber points of ell inside the box, row-major ordered.

    Row j_lo + r first meets the fiber at column offset
    (c0 - r*k/(k+1)) mod p from i_lo and then every p columns, so one
    repeat over the rows lists the points already sorted.
    """
    if ell.modulus != k.p:
        raise DomainError(
            f"residue modulus {ell.modulus} does not match p={k.p} for k={k.k}"
        )
    kk, p = k.k, k.p
    inv = pow(kk + 1, -1, p)
    c0 = (inv * (ell.value - kk * box.j_lo) - box.i_lo) % p
    rows = np.arange(box.height, dtype=np.int64)
    first = (c0 - (inv * kk % p) * (rows % p)) % p
    hits = (box.width - 1 - first) // p + 1
    starts = np.cumsum(hits) - hits
    pairs = np.empty((int(hits.sum()), 2), dtype=np.int64)
    pairs[:, 1] = np.repeat(rows, hits)
    pairs[:, 0] = np.arange(len(pairs), dtype=np.int64)
    pairs[:, 0] -= np.repeat(starts, hits)
    pairs[:, 0] *= p
    pairs[:, 0] += np.repeat(first, hits)
    pairs += (box.i_lo, box.j_lo)
    return VertexSet(pairs)


def fiber_counts_in_box(k: Radius, box: Box) -> np.ndarray:
    """|inverse_image_in_box(k, ell, box)| for every residue ell, as an int64 array.

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
    start = (box.i_lo % p + (inv * kk % p) * j) % p
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
