"""Shared independent oracles, deliberately dumber than the library paths."""
import itertools

import numpy as np

from kdom import DomainError, Radius, phi


def brute_uncovered(m, n, k, points):
    """Grid vertices, row-major, with no dominator within k: a per-vertex scan, no BFS, no numpy."""
    pts = list(points)
    out = []
    for j in range(n):
        for i in range(m):
            if not any(abs(i - a) + abs(j - b) <= k for (a, b) in pts):
                out.append((i, j))
    return out


def brute_multiplicity(m, n, k, points):
    """{(i, j): number of points within distance k} for every grid vertex."""
    pts = list(points)
    return {
        (i, j): sum(1 for (a, b) in pts if abs(i - a) + abs(j - b) <= k)
        for j in range(n)
        for i in range(m)
    }


def brute_fiber(k, ell, box):
    """Direct double-loop fiber enumeration inside an (i_lo..i_hi, j_lo..j_hi) box."""
    rad = Radius(k)
    hits = []
    for j in range(box[2], box[3] + 1):
        for i in range(box[0], box[1] + 1):
            if phi(rad, (i, j)) == ell % rad.p:
                hits.append((i, j))
    return hits


def fiber_window(k, ell, lo, hi):
    """Boolean array of fiber membership for lo <= i, j <= hi, indexed [i - lo, j - lo]."""
    coords = np.arange(lo, hi + 1)
    vals = (k + 1) * coords[:, None] + k * coords[None, :]
    return (vals % Radius(k).p) == ell


def naive_gamma(m, n, k):
    """Subset enumeration by increasing size over ball bitmasks."""
    cells = [(i, j) for j in range(n) for i in range(m)]
    full = (1 << len(cells)) - 1
    masks = []
    for (i, j) in cells:
        mask = 0
        for idx, (a, b) in enumerate(cells):
            if abs(i - a) + abs(j - b) <= k:
                mask |= 1 << idx
        masks.append(mask)
    for size in range(1, len(cells) + 1):
        for combo in itertools.combinations(range(len(cells)), size):
            acc = 0
            for c in combo:
                acc |= masks[c]
            if acc == full:
                return size
    raise AssertionError("unreachable: the full set always dominates")


def count_in_box(k, ell, box):
    """Fiber points of the residue ell, an int in [0, p), in the box, counted row by row:
    the reference for the closed form in kdom.lattice.fiber_counts_in_box."""
    if not 0 <= ell < k.p:
        raise DomainError(f"residue {ell} outside [0, {k.p - 1}] for k={k.k}")
    kk, p = k.k, k.p
    inv = pow(kk + 1, -1, p)
    total = 0
    for j in range(box.j_lo, box.j_hi + 1):
        # smallest i >= i_lo with (k+1)*i + k*j = ell (mod p); hits are p apart
        first = box.i_lo + (inv * (ell - kk * j) - box.i_lo) % p
        if first <= box.i_hi:
            total += (box.i_hi - first) // p + 1
    return total
