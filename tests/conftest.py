"""Shared independent oracles, deliberately dumber than the library paths."""
from kdom import LatticePoint, Radius, phi


def brute_dominates(m, n, k, points):
    """Per-vertex scan over all dominators; no BFS, no numpy."""
    pts = list(points)
    for j in range(n):
        for i in range(m):
            if not any(abs(i - a) + abs(j - b) <= k for (a, b) in pts):
                return False
    return True


def brute_uncovered(m, n, k, points):
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
            if phi(rad, LatticePoint(i, j)).value == ell % rad.p:
                hits.append((i, j))
    return hits
