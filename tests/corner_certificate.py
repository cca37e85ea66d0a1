"""Certificate that every corner plan keeps domination locally, per k.

A quarter turn maps the Lee lattice L = {(k+1)i + kj = 0 (mod p)} onto
itself, so in its own frame, with the north row of Y at j = 0, every
corner of every grid with m, n > 2p sees the code s + L for s = (si, 0),
si in -k..p-1-k, and its plan is a function of (k, si) alone.  The base
set is a perfect Lee code, so each grid cell is within k of exactly one
of its points.  A plan deletes code points (s and the sources) and
inserts non-code points (the targets), so the edited set dominates iff
every grid cell within k of a deleted point is within k of a target.
The grid is the quadrant i >= 0, j <= -k: every plan lies in the p x p
window of columns -k..p-k-1 and rows -(p-1)..0 (checked here), so for
m, n > 2p no ball around it passes the far grid edges, and the four
corners' windows are disjoint, which is why construction runs no overlap
check.

tests/test_construction.py certifies k <= 20 in tier-1.  Run as a script
for larger k, one line per k and a non-zero exit on any failure.  The
run must cover every k up to kdom.construction.CERTIFIED_K, the largest
k corner removal accepts; raise that constant only past a clean run:

    PYTHONPATH=src python tests/corner_certificate.py 21 48
"""
import sys
import time

import numpy as np

from kdom import Radius
from kdom.construction import _corner_moves, _corner_shape


def paint(points, k, lo, shape):
    """Mask of the box of this shape at corner lo, marking the cells within distance k of a point.

    The box must hold every point's whole ball."""
    d = np.arange(-k, k + 1)
    di, dj = np.nonzero(np.abs(d[:, None]) + np.abs(d) <= k)
    ball = (di - k) * shape[1] + (dj - k)
    at = (points - lo) @ (shape[1], 1)
    mask = np.zeros(shape, dtype=bool)
    mask.reshape(-1)[(at[:, None] + ball).ravel()] = True
    return mask


def _stranded(kk, gone, new):
    """Cells of the frame quadrant i >= 0, j <= -k within k of a gone point and of no new point.

    Only the points' bounding box grown by k is painted.
    """
    both = np.concatenate((gone, new))
    lo, hi = both.min(axis=0) - kk, both.max(axis=0) + kk
    shape = tuple(hi - lo + 1)
    stranded = paint(gone, kk, lo, shape) & ~paint(new, kk, lo, shape)
    return stranded[max(-lo[0], 0):, :max(-kk - lo[1] + 1, 0)]


def certify(kk):
    """(p, the most moves of any plan, failures) for radius kk.

    failures lists (si, case, check) for every offset and check that
    fails; an empty list certifies every corner plan of this k.
    """
    k = Radius(kk)
    p = k.p
    largest, failures = 0, []
    for si in range(-kk, p - kk):
        zj, case = _corner_shape(k, si)
        moves = _corner_moves(k, si, zj, case)
        largest = max(largest, len(moves))
        gone = np.array([(si, 0), *moves], dtype=np.int64)
        new = np.array(list(moves.values()), dtype=np.int64).reshape(-1, 2)
        both = np.concatenate((gone, new))
        checks = {
            "window": (both.min(axis=0) >= (-kk, 1 - p)).all() and (both.max(axis=0) <= (p - kk - 1, 0)).all(),
            "gone on the code": ((gone - (si, 0)) @ (kk + 1, kk) % p == 0).all(),
            "targets off the code": ((new - (si, 0)) @ (kk + 1, kk) % p != 0).all(),
            # deleted points distinct, targets distinct, and no target deleted:
            # what the one-edit _apply_plans relies on instead of checking
            "distinct": all(len(set(map(tuple, points.tolist()))) == len(points) for points in (gone, new, both)),
            "nothing stranded": not _stranded(kk, gone, new).any(),
        }
        failures += [(si, case, check) for check, ok in checks.items() if not ok]
    return p, largest, failures


def main(argv):
    lo, hi = map(int, argv)
    failed = 0
    for kk in range(lo, hi + 1):
        start = time.perf_counter()
        p, largest, failures = certify(kk)
        print(f"k={kk} p={p} largest_plan={largest} seconds={time.perf_counter() - start:.1f}"
              f" failures={len(failures)}", flush=True)
        for si, case, check in failures:
            print(f"  si={si} case={case}: {check}", flush=True)
        failed += len(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
