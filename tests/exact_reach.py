"""exact_gamma past 144 cells, at the default node budget, too slow for tier-1.

Prints, for each grid (16 x 16 k=2, 20 x 20 k=3, 13 x 12 k=1, 13 x 14
k=1 and 14 x 14 k=1), gamma, the root lower bound (where the search
starts: the ring bound), the nodes explored and the process time of one
exact_gamma call, and checks that gamma is the known value, that the
result is not budget-flagged and that its witness dominates; then
prints the line `kdom exact` gives for 18 x 18 at k=2, whose search
runs out of the default budget, and its exit code.  tests/test_exact.py
pins the two grids of this reach that take under half a second
(14 x 14 k=2 and 16 x 16 k=3).  Exits non-zero if a check fails or the
budget line's exit code is not 3:

    PYTHONPATH=src python tests/exact_reach.py
"""
import sys
import time

from kdom import GridDims, Radius, exact_gamma, is_dominating
from kdom.cli import main as kdom_main

# (m, n, k, gamma)
GRIDS = ((16, 16, 2, 24), (20, 20, 3, 21), (13, 12, 1, 38), (13, 14, 1, 44), (14, 14, 1, 47))


def main():
    bad = 0
    for m, n, k, gamma in GRIDS:
        dims, rad = GridDims(m, n), Radius(k)
        start = time.process_time()
        res = exact_gamma(dims, rad)
        seconds = time.process_time() - start
        dominates = is_dominating(dims, rad, res.witness)
        bad += res.gamma != gamma or res.time_budget_exceeded or not dominates
        root = exact_gamma(dims, rad, node_budget=0).lower_bound  # stops at the root, before any size is ruled out
        print(f"{m}x{n} k={k} gamma={res.gamma} known={gamma} root={root} lower={res.lower_bound} "
              f"nodes={res.nodes_explored} budget_exceeded={res.time_budget_exceeded} seconds={seconds:.2f} "
              f"dominates={dominates}", flush=True)
    print("18x18 k=2: ", end="", flush=True)
    start = time.process_time()
    code = kdom_main(["exact", "-m", "18", "-n", "18", "-k", "2"])
    print(f"exit={code} seconds={time.process_time() - start:.2f}", flush=True)
    return 1 if bad or code != 3 else 0


if __name__ == "__main__":
    sys.exit(main())
