"""Run one kdom benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a kdom source checkout; kdom is imported from its
src/ directory.  One process, one thread.  The run makes a number of
whole passes over the workload's operations that depends only on
--seconds and the workload, and sets up SETUPS times, spread over the
passes (setup_s is the median).  A speed probe, run from a timer signal,
samples the machine's speed all through the run, and every time is
scaled by it to a fixed reference speed.  It checks the last pass's
outputs with the independent checker and prints one JSON object as its
last line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones.  With
--trace 1 untraced passes alternate with passes that call kdom's stages
one by one under spans; the metrics are per-layer sums, and the spans
are written to bench/out/.  See bench/README.md.
"""
from __future__ import annotations

import os

# One thread: keep numpy's BLAS pool from starting worker threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checker

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# setup_s is the median of this many set-ups, spread evenly over the
# run's passes so that one slow burst of the machine does not set it.
SETUPS = 12
# The speed probe times probe_work() once per PROBE_INTERVAL_S of wall time.
PROBE_INTERVAL_S = 0.025
# probe_work()'s time on a fast stretch of the reference machine (2-core
# KVM sandbox, Python 3.11.7, numpy 2.4.6).  Scaled times read in seconds
# of a machine that runs the probe in this time.
PROBE_REF_S = 0.0008


@dataclass(frozen=True)
class Grid:
    """One operation's input; pick selects the point dropped before the second verify."""

    m: int
    n: int
    k: int
    pick: int = 0

    @property
    def label(self) -> str:
        return f"{self.m}x{self.n}k{self.k}"


# 1x64 at k=1 exhausts the node budget every time (see README): one
# deterministic failed operation per pass.  Any other failure is a check failure.
EXPECTED_FAILURE = "1x64k1"


def _exact_grids() -> list[tuple[int, int, int]]:
    small = [(m, n) for m in range(3, 65) for n in range(m, 65) if m * n <= 64]
    return [(m, n, k) for k in (1, 2) for m, n in small] + [(1, 64, 1)]


# name -> (operation kind, grids, warm-up grid, pass seconds).  A run makes
# one pass per "pass seconds" of --seconds, about the time of a pass on
# a 2-core sandbox.  The count depends on nothing else, so faster code gets
# no extra samples of each operation.
WORKLOADS = {
    "sweep": ("construct", [(m, n, 2) for m in range(27, 40) for n in range(27, 40)],
              (27, 27, 2), 0.85),
    "large": ("roundtrip", [(300, 301, 3), (350, 351, 5)], (120, 121, 3), 0.5),
    "wide-k": ("roundtrip", [(200, 201, 20), (150, 151, 40)], (60, 61, 20), 1.0),
    "exact": ("exact", _exact_grids(), (3, 3, 1), 6),
}

PER_LAYER_UNITS = {
    "construction.best_residue_s": "s",
    "construction.base_set_s": "s",
    "construction.remove_corners_s": "s",
    "construction.corner_edits_s": "s",
    "construction.project_inward_s": "s",
    "construction.base_points": "count",
    "construction.shifted_points": "count",
    "construction.projection_merged": "count",
    "gridmodel.is_dominating_s": "s",
    "gridmodel.verify_domination_s": "s",
    "gridmodel.cells_verified": "count",
    "gridmodel.uncovered_reported": "count",
    "gridmodel.redundancy": "count",
    "cli.save_setfile_s": "s",
    "cli.load_setfile_s": "s",
    "cli.setfile_bytes": "bytes",
    "exact.exact_gamma_s": "s",
    "exact.nodes": "count",
    "exact.nodes_per_s": "1/s",
}


def make_inputs(workload: str, seed: int) -> list[Grid]:
    """The workload's grids in their fixed order, each with a pick drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [Grid(m, n, k, rng.randrange(1 << 30)) for m, n, k in WORKLOADS[workload][1]]


def import_kdom():
    """Import kdom afresh from the checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "kdom" or n.startswith("kdom.")]:
        del sys.modules[name]
    kdom = importlib.import_module("kdom")
    if not Path(kdom.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"kdom imported from {kdom.__file__}, not from {SRC}")
    return kdom, importlib.import_module("kdom.cli")


def probe_work() -> int:
    """About a millisecond of fixed pure-Python integer work.

    Half is recursion with bit arithmetic, as in the exact search; half
    is modular inverses and remainders, as in the residue arithmetic of
    the construction.  In trials against dict churn, small and large
    numpy ops and walks over a large heap, this kind of work slowed most
    nearly as kdom's operations did when the machine slowed, on all four
    workloads.
    """
    def bits(depth: int, acc: int) -> int:
        if depth == 0:
            return acc
        x = acc
        for _ in range(3):
            x = (x | (x << 1)) & 0xFFFFFFFFFFFF
            x ^= x & -x
        return bits(depth - 1, acc + x.bit_length())

    def modular(j: int, p: int) -> int:
        a = (pow(21, -1, p) * (j % p - 20 * j)) % p
        return (a + 20) % p

    return sum(bits(12, i) for i in range(40)) + sum(modular(j, 841) for j in range(900))


class SpeedProbe:
    """Samples the machine's speed by timing probe_work() from a SIGALRM timer.

    On a shared 2-core KVM host the cores run 1.3 to 2 times slower for
    stretches of seconds to minutes, and CPU time slows with wall time,
    so no estimator over the run's own times alone can tell a slow
    stretch from slow code.  The handler runs between bytecodes of the main thread, so it
    samples during long operations too; it starts no thread.  Used as a
    context manager around the measured part of the run.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False

    def sample(self, *_signal) -> None:
        # A tick that arrives while the probe runs would nest a second one.
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        probe_work()
        self.ends.append(time.perf_counter())
        self.starts.append(t0)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()

    def busy(self, start: float, end: float) -> float:
        """Seconds the probe itself took between start and end."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def net(self, start: float, end: float) -> float:
        """Seconds from start to end, less the probe's own."""
        return end - start - self.busy(start, end)

    def scaled(self, start: float, end: float) -> float:
        """net(start, end) at the reference speed.

        The speed is the probe's mean time over the samples taken from the
        last one before start to the first one after end.
        """
        lo = max(0, bisect_right(self.starts, start) - 1)
        hi = min(len(self.starts), bisect_left(self.starts, end) + 1)
        probe_s = statistics.fmean(self.ends[i] - self.starts[i] for i in range(lo, hi))
        return self.net(start, end) * PROBE_REF_S / probe_s


class Tracer:
    """In-memory spans {name, start, end, parent, op} and per-pass counts."""

    def __init__(self, origin: float):
        self.origin = origin
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str):
        record = {
            "name": name,
            "start": time.perf_counter() - self.origin,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": op,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._stack.pop()

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)


class _Untraced:
    """Stands in for Tracer on the plain path."""

    def span(self, name, op):
        return nullcontext()

    def add(self, name, value):
        pass


UNTRACED = _Untraced()


# --- operations -------------------------------------------------------------
#
# Each operation returns a dict of outputs for the checks.  The plain path
# calls kdom as a user would (construct); the traced path calls the same
# stages one by one, each under its own span.



def _staged_construct(kdom, g: Grid, tr: Tracer):
    """best_residue -> base_set -> remove_corners -> project_inward -> is_dominating."""
    dims, k = kdom.GridDims(g.m, g.n), kdom.Radius(g.k)
    with tr.span("construction.best_residue", g.label):
        ell, _ = kdom.best_residue(dims, k)
    with tr.span("construction.base_set", g.label):
        base = kdom.base_set(dims, k, ell)
    tr.add("construction.base_points", len(base))
    shifted = base
    corners = g.m > 2 * k.p and g.n > 2 * k.p
    if corners:
        with tr.span("construction.remove_corners", g.label):
            shifted, trace = kdom.remove_corners(dims, k, ell, base)
        tr.add("construction.shifted_points", len(trace.shifted_pairs))
    with tr.span("construction.project_inward", g.label):
        points = kdom.project_inward(dims, shifted)
    tr.add("construction.projection_merged", len(shifted) - len(points))
    with tr.span("gridmodel.is_dominating", g.label):
        dominating = kdom.is_dominating(dims, k, points)
    tr.add("gridmodel.cells_verified", dims.area)
    if not dominating:
        raise kdom.VerificationError(f"staged set for {g.label} fails domination")
    return points, corners, (ell, base)


def _construct(kdom, g: Grid, tr):
    """(points, corners removed?, (residue, base set) on the traced path only)."""
    if tr is UNTRACED:
        points, trace = kdom.construct(kdom.GridDims(g.m, g.n), kdom.Radius(g.k))
        return points, trace.corner_removal_applied, None
    return _staged_construct(kdom, g, tr)


def op_construct(kdom, cli, g: Grid, tr) -> dict:
    points, _, stage = _construct(kdom, g, tr)
    return {"points": points, "stage": stage}


def op_roundtrip(kdom, cli, g: Grid, tr) -> dict:
    """construct, save_setfile, load_setfile, verify, and verify with one point dropped."""
    dims, k = kdom.GridDims(g.m, g.n), kdom.Radius(g.k)
    points, corners, stage = _construct(kdom, g, tr)
    flags = ("projected",) if corners else ("projected", "no-corner-removal")
    with tr.span("cli.save_setfile", g.label):
        text = cli.save_setfile(cli.SetFile(g.k, g.m, g.n, points, flags))
    tr.add("cli.setfile_bytes", len(text))
    with tr.span("cli.load_setfile", g.label):
        loaded = cli.load_setfile(text)
    with tr.span("gridmodel.verify_domination", g.label):
        report = kdom.verify_domination(dims, k, loaded.points)
    dropped = tuple(loaded.points)[g.pick % len(loaded.points)]
    holed = kdom.VertexSet.from_iterable(q for q in loaded.points if q != dropped)
    with tr.span("gridmodel.verify_domination", g.label):
        holed_report = kdom.verify_domination(dims, k, holed)
    tr.add("gridmodel.cells_verified", 2 * dims.area)
    tr.add("gridmodel.uncovered_reported", len(report.uncovered) + len(holed_report.uncovered))
    tr.add("gridmodel.redundancy",
           sum(c * f for c, f in report.multiplicity_histogram.items()) - dims.area)
    return {"points": points, "stage": stage, "text": text, "loaded": loaded,
            "report": report, "holed": holed, "holed_report": holed_report}


def op_exact(kdom, cli, g: Grid, tr) -> dict:
    with tr.span("exact.exact_gamma", g.label):
        result = kdom.exact_gamma(kdom.GridDims(g.m, g.n), kdom.Radius(g.k))
    tr.add("exact.nodes", result.nodes_explored)
    return {"result": result, "failed": result.time_budget_exceeded}


OPERATIONS = {"construct": op_construct, "roundtrip": op_roundtrip, "exact": op_exact}


def _traced_extras(kdom, g: Grid, out: dict, tr: Tracer) -> None:
    """After the op span: corner edits without verification, and construct for comparison."""
    stage = out.pop("stage", None)
    if stage is None:
        return
    dims, k = kdom.GridDims(g.m, g.n), kdom.Radius(g.k)
    ell, base = stage
    if g.m > 2 * k.p and g.n > 2 * k.p:
        with tr.span("construction.corner_edits", g.label):
            kdom.remove_corners(dims, k, ell, base, verify=False)
    out["construct_points"] = kdom.construct(dims, k)[0]


def run_pass(kdom, cli, kind: str, grids: list[Grid], tr) -> tuple[list, list[tuple[float, float]]]:
    """One pass: each operation's outputs (None if it raised) and its (start, end)."""
    operation = OPERATIONS[kind]
    outputs, intervals = [], []
    for g in grids:
        t0 = time.perf_counter()
        try:
            with tr.span("op", g.label):
                out = operation(kdom, cli, g, tr)
        except kdom.KdomError:
            traceback.print_exc(file=sys.stderr)
            out = None
        intervals.append((t0, time.perf_counter()))
        if out is not None and tr is not UNTRACED:
            _traced_extras(kdom, g, out, tr)
        outputs.append(out)
    return outputs, intervals


def set_size(out: dict) -> int:
    """Points in the set an operation returned; gamma for an exact search."""
    return out["result"].gamma if "result" in out else len(out["points"])


# --- checks against the independent checker ---------------------------------


def _as_tuples(points) -> list[tuple[int, int]]:
    return [(int(i), int(j)) for i, j in points]


def _check_construct(g: Grid, out: dict) -> list[str]:
    pts = _as_tuples(out["points"])
    p = checker.modulus(g.k)
    corners = g.m > 2 * p and g.n > 2 * p
    problems = []
    if any(not (0 <= i < g.m and 0 <= j < g.n) for i, j in pts):
        problems.append("a point lies off the grid")
    if len(set(pts)) != len(pts):
        problems.append("points repeat")
    if not checker.dominates(g.m, g.n, g.k, pts):
        problems.append("the set does not dominate")
    lower, upper = checker.lower_bound(g.m, g.n, g.k), checker.floor_bound(g.m, g.n, g.k, corners)
    if not lower <= len(pts) <= upper:
        problems.append(f"|S|={len(pts)} outside [{lower}, {upper}]")
    if "construct_points" in out and out["construct_points"] != out["points"]:
        problems.append("the staged pipeline and construct return different sets")
    return problems


def _check_report(g: Grid, points, report) -> list[str]:
    pts = _as_tuples(points)
    area = g.m * g.n
    hist = report.multiplicity_histogram
    problems = []
    if set(_as_tuples(report.uncovered)) != checker.uncovered(g.m, g.n, g.k, pts):
        problems.append("uncovered set differs from the checker's")
    if report.covered_count + len(report.uncovered) != area:
        problems.append("covered + uncovered != mn")
    if sum(hist.values()) != area:
        problems.append("histogram frequencies do not sum to mn")
    if sum(c * f for c, f in hist.items()) != checker.ball_grid_sum(g.m, g.n, g.k, pts):
        problems.append("sum c*f differs from the sum of |ball & grid|")
    return problems


def _check_roundtrip(cli, g: Grid, out: dict) -> list[str]:
    problems = _check_construct(g, out)
    if cli.save_setfile(out["loaded"]) != out["text"]:
        problems.append("save -> load -> save is not byte-identical")
    if set(out["loaded"].points) != set(out["points"]):
        problems.append("the loaded set differs from the saved one")
    if len(out["holed"]) != len(out["points"]) - 1:
        problems.append("the holed copy does not lack exactly one point")
    problems += _check_report(g, out["loaded"].points, out["report"])
    problems += ["holed: " + s for s in _check_report(g, out["holed"], out["holed_report"])]
    return problems


def _check_exact(kdom, g: Grid, out: dict) -> list[str]:
    result = out["result"]
    witness = _as_tuples(result.witness)
    known = checker.closed_form_gamma(g.m, g.n, g.k)
    problems = []
    if len(witness) != result.gamma:
        problems.append(f"|witness|={len(witness)} != gamma={result.gamma}")
    if not checker.dominates(g.m, g.n, g.k, witness):
        problems.append("the witness does not dominate")
    if result.gamma < checker.lower_bound(g.m, g.n, g.k):
        problems.append("gamma below ceil(mn/p)")
    if out["failed"]:
        # A budget-exhausted search returns an upper value, not gamma.
        if known is not None and result.gamma < known:
            problems.append(f"upper value {result.gamma} below the known gamma {known}")
        return problems
    if known is not None and result.gamma != known:
        problems.append(f"gamma={result.gamma}, published value {known}")
    built = len(kdom.construct(kdom.GridDims(g.m, g.n), kdom.Radius(g.k))[0])
    if result.gamma > built:
        problems.append(f"gamma={result.gamma} above |construct|={built}")
    return problems


def check_outputs(kdom, cli, kind: str, grids: list[Grid], outputs) -> list[str]:
    problems = []
    for g, out in zip(grids, outputs):
        if out is None:
            problems.append(f"{g.label}: raised a KdomError")
            continue
        if out.get("failed") and g.label != EXPECTED_FAILURE:
            problems.append(f"{g.label}: exhausted the node budget")
        if kind == "construct":
            found = _check_construct(g, out)
        elif kind == "roundtrip":
            found = _check_roundtrip(cli, g, out)
        else:
            found = _check_exact(kdom, g, out)
        problems += [f"{g.label}: {s}" for s in found]
    return problems


# --- the run ----------------------------------------------------------------


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def layer_metrics(tr: Tracer, probe: SpeedProbe) -> dict[str, float]:
    """Per-layer sums over one traced pass; 0 where the pass never reached a layer.

    A span's time is scaled to the reference speed, as wall_s is.
    """
    values = {name: 0.0 if unit in ("s", "1/s") else 0 for name, unit in PER_LAYER_UNITS.items()}
    for s in tr.spans:
        key = s["name"] + "_s"
        if key in values:
            values[key] += probe.scaled(s["start"] + tr.origin, s["end"] + tr.origin)
    values.update(tr.counts)
    if values["exact.exact_gamma_s"] > 0:
        values["exact.nodes_per_s"] = values["exact.nodes"] / values["exact.exact_gamma_s"]
    return values


def per_pass_median(intervals: list[list[tuple[float, float]]], seconds) -> float:
    """One pass: the sum, over operations, of each one's median seconds over the passes."""
    return sum(statistics.median(seconds(*iv) for iv in op) for op in zip(*intervals))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import_kdom()
    except ImportError as exc:
        print(f"cannot import kdom from {SRC}: {exc}", file=sys.stderr)
        return 2

    kind, _, warm, pass_seconds = WORKLOADS[args.workload]
    # A traced run alternates untraced and traced passes, so the tracing
    # overhead is measured within one process.
    passes = max(1, round(args.seconds / pass_seconds))
    schedule = [False, True] * max(1, passes // 2) if args.trace else [False] * passes
    setup_before = [i * len(schedule) // SETUPS for i in range(SETUPS)]
    setups, op_intervals, sizes, tracers = [], {False: [], True: []}, [], []
    attempted = failed = 0
    started = time.perf_counter()
    with SpeedProbe() as probe:
        for index, traced in enumerate(schedule):
            outputs = None  # free the previous pass's outputs before the next one
            for _ in range(setup_before.count(index)):
                t0 = time.perf_counter()
                kdom, cli = import_kdom()
                grids = make_inputs(args.workload, args.seed)
                OPERATIONS[kind](kdom, cli, Grid(*warm), UNTRACED)
                setups.append((t0, time.perf_counter()))
            tr = Tracer(started) if traced else UNTRACED
            outputs, intervals = run_pass(kdom, cli, kind, grids, tr)
            op_intervals[traced].append(intervals)
            attempted += len(outputs)
            failed += sum(1 for out in outputs if out is None or out.get("failed"))
            sizes.append(sum(set_size(out) for out in outputs if out is not None))
            if traced:
                tracers.append(tr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    t0 = time.perf_counter()
    problems = check_outputs(kdom, cli, kind, grids, outputs)
    check_s = time.perf_counter() - t0
    if len(set(sizes)) != 1:
        problems.append(f"set sizes differ between passes: {sorted(set(sizes))}")
    for line in problems[:20]:
        print(f"CHECK FAILED {line}", file=sys.stderr)

    env = environment()
    # Each operation at its median over the run's fixed number of passes,
    # scaled to the reference speed by the probe samples taken around it.
    wall_s = per_pass_median(op_intervals[False], probe.scaled)
    setup_s = statistics.median(probe.scaled(*iv) for iv in setups)
    probe_s = [e - s for s, e in zip(probe.starts, probe.ends)]
    print(json.dumps({
        "env": env, "workload": args.workload, "seed": args.seed,
        "passes": len(schedule), "raw_wall_s": per_pass_median(op_intervals[False], probe.net),
        "raw_setup_s": statistics.median(probe.net(*iv) for iv in setups),
        "probe_samples": len(probe_s), "probe_median_s": statistics.median(probe_s),
        "probe_share": sum(probe_s) / (time.perf_counter() - started), "check_s": check_s,
    }))
    if args.trace:
        per_pass = [layer_metrics(tr, probe) for tr in tracers]
        metrics = {name: {"value": statistics.median(v[name] for v in per_pass), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "env": env, "workload": args.workload, "seed": args.seed,
            "passes": [tr.spans for tr in tracers],
        }))
        traced_wall_s = per_pass_median(op_intervals[True], probe.scaled)
        print(json.dumps({"untraced_wall_s": wall_s, "traced_wall_s": traced_wall_s,
                          "tracing_overhead_s": traced_wall_s - wall_s,
                          "spans": str(spans_path.relative_to(ROOT))}))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "set_points": {"value": sizes[-1], "unit": "points"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
