"""Steadiness check: run workloads repeatedly and compare each metric's spread with its bound.

    python3 bench/steady.py                          # every workload, 10 seeds
    python3 bench/steady.py --workloads exact --runs 5 --first-seed 100

Runs bench/run.py once per seed, one run at a time, with the command and
run length from BENCHMARK.json.  For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median and the metric's bound.  A spread "fits" when it is
within the bound and is "steady" when it is below a third of it; setup_s
is shown but not judged, since only its median is compared between runs.
It also checks that failed / attempted is the same share in every run.
Exits 1 if a run fails, a check fails, or a spread does not fit.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread as a share of the median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(spec, workload, seed)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
            results.append(result)
        shares = {(r["failed"], r["attempted"]) for r in results}
        same_share = len({f / a for f, a in shares}) == 1
        correct = all(r["correct"] for r in results)
        print(f"== {workload}: {args.runs} runs, correct={correct}, "
              f"failed/attempted={sorted(shares)} same share={same_share}")
        ok &= correct and same_share
        print(f"   {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            median, q1, q3, spread = summarize([r["metrics"][name]["value"] for r in results])
            if name == "setup_s":
                verdict = "not judged"
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "fits"
            else:
                verdict = "TOO WIDE"
                ok = False
            print(f"   {name:<14}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.4f}{bound:>7.3g}  {verdict}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
