"""Mutation check: each mutant below, applied alone to a copy of the checkout, must fail tier-1.

A mutant is (file, old text, new text, reason).  The old text must occur exactly once in the
file.  The reason is None unless the mutant is equivalent: no input tells it from the program,
and the reason says why.  A survivor that is not marked equivalent is a rule that no tier-1 test
checks.  Run it from anywhere, with a work directory outside the checkout for the copies:

    PYTHONPATH=src python tests/mutants.py /tmp/kdom-mutants

It first runs tier-1 on an unmutated copy, then one mutant at a time, each in a fresh copy that
it deletes afterwards.  It prints killed (with the first failing test), survived or timed out,
and the seconds, per mutant.  It exits 1 on an unmarked survivor or a mutant that does not apply.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 600  # seconds for one tier-1 run, which takes about 25 s on 2 cores
LEFT_OUT = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}

CLI, CONSTRUCTION, EXACT = "src/kdom/cli.py", "src/kdom/construction.py", "src/kdom/exact.py"
GRIDMODEL, LATTICE = "src/kdom/gridmodel.py", "src/kdom/lattice.py"

MUTANTS = [
    # set files and the CLI
    (CLI, "        return 3\n", "        return 4\n", None),
    (CLI, "for i, j in result.witness:", "for j, i in result.witness:", None),
    (CLI, 'f"duplicate vertex {i} {j}"', 'f"repeated vertex {i} {j}"', None),
    (CLI, "if not lines or lines[0] != MAGIC:", "if not lines:", None),
    (CLI, "if len(header) != 4:", "if len(header) > 4:", None),
    (CLI, "off = (a[:, 0] < 0) |", "off = (a[:, 0] < -1) |", None),
    (CLI, "(a[:, 0] >= self.m)", "(a[:, 0] > self.m)", None),
    (CLI, "if step < 1:", "if step <= 1:", None),
    (CLI, "on = ((pts >= 0) & (pts < (sf.m, sf.n)))", "on = ((pts >= 0) & (pts <= (sf.m, sf.n)))", None),
    (CLI, "dims = _in_domain(GridDims, m, n)", "dims = GridDims(m, n)", None),
    # the exact solver
    (EXACT, "nodes, len(witness) > size)", "nodes, len(witness) >= size)", None),
    (EXACT, "    nodes = held = 0\n",  # state kept from call to call
     "    nodes = held = 0\n    exact_gamma.calls = nodes = getattr(exact_gamma, 'calls', -1) + 1\n", None),
    (EXACT, "r = min(radius, m + n - 2)", "r = min(radius, m + n - 2) - (radius == 5)", None),
    (EXACT, "return [y * m + x for x, y in cells]",  # a cell ruled out that is no image of the candidate
     "return [y * m + x for x, y in cells] + [(c + 1) % (m * n)]", None),
    (EXACT, "min(dims) != 1", "dims.m != 1", None),
    (EXACT, "// area) < 1:", "// area) < 2:", None),
    # values and fibers
    (LATTICE, "0 <= ell < p)", "0 <= ell <= p)", None),
    (LATTICE, "0 <= ell < p)", "0 <= ell < 2 * p)", None),
    (LATTICE, "if self.k < 1:", "if self.k < 0:", None),
    (LATTICE, "self.j_lo > self.j_hi:", "self.j_lo > self.j_hi + 1:", None),
    (LATTICE, "if self.k > MAX_RADIUS:", "if self.k >= MAX_RADIUS:", None),
    (LATTICE, "if self.width > MAX_BOX_SIDE", "if self.width >= MAX_BOX_SIDE", None),
    (LATTICE, "if type(v) is not int and", "if type(v) not in (int, float) and", None),
    (LATTICE, "(isinstance(v, bool) or not isinstance(v, int))", "(not isinstance(v, int))", None),
    (GRIDMODEL, "if not integers(self.m, self.n):", "if not integers(self.n):", None),
    (GRIDMODEL, "if not integers(self.m, self.n):", "if not integers(self.m):", None),
    *((LATTICE, "return 2 * self.k * self.k + 2 * self.k + 1",
       f"return 2 * self.k * self.k + 2 * self.k + 1 + (self.k == {k})", None) for k in (1, 2, 3, 5)),
    (LATTICE, "hits = (w - 1 + p - first) // p", "hits = (w + p - first) // p", None),
    (LATTICE, "hits = (w - 1 + p - first) // p", "hits = (w - 2 + p - first) // p", None),
    (LATTICE, "hits = (w - 1 + p - first) // p", "hits = np.minimum((w - 1 + p - first) // p, 2)", None),
    (LATTICE, "    return VertexSet(pairs_of_keys(fiber_keys(k, ell, box), box.width) + (box.i_lo, box.j_lo))",
     "    pts = pairs_of_keys(fiber_keys(k, ell, box), box.width) + (box.i_lo, box.j_lo)\n"
     "    return VertexSet(pts[np.lexsort(pts.T[::-1])])", None),  # column-major
    (LATTICE, "keep[:1] = keys[:1] >= 0", "keep[:1] = keys[:1] > 0", None),
    (LATTICE, "+ (i_lo, j_lo))", "+ (i_lo, 0))", None),
    (LATTICE, "* w < 2 ** 63:", "* w <= 2 ** 63:",
     "both paths return the same set, and at h*w = 2**63 the largest key is 2**63 - 1, which int64 holds"),
    # the verifier, and the BFS oracle of its distance tests
    ("tests/test_gridmodel.py", "if v == b:", "if v == b and v != a:", None),
    (GRIDMODEL, "top = diff[:2 * kk + m, 2 * kk:2 * kk + n]", "top = diff[:2 * kk + m - 1, 2 * kk:2 * kk + n]", None),
    (GRIDMODEL, "span = kk - np.abs(dj)", "span = kk + 0 * dj", None),
    (GRIDMODEL, "if freqs[0]:", "if freqs[0] and len(s):", None),
    (GRIDMODEL, "dj = np.arange(-kk, kk + 1)[:, None]", "dj = np.arange(-kk, kk)[:, None]", None),
    (GRIDMODEL, "np.add.at(flat, (first + part).ravel(), one)", "flat[(first + part).ravel()] += one", None),
    (GRIDMODEL, "pts = pts.compress((pts[:, 0] >= -kk) & (pts[:, 0] < m + kk), axis=0)",
     "pts = pts.clip((-kk, -kk), (m + kk - 1, n + kk - 1))", None),
    (GRIDMODEL, "for a in range(0, len(at), step):", "for a in range(0, min(len(at), step), step):", None),
    (GRIDMODEL, "return diff[2 * kk:2 * kk + m, 2 * kk:2 * kk + n]",
     "return diff[2 * kk:2 * kk + m, 2 * kk:2 * kk + n].copy()", None),
    (GRIDMODEL, "if cells > MAX_DENSE_CELLS:", "if cells >= MAX_DENSE_CELLS:", None),
    (GRIDMODEL, "r = min(kk, m + n - 1)", "r = min(kk, m + n - 3)", None),
    (GRIDMODEL, "r = min(kk, m + n - 1)", "r = min(kk, m + n - 2)",
     "the grid's diameter is m+n-2, so a point moved to that radius still covers every cell"),
    # the construction and the bounds
    (CONSTRUCTION, "dims.m + off - 1, out=i)", "dims.m + off - 2, out=i)", None),
    (CONSTRUCTION, "if dims.m <= 2 * p or", "if dims.m < 2 * p or", None),
    (CONSTRUCTION, "ell = int(counts.argmin())", "ell = int(counts.argmax())", None),
    ("src/kdom/bounds.py", "min(dims) <= 2 * k.p", "dims.m <= 2 * k.p", None),
    ("src/kdom/bounds.py", "min(dims) <= 2 * k.p", "min(dims) < 2 * k.p", None),
    ("src/kdom/__init__.py", "    ConstructionTrace,\n", "    CORNER_ORDER,\n    ConstructionTrace,\n", None),
]


def skip(folder, names):
    """What a copy leaves out: git, caches and the benchmark's output."""
    left_out = LEFT_OUT | ({"out"} if Path(folder) == ROOT / "bench" else set())
    return left_out & set(names)


def tier1(copy):
    """Run tier-1 in the copy: (outcome, seconds, first failing test or None)."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
                            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out = proc.communicate(timeout=TIMEOUT)[0]
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:  # the whole session, so a timed-out run leaves no process behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    seconds = time.monotonic() - start
    if out is None:
        proc.communicate()
        return "timed out", seconds, None
    if proc.returncode == 0:
        return "survived", seconds, None
    failed = next((line.split(" ")[1].split("[")[0] for line in out.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))), None)
    return "killed", seconds, failed


def run(mutant, copy):
    """Copy the checkout, apply the mutant (None for none), run tier-1 there and delete the copy:
    tier1's answer, or None when the mutant's old text does not occur exactly once."""
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=skip)
    try:
        if mutant is not None:
            file, old, new, _ = mutant
            text = (copy / file).read_text()
            if text.count(old) != 1:
                return None
            (copy / file).write_text(text.replace(old, new))
        return tier1(copy)
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", type=Path, help="where the copies go; each is deleted after its run")
    work = parser.parse_args().workdir.resolve()
    if work == ROOT or ROOT in work.parents:
        sys.exit("the work directory must lie outside the checkout")
    copy = work / "kdom-mutant"
    sys.stdout.reconfigure(line_buffering=True)  # one line per run as it ends, also into a file
    outcome, seconds, failed = run(None, copy)
    print(f"unmutated copy: {outcome} in {seconds:.1f} s")
    if outcome != "survived":
        sys.exit(f"tier-1 fails without a mutant ({failed}), so no mutant can be judged")
    bad = 0
    for n, (file, old, new, reason) in enumerate(MUTANTS, 1):
        result = run((file, old, new, reason), copy)
        if result is None:
            print(f"{n:3} does not apply: {file} does not hold {old!r} exactly once")
            bad += 1
            continue
        outcome, seconds, failed = result
        note = failed if failed else f"equivalent: {reason}" if reason else ""
        print(f"{n:3} {outcome:9} {seconds:6.1f} s  {file}: {old.strip()!r} -> {new.strip()!r}  {note}")
        bad += outcome == "survived" and reason is None
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
