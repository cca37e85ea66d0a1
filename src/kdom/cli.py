"""Command-line surface: set files, rendering, and the kdom commands.

Set files are line-oriented plain text ("kdom v1" magic, a "k m n count"
header, then "# <flag>" lines and one "i j" pair per line, in any order)
so test fixtures stay diffable.  Coordinates follow Python's int(), blank
lines are skipped, a flag may repeat, the first faulty line is the one
reported, and then any |c| >= 2**62 is refused.  Exit codes: 0 success,
1 verification negative, 2 input or domain error, 3 search budget exceeded.
"""
from __future__ import annotations

import argparse
import sys
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .bounds import (TABLE1_PAIRS, _in_domain, bijm_bound, chang_bound, comparison_table, cor_bound, fss_bound,
                     new_bound)
from .construction import ConstructionTrace, construct
from .errors import DomainError, KdomError, SetFileError
from .exact import DEFAULT_NODE_BUDGET, exact_gamma
from .gridmodel import GridDims, check_dense_size, verify_domination
from .lattice import Radius, Validated, VertexSet, _as_pairs, canonical_order, integers, repeats

MAGIC = "kdom v1"
KNOWN_FLAGS = ("projected", "no-corner-removal")


class SetFile(Validated, namedtuple("SetFile", "k m n points flags", defaults=((),))):
    """A dominating-set file: header (k, m, n, count), flags, points.

    points is a VertexSet, flags a tuple of KNOWN_FLAGS entries.
    """

    __slots__ = ()

    def _check(self):
        if not integers(self.k, self.m, self.n):
            raise SetFileError(f"header values must be integers: k={self.k!r} m={self.m!r} n={self.n!r}")
        if self.k < 1 or self.m < 1 or self.n < 1:
            raise SetFileError(f"header values must be >= 1: k={self.k} m={self.m} n={self.n}")
        if not isinstance(self.flags, tuple):
            raise SetFileError(f"flags must be a tuple, got {type(self.flags).__name__}")
        for f in self.flags:
            if f not in KNOWN_FLAGS:
                raise SetFileError(f"unknown flag {f!r}")
        if not isinstance(self.points, VertexSet):
            raise SetFileError(f"points must be a VertexSet, got {type(self.points).__name__}")
        if "projected" in self.flags:
            a = self.points.array
            off = (a[:, 0] < 0) | (a[:, 0] >= self.m) | (a[:, 1] < 0) | (a[:, 1] >= self.n)
            if off.any():
                i, j = a[off.argmax()].tolist()
                raise SetFileError(
                    f"point {i},{j} outside the {self.m}x{self.n} grid of a projected file"
                )


def save_setfile(sf: SetFile) -> str:
    lines = [MAGIC, f"{sf.k} {sf.m} {sf.n} {len(sf.points)}"]
    for flag in KNOWN_FLAGS:
        if flag in sf.flags:
            lines.append(f"# {flag}")
    head = "\n".join(lines) + "\n"
    return head + ("%d %d\n" * len(sf.points)) % tuple(sf.points.array.ravel().tolist())


def _flag(line: str) -> str | None:
    """The flag a line names if its first token starts with "#", else None."""
    text = line.strip()
    return text[1:].strip() if text.startswith("#") else None


def _read_body(body: list[str]) -> tuple[list[str], np.ndarray]:
    """Flags and (i, j) rows: numpy parses save_setfile's layout, the loop below any other text."""
    head = next((r for r, line in enumerate(body) if _flag(line) not in KNOWN_FLAGS), len(body))
    if any(map(str.strip, body[head:])):  # loadtxt warns on a text with no data line
        try:
            coords = np.loadtxt(body[head:], dtype=np.int64, comments=None, ndmin=2)
            if coords.shape[1] == 2:
                return list(map(_flag, body[:head])), coords
        except ValueError:  # a token int64 cannot hold, or lines other than "i j"
            pass
    flags, pairs = [], []
    for line in filter(str.strip, body):  # file order, so the first faulty line raises
        flag, parts = _flag(line), line.split()
        if flag in KNOWN_FLAGS:
            flags.append(flag)
        elif flag is not None:
            raise SetFileError(f"unknown flag {flag!r}")
        elif len(parts) != 2:
            raise SetFileError(f"expected 'i j', got {line.strip()!r}")
        else:
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise SetFileError(f"non-integer coordinate in {line.strip()!r}") from None
    return flags, _as_pairs(pairs)


def load_setfile(text: str) -> SetFile:
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
        raise SetFileError(f"missing magic line {MAGIC!r}")
    if len(lines) < 2:
        raise SetFileError("missing header line")
    header = lines[1].split()
    if len(header) != 4:
        raise SetFileError(f"header must be 'k m n count', got {lines[1]!r}")
    try:
        k, m, n, count = (int(x) for x in header)
    except ValueError as exc:
        raise SetFileError(f"non-integer header field: {exc}") from None
    try:
        flags, coords = _read_body(lines[2:])
        order = canonical_order(coords)  # stable, so each vertex's first line sorts first
    except DomainError as exc:  # a coordinate past +-2**62
        raise SetFileError(str(exc)) from None
    if len(coords) != count:
        raise SetFileError(f"header count {count} != {len(coords)} body lines")
    coords = coords.take(order, axis=0)
    twice = repeats(coords)
    if twice.any():
        i, j = coords[np.flatnonzero(twice)[order[twice].argmin()]].tolist()
        raise SetFileError(f"duplicate vertex {i} {j}")
    return SetFile(k=k, m=m, n=n, points=VertexSet(coords), flags=tuple(dict.fromkeys(flags)))


def render_ascii(sf: SetFile, coverage: bool = False) -> str:
    """Rows printed north to south; '#' marks set points, '!' uncovered vertices."""
    cells = np.full((sf.n, sf.m), "+" if coverage else ".")
    if coverage:
        uncovered = verify_domination(GridDims(sf.m, sf.n), Radius(sf.k), sf.points).uncovered.array
        cells[uncovered[:, 1], uncovered[:, 0]] = "!"
    pts = sf.points.array
    on = ((pts >= 0) & (pts < (sf.m, sf.n))).all(axis=1)
    cells[pts[on, 1], pts[on, 0]] = "#"
    return "".join(" ".join(row) + "\n" for row in cells[::-1].tolist())


def trace_lines(trace: ConstructionTrace) -> list[str]:
    lines = [
        f"k={trace.k.k}",
        f"m={trace.dims.m}",
        f"n={trace.dims.n}",
        f"residue={trace.chosen_residue}",
        f"base_size={trace.base_size}",
        f"corner_removal={'yes' if trace.corner_removal_applied else 'no'}",
    ]
    if trace.corner_cases is not None:
        for ctx in trace.corner_cases:
            tag, (si, sj), (zi, zj) = ctx.corner.value, ctx.s, ctx.z
            slope = "none" if ctx.s == ctx.z else str(Fraction(sj - zj, si - zi))  # of L1, the line through z and s
            lines.append(f"corner_{tag}_case={ctx.case.value}")
            lines.append(f"corner_{tag}_s={si},{sj}")
            lines.append(f"corner_{tag}_z={zi},{zj}")
            lines.append(f"corner_{tag}_slope_l1={slope}")
    for i, j in trace.removed:
        lines.append(f"removed={i},{j}")
    for (i, j), (u, v) in trace.shifted_pairs:
        lines.append(f"shift={i},{j}>{u},{v}")
    lines.append(f"projection_merged={trace.projection_merged}")
    lines.append(f"final_size={trace.final_size}")
    return lines


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_construct(args) -> int:
    pts, trace = construct(GridDims(args.m, args.n), Radius(args.k))
    flags = ["projected"]
    if not trace.corner_removal_applied:
        flags.append("no-corner-removal")
    sf = SetFile(k=args.k, m=args.m, n=args.n, points=pts, flags=tuple(flags))
    _write(args.output, save_setfile(sf))
    if args.trace:
        _write(args.trace, "\n".join(trace_lines(trace)) + "\n")
    return 0


def cmd_verify(args) -> int:
    with open(args.setfile) as fh:
        sf = load_setfile(fh.read())
    k = Radius(args.k if args.k is not None else sf.k)
    dims = GridDims(sf.m, sf.n)
    report = verify_domination(dims, k, sf.points)
    hist, gaps = report.multiplicity_histogram, len(report.uncovered)
    print(f"NOT dominating: {gaps} uncovered vertices" if gaps else
          f"dominating: {len(sf.points)} points cover {sf.m}x{sf.n} at k={k.k}")
    print(f"covered={report.covered_count}/{dims.area} "
          f"redundancy={sum(c * f for c, f in hist.items()) - dims.area} "
          f"multiplicity={','.join(f'{c}:{f}' for c, f in hist.items())}")
    for i, j in report.uncovered:
        print(f"{i} {j}")
    return 1 if gaps else 0


def cmd_bound(args) -> int:
    m, n, k = args.m, args.n, Radius(args.k)
    fields = {"new": _in_domain(new_bound, m, n, k), "cor": cor_bound(m, n, k),
              "fss": _in_domain(fss_bound, m, n, k)}
    if args.k == 1:
        fields["chang"] = _in_domain(chang_bound, m, n)
    if args.k == 2:
        fields["bijm"] = _in_domain(bijm_bound, m, n)
    print(" ".join(f"{name}={'n/a (domain)' if value is None else value}" for name, value in fields.items()))
    return 0


def _parse_pairs(args) -> list[tuple[int, int]]:
    if args.pairs is not None:
        pairs = []
        if args.pairs.strip():
            for token in args.pairs.split(","):
                a, _, b = token.partition("x")
                pairs.append((int(a), int(b)))
        return pairs
    if args.range is not None:
        spec = args.range
        step = 2
        if ":" in spec:
            spec, step_text = spec.split(":")
            step = int(step_text)
        lo, _, hi = spec.partition("..")
        return [(m, m + 1) for m in range(int(lo), int(hi) + 1, step)]
    return list(TABLE1_PAIRS)


def _cell(value) -> str:
    return "n/a" if value is None else str(value)


def cmd_table(args) -> int:
    rows = comparison_table(_parse_pairs(args), Radius(args.k), build=args.build)
    header = ["M", "N", "New Bound", "Old Bound"]
    if args.build:
        header.append("Constructed")
    table = [header]
    for r in rows:
        cells = [_cell(r.m), _cell(r.n), _cell(r.new_bound), _cell(r.fss_bound)]
        if args.build:
            cells.append(_cell(r.constructed_size))
        table.append(cells)
    if args.csv:
        out = [",".join(cells) for cells in table]
    else:
        widths = (4, 4, 10, 10, 12)
        out = [f"# kdom table k={args.k}"]
        out += ["".join(c.rjust(w) for c, w in zip(cells, widths)) for cells in table]
    _write(args.output, "\n".join(out) + "\n")
    return 0


def cmd_exact(args) -> int:
    dims = GridDims(args.m, args.n)
    k = Radius(args.k)
    result = exact_gamma(dims, k, node_budget=args.budget)
    if result.time_budget_exceeded:
        print(f"gamma>={result.lower_bound} gamma<={result.gamma} budget exceeded "
              f"({result.nodes_explored} nodes)")
        return 3
    print(f"gamma={result.gamma}")
    if args.witness:
        for i, j in result.witness:
            print(f"{i} {j}")
    return 0


def cmd_render(args) -> int:
    with open(args.setfile) as fh:
        sf = load_setfile(fh.read())
    check_dense_size(GridDims(sf.m, sf.n), Radius(sf.k))  # the panel draws every cell
    _write(args.output, render_ascii(sf, coverage=args.coverage))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdom",
        description="k-distance dominating sets of m x n grid graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def grid_command(name, func, help):
        """A subcommand that takes -m, -n and -k."""
        command = sub.add_parser(name, help=help)
        for flag in ("-m", "-n", "-k"):
            command.add_argument(flag, type=int, required=True)
        command.set_defaults(func=func)
        return command

    c = grid_command("construct", cmd_construct, "build a dominating set")
    c.add_argument("-o", "--output", default=None, help="set file (default stdout)")
    c.add_argument("--trace", default=None, help="write the construction trace here")

    v = sub.add_parser("verify", help="check a set file for domination")
    v.add_argument("setfile")
    v.add_argument("--k", type=int, default=None, help="override the file's k")
    v.set_defaults(func=cmd_verify)

    grid_command("bound", cmd_bound, "print the closed-form bounds")

    t = sub.add_parser("table", help="bound comparison table")
    t.add_argument("--k", type=int, default=3)
    t.add_argument("--pairs", default=None, help='e.g. "51x52,53x54" (overrides --range)')
    t.add_argument("--range", default=None, help='e.g. "51..65:2", pairs (m, m+1)')
    t.add_argument("--csv", action="store_true")
    t.add_argument("--build", action="store_true", help="also run the construction per row")
    t.add_argument("-o", "--output", default=None)
    t.set_defaults(func=cmd_table)

    e = grid_command("exact", cmd_exact, "exact minimum for desk-scale grids")
    e.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="search-node budget (deterministic)")
    e.add_argument("--witness", action="store_true", help="print the witness points")

    r = sub.add_parser("render", help="draw a set file")
    r.add_argument("setfile")
    r.add_argument("--coverage", action="store_true", help="shade covered/uncovered cells")
    r.add_argument("-o", "--output", default=None)
    r.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KdomError, OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
