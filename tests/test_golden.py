"""Golden-output guard: construct's set files and traces, and the Table 1
CSV, must not change.

GOLDEN_SHA256 was computed from the set-file text and the trace lines
of `construct` on GOLDEN_GRIDS, and SWEEP_SHA256 the same way on
SWEEP_GRIDS, the 169 grids 27..39 squared at k = 2 of the benchmark's
sweep workload: every (m mod p, n mod p) pair, so every k = 2 corner
configuration, which GOLDEN_GRIDS do not all reach.  Any change to the chosen residue, the
corner plans, the projection, the point order or the file format changes
it.  TABLE_CSV_SHA256 is the digest of `kdom table --csv --build` at
k = 2 and then k = 3.  If an output change is intended, recompute the
digest with `golden_text()` or the CLI and say in the change log why the
output moved.
"""
import hashlib

from kdom import GridDims, Radius, construct
from kdom.cli import SetFile, main, save_setfile, trace_lines
from kdom.construction import _frame_plan

# (m, n, k): corner removal needs m, n > 2p (p = 5, 13, 25, 41, 61 for k = 1..5).
GOLDEN_GRIDS = (
    (11, 12, 1), (17, 13, 1), (3, 4, 1), (1, 30, 1),
    (27, 28, 2), (41, 30, 2), (9, 9, 2), (1, 45, 2),
    (51, 52, 3), (60, 53, 3), (20, 25, 3), (40, 1, 3),
    (83, 85, 4), (90, 84, 4), (40, 41, 4),
    (123, 124, 5), (130, 127, 5), (70, 71, 5), (1, 200, 5),
)

SWEEP_GRIDS = tuple((m, n, 2) for m in range(27, 40) for n in range(27, 40))

GOLDEN_SHA256 = "a2fb403ac08fd0388534fa7b8cde161c8b2f7bfe1f424a9300244042db0b9e74"
SWEEP_SHA256 = "c94a5f8dadefdcf417e4dc5f9ea528e6b950f333c71783b06a66a14e1eb6fdf0"
TABLE_CSV_SHA256 = "90538857bf42cbb8c5bd758320ce6269981fb84d96fa052ec17096e8e974a8e1"


def golden_text(grids=GOLDEN_GRIDS) -> str:
    parts = []
    for m, n, kk in grids:
        pts, trace = construct(GridDims(m, n), Radius(kk))
        flags = ("projected",) if trace.corner_removal_applied else ("projected", "no-corner-removal")
        parts.append(save_setfile(SetFile(kk, m, n, pts, flags)))
        parts.append("\n".join(trace_lines(trace)) + "\n")
    return "".join(parts)


def test_golden_grids_cover_every_path():
    kinds = {(kk, m > 2 * Radius(kk).p and n > 2 * Radius(kk).p) for m, n, kk in GOLDEN_GRIDS}
    assert kinds == {(kk, c) for kk in range(1, 6) for c in (False, True)}
    assert any(1 in (m, n) for m, n, _ in GOLDEN_GRIDS)


def test_construct_outputs_match_the_golden_digest():
    assert hashlib.sha256(golden_text().encode()).hexdigest() == GOLDEN_SHA256


def test_sweep_grids_match_their_digest():
    p = Radius(2).p
    assert {(m % p, n % p) for m, n, _ in SWEEP_GRIDS} == {(a, b) for a in range(p) for b in range(p)}
    assert hashlib.sha256(golden_text(SWEEP_GRIDS).encode()).hexdigest() == SWEEP_SHA256


def test_table_csv_matches_the_golden_digest(capsys):
    for kk in (2, 3):
        assert main(["table", "--csv", "--build", "--k", str(kk)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == TABLE_CSV_SHA256


def test_digests_match_with_a_cold_and_a_warm_plan_memo(capsys):
    # construct's corner plans come from a memo of _frame_plan; a hit must give what a miss builds
    def table_csv():
        for kk in (2, 3):
            assert main(["table", "--csv", "--build", "--k", str(kk)]) == 0
        return capsys.readouterr().out

    for text, digest in ((golden_text, GOLDEN_SHA256), (table_csv, TABLE_CSV_SHA256)):
        _frame_plan.cache_clear()
        for memo in ("cold", "warm"):  # the warm run finds every plan in the memo
            misses = _frame_plan.cache_info().misses
            assert hashlib.sha256(text().encode()).hexdigest() == digest, memo
            assert (_frame_plan.cache_info().misses > misses) == (memo == "cold"), memo
