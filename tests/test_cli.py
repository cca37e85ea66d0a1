import pytest

from kdom import GridDims, Radius, SetFileError, exact_gamma
from kdom.cli import load_setfile, main, save_setfile
from test_acceptance import TABLE1_CSV


def make_file(tmp_path, text, name="set.kdom"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_construct_small_grid_flag(tmp_path):
    out = tmp_path / "small.kdom"
    assert main(["construct", "-m", "6", "-n", "6", "-k", "3", "-o", str(out)]) == 0
    sf = load_setfile(out.read_text())
    assert len(sf.points) <= 5
    assert sf.flags == ("projected", "no-corner-removal")


def test_construct_rejects_bad_dims(capsys):
    assert main(["construct", "-m", "0", "-n", "5", "-k", "1"]) == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_construct_writes_trace(tmp_path):
    out = tmp_path / "s.kdom"
    tr = tmp_path / "s.trace"
    assert main(["construct", "-m", "11", "-n", "11", "-k", "1",
                 "-o", str(out), "--trace", str(tr)]) == 0
    assert load_setfile(out.read_text()).flags == ("projected",)
    text = tr.read_text()
    assert "residue=" in text
    assert text.count("removed=") == 4
    assert "corner_NW_case=" in text


def test_verify_negative_lists_uncovered(tmp_path, capsys):
    path = make_file(tmp_path, "kdom v1\n1 2 2 1\n0 0\n")
    assert main(["verify", path]) == 1
    out = capsys.readouterr().out
    assert "1 1" in out


def test_verify_prints_the_coverage_summary_after_the_first_line(tmp_path, capsys):
    # 2x2 at k=1: (0, 0) alone misses (1, 1); with (1, 1) the two off-diagonal cells are covered twice
    assert main(["verify", make_file(tmp_path, "kdom v1\n1 2 2 2\n0 0\n1 1\n")]) == 0
    assert capsys.readouterr().out == (
        "dominating: 2 points cover 2x2 at k=1\n"
        "covered=4/4 redundancy=2 multiplicity=1:2,2:2\n"
    )
    assert main(["verify", make_file(tmp_path, "kdom v1\n1 2 2 1\n0 0\n")]) == 1
    assert capsys.readouterr().out == (
        "NOT dominating: 1 uncovered vertices\n"
        "covered=3/4 redundancy=-1 multiplicity=0:1,1:3\n"
        "1 1\n"
    )


def test_verify_k_override(tmp_path):
    path = make_file(tmp_path, "kdom v1\n1 2 2 1\n0 0\n")
    assert main(["verify", path, "--k", "2"]) == 0


@pytest.mark.parametrize("body, message", [
    # the first faulty line wins, whether it holds a bad coordinate or a bad flag
    ("1 3 3 1\n0 x\n# mystery\n", "non-integer coordinate in '0 x'"),
    ("1 3 3 1\n# mystery\n0 x\n", "unknown flag 'mystery'"),
    ("1 3 3 2\n0 x\n0 0 0\n", "non-integer coordinate in '0 x'"),
    ("1 3 3 2\n0 0 0\n0 x\n", "expected 'i j', got '0 0 0'"),
    ("1 3 3 1\n1.5 0\n", "non-integer coordinate in '1.5 0'"),
    # the count is checked before duplicates; the line reported repeats an earlier one
    ("1 3 3 3\n2 2\n1 1\n1 1\n2 2\n", "header count 3 != 4 body lines"),
    ("1 3 3 4\n2 2\n1 1\n1 1\n2 2\n", "duplicate vertex 1 1"),
    # the body is checked before the header's k >= 1 rule
    ("0 3 3 1\n0 x\n", "non-integer coordinate in '0 x'"),
    ("0 3 3 2\n1 1\n", "header count 2 != 1 body lines"),
    ("0 3 3 1\n1 1\n", "header values must be >= 1: k=0 m=3 n=3"),
    ("1 3 3 1\n# projected\n3 0\n", "point 3,0 outside the 3x3 grid of a projected file"),
    ("", "missing header line"),
    ("1 x 3 3\n", "non-integer header field: invalid literal for int() with base 10: 'x'"),
    ("1 2\n", "header must be 'k m n count', got '1 2'"),
    ("1 3 3 1\n# projected\n-1 0\n", "point -1,0 outside the 3x3 grid of a projected file"),
])
def test_load_setfile_messages_and_their_order(body, message):
    with pytest.raises(SetFileError) as err:
        load_setfile("kdom v1\n" + body)
    assert str(err.value) == message
    # the magic line is checked before anything else
    with pytest.raises(SetFileError) as err:
        load_setfile("not kdom\n" + body)
    assert str(err.value) == "missing magic line 'kdom v1'"


def test_load_setfile_accepts_repeated_and_trailing_flags():
    sf = load_setfile("kdom v1\n1 3 3 2\n# projected\n# projected\n1 1\n0 0\n"
                      "# no-corner-removal\n# projected\n")
    assert sf.flags == ("projected", "no-corner-removal")
    assert sf.points.array.tolist() == [[0, 0], [1, 1]]
    assert load_setfile("kdom v1\n1 3 3 1\n3 0\n").points.array.tolist() == [[3, 0]]  # not projected


def test_roundtrip_byte_identical(tmp_path):
    out = tmp_path / "s.kdom"
    main(["construct", "-m", "13", "-n", "12", "-k", "2", "-o", str(out)])
    first = out.read_text()
    again = save_setfile(load_setfile(first))
    assert first == again
    assert save_setfile(load_setfile(again)) == again


def test_bound_output_out_of_domain(capsys):
    assert main(["bound", "-m", "5", "-n", "5", "-k", "3"]) == 0
    out = capsys.readouterr().out.strip()
    assert "new=n/a (domain)" in out
    assert "cor=4" in out
    # GridDims refuses a side past the box cap here as it does for every other command
    assert main(["bound", "-m", str(2 ** 31 + 1), "-n", "5", "-k", "3"]) == 2
    assert capsys.readouterr() == ("", "grid side exceeds the supported cap 2147483648\n")


# Each side is 2p or 2p + 1 (the edge of new_bound's domain), or 8, 9, 26 or 27 (the edges of
# Chang's k=1 form, m, n > 8, and of the published k=2 form, m, n > 26, both of which kdom bound
# reports as new_bound at its k); 0 is outside every bound's domain.
BOUND_SIDES = {1: (0, 8, 9, 10, 11, 26, 27), 2: (0, 8, 9, 26, 27), 3: (0, 8, 9, 26, 27, 50, 51)}

# `kdom bound -m M -n N -k K` for every 0 < M <= N of BOUND_SIDES[K], as "K M N: stdout".
BOUND_OUTPUT = """\
1 8 8: new=n/a (domain) cor=20 fss=22
1 8 9: new=n/a (domain) cor=22 fss=24
1 8 10: new=n/a (domain) cor=24 fss=26
1 8 11: new=n/a (domain) cor=26 fss=28
1 8 26: new=n/a (domain) cor=56 fss=58
1 8 27: new=n/a (domain) cor=58 fss=60
1 9 9: new=n/a (domain) cor=24 fss=26
1 9 10: new=n/a (domain) cor=26 fss=28
1 9 11: new=n/a (domain) cor=28 fss=30
1 9 26: new=n/a (domain) cor=61 fss=63
1 9 27: new=n/a (domain) cor=63 fss=66
1 10 10: new=n/a (domain) cor=28 fss=31
1 10 11: new=n/a (domain) cor=31 fss=33
1 10 26: new=n/a (domain) cor=67 fss=69
1 10 27: new=n/a (domain) cor=69 fss=71
1 11 11: new=29 cor=33 fss=36
1 11 26: new=68 cor=72 fss=75
1 11 27: new=71 cor=75 fss=77
1 26 26: new=152 cor=156 fss=159
1 26 27: new=158 cor=162 fss=164
1 27 27: new=164 cor=168 fss=170
2 8 8: new=n/a (domain) cor=11 fss=15
2 8 9: new=n/a (domain) cor=12 fss=16
2 8 26: new=n/a (domain) cor=27 fss=31
2 8 27: new=n/a (domain) cor=28 fss=32
2 9 9: new=n/a (domain) cor=13 fss=17
2 9 26: new=n/a (domain) cor=30 fss=34
2 9 27: new=n/a (domain) cor=31 fss=35
2 26 26: new=n/a (domain) cor=69 fss=73
2 26 27: new=n/a (domain) cor=71 fss=75
2 27 27: new=69 cor=73 fss=78
3 8 8: new=n/a (domain) cor=7 fss=15
3 8 9: new=n/a (domain) cor=8 fss=15
3 8 26: new=n/a (domain) cor=17 fss=25
3 8 27: new=n/a (domain) cor=18 fss=25
3 8 50: new=n/a (domain) cor=31 fss=38
3 8 51: new=n/a (domain) cor=31 fss=39
3 9 9: new=n/a (domain) cor=9 fss=16
3 9 26: new=n/a (domain) cor=19 fss=26
3 9 27: new=n/a (domain) cor=19 fss=27
3 9 50: new=n/a (domain) cor=33 fss=40
3 9 51: new=n/a (domain) cor=34 fss=41
3 26 26: new=n/a (domain) cor=40 fss=48
3 26 27: new=n/a (domain) cor=42 fss=49
3 26 50: new=n/a (domain) cor=71 fss=78
3 26 51: new=n/a (domain) cor=72 fss=80
3 27 27: new=n/a (domain) cor=43 fss=50
3 27 50: new=n/a (domain) cor=73 fss=81
3 27 51: new=n/a (domain) cor=75 fss=82
3 50 50: new=n/a (domain) cor=125 fss=132
3 50 51: new=n/a (domain) cor=127 fss=134
3 51 51: new=125 cor=129 fss=137
"""


def test_bound_output_is_pinned_at_every_domain_edge(capsys):
    printed = {}
    for k, sides in BOUND_SIDES.items():
        for m in sides:
            for n in sides:
                code = main(["bound", "-m", str(m), "-n", str(n), "-k", str(k)])
                out, err = capsys.readouterr()
                if 0 in (m, n):
                    assert (code, out, err) == (2, "", f"grid dims must be >= 1, got {m}x{n}\n")
                else:
                    assert (code, err) == (0, "")
                    printed[k, m, n] = out
    assert all(out == printed[k, n, m] for (k, m, n), out in printed.items())
    lines = [f"{k} {m} {n}: {out}" for (k, m, n), out in printed.items() if m <= n]
    assert "".join(lines) == BOUND_OUTPUT


def test_table_empty_range(capsys):
    assert main(["table", "--csv", "--pairs", ""]) == 0
    assert capsys.readouterr().out == "M,N,New Bound,Old Bound\n"


def test_table_build_range(capsys):
    for spec, ms in (("51..57:2", [51, 53, 55, 57]), ("51..53:1", [51, 52, 53])):
        assert main(["table", "--csv", "--build", "--range", spec]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "M,N,New Bound,Old Bound,Constructed"
        assert [int(line.split(",")[0]) for line in lines[1:]] == ms
        for line in lines[1:]:
            m, n, new, old, constructed = line.split(",")
            assert int(constructed) <= int(new) < int(old)


def test_table_build_prints_n_a_for_a_grid_beyond_the_verifier_cap(capsys):
    assert main(["table", "--k", "3", "--build", "--csv", "--pairs", "51x52,20000x20001"]) == 0
    assert capsys.readouterr() == (
        "M,N,New Bound,Old Bound,Constructed\n51,52,128,139,128\n20000,20001,16010397,16010408,n/a\n", "")


def test_table_output_file_holds_what_stdout_shows(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["table", "--csv", "-o", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text() == TABLE1_CSV
    assert main(["table", "--k", "2", "--range", "27..31"]) == 0
    shown = capsys.readouterr().out
    assert main(["table", "--k", "2", "--range", "27..31", "-o", str(out)]) == 0
    assert out.read_text() == shown


def test_table_text_mode(capsys):
    # each column is at least one wider than its widest cell, and no narrower than (4, 4, 10, 10)
    for pairs in ([], ["--pairs", "1000x1001,12345x12346"]):
        assert main(["table", "--csv", *pairs]) == 0
        csv_rows = capsys.readouterr().out.splitlines()
        assert main(["table", *pairs]) == 0
        title, *text_rows = capsys.readouterr().out.splitlines()
        assert title == "# kdom table k=3"
        assert [row.split() for row in text_rows] == [row.replace(",", " ").split() for row in csv_rows], pairs
        if not pairs:  # Table 1 fits those widths, so its text is what it always was
            assert text_rows == ["".join(c.rjust(w) for c, w in zip(r.split(","), (4, 4, 10, 10))) for r in csv_rows]


def test_exact_cmd(capsys):
    assert main(["exact", "-m", "2", "-n", "2", "-k", "1"]) == 0
    assert capsys.readouterr().out.strip() == "gamma=2"
    assert main(["exact", "-m", "1", "-n", "5", "-k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "gamma=1"


def test_exact_budget_prints_the_solver_lower_bound(capsys):
    # a 2-row grid caps a k=1 ball at 4 cells, so ceil(64/4) = 16, not ceil(64/5) = 13
    assert main(["exact", "-m", "2", "-n", "32", "-k", "1", "--budget", "2"]) == 3
    assert capsys.readouterr().out.startswith("gamma>=16 gamma<=17 budget exceeded")
    # the upper value is the smaller of the greedy set (40) and construct's (35); the
    # ring bound starts the search at 32, the ceiling of the covering LP's optimum
    assert main(["exact", "-m", "12", "-n", "12", "-k", "1", "--budget", "1000"]) == 3
    assert capsys.readouterr().out == "gamma>=32 gamma<=35 budget exceeded (1001 nodes)\n"


def test_exact_budget_boundary_pins_stdout(capsys):
    # a budget one node short of 6x10 k=1's whole search is flagged, exactly that many is not
    nodes = exact_gamma(GridDims(6, 10), Radius(1)).nodes_explored
    assert main(["exact", "-m", "6", "-n", "10", "-k", "1", "--budget", str(nodes - 1)]) == 3
    assert capsys.readouterr().out == f"gamma>=16 gamma<=18 budget exceeded ({nodes} nodes)\n"
    assert main(["exact", "-m", "6", "-n", "10", "-k", "1", "--budget", str(nodes), "--witness"]) == 0
    assert capsys.readouterr().out == (
        "gamma=16\n1 0\n5 0\n3 1\n0 2\n2 3\n4 3\n5 3\n2 4\n0 5\n5 5\n3 6\n1 7\n4 8\n5 8\n0 9\n2 9\n")


def test_exact_budget_zero_on_64x64_falls_back_to_construct(capsys):
    # the search stops at its first node; construct's 867 points beat the greedy cover's 1,046
    assert main(["exact", "-m", "64", "-n", "64", "-k", "1", "--budget", "0"]) == 3
    assert capsys.readouterr().out == "gamma>=827 gamma<=867 budget exceeded (1 nodes)\n"


# `kdom render` of construct's 6x6 k=3 set, plain and with --coverage
RENDER_6X6_K3 = """\
. . . # . .
. . . . . .
# . . . . .
. . . . . #
. . . . . .
. . # . . .
""", """\
+ + + # + +
+ + + + + +
# + + + + +
+ + + + + #
+ + + + + +
+ + # + + +
"""

# the same for a 3x3 k=1 file whose (0, 0) and (2, 1) leave (0, 2) and (1, 2) uncovered
RENDER_3X3_K1 = """\
. . .
. . #
# . .
""", """\
! ! +
+ + #
# + +
"""


@pytest.mark.parametrize("argv, panels", [
    (["construct", "-m", "6", "-n", "6", "-k", "3"], RENDER_6X6_K3),
    (None, RENDER_3X3_K1),
])
def test_render_panel_is_pinned_with_and_without_coverage(tmp_path, capsys, argv, panels):
    path = tmp_path / "s.kdom"
    if argv is None:
        path.write_text("kdom v1\n1 3 3 2\n0 0\n2 1\n")
    else:
        assert main(argv + ["-o", str(path)]) == 0
    assert main(["render", str(path)]) == 0
    assert capsys.readouterr() == (panels[0], "")
    assert main(["render", str(path), "--coverage"]) == 0
    assert capsys.readouterr() == (panels[1], "")


def test_render_output_file_holds_what_stdout_shows(tmp_path, capsys):
    path, out = make_file(tmp_path, "kdom v1\n1 3 3 2\n0 0\n2 1\n"), tmp_path / "panel.txt"
    for extra in ([], ["--coverage"]):
        assert main(["render", path, *extra]) == 0
        shown = capsys.readouterr().out
        assert main(["render", path, "-o", str(out), *extra]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_text() == shown


def test_render_empty_set(tmp_path, capsys):
    # a file without the projected flag may hold points off the grid, here one at i = m: render leaves it out
    for text in ("kdom v1\n1 3 2 0\n", "kdom v1\n1 3 2 1\n3 0\n"):
        path = make_file(tmp_path, text)
        assert main(["render", path]) == 0
        assert capsys.readouterr() == (". . .\n. . .\n", "")


def test_render_malformed_exit_2(tmp_path, capsys):
    path = make_file(tmp_path, "garbage\n")
    assert main(["render", path]) == 2


def test_render_refuses_a_grid_beyond_the_dense_cap(tmp_path, capsys):
    # the panel draws every cell, so render checks the header's size before drawing
    path = make_file(tmp_path, "kdom v1\n1 300000 300000 1\n0 0\n")
    assert main(["render", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("300000x300000 at k=1 needs") == 1


def test_verify_exits_2_on_a_coordinate_past_the_limit(tmp_path, capsys):
    path = make_file(tmp_path, f"kdom v1\n1 3 3 2\n{2 ** 62 - 1} 0\n0 0\n")
    assert main(["verify", path]) == 1  # the point is far off the grid, so 8 cells are uncovered
    path = make_file(tmp_path, f"kdom v1\n1 3 3 2\n{2 ** 62} 0\n0 0\n")
    assert main(["verify", path]) == 2
    assert capsys.readouterr().err == "vertex coordinates must satisfy |c| < 2**62\n"


def test_missing_file_exit_2(capsys):
    assert main(["verify", "/nonexistent/path.kdom"]) == 2


def test_malformed_pairs_exit_2(capsys):
    assert main(["table", "--pairs", "51xab"]) == 2
    assert main(["table", "--range", "51..x"]) == 2
    assert main(["table", "--range", "51..57:-2"]) == 2
    assert main(["table", "--range", "51..57:0"]) == 2
    assert capsys.readouterr().err.splitlines()[-2:] == ["range step must be >= 1, got -2",
                                                          "range step must be >= 1, got 0"]
    # each malformed spec is named with its option, not with Python's unpack or int() message
    for option, spec in (("--range", "51..57:2:3"), ("--range", "51"), ("--range", "51..57:"),
                         ("--pairs", "51x52x53"), ("--pairs", "51x52,53")):
        assert main(["table", option, spec]) == 2
        form = "LO..HI[:STEP]" if option == "--range" else "MxN[,MxN...]"
        assert capsys.readouterr().err == f"{option} '{spec}' is not of the form {form}\n"
    # a range running backwards is an empty table, not an error
    assert main(["table", "--csv", "--range", "57..51"]) == 0
    assert capsys.readouterr() == ("M,N,New Bound,Old Bound\n", "")
    assert main(["exact", "-m", "2", "-n", "2", "-k", "2001"]) == 2
    assert main(["exact", "-m", "5", "-n", "5", "-k", "1", "--budget", "-3"]) == 2
    assert "node budget must be >= 0, got -3" in capsys.readouterr().err


def test_grid_beyond_the_dense_verifier_cap_exits_2(tmp_path, capsys):
    side = str(2 ** 31)
    path = make_file(tmp_path, f"kdom v1\n1 {side} {side} 0\n")
    assert main(["verify", path]) == 2
    assert main(["construct", "-m", side, "-n", side, "-k", "1"]) == 2
    assert main(["render", path]) == 2
    assert capsys.readouterr().err.count("verifier cells") == 3


def test_table_prints_a_row_for_a_grid_without_vertices(capsys):
    assert main(["table", "--csv", "--pairs", "0x5,5x5,51x52"]) == 0
    assert capsys.readouterr() == ("M,N,New Bound,Old Bound\n0,5,n/a,n/a\n5,5,n/a,12\n51,52,128,139\n", "")


def test_table_build_runs_construct_only_where_new_bound_holds(capsys):
    # construct would build 5x5 at k=3, but no bound backs its size there
    assert main(["table", "--csv", "--build", "--pairs", "5x5,51x52"]) == 0
    assert capsys.readouterr() == ("M,N,New Bound,Old Bound,Constructed\n5,5,n/a,12,n/a\n51,52,128,139,128\n", "")
