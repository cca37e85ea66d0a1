import xml.etree.ElementTree as ET

import pytest

from kdom import SetFileError, VertexSet
from kdom.cli import SetFile, load_setfile, main, save_setfile

TABLE1_CSV = (
    "M,N,New Bound,Old Bound\n"
    "51,52,128,139\n"
    "53,54,137,148\n"
    "55,56,147,158\n"
    "57,58,157,168\n"
    "59,60,167,178\n"
    "61,62,178,189\n"
    "63,64,189,200\n"
    "65,66,200,211\n"
)


def make_file(tmp_path, text, name="set.kdom"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_construct_verify_pipeline(tmp_path, capsys):
    out = tmp_path / "s.kdom"
    assert main(["construct", "-m", "51", "-n", "52", "-k", "3", "-o", str(out)]) == 0
    sf = load_setfile(out.read_text())
    assert len(sf.points) <= 128
    assert "projected" in sf.flags
    assert main(["verify", str(out)]) == 0
    assert "dominating" in capsys.readouterr().out


def test_construct_small_grid_flag(tmp_path):
    out = tmp_path / "small.kdom"
    assert main(["construct", "-m", "6", "-n", "6", "-k", "3", "-o", str(out)]) == 0
    sf = load_setfile(out.read_text())
    assert len(sf.points) <= 5
    assert "no-corner-removal" in sf.flags


def test_construct_rejects_bad_dims(capsys):
    assert main(["construct", "-m", "0", "-n", "5", "-k", "1"]) == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_construct_writes_trace(tmp_path):
    out = tmp_path / "s.kdom"
    tr = tmp_path / "s.trace"
    assert main(["construct", "-m", "11", "-n", "11", "-k", "1",
                 "-o", str(out), "--trace", str(tr)]) == 0
    text = tr.read_text()
    assert "residue=" in text
    assert text.count("removed=") == 4
    assert "corner_NW_case=" in text


def test_verify_negative_lists_uncovered(tmp_path, capsys):
    path = make_file(tmp_path, "kdom v1\n1 2 2 1\n0 0\n")
    assert main(["verify", path]) == 1
    out = capsys.readouterr().out
    assert "1 1" in out


def test_verify_k_override(tmp_path):
    path = make_file(tmp_path, "kdom v1\n1 2 2 1\n0 0\n")
    assert main(["verify", path, "--k", "2"]) == 0


def test_duplicate_vertex_rejected(tmp_path, capsys):
    path = make_file(tmp_path, "kdom v1\n1 3 3 2\n1 1\n1 1\n")
    assert main(["verify", path]) == 2
    assert "duplicate vertex" in capsys.readouterr().err


def test_malformed_files(tmp_path):
    for text in (
        "not kdom\n1 2 2 0\n",
        "kdom v1\n1 2\n",
        "kdom v1\n1 2 2 2\n0 0\n",          # count mismatch
        "kdom v1\n1 2 2 1\n0 0 0\n",        # bad point line
        "kdom v1\n0 2 2 0\n",               # k < 1
        "kdom v1\n1 2 2 1\n# mystery\n0 0\n",
    ):
        with pytest.raises(SetFileError):
            load_setfile(text)


def test_projected_flag_enforces_bounds():
    with pytest.raises(SetFileError):
        SetFile(k=1, m=3, n=3, points=VertexSet.from_iterable([(-1, 0)]),
                flags=("projected",))


def test_roundtrip_byte_identical(tmp_path):
    out = tmp_path / "s.kdom"
    main(["construct", "-m", "13", "-n", "12", "-k", "2", "-o", str(out)])
    first = out.read_text()
    again = save_setfile(load_setfile(first))
    assert first == again
    assert save_setfile(load_setfile(again)) == again


def test_bound_output_51_52(capsys):
    assert main(["bound", "-m", "51", "-n", "52", "-k", "3"]) == 0
    out = capsys.readouterr().out.strip()
    assert "new=128" in out
    assert "fss=139" in out


def test_bound_output_out_of_domain(capsys):
    assert main(["bound", "-m", "5", "-n", "5", "-k", "3"]) == 0
    out = capsys.readouterr().out.strip()
    assert "new=n/a (domain)" in out
    assert "cor=4" in out


def test_bound_output_k1_includes_chang(capsys):
    assert main(["bound", "-m", "16", "-n", "16", "-k", "1"]) == 0
    assert "chang=60" in capsys.readouterr().out


def test_bound_output_k2_includes_bijm(capsys):
    assert main(["bound", "-m", "30", "-n", "40", "-k", "2"]) == 0
    assert "bijm=111" in capsys.readouterr().out


def test_table_default_reproduces_table1_csv(capsys):
    assert main(["table", "--csv"]) == 0
    assert capsys.readouterr().out == TABLE1_CSV


def test_table_empty_range(capsys):
    assert main(["table", "--csv", "--pairs", ""]) == 0
    assert capsys.readouterr().out == "M,N,New Bound,Old Bound\n"


def test_table_build_range(capsys):
    assert main(["table", "--csv", "--build", "--range", "51..57:2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "M,N,New Bound,Old Bound,Constructed"
    assert len(lines) == 5
    for line in lines[1:]:
        m, n, new, old, constructed = line.split(",")
        assert int(constructed) <= int(new) < int(old)


def test_table_text_mode(capsys):
    assert main(["table"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# kdom table k=3")
    assert "New Bound" in out


def test_exact_cmd(capsys):
    assert main(["exact", "-m", "2", "-n", "2", "-k", "1"]) == 0
    assert capsys.readouterr().out.strip() == "gamma=2"
    assert main(["exact", "-m", "1", "-n", "5", "-k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "gamma=1"


def test_exact_budget_exit_code(capsys):
    assert main(["exact", "-m", "8", "-n", "8", "-k", "1", "--budget", "40"]) == 3
    assert "budget exceeded" in capsys.readouterr().out


def test_exact_budget_prints_the_solver_lower_bound(capsys):
    # a 2-row grid caps a k=1 ball at 4 cells, so ceil(64/4) = 16, not ceil(64/5) = 13
    assert main(["exact", "-m", "2", "-n", "32", "-k", "1", "--budget", "5"]) == 3
    assert capsys.readouterr().out.startswith("gamma>=16 gamma<=17 budget exceeded")


def test_exact_witness(capsys):
    assert main(["exact", "-m", "1", "-n", "5", "-k", "2", "--witness"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "gamma=1"
    assert out[1] == "0 2"


def test_render_ascii_6x6(tmp_path, capsys):
    out = tmp_path / "s.kdom"
    main(["construct", "-m", "6", "-n", "6", "-k", "3", "-o", str(out)])
    assert main(["render", str(out)]) == 0
    panel = capsys.readouterr().out
    rows = panel.strip().splitlines()
    assert len(rows) == 6
    assert panel.count("#") == len(load_setfile(out.read_text()).points)


def test_render_empty_set(tmp_path, capsys):
    path = make_file(tmp_path, "kdom v1\n1 3 2 0\n")
    assert main(["render", path]) == 0
    panel = capsys.readouterr().out
    assert panel == ". . .\n. . .\n"


def test_render_coverage(tmp_path, capsys):
    path = make_file(tmp_path, "kdom v1\n1 2 2 1\n0 0\n")
    assert main(["render", path, "--coverage"]) == 0
    panel = capsys.readouterr().out
    assert "!" in panel  # (1,1) is uncovered
    assert "#" in panel


def test_render_svg_is_wellformed(tmp_path, capsys):
    out = tmp_path / "s.kdom"
    main(["construct", "-m", "6", "-n", "6", "-k", "3", "-o", str(out)])
    assert main(["render", str(out), "--format", "svg", "--diamond", "2,2"]) == 0
    svg = capsys.readouterr().out
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert "polygon" in svg and "circle" in svg


def test_render_malformed_exit_2(tmp_path, capsys):
    path = make_file(tmp_path, "garbage\n")
    assert main(["render", path]) == 2


def test_missing_file_exit_2(capsys):
    assert main(["verify", "/nonexistent/path.kdom"]) == 2


def test_malformed_pairs_exit_2(capsys):
    assert main(["table", "--pairs", "51xab"]) == 2
    assert main(["table", "--range", "51..x"]) == 2
    assert main(["exact", "-m", "2", "-n", "2", "-k", "2001"]) == 2
