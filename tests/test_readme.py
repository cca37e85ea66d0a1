"""The README's examples run as written."""
import re
import shlex
from pathlib import Path

from kdom.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_library_quick_start_runs(capsys):
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", README, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "7"


def test_cli_bound_example_prints_what_the_readme_shows(capsys):
    command, shown = re.search(r"^(kdom bound .*?)\s+# (.*)$", README, re.M).groups()
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == shown + "\n"


def test_every_cli_example_runs_and_exits_0(tmp_path, monkeypatch, capsys):
    block = re.search(r"## CLI\n+```sh\n(.*?)```", README, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands and all(argv[0] == "kdom" for argv in commands)
    for argv in commands:
        assert (argv, main(argv[1:])) == (argv, 0)
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["set.kdom", "set.trace"]


def test_every_test_the_readme_cites_is_defined():
    # a test that is renamed or folded into another must take the README's citation with it
    root = Path(__file__).resolve().parents[1]
    defined = {name for folder in ("tests", "bench") for path in (root / folder).glob("*.py")
               for name in re.findall(r"^\s*def (test_\w+)", path.read_text(), re.M)}
    cited = set(re.findall(r"\b(test_\w+)\b(?!\.py)", README))
    assert cited and sorted(cited - defined) == []
