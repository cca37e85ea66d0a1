"""Rules on the package source itself."""
import ast
from pathlib import Path

import kdom


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so invariants must raise explicit errors
    found = []
    for path in sorted(Path(kdom.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
