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


def test_every_error_type_is_raised_somewhere():
    # an error type nothing raises, itself or as the base of one raised, is dead API;
    # this keeps one from coming back
    package = Path(kdom.__file__).parent
    errors = ast.parse((package / "errors.py").read_text())
    bases = {node.name: [base.id for base in node.bases] for node in errors.body if isinstance(node, ast.ClassDef)}
    defined = set(bases)
    raised = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None))
    for _ in bases:  # close under base classes, one level of the hierarchy per pass
        raised |= {base for name in raised & defined for base in bases[name]}
    assert defined and sorted(defined - raised) == []


def test_value_types_are_not_dataclasses():
    # a dataclass generates and execs its methods on every import of kdom;
    # the value types are named tuples, so no module needs dataclasses at all
    found = []
    for path in sorted(Path(kdom.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno}" for alias in node.names if alias.name == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
                        found.append(f"{path.name}:{node.name}")
    assert found == []


def test_every_public_name_has_a_caller():
    # a name kdom exports that no other module of the package, nor the benchmark,
    # reads is surface kept for nothing; the test oracles are the exception
    package = Path(kdom.__file__).parent
    exported = {alias.asname or alias.name
                for node in ast.parse((package / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    callers = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    callers.append(Path(__file__).resolve().parents[1] / "bench" / "run.py")
    read = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(exported - read - {"path_gamma", "phi"}) == []


def test_no_module_builds_an_object_array():
    # every vertex set is one int64 array; an object array of Python ints would be a second form
    def is_object(node):
        return (getattr(node, "id", None) == "object" or getattr(node, "attr", None) == "object_"
                or getattr(node, "value", None) in ("object", "O"))

    found = []
    for path in sorted(Path(kdom.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func, dtypes = node.func, [kw.value for kw in node.keywords if kw.arg == "dtype"]
                if isinstance(func, ast.Attribute) and (func.attr == "astype" or getattr(func.value, "id", None) == "np"):
                    dtypes += node.args  # astype's dtype, or a numpy call's positional one
                found += [f"{path.name}:{node.lineno}" for arg in dtypes if is_object(arg)]
    assert found == []
