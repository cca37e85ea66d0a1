"""Rules on the package source itself."""
import argparse
import ast
import re
import shlex
from pathlib import Path

import kdom
from kdom import cli

ROOT = Path(__file__).resolve().parents[1]


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


def test_no_module_imports_enum():
    # corners and cases are the plain strings the trace prints; an Enum class
    # would only wrap them again and be built on every import of kdom
    found = []
    for path in sorted(Path(kdom.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno}" for alias in node.names if alias.name == "enum"]
            elif isinstance(node, ast.ImportFrom) and node.module == "enum":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_restates_the_certified_k():
    # corner removal's certified range is construction.CERTIFIED_K alone: an int literal 48 or 49
    # anywhere else in the code (docstrings are strings) would state the boundary a second time
    assigned, found = [], []
    for path in sorted(Path(kdom.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                   and [getattr(target, "id", None) for target in node.targets] == ["CERTIFIED_K"]}
        assigned += [path.name] * len(allowed)
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Constant)
                  and type(node.value) is int and node.value in (48, 49) and id(node) not in allowed]
    assert (assigned, found) == (["construction.py"], [])


def test_no_module_imports_another_modules_private_names():
    # a rule lives in the module that owns it: a name starting with "_" is that module's
    # own, and a second module that imports it re-derives the rule instead of calling its owner
    found = []
    for path in sorted(Path(kdom.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "kdom"):
                found += [f"{path.name}:{alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_bounds_imports_no_kdom_module_but_errors_and_lattice():
    # the closed forms are a leaf: were bounds.py to import construct, reading a formula
    # would load the whole pipeline
    path = Path(kdom.__file__).parent / "bounds.py"
    dotted = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:  # from .m import x, or from . import m
            dotted += [f"kdom.{node.module}"] if node.module else [f"kdom.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dotted.append(node.module)
    imported = {name.split(".")[1] if "." in name else name for name in dotted if name.split(".")[0] == "kdom"}
    assert sorted(imported - {"errors", "lattice"}) == []


def test_every_public_name_has_a_caller():
    # a name kdom exports that no other module of the package, nor the benchmark,
    # reads is surface kept for nothing; the test oracles are the exception
    package = Path(kdom.__file__).parent
    exported = {alias.asname or alias.name
                for node in ast.parse((package / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    callers = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    callers.append(ROOT / "bench" / "run.py")
    read = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(exported - read - {"path_gamma", "phi"}) == []


def test_every_cli_option_is_passed_by_a_readme_example_or_a_cli_test():
    # the command-line counterpart of the rule above: an option of a kdom subcommand that no
    # README CLI example and no main([...]) call in test_cli.py passes is surface nothing runs
    block = re.search(r"## CLI\n+```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    argvs = [shlex.split(line, comments=True)[1:] for line in block.splitlines()]
    for node in ast.walk(ast.parse((ROOT / "tests" / "test_cli.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "main" and node.args:
            if isinstance(node.args[0], ast.List):  # a literal argv; a computed one is not read
                argvs.append([item.value if isinstance(item, ast.Constant) else None for item in node.args[0].elts])
    passed = {(argv[0], token) for argv in argvs if argv for token in argv[1:]}
    commands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    unused = [(name, action.option_strings[-1]) for name, command in commands.items() for action in command._actions
              if action.option_strings and not isinstance(action, argparse._HelpAction)
              and not any((name, flag) in passed for flag in action.option_strings)]
    assert sorted(commands) == ["bound", "construct", "exact", "render", "table", "verify"]
    assert unused == []


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


def test_every_validated_type_checks_its_integer_fields():
    # a _check that compares a field with < alone lets a bool, a float or a numpy int through,
    # and the type then writes what its readers refuse; every Validated subclass calls integers()
    checks = {}
    for path in sorted(Path(kdom.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and "Validated" in {getattr(base, "id", None) for base in node.bases}:
                calls = {getattr(call.func, "id", None) for method in node.body
                         if isinstance(method, ast.FunctionDef) and method.name == "_check"
                         for call in ast.walk(method) if isinstance(call, ast.Call)}
                checks[node.name] = "integers" in calls
    assert "SetFile" in checks and sorted(name for name, calls_integers in checks.items() if not calls_integers) == []


def test_every_numpy_sort_is_stable():
    # construct's one sort is linear because numpy's stable kind on int64 is timsort, which merges
    # ascending runs; the default kind, introsort, takes three to five times as long on those keys.
    # A .sort( on a name bound to a list display is a list's; np.lexsort is always stable
    checked, found = 0, []
    for path in sorted(Path(kdom.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lists = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and isinstance(node.value, (ast.List, ast.ListComp)) for target in node.targets
                 if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("sort", "argsort"):
                if node.func.attr == "sort" and getattr(node.func.value, "id", None) in lists:
                    continue
                checked += 1
                if not any(kw.arg == "kind" and getattr(kw.value, "value", None) == "stable" for kw in node.keywords):
                    found.append(f"{path.name}:{node.lineno}")
    assert checked >= 2 and found == []
