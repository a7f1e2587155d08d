"""Source-level rules for the library under src/pgq."""

import ast
import re
from pathlib import Path

import pgq


def test_no_assert_statements():
    # python -O strips assert, so an invariant must raise an error instead.
    sources = sorted(Path(pgq.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"__init__.py", "cli.py", "graph.py", "incidence.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_version_matches_pyproject():
    # A regex, not tomllib, which Python 3.10 lacks.
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert match is not None and match.group(1) == pgq.__version__


def _raised_name(node):
    """The class name a raise statement names, or None (a bare re-raise)."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)


def test_every_error_class_is_raised():
    # An error type that nothing raises documents a failure that cannot
    # happen; it goes with the last raise.
    package = Path(pgq.__file__).parent
    errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    assert defined >= {"PgqError", "FormatError", "DomainError"}
    raised = {
        _raised_name(node)
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None
    }
    assert defined - raised == set()
