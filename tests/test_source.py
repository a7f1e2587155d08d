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


def test_every_raise_is_a_value_error():
    # pgq.cli.main turns a ValueError into exit 2 and the CLI's own
    # UsageError into exit 1; any other exception would escape main as a
    # traceback.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(pgq.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise)
        and _raised_name(node) not in ({"ValueError", "UsageError"} if path.name == "cli.py" else {"ValueError"})
    ]
    assert found == []
