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
