"""Start-up: importing pgq loads no submodule, and each CLI call imports
only the modules its subcommand runs (a plain argv not even argparse).

Every call runs in a fresh interpreter, which lists sys.modules after
main returns, so a module-level import added later shows up here.
"""

import os
import subprocess
import sys

import pytest

import pgq
from pgq.graph import write_pgqgraph
from pgq.incidence import gen_symplectic_w3

CHILD = """
import sys
from pgq.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w", encoding="ascii") as fh:
    fh.write("\\n".join(sorted(sys.modules)))
sys.exit(code)
"""


def run_child(*args):
    src = os.path.dirname(os.path.dirname(pgq.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60, env=env)


def loaded_modules(tmp_path, *argv):
    listing = tmp_path / "modules.txt"
    proc = run_child("-c", CHILD, str(listing), *argv)
    assert proc.returncode in (0, 3), proc.stderr
    return set(listing.read_text(encoding="ascii").split("\n"))


#: What argparse loads; a plain argv is parsed without it.
ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["--help"], {"fractions"}),
        (["bound", "--t", "96"],
         {"pgq.graph", "pgq.incidence", "pgq.params", "pgq.scan", *ARGPARSE}),
        # The verdicts need the threshold and (theta, beta), no Fraction.
        (["check", "--s", "56", "--t", "4"],
         {"pgq.graph", "pgq.incidence", "fractions", "decimal", *ARGPARSE}),
        # CSV rows are divisor arithmetic: no JSON and no Fraction.
        (["scan", "--t-min", "2", "--t-max", "10"],
         {"pgq.graph", "pgq.incidence", "json", "fractions", "decimal", *ARGPARSE}),
        (["scan", "--t-min", "2", "--t-max", "10", "--format", "json"],
         {"pgq.graph", "pgq.incidence", "fractions", "decimal", *ARGPARSE}),
        (["graph", "verify", "W3"], {"pgq.bounds", "pgq.incidence", "pgq.scan", "fractions", *ARGPARSE}),
        # (s, t) is checked in pgq.graph itself.
        (["graph", "claw", "W3", "--s", "3", "--t", "3"],
         {"pgq.bounds", "pgq.incidence", "pgq.scan", "fractions", *ARGPARSE}),
        # The census is pgq.graph's own walk, with no incidence structure.
        (["graph", "claw", "W3"], {"pgq.bounds", "pgq.incidence", "pgq.scan", "fractions", *ARGPARSE}),
        (["graph", "extract-gq", "W3"], {"pgq.bounds", "pgq.scan", "fractions", *ARGPARSE}),
    ],
    ids=["help", "bound", "check", "scan", "scan-json", "graph-verify", "graph-claw", "graph-claw-plain",
         "graph-extract-gq"],
)
def test_cli_call_loads_only_its_modules(tmp_path, argv, absent):
    w3 = tmp_path / "w3.pgqgraph"
    w3.write_text(write_pgqgraph(gen_symplectic_w3()), encoding="ascii")
    modules = loaded_modules(tmp_path, *[str(w3) if a == "W3" else a for a in argv])
    assert "pgq.cli" in modules
    assert modules & (absent | {"dataclasses"}) == set()


def test_help_loads_no_pgq_module_but_the_cli(tmp_path):
    modules = loaded_modules(tmp_path, "--help")
    assert {m for m in modules if m.split(".")[0] == "pgq"} == {"pgq", "pgq.cli"}
    # argparse writes all help and usage errors.
    assert "argparse" in modules


def test_import_pgq_loads_no_submodule():
    proc = run_child("-c", "import pgq, sys; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'pgq'))")
    assert (proc.returncode, proc.stdout) == (0, "pgq\n"), proc.stderr
