"""Run one pgq CLI invocation with a span around every layer entry point.

    python trace_child.py SPANS_FILE INVOCATION_ID ARG...

is `python -m pgq.cli ARG...` (same stdout, stderr and exit code), except
that each public layer function below is wrapped at every module binding
it has in the imported pgq modules (e.g. optimal_claw_bound in pgq.bounds,
pgq.scan, pgq.cli and pgq), so calls are caught whichever name the caller
uses.  Spans (name, start, end, parent) stay in memory and are written to
SPANS_FILE once, at exit: a JSON header line, then the four arrays.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

#: (defining module, function) -> span name.
WRAPPED = {
    ("pgq.cli", "main"): "cli.main",
    ("pgq.scan", "scan"): "scan.scan",
    ("pgq.scan", "check_one"): "scan.check_one",
    ("pgq.scan", "emit"): "scan.emit",
    ("pgq.params", "derive_srg"): "params.derive_srg",
    ("pgq.params", "krein_check"): "params.krein_check",
    ("pgq.params", "multiplicity_integrality"): "params.multiplicity_integrality",
    ("pgq.params", "gq_possible"): "params.gq_possible",
    ("pgq.bounds", "optimal_claw_bound"): "bounds.optimal_claw_bound",
    ("pgq.bounds", "claw_bound_terms"): "bounds.claw_bound_terms",
    ("pgq.graph", "parse_pgqgraph"): "graph.parse",
    ("pgq.graph", "write_pgqgraph"): "graph.write",
    ("pgq.graph", "verify_srg"): "graph.verify_srg",
    ("pgq.graph", "claw_number"): "graph.claw_number",
    ("pgq.incidence", "extract_gq"): "incidence.extract_gq",
    ("pgq.incidence", "dual"): "incidence.dual",
    ("pgq.incidence", "collinearity_graph"): "incidence.collinearity_graph",
    ("pgq.incidence", "verify_axioms"): "incidence.verify_axioms",
    ("pgq.incidence", "parse_pgqinc"): "incidence.parse",
    ("pgq.incidence", "write_pgqinc"): "incidence.write",
}
IMPORT_SPAN = "cli.import"
NAMES = (IMPORT_SPAN, *WRAPPED.values())

starts = array("d")
ends = array("d")
name_ids = array("i")
parents = array("i")
stack = [-1]


def _open(name_id: int) -> int:
    i = len(starts)
    name_ids.append(name_id)
    parents.append(stack[-1])
    ends.append(0.0)
    stack.append(i)
    starts.append(perf_counter())
    return i


def _close(i: int) -> None:
    ends[i] = perf_counter()
    stack.pop()


def _traced(fn, name_id: int):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = _open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            _close(i)
    return traced


def _instrument() -> None:
    modules = [m for name, m in sys.modules.items() if name == "pgq" or name.startswith("pgq.")]
    wrappers = {}
    for (module_name, attr), span in WRAPPED.items():
        fn = getattr(importlib.import_module(module_name), attr, None)
        if fn is not None:
            wrappers[id(fn)] = _traced(fn, NAMES.index(span))
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def _write(path: str, invocation: int) -> None:
    with open(path, "wb") as fh:
        header = {"names": NAMES, "invocation": invocation, "count": len(starts)}
        fh.write(json.dumps(header).encode() + b"\n")
        for arr in (starts, ends, name_ids, parents):
            arr.tofile(fh)


def main() -> int:
    spans_path, invocation, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    try:
        i = _open(0)
        cli = importlib.import_module("pgq.cli")
        _close(i)
        _instrument()
        code = cli.main(argv)
        sys.stdout.flush()
        return code
    finally:
        _write(spans_path, invocation)


if __name__ == "__main__":
    sys.exit(main())
