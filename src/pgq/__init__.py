"""Exact feasibility conditions and concrete-graph verification for
strongly regular graphs of (pseudo-)generalized-quadrangle form.

The names below are loaded on first use (PEP 562), so importing pgq, or
running one subcommand, loads only the modules that are needed.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .errors import DomainError, FormatError, InternalInconsistencyError, PgqError

__version__ = "2.0.0"

#: Submodule -> the names the package re-exports from it.
_EXPORTS = {
    "bounds": (
        "BoundChoice",
        "BoundResult",
        "OptimalBound",
        "claw_bound_terms",
        "claw_threshold",
        "neumaier_bound",
        "optimal_claw_bound",
        "quadratic_bound_witness",
        "quadratic_claw_bound",
    ),
    "errors": ("DomainError", "FormatError", "InternalInconsistencyError", "PgqError"),
    "graph": (
        "ClawCheck",
        "Graph",
        "SrgCheck",
        "claw_lower_bound_check",
        "claw_number",
        "local_graph",
        "parse_pgqgraph",
        "verify_srg",
        "write_pgqgraph",
    ),
    "incidence": (
        "AxiomCheck",
        "ExtractionResult",
        "IncidenceStructure",
        "collinearity_graph",
        "dual",
        "extract_gq",
        "gen_complete_bipartite",
        "gen_kneser_6_2",
        "gen_rook",
        "gen_shrikhande",
        "gen_symplectic_w3",
        "parse_pgqinc",
        "verify_axioms",
        "write_pgqinc",
    ),
    "params": (
        "GQParams",
        "SrgParams",
        "Verdict",
        "derive_srg",
        "gq_possible",
        "identify_gq_form",
        "krein_check",
        "multiplicity_integrality",
    ),
    "scan": (
        "CONDITION_ORDER",
        "FeasibilityReport",
        "ScanRange",
        "check_one",
        "emit",
        "emit_csv",
        "emit_json",
        "scan",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(_ModuleType):
    def __setattr__(self, name, value):
        # Loading a submodule binds it on the package.  pgq.scan names the
        # function scan, as with eager imports, not the submodule pgq.scan.
        if name in _SOURCE and isinstance(value, _ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
