"""Exact feasibility conditions and concrete-graph verification for
strongly regular graphs of (pseudo-)generalized-quadrangle form.

Each public name lives in one submodule and is imported from there, e.g.
`from pgq.graph import Graph`; importing pgq itself loads no submodule.
"""

__version__ = "14.0.2"
