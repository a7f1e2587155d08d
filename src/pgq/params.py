"""Exact parameter arithmetic for strongly regular graphs of
pseudo-generalized-quadrangle form.

The collinearity graph of a generalized quadrangle GQ(s,t) is strongly
regular with parameters ((s+1)(st+1), s(t+1), s-1, t+1).  A strongly
regular graph with these parameters that is not the collinearity graph of
any GQ is a pseudo-generalized quadrangle, PGQ(s,t).

Everything in this module is exact integer arithmetic.  Python integers
are unbounded, so products such as (s+1)(st+1) are always exact.  All
types are immutable and all operations are pure functions, safe to call
from any number of workers concurrently.  The feasibility conditions on
(s, t) are decided in pgq.scan.check_one.
"""

from __future__ import annotations

from collections import namedtuple


def _check_int(name: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


class GQParams(namedtuple("GQParams", "s t")):
    """The pair (s, t) of generalized-quadrangle orders.

    Lines carry s+1 points, points carry t+1 lines.  s = 1 or t = 1 is
    accepted but flagged trivial (complete bipartite graphs and rook's
    graphs); the feasibility conditions only apply for s, t >= 2.
    """

    __slots__ = ()

    def __new__(cls, s: int, t: int):
        _check_int("s", s)
        _check_int("t", t)
        if s < 1 or t < 1:
            raise ValueError(f"require s >= 1 and t >= 1, got ({s}, {t})")
        return super().__new__(cls, s, t)

    @property
    def is_trivial(self) -> bool:
        return self.s == 1 or self.t == 1


class SrgParams(namedtuple("SrgParams", "v k lam mu")):
    """A general strongly-regular-graph parameter quadruple (v, k, lam, mu)."""

    __slots__ = ()

    def __new__(cls, v: int, k: int, lam: int, mu: int):
        _check_int("v", v)
        _check_int("k", k)
        _check_int("lam", lam)
        _check_int("mu", mu)
        if not 0 <= lam <= k - 1:
            raise ValueError(f"require 0 <= lam <= k-1, got lam={lam}, k={k}")
        if not 1 <= mu <= k:
            raise ValueError(f"require 1 <= mu <= k, got mu={mu}, k={k}")
        if not k < v:
            raise ValueError(f"require k < v, got k={k}, v={v}")
        return super().__new__(cls, v, k, lam, mu)


def derive_srg(p: GQParams) -> SrgParams:
    """SRG parameters ((s+1)(st+1), s(t+1), s-1, t+1) of a (P)GQ(s,t).

    They satisfy the counting identity k(k - lam - 1) = (v - k - 1) mu of
    every srg, the two-way count of paths of length two from a fixed
    vertex, by algebra: k - lam - 1 = s(t+1) - s = st, so the left side is
    s(t+1) st; and v - k - 1 = (s+1)(st+1) - s(t+1) - 1 = s^2 t, so the
    right side is s^2 t (t+1).  Both are s^2 t (t+1).
    """
    s, t = p
    return SrgParams((s + 1) * (s * t + 1), s * (t + 1), s - 1, t + 1)


def identify_gq_form(q: SrgParams) -> GQParams | None:
    """Inverse of derive_srg: recover (s, t) = (lam+1, mu-1), or None if
    the quadruple is not of PGQ form."""
    s, t = q.lam + 1, q.mu - 1
    if t < 1:  # s >= 1 always, as SrgParams requires lam >= 0
        return None
    p = GQParams(s, t)
    if derive_srg(p) != q:
        return None
    return p
