"""Exact parameter arithmetic for strongly regular graphs of
pseudo-generalized-quadrangle form.

The collinearity graph of a generalized quadrangle GQ(s,t) is strongly
regular with parameters ((s+1)(st+1), s(t+1), s-1, t+1).  A strongly
regular graph with these parameters that is not the collinearity graph of
any GQ is a pseudo-generalized quadrangle, PGQ(s,t).

Everything in this module is exact integer arithmetic; no verdict ever
depends on floating point.  Python integers are unbounded, so products
such as s(s+1)t(t+1) are always exact.  All types are immutable and all
operations are pure functions, safe to call from any number of workers
concurrently.
"""

from __future__ import annotations

from ._record import Record, set_field
from .errors import InternalInconsistencyError

PASS = "pass"
FAIL = "fail"
NA = "na"

_NA_WITNESS = "not applicable: requires s >= 2 and t >= 2"


class Verdict(Record):
    """Outcome of one feasibility condition with a human-readable witness."""

    __slots__ = ("name", "status", "witness")

    def __init__(self, name: str, status: str, witness: str = ""):
        if status not in (PASS, FAIL, NA):
            raise ValueError(f"bad verdict status {status!r}")
        set_field(self, "name", name)
        set_field(self, "status", status)
        set_field(self, "witness", witness)

    @property
    def ok(self) -> bool:
        return self.status == PASS


def _check_int(name: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


class GQParams(Record):
    """The pair (s, t) of generalized-quadrangle orders.

    Lines carry s+1 points, points carry t+1 lines.  s = 1 or t = 1 is
    accepted but flagged trivial (complete bipartite graphs and rook's
    graphs); the feasibility conditions only apply for s, t >= 2.
    """

    __slots__ = ("s", "t")

    def __init__(self, s: int, t: int):
        _check_int("s", s)
        _check_int("t", t)
        if s < 1 or t < 1:
            raise ValueError(f"require s >= 1 and t >= 1, got ({s}, {t})")
        set_field(self, "s", s)
        set_field(self, "t", t)

    @property
    def is_trivial(self) -> bool:
        return self.s == 1 or self.t == 1

    @property
    def v(self) -> int:
        return (self.s + 1) * (self.s * self.t + 1)

    @property
    def k(self) -> int:
        return self.s * (self.t + 1)

    @property
    def lam(self) -> int:
        return self.s - 1

    @property
    def mu(self) -> int:
        return self.t + 1


class SrgParams(Record):
    """A general strongly-regular-graph parameter quadruple (v, k, lam, mu)."""

    __slots__ = ("v", "k", "lam", "mu")

    def __init__(self, v: int, k: int, lam: int, mu: int):
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
        set_field(self, "v", v)
        set_field(self, "k", k)
        set_field(self, "lam", lam)
        set_field(self, "mu", mu)

    @property
    def counting_identity_holds(self) -> bool:
        """k(k - lam - 1) = (v - k - 1) mu, the two-way count of paths of
        length two from a fixed vertex."""
        return self.k * (self.k - self.lam - 1) == (self.v - self.k - 1) * self.mu

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)


def derive_srg(p: GQParams) -> SrgParams:
    """SRG parameters ((s+1)(st+1), s(t+1), s-1, t+1) of a (P)GQ(s,t)."""
    q = SrgParams(p.v, p.k, p.lam, p.mu)
    # Forced algebraically; a failure here would be a bug, not bad input.
    if not q.counting_identity_holds:
        raise InternalInconsistencyError(f"counting identity fails for srg{q.as_tuple()}")
    return q


def identify_gq_form(q: SrgParams) -> GQParams | None:
    """Inverse of derive_srg: recover (s, t) = (lam+1, mu-1), or None if
    the quadruple is not of PGQ form."""
    s, t = q.lam + 1, q.mu - 1
    if s < 1 or t < 1:
        return None
    p = GQParams(s, t)
    if derive_srg(p) != q:
        return None
    return p


def multiplicity_integrality(p: GQParams) -> Verdict:
    """Eigenvalue multiplicities must be integers: (s+t) | s(s+1)t(t+1).

    The witness carries the quotient on pass and the remainder on fail.
    """
    if p.is_trivial:
        return Verdict("divisibility", NA, _NA_WITNESS)
    s, t = p.s, p.t
    product = s * (s + 1) * t * (t + 1)
    quotient, remainder = divmod(product, s + t)
    if remainder == 0:
        return Verdict(
            "divisibility", PASS,
            f"(s+t)={s + t} divides s(s+1)t(t+1)={product}, quotient {quotient}",
        )
    return Verdict(
        "divisibility", FAIL,
        f"(s+t)={s + t} does not divide s(s+1)t(t+1)={product}, remainder {remainder}",
    )


def krein_check(p: GQParams) -> Verdict:
    """Krein condition specialized to PGQ form: t <= s^2."""
    if p.is_trivial:
        return Verdict("krein", NA, _NA_WITNESS)
    s, t = p.s, p.t
    if t <= s * s:
        return Verdict("krein", PASS, f"t={t} <= s^2={s * s}")
    return Verdict("krein", FAIL, f"t={t} > s^2={s * s}")


def gq_possible(p: GQParams) -> Verdict:
    """Dual-order bound for genuine GQs: s <= t^2.

    Fail means no GQ(s,t) exists, so any srg with these parameters is a
    pseudo-generalized quadrangle.
    """
    if p.is_trivial:
        return Verdict("gq-duality", NA, _NA_WITNESS)
    s, t = p.s, p.t
    if s <= t * t:
        return Verdict("gq-duality", PASS, f"s={s} <= t^2={t * t}, a GQ is not excluded")
    return Verdict("gq-duality", FAIL, f"s={s} > t^2={t * t}, no GQ exists")
