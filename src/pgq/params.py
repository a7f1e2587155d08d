"""Exact parameter arithmetic for strongly regular graphs of
pseudo-generalized-quadrangle form.

The collinearity graph of a generalized quadrangle GQ(s,t) is strongly
regular with parameters ((s+1)(st+1), s(t+1), s-1, t+1).  A strongly
regular graph with these parameters that is not the collinearity graph of
any GQ is a pseudo-generalized quadrangle, PGQ(s,t).

Everything in this module is exact integer or rational arithmetic; no
verdict ever depends on floating point.  Python integers are unbounded,
so products such as s(s+1)t(t+1) are always exact.  All types are
immutable and all operations are pure functions, safe to call from any
number of workers concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistencyError

PASS = "pass"
FAIL = "fail"
NA = "na"

_NA_WITNESS = "not applicable: requires s >= 2 and t >= 2"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one feasibility condition with a human-readable witness."""

    name: str
    status: str
    witness: str = ""

    def __post_init__(self):
        if self.status not in (PASS, FAIL, NA):
            raise ValueError(f"bad verdict status {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def __bool__(self) -> bool:
        return self.ok


def _check_int(name: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class GQParams:
    """The pair (s, t) of generalized-quadrangle orders.

    Lines carry s+1 points, points carry t+1 lines.  s = 1 or t = 1 is
    accepted but flagged trivial (complete bipartite graphs and rook's
    graphs); the feasibility conditions only apply for s, t >= 2.
    """

    s: int
    t: int

    def __post_init__(self):
        _check_int("s", self.s)
        _check_int("t", self.t)
        if self.s < 1 or self.t < 1:
            raise ValueError(f"require s >= 1 and t >= 1, got ({self.s}, {self.t})")

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


@dataclass(frozen=True)
class SrgParams:
    """A general strongly-regular-graph parameter quadruple (v, k, lam, mu)."""

    v: int
    k: int
    lam: int
    mu: int

    def __post_init__(self):
        for name in ("v", "k", "lam", "mu"):
            _check_int(name, getattr(self, name))
        if not 0 <= self.lam <= self.k - 1:
            raise ValueError(f"require 0 <= lam <= k-1, got lam={self.lam}, k={self.k}")
        if not 1 <= self.mu <= self.k:
            raise ValueError(f"require 1 <= mu <= k, got mu={self.mu}, k={self.k}")
        if not self.k < self.v:
            raise ValueError(f"require k < v, got k={self.k}, v={self.v}")

    @property
    def counting_identity_holds(self) -> bool:
        """k(k - lam - 1) = (v - k - 1) mu, the two-way count of paths of
        length two from a fixed vertex."""
        return self.k * (self.k - self.lam - 1) == (self.v - self.k - 1) * self.mu

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)


@dataclass(frozen=True)
class Spectrum:
    """Adjacency eigenvalues other than k, with exact multiplicities.

    For PGQ-form parameters the eigenvalues are s-1 and -(t+1), and the
    multiplicity of s-1 is st(s+1)(t+1)/(s+t) as an exact rational; a
    graph can only exist if that rational is an integer.
    """

    theta_pos: int
    theta_neg: int
    mult_pos: Fraction
    mult_neg: Fraction


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


def spectrum_of(p: GQParams) -> Spectrum:
    """Exact spectrum of a putative srg with PGQ-form parameters."""
    s, t = p.s, p.t
    mult_pos = Fraction(s * t * (s + 1) * (t + 1), s + t)
    mult_neg = Fraction(p.v - 1) - mult_pos
    spec = Spectrum(s - 1, -(t + 1), mult_pos, mult_neg)
    if (spec.mult_pos + spec.mult_neg != p.v - 1
            or p.k + spec.mult_pos * spec.theta_pos + spec.mult_neg * spec.theta_neg != 0):
        raise InternalInconsistencyError(f"inconsistent spectrum for (s={s}, t={t}): {spec}")
    return spec


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
