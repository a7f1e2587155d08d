"""Upper bounds on s in terms of t for pseudo-generalized quadrangles.

Two families of necessary conditions are implemented exactly:

* Neumaier's claw bound, s <= t(t+1)(t+2)/2, cubic in t.

* A four-term bound derived from a case analysis of claw numbers and
  maximal cliques in the graph: for any integers theta >= t+2 and
  2 <= beta <= t+1,

      s <= max{ t/(theta-t) * C(theta+1, 2),
                t(2 theta - 1),
                C(beta, 2) t,
                (t+1)^2 theta / C(beta, 2) }.

  For t >= 3, optimizing the choice of (theta, beta) yields the closed
  form s <= t * floor(8t/3 + 1), quadratic in t.

All comparisons are exact (integers and fractions.Fraction); bounds such
as t(theta+1)theta / (2(theta-t)) are never rounded before a verdict.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, floor, isqrt

from ._record import Record, set_field
from .errors import InternalInconsistencyError
from .params import FAIL, PASS, SrgParams, Verdict

#: Descriptive tag for each term of the four-term bound, in order.
TERM_TAGS = (
    "claw-inequality",    # some vertex centers a (theta+1)-claw
    "uncovered-neighbor", # a neighbor escapes all associated maximal cliques
    "many-full-cliques",  # some high-claw vertex lies in > t+1-beta cliques of order s+1
    "few-full-cliques",   # every high-claw vertex lies in <= t+1-beta such cliques
)


def _require_t(t: int) -> None:
    if not isinstance(t, int) or isinstance(t, bool) or t < 2:
        raise ValueError(f"require integer t >= 2, got {t!r}")


def neumaier_bound(t: int) -> int:
    """Neumaier's claw bound: s <= t(t+1)(t+2)/2 (always an integer)."""
    _require_t(t)
    return t * (t + 1) * (t + 2) // 2


def claw_inequality_check(q: SrgParams, r: int) -> Verdict:
    """Claw inequality for strongly regular graphs.

    A vertex of an srg(v,k,lam,mu) can only center an induced r-claw if
    (mu - 1) C(r,2) >= r(lam + 1) - k.  Pass means an r-claw is not
    excluded; fail means no vertex has an r-claw.
    """
    if not isinstance(r, int) or isinstance(r, bool) or r < 2:
        raise ValueError(f"require integer r >= 2, got {r!r}")
    lhs = (q.mu - 1) * comb(r, 2)
    rhs = r * (q.lam + 1) - q.k
    if lhs >= rhs:
        return Verdict(
            "claw-inequality", PASS,
            f"(mu-1)C(r,2)={lhs} >= r(lam+1)-k={rhs}: an {r}-claw is not excluded",
        )
    return Verdict(
        "claw-inequality", FAIL,
        f"(mu-1)C(r,2)={lhs} < r(lam+1)-k={rhs}: no vertex centers an {r}-claw",
    )


class BoundChoice(Record):
    """A choice of the free parameters (theta, beta) of the four-term bound.

    Validity is relative to the t under test: theta >= t+2 and
    2 <= beta <= t+1 (claw_bound_terms enforces this).
    """

    __slots__ = ("theta", "beta")

    def __init__(self, theta: int, beta: int):
        set_field(self, "theta", theta)
        set_field(self, "beta", beta)


class BoundResult(Record):
    """The four terms of the bound and their maximum, all exact."""

    __slots__ = ("term1", "term2", "term3", "term4", "bound")

    def __init__(self, term1: Fraction, term2: Fraction, term3: Fraction, term4: Fraction,
                 bound: Fraction):
        set_field(self, "term1", term1)
        set_field(self, "term2", term2)
        set_field(self, "term3", term3)
        set_field(self, "term4", term4)
        set_field(self, "bound", bound)

    @property
    def terms(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.term1, self.term2, self.term3, self.term4)

    def tagged_terms(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple(zip(TERM_TAGS, self.terms))


def claw_bound_terms(t: int, choice: BoundChoice) -> BoundResult:
    """Evaluate the four-term bound at one (theta, beta).

    term2 and term3 are integers by construction; term1 and term4 are
    kept as exact rationals.
    """
    _require_t(t)
    theta, beta = choice.theta, choice.beta
    if not isinstance(theta, int) or theta < t + 2:
        raise ValueError(f"require theta >= t+2 = {t + 2}, got {theta!r}")
    if not isinstance(beta, int) or not 2 <= beta <= t + 1:
        raise ValueError(f"require 2 <= beta <= t+1 = {t + 1}, got {beta!r}")
    term1, term2 = _theta_terms(t, theta)
    term3, term4 = _beta_terms(t, theta, beta)
    return BoundResult(term1, term2, term3, term4, max(term1, term2, term3, term4))


def _theta_terms(t: int, theta: int) -> tuple[Fraction, Fraction]:
    """term1 and term2, which do not depend on beta."""
    return Fraction(t, theta - t) * comb(theta + 1, 2), Fraction(t * (2 * theta - 1))


def _beta_terms(t: int, theta: int, beta: int) -> tuple[Fraction, Fraction]:
    """term3 (increasing in beta) and term4 (decreasing in beta)."""
    pairs = comb(beta, 2)
    return Fraction(pairs * t), Fraction((t + 1) ** 2 * theta, pairs)


def _smallest_beta(pairs: int) -> int:
    """Smallest beta >= 2 with C(beta, 2) >= pairs, by integer square root."""
    # C(beta, 2) >= pairs  <=>  (2 beta - 1)^2 >= 8 pairs + 1.
    root = isqrt(8 * pairs + 1)
    if root * root < 8 * pairs + 1:
        root += 1
    return max(2, (root + 2) // 2)


def quadratic_claw_bound(t: int) -> int:
    """Closed-form optimized bound: s <= t * floor(8t/3 + 1).

    This is the four-term optimum for t >= 3.  At t = 2 the value 12
    equals Neumaier's bound and holds by divisibility (which alone gives
    s <= 10), not by the four-term optimum, which is 14 there.
    """
    _require_t(t)
    return t * ((8 * t + 3) // 3)


def quadratic_bound_witness(t: int) -> BoundChoice:
    """The (theta, beta) choice certifying the closed form for t >= 3:
    theta = floor(4t/3 + 1), beta = ceil(2 sqrt(t)).

    beta is computed by integer square root, never floating point.
    """
    if t < 3:
        # floor(4t/3 + 1) < t + 2 for t < 3, so no witness exists there.
        raise ValueError(f"witness choice requires t >= 3, got {t!r}")
    theta = (4 * t + 3) // 3
    root = isqrt(4 * t)
    beta = root if root * root == 4 * t else root + 1
    return BoundChoice(theta, beta)


class OptimalBound(Record):
    """Best four-term bound over all valid (theta, beta) for a given t.

    A parameter s is ruled out iff s > threshold (strict); threshold is
    floor(exact), which is equivalent for integer s.
    """

    __slots__ = ("threshold", "exact", "choice", "terms")

    def __init__(self, threshold: int, exact: Fraction, choice: BoundChoice, terms: BoundResult):
        set_field(self, "threshold", threshold)
        set_field(self, "exact", exact)
        set_field(self, "choice", choice)
        set_field(self, "terms", terms)


@lru_cache(maxsize=None)
def optimal_claw_bound(t: int) -> OptimalBound:
    """Minimize the four-term bound over theta in [t+2, 4t], beta in [2, t+1].

    Ties go to the smallest theta, then the smallest beta.  For a fixed
    theta, term1 and term2 are constants, term3 increases with beta and
    term4 decreases, so max(term3, term4) is smallest at the crossover
    beta* (the smallest beta with term3 >= term4, i.e.
    C(beta,2)^2 t >= (t+1)^2 theta) or at beta* - 1; both are found by
    integer square roots, so each theta costs O(1) exact operations.

    Capping theta at 4t loses nothing: for theta > 4t the second term
    alone is t(2*theta - 1) >= t(8t + 1), which exceeds the maximum
    already achieved inside the cap (at most t*floor(8t/3 + 1) for t >= 3
    via quadratic_bound_witness, and 14 at t = 2).  For the same reason
    the loop stops at the first theta with t(2*theta - 1) >= the best
    value so far: term2 grows with theta, so no later theta can win.
    """
    _require_t(t)
    weight = (t + 1) ** 2
    best: tuple[Fraction, int] | None = None
    for theta in range(t + 2, 4 * t + 1):
        term1, term2 = _theta_terms(t, theta)
        if best is not None and term2 >= best[0]:
            break
        # Smallest C(beta, 2) with C(beta, 2)^2 t >= weight * theta.
        pairs = isqrt(-(-weight * theta // t) - 1) + 1
        crossover = min(_smallest_beta(pairs), t + 1)
        value = max(term1, term2, min(
            max(_beta_terms(t, theta, beta)) for beta in (max(crossover - 1, 2), crossover)
        ))
        if best is None or value < best[0]:
            best = (value, theta)
    if best is None:
        raise InternalInconsistencyError(f"empty (theta, beta) range at t={t}")
    exact, theta = best
    # The smallest beta reaching the minimum is the smallest one whose
    # term4 is <= it: on a plateau where term1 or term2 dominates, that is
    # below the crossover.
    pairs = -(-weight * theta * exact.denominator // exact.numerator)
    choice = BoundChoice(theta, _smallest_beta(pairs))
    result = claw_bound_terms(t, choice)
    if result.bound != exact:
        raise InternalInconsistencyError(
            f"t={t}: bound {result.bound} at (theta={choice.theta}, beta={choice.beta})"
            f" differs from the minimum {exact}"
        )
    return OptimalBound(floor(exact), exact, choice, result)
