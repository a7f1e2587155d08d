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

  For t >= 3 the optimum over (theta, beta) is the closed form
  s <= t * floor(8t/3 + 1), quadratic in t, attained at
  theta = floor(4t/3) + 1; at t = 2 it is 14.  claw_threshold(t) is
  that integer, the one implementation of the threshold, and
  optimal_claw_bound(t) is the pair (theta, beta) attaining it.  Neither
  searches anything; the optimal_claw_bound docstring holds the proof.
  claw_bound_terms gives the four exact terms at any (theta, beta).

All comparisons are exact (integers and fractions.Fraction); bounds such
as t(theta+1)theta / (2(theta-t)) are never rounded before a verdict.
fractions is imported only where a Fraction is built, in
claw_bound_terms, so a caller of the other functions never loads it.
"""

from __future__ import annotations

from math import comb, isqrt

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


def claw_bound_terms(t: int, theta: int, beta: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four terms of the bound at one (theta, beta), as exact
    Fractions in TERM_TAGS order; the bound there is their max.

    term2 and term3 are integers by construction; term1 and term4 are
    kept as exact rationals.
    """
    from fractions import Fraction

    _require_t(t)
    if not isinstance(theta, int) or theta < t + 2:
        raise ValueError(f"require theta >= t+2 = {t + 2}, got {theta!r}")
    if not isinstance(beta, int) or not 2 <= beta <= t + 1:
        raise ValueError(f"require 2 <= beta <= t+1 = {t + 1}, got {beta!r}")
    pairs = comb(beta, 2)
    term1 = Fraction(t, theta - t) * comb(theta + 1, 2)
    term2 = Fraction(t * (2 * theta - 1))
    term3 = Fraction(pairs * t)
    term4 = Fraction((t + 1) ** 2 * theta, pairs)
    return term1, term2, term3, term4


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


def claw_threshold(t: int) -> int:
    """The optimal four-term bound as an integer: s is ruled out iff
    s > claw_threshold(t).  It is 14 at t = 2 and quadratic_claw_bound(t)
    for t >= 3; optimal_claw_bound proves both."""
    _require_t(t)
    return 14 if t == 2 else quadratic_claw_bound(t)


def optimal_claw_bound(t: int) -> tuple[int, int]:
    """The (theta, beta) minimizing the four-term bound over all
    theta >= t+2, 2 <= beta <= t+1; the minimum is claw_threshold(t).

    Ties go to the smallest theta, then the smallest beta.  The optimum is
    a closed form, proven below, so nothing is searched:

    * t = 2: theta = 4, beta = 3, value 14.  theta = 4 is the smallest
      theta allowed, with term1 = 10 and term2 = 14; beta = 3 gives
      term3 = 6 and term4 = 12, while beta = 2 gives term4 = 36.  Every
      larger theta has term2 = 2(2 theta - 1) >= 18.
    * t >= 3: theta* = floor(4t/3) + 1 = (4t+3)//3, and the value
      E = quadratic_claw_bound(t) = t * floor(8t/3 + 1).

    In both cases beta is the smallest one whose term4 is at most the
    value.  The terms are

        term1 = t theta (theta+1) / (2(theta-t)),  term2 = t(2 theta - 1),
        term3 = C(beta,2) t,                     term4 = (t+1)^2 theta / C(beta,2).

    Proof for t >= 3, with m = floor(t/3) >= 1, so theta* >= t+2.  At
    theta* the larger of term1 and term2 is E:

        t = 3m:    theta* = 4m+1, term2 = t(8m+1) = E, term1 = t(4m+1)(2m+1)/(m+1) < E;
        t = 3m+1:  theta* = 4m+2, term2 = t(8m+3) = E, term1 = t(2m+1)(4m+3)/(m+1) < E;
        t = 3m+2:  theta* = 4m+3, term1 = t(8m+6) = E, term2 = t(8m+5) < E.

    (a) No theta > theta* ties or wins: there term2 >= t(2 theta* + 1),
        which is E + 2t, E + 2t and E + t in the three cases.
    (b) No theta in [t+2, theta*-1] ties or wins; the range is empty for
        m = 1.  With x = theta - t, term1 = (t/2)(x + 2t + 1 + t(t+1)/x)
        decreases while theta < t + sqrt(t(t+1)), and theta* <= 4t/3 + 1
        < 2t lies below that.  So term1 >= term1(theta* - 1), which is
        t(8m+2) = E + t, t(4m+1)(2m+1)/m = E + t(3m+1)/m and
        t(2m+1)(4m+3)/m = E + t(4m+3)/m in the three cases.  The excess is
        strict, as it must be: a tie would move the tie-break to a smaller
        theta.
    (c) At theta*, beta_w = ceil(2 sqrt t) <= t+1 keeps term3 and term4 at
        most E, so the minimum over beta at theta* is E.  Here
        E >= t(8t+1)/3, as the floor loses less than 2/3.  As 2 sqrt t <= beta_w < 2 sqrt t + 1,
        2t - sqrt t <= C(beta_w, 2) < 2t + sqrt t.  Then term3 <
        t(2t + sqrt t) <= t(8t+1)/3, because 3 sqrt t <= 2t + 1.  And term4
        <= (t+1)^2 (4t+3) / (3(2t - sqrt t)) <= t(8t+1)/3, because the
        difference of (t+1)^2 (4t+3) from t(8t+1)(2t - sqrt t) is
        t^3 (12 - 8/sqrt t - 9/t - 1/t^1.5 - 10/t^2 - 3/t^3), positive at
        t = 3 and increasing in t.
        term4 decreases and term3 increases with beta, so the smallest
        beta with term4 <= E is at most beta_w, has term3 <= E, and is the
        smallest beta reaching E.

    theta* <= 4t, so this is also the optimum over the rectangle
    theta <= 4t.  So max(claw_bound_terms(t, theta, beta)) at the pair
    returned is exactly claw_threshold(t), with nothing left to check at
    run time; the tests compare the two for every t up to 10^4.  A t that
    is not an integer >= 2 raises claw_threshold's ValueError.
    """
    threshold = claw_threshold(t)
    theta = 4 if t == 2 else (4 * t + 3) // 3
    # term4 <= threshold  <=>  C(beta, 2) >= (t+1)^2 theta / threshold.
    return theta, _smallest_beta(-(-(t + 1) ** 2 * theta // threshold))
