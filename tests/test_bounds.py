"""Bound arithmetic: Neumaier's cubic bound, the four-term bound, the
quadratic closed form, and the (theta, beta) optimization against an
exhaustive sweep."""

from fractions import Fraction
from math import comb, floor

import pytest

from pgq.bounds import (
    claw_bound_terms,
    claw_threshold,
    neumaier_bound,
    optimal_claw_bound,
    quadratic_claw_bound,
)
from pgq.params import GQParams, SrgParams, derive_srg

from oracles import claw_inequality_oracle, crossover_oracle, quadratic_witness


def sweep_oracle(t, theta_cap):
    """Naive reference minimization of the four-term maximum over every
    (theta, beta) with theta up to theta_cap (4t is the library's cap).
    Returns (value, theta, beta, terms), ties to the smallest theta, then
    the smallest beta."""
    best = None
    for theta in range(t + 2, theta_cap + 1):
        t1 = Fraction(t, theta - t) * (theta + 1) * theta / 2
        t2 = Fraction(t * (2 * theta - 1))
        for beta in range(2, t + 2):
            c2 = beta * (beta - 1) // 2
            t3 = Fraction(c2 * t)
            t4 = Fraction((t + 1) ** 2 * theta, c2)
            value = max(t1, t2, t3, t4)
            if best is None or value < best[0]:
                best = (value, theta, beta, (t1, t2, t3, t4))
    return best


@pytest.mark.parametrize("t,expected", [(2, 12), (4, 60), (10, 660)])
def test_neumaier_examples(t, expected):
    assert neumaier_bound(t) == expected


def test_neumaier_requires_t_at_least_2():
    with pytest.raises(ValueError):
        neumaier_bound(1)


def test_claw_inequality_examples():
    # srg(15,6,1,3) with r=4: 2*6 >= 4*2-6.
    assert claw_inequality_oracle(SrgParams(15, 6, 1, 3), 4)
    # PGQ form (56,4) at r = 7: 4*21 = 84 < 7*56 - 280 = 112.
    assert not claw_inequality_oracle(derive_srg(GQParams(56, 4)), 7)
    # Right side nonpositive passes trivially.
    assert claw_inequality_oracle(SrgParams(15, 6, 1, 3), 2)


def test_cameron_is_tight_on_the_claw_inequality():
    # The Cameron graph, srg(231, 30, 9, 3) of PGQ(10, 2) form, has claw
    # number 5 at every vertex (tests/test_incidence.py), and r = 5 meets
    # the claw inequality with equality.  Term 1 of the four-term bound at
    # t = 2 and theta = r - 1 = 4 is exactly s = 10.
    q, r = derive_srg(GQParams(10, 2)), 5
    assert q == (231, 30, 9, 3)
    assert claw_inequality_oracle(q, r)
    assert (q.mu - 1) * comb(r, 2) == r * (q.lam + 1) - q.k == 20
    assert claw_bound_terms(2, r - 1, 3)[0] == 10


@pytest.mark.parametrize(
    "t,theta,beta,terms,bound",
    [
        (4, 6, 4, (42, 44, 24, 25), 44),
        (2, 4, 3, (10, 14, 6, 12), 14),
        (3, 5, 2, (Fraction(45, 2), 27, 3, 80), 80),
    ],
)
def test_claw_bound_terms_examples(t, theta, beta, terms, bound):
    got = claw_bound_terms(t, theta, beta)
    assert got == tuple(Fraction(x) for x in terms)
    assert max(got) == bound
    assert got[1].denominator == 1 and got[2].denominator == 1


@pytest.mark.parametrize("theta,beta", [(5, 3), (6, 1), (6, 6), (3, 3)])
def test_claw_bound_terms_domain_errors(theta, beta):
    with pytest.raises(ValueError):
        claw_bound_terms(4, theta, beta)


@pytest.mark.parametrize("t,expected", [(2, 12), (4, 44), (10, 270)])
def test_quadratic_bound_examples(t, expected):
    assert quadratic_claw_bound(t) == expected


def test_optimal_bound_examples():
    assert optimal_claw_bound(4) == (6, 4) and claw_threshold(4) == 44
    assert max(claw_bound_terms(3, *optimal_claw_bound(3))) == claw_threshold(3) == 27
    # At t = 2 the four-term sweep bottoms out at 14 (theta=4, beta=3);
    # the quadratic closed form still holds there (12) because the
    # divisibility condition alone gives s <= 10 at t = 2.
    assert optimal_claw_bound(2) == (4, 3) and claw_threshold(2) == 14


def test_optimal_bound_matches_uncapped_oracle():
    # Sweeping theta to 8t finds nothing better: the 4t cap is sound.
    for t in range(2, 26):
        choice = optimal_claw_bound(t)
        value, theta, beta, _ = sweep_oracle(t, 8 * t)
        assert max(claw_bound_terms(t, *choice)) == value
        assert choice == (theta, beta)
        assert claw_threshold(t) == floor(value)


def test_optimal_bound_matches_rectangle_sweep():
    # The closed form agrees with the exhaustive sweep over the
    # same rectangle, including the tie-break and the reported terms.
    for t in range(2, 61):
        choice = optimal_claw_bound(t)
        got = claw_bound_terms(t, *choice)
        value, theta, beta, terms = sweep_oracle(t, 4 * t)
        assert (max(got), choice, got) == (value, (theta, beta), terms), t


def test_closed_form_matches_crossover_oracle():
    # The closed form against a per-theta search that assumes none, on
    # the threshold, the choice and the terms.  Their maximum is at least
    # the searched minimum, whose floor is the threshold, so equal to the
    # threshold it is that minimum.
    for t in range(2, 1001):
        theta, beta = optimal_claw_bound(t)
        terms = claw_bound_terms(t, theta, beta)
        assert (claw_threshold(t), theta, beta, terms) == crossover_oracle(t), t
        assert max(terms) == claw_threshold(t), t


def test_claw_threshold_is_the_optimal_threshold():
    # The integer the scan enumeration compares against, checked against
    # a search that assumes no closed form, and against the optimizer.
    assert claw_threshold(2) == 14
    for t in range(2, 201):
        assert claw_threshold(t) == crossover_oracle(t)[0], t
    for t in (1000, 4096, 10**12, 10**100):
        assert claw_threshold(t) == max(claw_bound_terms(t, *optimal_claw_bound(t))) == quadratic_claw_bound(t)
    for bad in (1, 0, 2.0, True):
        for function in (claw_threshold, optimal_claw_bound):
            with pytest.raises(ValueError, match=r"^require integer t >= 2, got "):
                function(bad)


def test_optimal_bound_terms_reach_the_threshold():
    # What the optimal_claw_bound docstring proves, and the library no
    # longer checks at run time: the terms at the chosen (theta, beta)
    # have the maximum claw_threshold(t).
    for t in range(2, 10**4 + 1):
        assert max(claw_bound_terms(t, *optimal_claw_bound(t))) == claw_threshold(t), t


def test_optimal_equals_quadratic_closed_form():
    # The closed form is the tightest value of the four-term bound for
    # every t >= 3; a counterexample must surface here with its witness.
    for t in [*range(3, 201), 1000, 4096, 10000]:
        theta, beta = optimal_claw_bound(t)
        value = max(claw_bound_terms(t, theta, beta))
        assert value == quadratic_claw_bound(t), (
            f"t={t}: optimizer gives {value} at (theta={theta}, beta={beta}), "
            f"closed form gives {quadratic_claw_bound(t)}"
        )


def test_quadratic_witness_certifies_closed_form():
    # Proof step (c) of optimal_claw_bound: beta = ceil(2 sqrt t) at the
    # optimal theta keeps all four terms at most the closed form.
    for t in range(3, 10**4 + 1):
        theta, beta = quadratic_witness(t)
        assert theta == optimal_claw_bound(t)[0], t
        assert theta >= t + 2 and 2 <= beta <= t + 1, t
        assert max(claw_bound_terms(t, theta, beta)) <= quadratic_claw_bound(t), t
    # At t = 2 the witness theta is below t+2, so it is no valid choice.
    with pytest.raises(ValueError):
        claw_bound_terms(2, *quadratic_witness(2))


def test_quadratic_never_exceeds_neumaier():
    # True ordering: <= everywhere, equality exactly at t = 2 (both 12).
    for t in range(2, 101):
        q, n = quadratic_claw_bound(t), neumaier_bound(t)
        assert q <= n
        assert (q == n) == (t == 2)


def test_claw_inequality_reproduces_first_term():
    # Specialized to PGQ form with r = theta+1, the claw inequality fails
    # exactly when s(theta - t) > t*C(theta+1, 2), i.e. s > term1.
    for t in range(2, 13):
        for theta in range(t + 2, 3 * t + 1):
            at_most = floor(claw_bound_terms(t, theta, 2)[0])
            assert claw_inequality_oracle(derive_srg(GQParams(at_most, t)), theta + 1)
            assert not claw_inequality_oracle(derive_srg(GQParams(at_most + 1, t)), theta + 1)
