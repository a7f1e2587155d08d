"""Parameter arithmetic: derivation, inversion, spectrum, divisibility."""

import pytest
from hypothesis import given, strategies as st

from pgq.params import GQParams, SrgParams, derive_srg, identify_gq_form
from pgq.scan import check_one

from oracles import spectrum_of


def verdict(s, t, name):
    """check_one's verdict named name at (s, t)."""
    return next(v for v in check_one(GQParams(s, t))["verdicts"] if v["name"] == name)


@pytest.mark.parametrize(
    "s,t,expected",
    [
        (2, 2, (15, 6, 1, 3)),
        (10, 2, (231, 30, 9, 3)),
        (56, 4, (12825, 280, 55, 5)),
        (1, 1, (4, 2, 0, 2)),
    ],
)
def test_derive_srg_examples(s, t, expected):
    assert derive_srg(GQParams(s, t)) == expected


def test_trivial_flag():
    assert GQParams(1, 1).is_trivial
    assert GQParams(1, 5).is_trivial
    assert GQParams(5, 1).is_trivial
    assert not GQParams(2, 2).is_trivial


@pytest.mark.parametrize("s,t", [(0, 1), (1, 0), (-3, 2), (2, -1)])
def test_gqparams_rejects_nonpositive(s, t):
    with pytest.raises(ValueError):
        GQParams(s, t)


def test_srgparams_validation():
    with pytest.raises(ValueError):
        SrgParams(10, 3, 3, 1)  # lam > k-1
    with pytest.raises(ValueError):
        SrgParams(10, 3, 0, 0)  # mu < 1
    with pytest.raises(ValueError):
        SrgParams(3, 3, 0, 1)  # k >= v


def test_identify_gq_form_examples():
    assert identify_gq_form(SrgParams(15, 6, 1, 3)) == GQParams(2, 2)
    assert identify_gq_form(SrgParams(16, 6, 2, 2)) == GQParams(3, 1)
    # Petersen parameters: lam+1 = 1, mu-1 = 0 fails t >= 1.
    assert identify_gq_form(SrgParams(10, 3, 0, 1)) is None
    # Well-formed but (s+1)(st+1) mismatch.
    assert identify_gq_form(SrgParams(28, 6, 1, 3)) is None


def test_identity_on_range():
    # The counting identity k(k-lam-1) = (v-k-1)mu, both sides s^2 t(t+1),
    # which the derive_srg docstring proves.
    for s in range(1, 201):
        for t in range(1, 201):
            p = GQParams(s, t)
            q = derive_srg(p)
            assert q.k * (q.k - q.lam - 1) == (q.v - q.k - 1) * q.mu == s * s * t * (t + 1)
            assert identify_gq_form(q) == p


@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_identity_large(s, t):
    p = GQParams(s, t)
    q = derive_srg(p)
    assert q.k * (q.k - q.lam - 1) == (q.v - q.k - 1) * q.mu == s * s * t * (t + 1)
    assert identify_gq_form(q) == p


@pytest.mark.parametrize(
    "s,t,ok,fragment",
    [
        (10, 2, True, "quotient 55"),
        (56, 4, True, "quotient 1064"),
        (11, 2, False, "remainder 12"),
    ],
)
def test_multiplicity_integrality_examples(s, t, ok, fragment):
    v = verdict(s, t, "divisibility")
    assert v["verdict"] == ("pass" if ok else "fail")
    assert fragment in v["witness"]


def test_multiplicity_integrality_trivial_is_na():
    assert verdict(1, 4, "divisibility")["verdict"] == "na"


def test_spectrum_examples():
    spec = spectrum_of(GQParams(2, 2))
    assert (spec.theta_pos, spec.theta_neg) == (1, -3)
    assert (spec.mult_pos, spec.mult_neg) == (9, 5)


def test_spectrum_invariants_and_divisibility_crosscheck():
    for s in range(2, 81):
        for t in range(2, 81):
            p = GQParams(s, t)
            spec, q = spectrum_of(p), derive_srg(p)
            assert spec.mult_pos + spec.mult_neg == q.v - 1
            assert q.k + spec.mult_pos * spec.theta_pos + spec.mult_neg * spec.theta_neg == 0
            divides = verdict(s, t, "divisibility")["verdict"] == "pass"
            assert divides == (spec.mult_pos.denominator == 1)


@given(st.integers(2, 10**4), st.integers(2, 10**4))
def test_spectrum_invariants_large(s, t):
    p = GQParams(s, t)
    spec, q = spectrum_of(p), derive_srg(p)
    assert spec.mult_pos + spec.mult_neg == q.v - 1
    assert q.k + spec.mult_pos * spec.theta_pos + spec.mult_neg * spec.theta_neg == 0


@pytest.mark.parametrize(
    "s,t,ok",
    [(10, 2, True), (2, 4, True), (2, 5, False)],
)
def test_krein_examples(s, t, ok):
    v = verdict(s, t, "krein")
    assert v["verdict"] == ("pass" if ok else "fail")
    assert v["witness"] == f"t={t} {'<=' if ok else '>'} s^2={s * s}"


@pytest.mark.parametrize(
    "s,t,ok",
    [(10, 2, False), (4, 2, True), (56, 4, False)],
)
def test_gq_possible_examples(s, t, ok):
    v = verdict(s, t, "gq-duality")
    assert v["verdict"] == ("pass" if ok else "fail")
    assert v["witness"].endswith("a GQ is not excluded" if ok else "no GQ exists")


def test_bound_checks_na_on_trivial():
    assert verdict(3, 1, "krein")["verdict"] == "na"
    assert verdict(3, 1, "gq-duality")["verdict"] == "na"
