"""Parameter-space scan: apply every feasibility condition to each (s, t)
of PGQ form and collect the sets eliminated by the four-term bound alone.

A parameter set lands in the headline table exactly when it passes the
classical conditions (Krein, multiplicity integrality, Neumaier) and is
excluded both as a GQ (s > t^2) and as a pseudo-GQ (s > the optimized
four-term bound).  Number theory narrows the search to few candidates:
for s > t^2 the Krein condition t <= s^2 holds, and since s = -t
(mod s+t), (s+t) | s(s+1)t(t+1) holds iff (s+t) | t^2(t^2-1).  So the
candidates at t are d - t for the divisors d of t^2(t^2-1) with
max(t^2, four-term threshold) < d - t <= Neumaier's bound, and the scan
runs the full pipeline on those alone.

The scan is a pure function of its range: rows come out ordered by
(t, s) ascending and two runs produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bounds import neumaier_bound, optimal_claw_bound
from .params import (
    FAIL,
    NA,
    PASS,
    _NA_WITNESS,
    GQParams,
    SrgParams,
    Verdict,
    derive_srg,
    gq_possible,
    krein_check,
    multiplicity_integrality,
)

GQ_POSSIBLE = "gq-possible"
PGQ_POSSIBLE_ONLY = "pgq-possible-only"
RULED_OUT_NEW = "ruled-out-by-new-bound"
RULED_OUT_PRIOR = "ruled-out-by-prior-conditions"
TRIVIAL = "trivial"

CLASSIFICATIONS = (GQ_POSSIBLE, PGQ_POSSIBLE_ONLY, RULED_OUT_NEW, RULED_OUT_PRIOR, TRIVIAL)

#: Fixed order of the per-condition verdicts in every report.
CONDITION_ORDER = (
    "consistency",
    "trivial",
    "krein",
    "divisibility",
    "neumaier",
    "gq-duality",
    "claw-bound",
)

CSV_HEADER = "s,t,v,k,lambda,mu"


@dataclass(frozen=True)
class FeasibilityReport:
    """All condition verdicts and the resulting classification for one
    parameter pair."""

    params: GQParams
    derived: SrgParams
    verdicts: tuple[Verdict, ...]
    classification: str


@dataclass(frozen=True)
class ScanRange:
    """Range of t to scan; s runs over the candidates of multiplicity_divisors(t)."""

    t_min: int
    t_max: int

    def __post_init__(self):
        if not (isinstance(self.t_min, int) and isinstance(self.t_max, int)):
            raise ValueError("t_min and t_max must be integers")
        if not 2 <= self.t_min <= self.t_max:
            raise ValueError(
                f"require 2 <= t_min <= t_max, got [{self.t_min}, {self.t_max}]"
            )


def check_one(p: GQParams) -> FeasibilityReport:
    """Run the full condition pipeline on one parameter pair."""
    q = derive_srg(p)
    s, t = p.s, p.t
    verdicts = [
        Verdict(
            "consistency", PASS if q.counting_identity_holds else FAIL,
            f"k(k-lambda-1) = {q.k * (q.k - q.lam - 1)} = (v-k-1)mu",
        )
    ]
    if p.is_trivial:
        which = "s=1" if s == 1 else "t=1"
        verdicts.append(Verdict("trivial", FAIL, f"{which}: trivial parameters"))
        for name in CONDITION_ORDER[2:]:
            verdicts.append(Verdict(name, NA, _NA_WITNESS))
        return FeasibilityReport(p, q, tuple(verdicts), TRIVIAL)
    verdicts.append(Verdict("trivial", PASS, "s >= 2 and t >= 2"))
    verdicts.append(krein_check(p))
    verdicts.append(multiplicity_integrality(p))
    nb = neumaier_bound(t)
    verdicts.append(
        Verdict("neumaier", PASS if s <= nb else FAIL,
                f"s={s} {'<=' if s <= nb else '>'} t(t+1)(t+2)/2 = {nb}")
    )
    verdicts.append(gq_possible(p))
    opt = optimal_claw_bound(t)
    claw_ok = s <= opt.threshold
    verdicts.append(
        Verdict(
            "claw-bound", PASS if claw_ok else FAIL,
            f"s={s} {'<=' if claw_ok else '>'} {opt.threshold} "
            f"(four-term bound at theta={opt.choice.theta}, beta={opt.choice.beta})",
        )
    )
    by_name = {v.name: v for v in verdicts}
    if not (by_name["krein"].ok and by_name["divisibility"].ok and by_name["neumaier"].ok):
        classification = RULED_OUT_PRIOR
    elif by_name["gq-duality"].ok:
        classification = GQ_POSSIBLE
    elif not claw_ok:
        classification = RULED_OUT_NEW
    else:
        classification = PGQ_POSSIBLE_ONLY
    return FeasibilityReport(p, q, tuple(verdicts), classification)


def _factorize(n: int, exponents: dict[int, int]) -> None:
    """Add the prime exponents of n >= 1 to exponents, by trial division."""
    p = 2
    while p * p <= n:
        while n % p == 0:
            exponents[p] = exponents.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        exponents[n] = exponents.get(n, 0) + 1


def multiplicity_divisors(t: int) -> list[int]:
    """All divisors of t^2(t^2-1), ascending: the values s+t can take when
    s > t^2 and the eigenvalue multiplicities are integers."""
    exponents: dict[int, int] = {}
    for factor in (t, t, t - 1, t + 1):
        _factorize(factor, exponents)
    divisors = [1]
    for p, e in exponents.items():
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    return sorted(divisors)


def scan(rng: ScanRange) -> list[FeasibilityReport]:
    """All parameter sets in range eliminated by the four-term bound but by
    nothing older, ordered by (t, s) ascending."""
    rows = []
    for t in range(rng.t_min, rng.t_max + 1):
        low = max(t * t, optimal_claw_bound(t).threshold)
        high = neumaier_bound(t)
        for d in multiplicity_divisors(t):
            if low < d - t <= high:
                report = check_one(GQParams(d - t, t))
                if report.classification == RULED_OUT_NEW:
                    rows.append(report)
    return rows


def report_to_dict(report: FeasibilityReport) -> dict:
    q = report.derived
    return {
        "s": report.params.s,
        "t": report.params.t,
        "v": q.v,
        "k": q.k,
        "lambda": q.lam,
        "mu": q.mu,
        "verdicts": [
            {"name": v.name, "verdict": v.status, "witness": v.witness}
            for v in report.verdicts
        ],
        "classification": report.classification,
    }


def emit_csv(reports) -> str:
    """Canonical reproduction artifact: header s,t,v,k,lambda,mu then one
    comma-separated row per report, no padding."""
    lines = [CSV_HEADER]
    for r in reports:
        q = r.derived
        lines.append(f"{r.params.s},{r.params.t},{q.v},{q.k},{q.lam},{q.mu}")
    return "\n".join(lines) + "\n"


def emit_json(reports) -> str:
    """Full diagnostics: JSON array of report objects."""
    return json.dumps([report_to_dict(r) for r in reports], indent=2) + "\n"


def emit(reports, fmt: str) -> str:
    if fmt == "csv":
        return emit_csv(reports)
    if fmt == "json":
        return emit_json(reports)
    raise ValueError(f"unknown format {fmt!r}")
