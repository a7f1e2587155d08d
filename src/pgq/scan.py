"""Parameter-space scan: apply every feasibility condition to each (s, t)
of PGQ form and collect the sets eliminated by the four-term bound alone.

A parameter set lands in the headline table exactly when it passes the
classical conditions (Krein, multiplicity integrality, Neumaier) and is
excluded both as a GQ (s > t^2) and as a pseudo-GQ (s > the optimized
four-term bound).  Number theory narrows the search to few candidates:
since s = -t (mod s+t), (s+t) | s(s+1)t(t+1) holds iff
(s+t) | t^2(t^2-1).  So the candidates at t are s = d - t for the
divisors d of t^2(t^2-1) with max(t^2, claw_threshold(t)) < s <=
Neumaier's bound, and every candidate is a row: s > t^2 >= t gives
Krein (t <= s^2) and fails gq-duality, the divisor gives divisibility,
and threshold < s <= Neumaier's bound passes Neumaier and fails the claw
bound.

So a CSV row needs only (s, t): candidates() yields the pairs from the
divisor arithmetic, and csv_row() formats v = (s+1)(st+1), k = s(t+1),
lambda = s-1 and mu = t+1 directly.  A scan runs check_one only for
JSON, whose objects carry the verdict witnesses.  chunks() streams
either format as one string per t, so a scan holds one t's rows at a
time, whatever its range; scan() gives the same rows as a list of
reports, and emit_csv() and emit_json() format such a list as one string.

The scan is a pure function of its range: rows come out ordered by
(t, s) ascending and two runs produce byte-identical output.
"""

from __future__ import annotations

from ._record import Record, set_field
from .bounds import claw_threshold, neumaier_bound, optimal_claw_bound
from .params import (
    FAIL,
    NA,
    PASS,
    _NA_WITNESS,
    GQParams,
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

#: The largest t_max the CLI scans.  multiplicity_divisors factors t-1, t
#: and t+1 by trial division, which is slowest when t-1 and t+1 are prime
#: and t/6 is prime: about 0.4 s per t near 10^12 on a 2-vCPU Intel Xeon,
#: growing as the square root of t.
MAX_SCAN_T = 10**12


class FeasibilityReport(Record):
    """All condition verdicts and the resulting classification for one
    parameter pair: params (GQParams), derived (SrgParams), verdicts
    (tuple[Verdict, ...], in CONDITION_ORDER) and classification (str,
    one of CLASSIFICATIONS)."""

    __slots__ = ("params", "derived", "verdicts", "classification")


class ScanRange(Record):
    """Range of t to scan; s runs over the candidates of multiplicity_divisors(t)."""

    __slots__ = ("t_min", "t_max")

    def __init__(self, t_min: int, t_max: int):
        if not (isinstance(t_min, int) and isinstance(t_max, int)):
            raise ValueError("t_min and t_max must be integers")
        if not 2 <= t_min <= t_max:
            raise ValueError(f"require 2 <= t_min <= t_max, got [{t_min}, {t_max}]")
        set_field(self, "t_min", t_min)
        set_field(self, "t_max", t_max)


def check_one(p: GQParams) -> FeasibilityReport:
    """Run the full condition pipeline on one parameter pair."""
    q = derive_srg(p)
    s, t = p.s, p.t
    verdicts = [
        # derive_srg has raised InternalInconsistencyError if the identity fails.
        Verdict("consistency", PASS, f"k(k-lambda-1) = {q.k * (q.k - q.lam - 1)} = (v-k-1)mu")
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


def candidates(rng: ScanRange):
    """Yield, for each t in range ascending, the list of (s, t) pairs
    eliminated by the four-term bound but by nothing older, s ascending.
    Every divisor candidate is such a pair (see the module docstring),
    so none is filtered."""
    for t in range(rng.t_min, rng.t_max + 1):
        low = max(t * t, claw_threshold(t))
        high = neumaier_bound(t)
        yield [(d - t, t) for d in multiplicity_divisors(t) if low < d - t <= high]


def scan(rng: ScanRange) -> list[FeasibilityReport]:
    """The reports of every candidate in range, ordered by (t, s) ascending."""
    return [check_one(GQParams(s, t)) for pairs in candidates(rng) for s, t in pairs]


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


def csv_row(s: int, t: int) -> str:
    """One CSV line, s,t,v,k,lambda,mu, from the (P)GQ(s,t) formulas."""
    return f"{s},{t},{(s + 1) * (s * t + 1)},{s * (t + 1)},{s - 1},{t + 1}\n"


def _csv_chunks(groups):
    """The header, then one string of rows per non-empty group of (s, t)."""
    yield CSV_HEADER + "\n"
    for pairs in groups:
        if pairs:
            yield "".join([csv_row(s, t) for s, t in pairs])


def _json_chunks(groups):
    """One JSON array of report objects, in the layout of
    json.dumps(list, indent=2) + "\n", one string per non-empty group of
    reports."""
    import json

    opener = "[\n  "
    for reports in groups:
        # Each object in a list dumped at indent=2 is indented two more spaces.
        items = [json.dumps(report_to_dict(r), indent=2).replace("\n", "\n  ") for r in reports]
        if items:
            yield opener + ",\n  ".join(items)
            opener = ",\n  "
    yield "[]\n" if opener == "[\n  " else "\n]\n"


def chunks(rng: ScanRange, fmt: str):
    """The scan of rng in format fmt ("csv" or "json"), one string per t
    that has rows (plus the CSV header and the JSON closer): the bytes of
    emit_csv(scan(rng)) or emit_json(scan(rng)), without holding them."""
    if fmt == "csv":
        return _csv_chunks(candidates(rng))
    if fmt == "json":
        return _json_chunks(
            (check_one(GQParams(s, t)) for s, t in pairs) for pairs in candidates(rng)
        )
    raise ValueError(f"unknown format {fmt!r}")


def emit_csv(reports) -> str:
    """Canonical reproduction artifact: header s,t,v,k,lambda,mu then one
    comma-separated row per report, no padding."""
    return "".join(_csv_chunks([[(r.params.s, r.params.t) for r in reports]]))


def emit_json(reports) -> str:
    """Full diagnostics: JSON array of report objects."""
    return "".join(_json_chunks([reports]))

