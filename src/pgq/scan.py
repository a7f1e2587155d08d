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
JSON, whose objects carry the verdict witnesses: check_one returns the
report as the very dict that is written, and the JSON of a scan is
json.dumps(reports, indent=2) + "\n" for the list of its reports.
chunks() streams either format as one string per t, so a scan holds one
t's rows at a time, whatever its range, and never that list.

The scan is a pure function of its range: rows come out ordered by
(t, s) ascending and two runs produce byte-identical output.
"""

from __future__ import annotations

from collections import namedtuple

from .bounds import claw_threshold, neumaier_bound, optimal_claw_bound
from .params import GQParams, derive_srg

GQ_POSSIBLE = "gq-possible"
PGQ_POSSIBLE_ONLY = "pgq-possible-only"
RULED_OUT_NEW = "ruled-out-by-new-bound"
RULED_OUT_PRIOR = "ruled-out-by-prior-conditions"
TRIVIAL = "trivial"

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
#: and t/6 is prime: about 0.35 s per t near 10^12 on a 2-vCPU Intel Xeon,
#: growing as the square root of t.  The limit bounds that alone: memory
#: grows with one t's divisors and rows, which are held together.  The
#: worst t known below it, 963761198400, has 6,823,440 divisors and
#: 2,821,255 rows, and its CSV scan took about 25 s and 1.6 GB peak
#: (3.5 s and 318 MB at t = 10^12), on the same machine.
MAX_SCAN_T = 10**12


class ScanRange(namedtuple("ScanRange", "t_min t_max")):
    """Range of t to scan; s runs over the candidates of multiplicity_divisors(t)."""

    __slots__ = ()

    def __new__(cls, t_min: int, t_max: int):
        if not (isinstance(t_min, int) and isinstance(t_max, int)):
            raise ValueError("t_min and t_max must be integers")
        if not 2 <= t_min <= t_max:
            raise ValueError(f"require 2 <= t_min <= t_max, got [{t_min}, {t_max}]")
        return super().__new__(cls, t_min, t_max)


def _verdict(name: str, ok: bool, witness: str) -> dict:
    return {"name": name, "verdict": "pass" if ok else "fail", "witness": witness}


def check_one(p: GQParams) -> dict:
    """The feasibility report of one parameter pair, as the JSON object
    that check and scan write, a fresh dict for each call: s, t, v, k,
    lambda and mu, then "verdicts", one {"name", "verdict", "witness"}
    per condition in CONDITION_ORDER, each verdict "pass" or "fail" (or
    "na" for a condition that trivial parameters leave open), and
    "classification", the decision those verdicts make."""
    q = derive_srg(p)
    s, t = p.s, p.t
    # The counting identity holds by algebra; derive_srg proves it.
    verdicts = [_verdict("consistency", True, f"k(k-lambda-1) = {q.k * (q.k - q.lam - 1)} = (v-k-1)mu")]
    if p.is_trivial:
        verdicts.append(_verdict("trivial", False, f"{'s=1' if s == 1 else 't=1'}: trivial parameters"))
        verdicts += [
            {"name": name, "verdict": "na", "witness": "not applicable: requires s >= 2 and t >= 2"}
            for name in CONDITION_ORDER[2:]
        ]
        classification = TRIVIAL
    else:
        krein = t <= s * s
        product = s * (s + 1) * t * (t + 1)
        quotient, remainder = divmod(product, s + t)
        divisible = remainder == 0
        nb = neumaier_bound(t)
        neumaier = s <= nb
        gq = s <= t * t
        threshold = claw_threshold(t)
        theta, beta = optimal_claw_bound(t)
        claw = s <= threshold
        verdicts += [
            _verdict("trivial", True, "s >= 2 and t >= 2"),
            _verdict("krein", krein, f"t={t} {'<=' if krein else '>'} s^2={s * s}"),
            _verdict("divisibility", divisible,
                     f"(s+t)={s + t} {'divides' if divisible else 'does not divide'} "
                     f"s(s+1)t(t+1)={product}, "
                     + (f"quotient {quotient}" if divisible else f"remainder {remainder}")),
            _verdict("neumaier", neumaier, f"s={s} {'<=' if neumaier else '>'} t(t+1)(t+2)/2 = {nb}"),
            _verdict("gq-duality", gq, f"s={s} {'<=' if gq else '>'} t^2={t * t}, "
                     + ("a GQ is not excluded" if gq else "no GQ exists")),
            _verdict("claw-bound", claw, f"s={s} {'<=' if claw else '>'} {threshold} "
                     f"(four-term bound at theta={theta}, beta={beta})"),
        ]
        if not (krein and divisible and neumaier):
            classification = RULED_OUT_PRIOR
        elif gq:
            classification = GQ_POSSIBLE
        elif claw:
            classification = PGQ_POSSIBLE_ONLY
        else:
            classification = RULED_OUT_NEW
    return {"s": s, "t": t, "v": q.v, "k": q.k, "lambda": q.lam, "mu": q.mu,
            "verdicts": verdicts, "classification": classification}


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
    _factorize(t, exponents)
    exponents = {p: 2 * e for p, e in exponents.items()}
    _factorize(t - 1, exponents)
    _factorize(t + 1, exponents)
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
        items = [json.dumps(r, indent=2).replace("\n", "\n  ") for r in reports]
        if items:
            yield opener + ",\n  ".join(items)
            opener = ",\n  "
    yield "[]\n" if opener == "[\n  " else "\n]\n"


def chunks(rng: ScanRange, fmt: str):
    """The scan of rng in format fmt ("csv" or "json"), one string per t
    that has rows (plus the CSV header and the JSON closer), without
    holding them all: the CSV header and csv_row of every candidate, or
    json.dumps of the list of their reports, indent=2, and a newline."""
    if fmt == "csv":
        return _csv_chunks(candidates(rng))
    if fmt == "json":
        return _json_chunks(
            (check_one(GQParams(s, t)) for s, t in pairs) for pairs in candidates(rng)
        )
    raise ValueError(f"unknown format {fmt!r}")
