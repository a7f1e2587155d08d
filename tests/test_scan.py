"""Parameter-space scan: classification pipeline, ordering, emission."""

import json
from math import isqrt

import pytest

from pgq.bounds import claw_threshold, neumaier_bound, quadratic_claw_bound
from pgq.params import GQParams, derive_srg
from pgq.scan import (
    CONDITION_ORDER,
    CSV_HEADER,
    GQ_POSSIBLE,
    MAX_SCAN_T,
    PGQ_POSSIBLE_ONLY,
    RULED_OUT_NEW,
    RULED_OUT_PRIOR,
    TRIVIAL,
    ScanRange,
    candidates,
    check_one,
    chunks,
    csv_row,
    multiplicity_divisors,
)

from oracles import classify_oracle, csv_oracle, exhaustive_scan


def report(s, t):
    """check_one's report of (s, t)."""
    return check_one(GQParams(s, t))


def verdicts(s, t):
    """check_one's verdicts of (s, t) by name."""
    return {v["name"]: v for v in report(s, t)["verdicts"]}


def pairs_of(rng):
    return [pair for group in candidates(rng) for pair in group]


def scanned(rng, fmt):
    return "".join(chunks(rng, fmt))


def json_oracle(pairs):
    """The scan JSON of (s, t) pairs: their reports, dumped as one list."""
    return json.dumps([report(s, t) for s, t in pairs], indent=2) + "\n"


@pytest.mark.parametrize(
    "s,t,expected",
    [
        (56, 4, RULED_OUT_NEW),
        (650, 10, RULED_OUT_NEW),
        (10, 2, PGQ_POSSIBLE_ONLY),
        (44, 4, PGQ_POSSIBLE_ONLY),  # boundary: the bound is s <= 44, so 44 survives
        (2, 2, GQ_POSSIBLE),
        (4, 2, GQ_POSSIBLE),         # s = t^2: a GQ is not excluded
        (11, 2, RULED_OUT_PRIOR),   # divisibility fails
        (13, 2, RULED_OUT_PRIOR),   # Neumaier fails
        (2, 5, RULED_OUT_PRIOR),    # Krein fails
        (5, 1, TRIVIAL),
        (1, 5, TRIVIAL),
        (3, 1, TRIVIAL),
    ],
)
def test_check_one_classifications(s, t, expected):
    assert report(s, t)["classification"] == expected


def test_verdict_order_is_fixed():
    for s, t in ((56, 4), (2, 2), (3, 1)):
        assert tuple(v["name"] for v in report(s, t)["verdicts"]) == CONDITION_ORDER


def test_report_keys_are_in_output_order():
    assert list(report(56, 4)) == ["s", "t", "v", "k", "lambda", "mu", "verdicts", "classification"]
    for v in report(56, 4)["verdicts"]:
        assert list(v) == ["name", "verdict", "witness"]


def test_each_call_builds_a_fresh_report():
    first = report(56, 4)
    first["verdicts"][0]["verdict"] = "changed"
    first["verdicts"].clear()
    assert report(56, 4)["verdicts"][0]["verdict"] == "pass"
    assert len(report(56, 4)["verdicts"]) == len(CONDITION_ORDER)


def test_trivial_report_marks_bound_checks_na():
    by_name = verdicts(3, 1)
    assert by_name["consistency"]["verdict"] == "pass"
    assert by_name["trivial"] == {"name": "trivial", "verdict": "fail", "witness": "t=1: trivial parameters"}
    for name in ("krein", "divisibility", "neumaier", "gq-duality", "claw-bound"):
        assert by_name[name]["verdict"] == "na"
        assert by_name[name]["witness"] == "not applicable: requires s >= 2 and t >= 2"


def test_ruled_out_verdict_pattern():
    by_name = verdicts(56, 4)
    assert [by_name[name]["verdict"] for name in ("krein", "divisibility", "neumaier")] == ["pass"] * 3
    assert by_name["gq-duality"]["verdict"] == "fail"
    assert by_name["claw-bound"]["verdict"] == "fail"
    assert by_name["claw-bound"]["witness"] == "s=56 > 44 (four-term bound at theta=6, beta=4)"


def test_check_one_matches_the_classification_oracle():
    # Every verdict status and the classification, over every s up to
    # Neumaier's bound, against conditions decided without check_one.
    for t in range(1, 21):
        for s in range(1, t * (t + 1) * (t + 2) // 2 + 1):
            got = report(s, t)
            statuses = tuple(v["verdict"] for v in got["verdicts"])
            assert (statuses, got["classification"]) == classify_oracle(s, t), (s, t)


def test_scan_full_range_shape():
    pairs = pairs_of(ScanRange(2, 10))
    assert len(pairs) == 25
    assert (pairs[0], pairs[-1]) == ((56, 4), (650, 10))
    assert [(t, s) for s, t in pairs] == sorted((t, s) for s, t in pairs)
    lines = scanned(ScanRange(2, 10), "csv").splitlines()
    assert (lines[1], lines[-1]) == ("56,4,12825,280,55,5", "650,10,4232151,7150,649,11")


def test_scan_empty_and_single_ranges():
    assert scanned(ScanRange(2, 3), "csv") == CSV_HEADER + "\n"
    assert scanned(ScanRange(2, 3), "json") == "[]\n"
    assert scanned(ScanRange(5, 5), "csv") == CSV_HEADER + "\n95,5,45696,570,94,6\n"


def test_scan_rows_satisfy_conditions_by_recomputation():
    for s, t in pairs_of(ScanRange(2, 10)):
        assert (s * (s + 1) * t * (t + 1)) % (s + t) == 0
        assert s <= neumaier_bound(t)
        assert s > t * t
        assert s > quadratic_claw_bound(t)
        assert s > claw_threshold(t)
        assert report(s, t)["classification"] == RULED_OUT_NEW


def test_scan_deterministic_and_monotone():
    full = scanned(ScanRange(2, 10), "csv")
    assert full == scanned(ScanRange(2, 10), "csv")
    rows = full.splitlines(keepends=True)
    partial = [row for row in rows[1:] if int(row.split(",")[1]) <= 8]
    assert scanned(ScanRange(2, 8), "csv") == rows[0] + "".join(partial)


def test_scan_matches_exhaustive_oracle():
    # Every s up to Neumaier's bound, classified without check_one, against
    # the divisor candidates only: the emitted bytes must be identical.
    rng, oracle = ScanRange(2, 40), exhaustive_scan(2, 40)
    assert pairs_of(rng) == oracle
    assert scanned(rng, "csv") == csv_oracle(oracle)
    assert scanned(rng, "json") == json_oracle(oracle)


def test_multiplicity_divisors_match_brute_force():
    for t in range(2, 301):
        n = t * t * (t * t - 1)
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        expected = sorted(set(small + [n // d for d in small]))
        assert multiplicity_divisors(t) == expected, t


def test_scan_range_validation():
    with pytest.raises(ValueError):
        ScanRange(1, 5)
    with pytest.raises(ValueError):
        ScanRange(5, 4)


def test_emit_csv_exact_bytes():
    assert scanned(ScanRange(5, 5), "csv") == "s,t,v,k,lambda,mu\n95,5,45696,570,94,6\n"
    assert scanned(ScanRange(2, 3), "csv") == CSV_HEADER + "\n"


def test_emit_json_schema():
    payload = json.loads(scanned(ScanRange(4, 4), "json"))
    assert isinstance(payload, list) and len(payload) == 1
    obj = payload[0]
    assert set(obj) == {"s", "t", "v", "k", "lambda", "mu", "verdicts", "classification"}
    assert (obj["s"], obj["t"]) == (56, 4)
    assert (obj["v"], obj["k"], obj["lambda"], obj["mu"]) == (12825, 280, 55, 5)
    assert obj["classification"] == RULED_OUT_NEW
    assert [v["name"] for v in obj["verdicts"]] == list(CONDITION_ORDER)
    for v in obj["verdicts"]:
        assert set(v) == {"name", "verdict", "witness"}
        assert v["verdict"] in ("pass", "fail", "na")


def test_emit_single_report_json():
    # A report is plain JSON data: it survives a round trip unchanged.
    got = report(10, 2)
    assert json.loads(json.dumps(got)) == got
    assert got["classification"] == PGQ_POSSIBLE_ONLY


def test_chunks_stream_the_emitted_bytes():
    for t_min, t_max in ((2, 3), (5, 5), (2, 12)):
        rng = ScanRange(t_min, t_max)
        pairs = exhaustive_scan(t_min, t_max)
        assert scanned(rng, "csv") == csv_oracle(pairs)
        assert scanned(rng, "json") == json_oracle(pairs)
    with pytest.raises(ValueError):
        chunks(ScanRange(2, 3), "xml")


def test_chunks_are_lazy_one_t_at_a_time():
    # The whole permitted range, which no list could hold: each chunk is
    # computed when it is asked for, one t with rows at a time.
    csv = chunks(ScanRange(2, MAX_SCAN_T), "csv")
    assert [next(csv) for _ in range(4)] == [
        CSV_HEADER + "\n", csv_row(56, 4), csv_row(95, 5), csv_row(120, 6) + csv_row(134, 6),
    ]
    objects = chunks(ScanRange(2, MAX_SCAN_T), "json")
    assert next(objects) == scanned(ScanRange(4, 4), "json")[:-len("\n]\n")]
    assert next(objects) == ",\n" + scanned(ScanRange(5, 5), "json")[len("[\n"):-len("\n]\n")]


def test_csv_row_is_the_derived_srg():
    for s, t in pairs_of(ScanRange(2, 12)):
        q = derive_srg(GQParams(s, t))
        assert csv_row(s, t) == f"{s},{t},{q.v},{q.k},{q.lam},{q.mu}\n"
