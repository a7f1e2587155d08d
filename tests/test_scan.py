"""Parameter-space scan: classification pipeline, ordering, emission."""

import json
from math import isqrt

import pytest

from pgq.bounds import neumaier_bound, optimal_claw_bound, quadratic_claw_bound
from pgq.params import GQParams
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
    check_one,
    chunks,
    csv_row,
    emit_csv,
    emit_json,
    multiplicity_divisors,
    scan,
)

from oracles import exhaustive_scan


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
    assert check_one(GQParams(s, t)).classification == expected


def test_verdict_order_is_fixed():
    for p in (GQParams(56, 4), GQParams(2, 2), GQParams(3, 1)):
        report = check_one(p)
        assert tuple(v.name for v in report.verdicts) == CONDITION_ORDER


def test_trivial_report_marks_bound_checks_na():
    report = check_one(GQParams(3, 1))
    by_name = {v.name: v for v in report.verdicts}
    assert by_name["consistency"].ok
    assert by_name["trivial"].status == "fail"
    for name in ("krein", "divisibility", "neumaier", "gq-duality", "claw-bound"):
        assert by_name[name].status == "na"


def test_ruled_out_verdict_pattern():
    report = check_one(GQParams(56, 4))
    by_name = {v.name: v for v in report.verdicts}
    assert by_name["krein"].ok and by_name["divisibility"].ok and by_name["neumaier"].ok
    assert by_name["gq-duality"].status == "fail"
    assert by_name["claw-bound"].status == "fail"


def test_scan_full_range_shape():
    rows = scan(ScanRange(2, 10))
    assert len(rows) == 25
    assert rows[0].derived.as_tuple() == (12825, 280, 55, 5)
    assert (rows[0].params.s, rows[0].params.t) == (56, 4)
    assert rows[-1].derived.as_tuple() == (4232151, 7150, 649, 11)
    assert (rows[-1].params.s, rows[-1].params.t) == (650, 10)
    keys = [(r.params.t, r.params.s) for r in rows]
    assert keys == sorted(keys)


def test_scan_empty_and_single_ranges():
    assert scan(ScanRange(2, 3)) == []
    rows = scan(ScanRange(5, 5))
    assert len(rows) == 1
    assert rows[0].derived.as_tuple() == (45696, 570, 94, 6)


def test_scan_rows_satisfy_conditions_by_recomputation():
    for r in scan(ScanRange(2, 10)):
        s, t = r.params.s, r.params.t
        assert (s * (s + 1) * t * (t + 1)) % (s + t) == 0
        assert s <= neumaier_bound(t)
        assert s > t * t
        assert s > quadratic_claw_bound(t)
        assert s > optimal_claw_bound(t).threshold
        assert r.classification == RULED_OUT_NEW


def test_scan_deterministic_and_monotone():
    full = scan(ScanRange(2, 10))
    assert emit_csv(full) == emit_csv(scan(ScanRange(2, 10)))
    partial = scan(ScanRange(2, 8))
    assert partial == [r for r in full if r.params.t <= 8]


def test_scan_matches_exhaustive_oracle():
    # Every s up to Neumaier's bound through the full pipeline, against
    # the divisor candidates only: the emitted bytes must be identical.
    rows = scan(ScanRange(2, 40))
    oracle = exhaustive_scan(2, 40)
    assert emit_csv(rows) == emit_csv(oracle)
    assert emit_json(rows) == emit_json(oracle)


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
    assert emit_csv(scan(ScanRange(5, 5))) == "s,t,v,k,lambda,mu\n95,5,45696,570,94,6\n"
    assert emit_csv([]) == CSV_HEADER + "\n"


def test_emit_json_schema():
    rows = scan(ScanRange(4, 4))
    payload = json.loads(emit_json(rows))
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
    payload = json.loads(emit_json([check_one(GQParams(10, 2))]))
    assert len(payload) == 1
    assert payload[0]["classification"] == PGQ_POSSIBLE_ONLY


def test_chunks_stream_the_emitted_bytes():
    for fmt, emit in (("csv", emit_csv), ("json", emit_json)):
        for t_min, t_max in ((2, 3), (5, 5), (2, 12)):
            rng = ScanRange(t_min, t_max)
            assert "".join(chunks(rng, fmt)) == emit(scan(rng))
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
    assert next(objects) == emit_json(scan(ScanRange(4, 4)))[:-len("\n]\n")]
    assert next(objects) == ",\n" + emit_json(scan(ScanRange(5, 5)))[len("[\n"):-len("\n]\n")]


def test_csv_row_is_the_derived_srg():
    for r in scan(ScanRange(2, 12)):
        q = r.derived
        assert csv_row(r.params.s, r.params.t) == f"{r.params.s},{r.params.t},{q.v},{q.k},{q.lam},{q.mu}\n"
