"""Acceptance suite: one test per criterion, each printing one PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them all).

`bound-ordering` checks that the quadratic bound is strictly below
Neumaier's bound for every t in [3, 100] and equal to it (both 12) at t = 2.
"""

import time

import pytest

from pgq.bounds import claw_bound_terms, neumaier_bound, optimal_claw_bound, quadratic_claw_bound
from pgq.graph import claw_numbers, verify_srg
from pgq.incidence import (
    collinearity_graph,
    dual,
    extract_gq,
    gen_complete_bipartite,
    gen_kneser_6_2,
    gen_rook,
    gen_shrikhande,
    gen_symplectic_w3,
    verify_axioms,
)
from pgq.params import GQParams, derive_srg
from pgq.scan import PGQ_POSSIBLE_ONLY, ScanRange, check_one, chunks

from oracles import clique_cover_oracle, edge_set, local_coclique_oracle

# Frozen elimination table for t in [2, 10] (regression baseline):
# (s, t, v, k, lambda, mu), ordered by t then s.
EXPECTED_ELIMINATED = [
    (56, 4, 12825, 280, 55, 5),
    (95, 5, 45696, 570, 94, 6),
    (120, 6, 87241, 840, 119, 7),
    (134, 6, 108675, 938, 133, 7),
    (140, 7, 138321, 1120, 139, 8),
    (161, 7, 182736, 1288, 160, 8),
    (189, 7, 251560, 1512, 188, 8),
    (184, 8, 272505, 1656, 183, 9),
    (216, 8, 375193, 1944, 215, 9),
    (244, 8, 478485, 2196, 243, 9),
    (280, 8, 629721, 2520, 279, 9),
    (328, 8, 863625, 2952, 327, 9),
    (231, 9, 482560, 2310, 230, 10),
    (261, 9, 615700, 2610, 260, 10),
    (315, 9, 896176, 3150, 314, 10),
    (351, 9, 1112320, 3510, 350, 10),
    (396, 9, 1415305, 3960, 395, 10),
    (423, 9, 1614592, 4230, 422, 10),
    (290, 10, 844191, 3190, 289, 11),
    (320, 10, 1027521, 3520, 319, 11),
    (386, 10, 1494207, 4246, 385, 11),
    (440, 10, 1940841, 4840, 439, 11),
    (485, 10, 2357586, 5335, 484, 11),
    (540, 10, 2921941, 5940, 539, 11),
    (650, 10, 4232151, 7150, 649, 11),
]

# The positive extraction corpus: (label, graph, params, expected line count).
POSITIVE_CASES = [
    ("kneser_6_2", gen_kneser_6_2(), GQParams(2, 2), 15),
    ("rook_3", gen_rook(3), GQParams(2, 1), 6),
    ("rook_4", gen_rook(4), GQParams(3, 1), 8),
    ("rook_5", gen_rook(5), GQParams(4, 1), 10),
    ("bipartite_2", gen_complete_bipartite(2), GQParams(1, 1), 4),
    ("bipartite_3", gen_complete_bipartite(3), GQParams(1, 2), 9),
    ("bipartite_4", gen_complete_bipartite(4), GQParams(1, 3), 16),
    ("w3", gen_symplectic_w3(), GQParams(3, 3), 40),
]


def _verdict(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def extractions():
    return [
        (label, g, p, extract_gq(g, p).structure)
        for label, g, p, _ in POSITIVE_CASES
    ]


def test_table_reproduction():
    start = time.perf_counter()
    csv = "".join(chunks(ScanRange(2, 10), "csv"))
    elapsed = time.perf_counter() - start
    got = [tuple(map(int, line.split(","))) for line in csv.splitlines()[1:]]
    expected_csv = "s,t,v,k,lambda,mu\n" + "".join(
        ",".join(str(x) for x in row) + "\n" for row in EXPECTED_ELIMINATED
    )
    ok = got == EXPECTED_ELIMINATED and csv == expected_csv and elapsed < 5.0
    _verdict(
        "table-reproduction", ok,
        f"{len(got)} rows in {elapsed:.3f}s" if ok
        else f"got {len(got)} rows in {elapsed:.3f}s, first diff "
             f"{next((a for a, b in zip(got, EXPECTED_ELIMINATED) if a != b), None)}",
    )


def test_quadratic_bound_tightness():
    bad = []
    for t in range(3, 51):
        theta, beta = optimal_claw_bound(t)
        value = max(claw_bound_terms(t, theta, beta))
        closed = t * ((8 * t + 3) // 3)
        if value != closed:
            bad.append(
                f"t={t}: optimum {value} at (theta={theta}, "
                f"beta={beta}) vs closed form {closed}"
            )
    _verdict("quadratic-bound-tightness", not bad, "; ".join(bad) or "t in [3, 50]")


def test_bound_ordering():
    # The four-term optimum is certified as the closed form only for t >= 3;
    # at t = 2 the sweep gives 14, and the closed form's 12 (from
    # divisibility) merely equals Neumaier's bound.
    q2, n2 = quadratic_claw_bound(2), neumaier_bound(2)
    violations = [] if q2 == n2 == 12 else [
        f"t=2: quadratic {q2}, neumaier {n2} (want both 12)"
    ]
    violations += [
        f"t={t}: quadratic {quadratic_claw_bound(t)} !< neumaier {neumaier_bound(t)}"
        for t in range(3, 101)
        if not quadratic_claw_bound(t) < neumaier_bound(t)
    ]
    _verdict(
        "bound-ordering", not violations,
        "; ".join(violations) or "strict < for t in [3, 100], both 12 at t = 2",
    )


def test_t2_divisibility():
    reports = {s: check_one(GQParams(s, 2)) for s in range(2, 13)}
    passing = [s for s, r in reports.items()
               if {v["name"]: v["verdict"] for v in r["verdicts"]}["divisibility"] == "pass"]
    cameron = reports[10]["classification"]
    ok = passing == [2, 4, 10] and cameron == PGQ_POSSIBLE_ONLY
    _verdict(
        "t2-divisibility", ok,
        f"divisibility passes at s={passing}, (10,2) classifies {cameron}",
    )


def test_claw_oracle_equivalence():
    graphs = [(label, g) for label, g, _, _ in POSITIVE_CASES]
    graphs.append(("shrikhande", gen_shrikhande()))
    mismatches = []
    for label, g in graphs:
        for x, got in enumerate(claw_numbers(g)):
            want = local_coclique_oracle(g, x)
            if got != want:
                mismatches.append(f"{label} vertex {x}: {got} != {want}")
    _verdict(
        "claw-oracle-equivalence", not mismatches,
        "; ".join(mismatches) or f"{len(graphs)} graphs, every local graph exact",
    )


def test_gq_extraction_positives(extractions):
    problems = []
    for (label, g, p, expected_lines), (_, _, _, inc) in zip(POSITIVE_CASES, extractions):
        check = verify_srg(g)
        if not check.ok or check.params != derive_srg(p):
            problems.append(f"{label}: srg mismatch")
            continue
        claws = set(claw_numbers(g))
        if claws != {p.t + 1}:
            problems.append(f"{label}: claw numbers {claws} != {{t+1}}")
            continue
        if inc is None:
            problems.append(f"{label}: extraction failed")
            continue
        if len(inc.lines) != expected_lines or len(inc.lines) != (p.s * p.t + 1) * (p.t + 1):
            problems.append(f"{label}: {len(inc.lines)} lines, expected {expected_lines}")
        if not verify_axioms(inc).ok:
            problems.append(f"{label}: axioms fail")
        if collinearity_graph(inc) != g:
            problems.append(f"{label}: collinearity graph does not round-trip")
    _verdict(
        "gq-extraction-positives", not problems,
        "; ".join(problems) or f"{len(POSITIVE_CASES)} graphs through the full pipeline",
    )


def test_gq_extraction_negative():
    shrik = gen_shrikhande()
    p = GQParams(3, 1)
    check = verify_srg(shrik)
    claws = set(claw_numbers(shrik))
    result = extract_gq(shrik, p)
    rook_ok = extract_gq(gen_rook(4), p).ok
    ok = (
        check.ok
        and check.params == (16, 6, 2, 2)
        and check.params == verify_srg(gen_rook(4)).params
        and claws == {3}
        and not result.ok
        and result.witness_claw == 3
        and result.witness_vertex is not None
        and rook_ok
    )
    _verdict(
        "gq-extraction-negative", ok,
        f"shrikhande claws {claws}, extraction "
        f"{'failed with witness' if not result.ok else 'unexpectedly succeeded'}, "
        f"rook(4) succeeded: {rook_ok}",
    )


def test_clique_cover_identity(extractions):
    problems = []
    for label, g, p, inc in extractions:
        ok, diagonal, failure = clique_cover_oracle(g.n, edge_set(g), inc.lines)
        if not ok:
            problems.append(f"{label}: {failure}")
        elif set(diagonal) != {p.t + 1}:
            problems.append(f"{label}: diagonal {sorted(set(diagonal))} != t+1")
    _verdict(
        "clique-cover-identity", not problems,
        "; ".join(problems) or "every edge in exactly one line, diagonal t+1 everywhere",
    )


def test_duality(extractions):
    problems = []
    for label, g, p, inc in extractions:
        d = dual(inc)
        if (d.s, d.t) != (p.t, p.s):
            problems.append(f"{label}: dual declares ({d.s}, {d.t})")
        if not verify_axioms(d).ok:
            problems.append(f"{label}: dual fails axioms")
    rook_dual = dual(extract_gq(gen_rook(4), GQParams(3, 1)).structure)
    dual_check = verify_srg(collinearity_graph(rook_dual))
    if not dual_check.ok or dual_check.params != (8, 4, 0, 4):
        problems.append(
            f"dual of GQ(3,1): collinearity graph gives {dual_check.params}"
        )
    _verdict(
        "duality", not problems,
        "; ".join(problems) or "all duals verified, GQ(1,3) collinearity is srg(8,4,0,4)",
    )
