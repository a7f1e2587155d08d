"""CLI surface: subcommands, exit codes, formats, stdin handling."""

import gc
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import pgq
from pgq.cli import (
    _COMMANDS,
    EXIT_INPUT,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    _build_parser,
    _decimal,
    _parse_plain,
    main,
    run as run_cli,
)
from pgq.graph import PGQGRAPH_HEADER, Graph, claw_numbers, parse_pgqgraph, write_pgqgraph
from pgq.incidence import (
    PGQINC_HEADER,
    collinearity_graph,
    dual,
    extract_gq,
    gen_complete_bipartite,
    gen_kneser_6_2,
    gen_rook,
    gen_shrikhande,
    gen_symplectic_w3,
    parse_pgqinc,
    write_pgqinc,
)
from pgq.params import GQParams
from pgq.scan import CSV_HEADER, MAX_SCAN_T, ScanRange, candidates, check_one

from oracles import (cameron_graph, csv_oracle, decimal_oracle, even_cocliques, exhaustive_scan, godsil_mckay_switch,
                     payne_w4_graph, symplectic_graph)


def json_reports(pairs):
    """The JSON a scan writes for (s, t) pairs: check_one's reports,
    dumped as one list."""
    return json.dumps([check_one(GQParams(s, t)) for s, t in pairs], indent=2) + "\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdin_of(data):
    """A stand-in for sys.stdin holding data (bytes, or ASCII text): pgq
    reads the bytes under it, as it reads a file."""
    return io.TextIOWrapper(io.BytesIO(data.encode("ascii") if isinstance(data, str) else data))


@pytest.fixture()
def rook_file(tmp_path):
    path = tmp_path / "rook4.pgqgraph"
    path.write_text(write_pgqgraph(gen_rook(4)), encoding="ascii")
    return str(path)


@pytest.fixture()
def shrikhande_file(tmp_path):
    path = tmp_path / "shrikhande.pgqgraph"
    path.write_text(write_pgqgraph(gen_shrikhande()), encoding="ascii")
    return str(path)


@pytest.fixture()
def gq22_file(tmp_path):
    inc = extract_gq(gen_kneser_6_2(), GQParams(2, 2)).structure
    path = tmp_path / "gq22.pgqinc"
    path.write_text(write_pgqinc(inc), encoding="ascii")
    return str(path)


# ---------------------------------------------------------------------------
# scan / check / bound
# ---------------------------------------------------------------------------

def test_scan_csv_matches_library(capsys):
    code, out, err = run(capsys, "scan", "--t-min", "2", "--t-max", "10")
    assert code == 0
    assert out == csv_oracle(exhaustive_scan(2, 10))
    assert out.count("\n") == 26  # header + 25 rows


def test_scan_json_and_out_file(capsys, tmp_path):
    target = tmp_path / "rows.json"
    code, out, err = run(
        capsys, "scan", "--t-min", "5", "--t-max", "5", "--format", "json",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text(encoding="ascii") == json_reports([(95, 5)])


def test_scan_rejects_bad_range(capsys):
    code, out, err = run(capsys, "scan", "--t-min", "1", "--t-max", "4")
    assert code == 2 and out == "" and "error" in err


def first_difference(a, b):
    """None if a == b, else where they first differ and the text around it,
    so a failing comparison of megabytes reports in a line instead of the
    full diff pytest would build."""
    if a == b:
        return None
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return i, a[max(0, i - 40):i + 40], b[max(0, i - 40):i + 40]


def main_output(*argv):
    """main's exit code and stdout, outside capsys, for module fixtures."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def streamed_200():
    """The CLI's streamed scan of [2, 200] in each format, beside the
    candidate pairs it covers."""
    streamed = {fmt: main_output("scan", "--t-min", "2", "--t-max", "200", "--format", fmt)
                for fmt in ("csv", "json")}
    return streamed, [pair for group in candidates(ScanRange(2, 200)) for pair in group]


def test_streamed_scan_equals_the_list_path(streamed_200):
    # Each format against bytes formatted in one piece: CSV rows from the
    # srg formulas, and the JSON layout json.dumps's own for the list of
    # reports, not only what json.loads accepts.
    streamed, pairs = streamed_200
    assert len(pairs) == 11085
    assert (streamed["csv"][0], streamed["json"][0]) == (0, 0)
    assert first_difference(streamed["csv"][1], csv_oracle(pairs)) is None
    assert first_difference(streamed["json"][1], json_reports(pairs)) is None


def test_every_streamed_json_object_is_the_check_report(streamed_200):
    streamed, pairs = streamed_200
    objects = json.loads(streamed["json"][1])
    assert [(obj["s"], obj["t"]) for obj in objects] == pairs
    for obj in objects:
        assert obj == check_one(GQParams(obj["s"], obj["t"]))


def test_scan_of_an_empty_range_is_the_header_or_an_empty_array(capsys):
    assert run(capsys, "scan", "--t-min", "2", "--t-max", "3") == (0, CSV_HEADER + "\n", "")
    assert run(capsys, "scan", "--t-min", "2", "--t-max", "3", "--format", "json") == (0, "[]\n", "")


def test_scan_csv_to_1000_is_pinned(capsys):
    code, out, err = run(capsys, "scan", "--t-min", "2", "--t-max", "1000")
    assert (code, err) == (0, "")
    assert out.count("\n") == 1 + 141472
    assert hashlib.md5(out.encode("ascii")).hexdigest() == "6f662b890bb4e4f76f1a7df770319a3a"


def test_scan_json_to_100_is_pinned(capsys):
    code, out, err = run(capsys, "scan", "--t-min", "2", "--t-max", "100", "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode("ascii")).hexdigest() == "95780abc8332899c666733e237850422"


class _CountingStdout(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_writes_once_per_t_with_rows(fmt):
    # [2, 10] has rows at t = 4..10: the CSV header or JSON closer, and one
    # write per t, not one per row.
    out = _CountingStdout()
    with redirect_stdout(out):
        assert main(["scan", "--t-min", "2", "--t-max", "10", "--format", fmt]) == 0
    assert sum(1 for group in candidates(ScanRange(2, 10)) if group) == 7
    assert out.writes == 1 + 7


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("t_range", [("2", "3"), ("5", "5"), ("2", "40"), ("90", "100")],
                         ids=["2-3", "5-5", "2-40", "90-100"])
def test_scan_out_file_holds_the_stdout_bytes(capsys, tmp_path, fmt, t_range):
    argv = ["scan", "--t-min", t_range[0], "--t-max", t_range[1], "--format", fmt]
    code, out, err = run(capsys, *argv)
    target = tmp_path / "rows"
    assert run(capsys, *argv, "--out", str(target)) == (code, "", err) == (0, "", "")
    assert first_difference(target.read_bytes(), out.encode("ascii")) is None


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "t_min,t_max,code,err",
    [
        ("5", "4", 2, "error: require 2 <= t_min <= t_max, got [5, 4]\n"),
        ("2", str(10**12 + 1), 1, f"usage error: --t-max must be at most {10**12} (10**12)\n"),
    ],
    ids=["reversed", "above-limit"],
)
def test_rejected_scan_range_leaves_no_out_file(capsys, tmp_path, fmt, t_min, t_max, code, err):
    target = tmp_path / "rows"
    argv = ["scan", "--t-min", t_min, "--t-max", t_max, "--format", fmt, "--out", str(target)]
    assert run(capsys, *argv) == (code, "", err)
    assert not target.exists()


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "--s", "2", "--t", "2")
    assert code == 0 and out == "gq-possible\n"
    code, out, _ = run(capsys, "check", "--s", "10", "--t", "2")
    assert code == 0 and out == "pgq-possible-only\n"
    code, out, _ = run(capsys, "check", "--s", "56", "--t", "4")
    assert code == 3 and out == "ruled-out-by-new-bound\n"
    code, out, _ = run(capsys, "check", "--s", "11", "--t", "2")
    assert code == 3 and out == "ruled-out-by-prior-conditions\n"
    code, out, _ = run(capsys, "check", "--s", "5", "--t", "1")
    assert code == 0 and out == "trivial\n"


def test_check_json_report(capsys):
    code, out, _ = run(capsys, "check", "--s", "56", "--t", "4", "--format", "json")
    assert code == 3
    report = json.loads(out)
    assert report["classification"] == "ruled-out-by-new-bound"
    assert (report["v"], report["k"]) == (12825, 280)
    assert len(report["verdicts"]) == 7


def test_bound_summary(capsys):
    code, out, _ = run(capsys, "bound", "--t", "2")
    assert code == 0
    data = json.loads(out)
    assert data["neumaier_bound"] == 12
    assert data["quadratic_bound"] == 12
    assert data["optimal_bound"]["threshold"] == 14
    assert (data["optimal_bound"]["theta"], data["optimal_bound"]["beta"]) == (4, 3)


def test_bound_explicit_choice(capsys):
    code, out, _ = run(capsys, "bound", "--t", "3", "--theta", "5", "--beta", "2")
    assert code == 0
    data = json.loads(out)
    assert data["bound"]["fraction"] == "80"
    assert data["terms"]["claw-inequality"]["fraction"] == "45/2"
    assert data["terms"]["claw-inequality"]["decimal"] == "22.5"


def test_bound_decimal_beyond_the_float_range(capsys):
    t = 10**200
    code, out, err = run(capsys, "bound", "--t", str(t), "--theta", str(t + 2), "--beta", "2")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["terms"] == {
        "claw-inequality": {"fraction": str(t * (t + 2) * (t + 3) // 4), "decimal": "2.5e+599"},
        "uncovered-neighbor": {"fraction": str(t * (2 * t + 3)), "decimal": "2e+400"},
        "many-full-cliques": {"fraction": str(t), "decimal": "1e+200"},
        "few-full-cliques": {"fraction": str((t + 1) ** 2 * (t + 2)), "decimal": "1e+600"},
    }
    assert data["bound"] == data["terms"]["few-full-cliques"]
    code, out, err = run(capsys, "bound", "--t", str(t))
    assert (code, err) == (0, "")
    assert json.loads(out)["optimal_bound"]["exact"] == {
        "fraction": str(t * ((8 * t + 3) // 3)), "decimal": "2.66667e+400",
    }


@pytest.mark.parametrize(
    "value,text",
    [
        (Fraction(45, 2), "22.5"),
        (Fraction(2**1024), "1.79769e+308"),        # the first integer a float cannot hold
        (Fraction(1234565 * 10**400), "1.23456e+406"),  # a tie goes to the even digit
        (Fraction(1234575 * 10**400), "1.23458e+406"),
        (Fraction(9999995 * 10**400), "1e+407"),    # rounding carries into the exponent
        (Fraction(10**401, 3), "3.33333e+400"),
    ],
)
def test_decimal_rendering(value, text):
    assert _decimal(value) == text


#: Fractions from 2^1024, the first integer a float cannot hold, up to
#: about 4,000 digits: integers, integers plus a proper fraction, and
#: exact ties at the sixth digit, alone or moved by a small fraction.
BEYOND_FLOATS = st.one_of(
    st.integers(2**1024, 10**4000).map(Fraction),
    st.builds(lambda whole, num, den: whole + Fraction(num % den, den),
              st.integers(2**1024, 10**4000), st.integers(0, 10**60), st.integers(1, 10**60)),
    st.builds(lambda head, exp, step, den: Fraction((10 * head + 5) * 10**exp) + Fraction(step, den),
              st.integers(10**5, 10**6 - 1), st.integers(303, 3993), st.sampled_from([-1, 0, 0, 1]),
              st.integers(1, 10**6)),
)


@given(BEYOND_FLOATS)
def test_decimal_beyond_the_float_range_matches_the_oracle(f):
    with pytest.raises(OverflowError):
        float(f)
    assert _decimal(f) == decimal_oracle(f)


def test_bound_usage_and_domain_errors(capsys):
    code, _, err = run(capsys, "bound", "--t", "3", "--theta", "5")
    assert code == 1 and "together" in err
    code, _, err = run(capsys, "bound", "--t", "1")
    assert code == 2
    code, _, err = run(capsys, "bound", "--t", "3", "--theta", "4", "--beta", "2")
    assert code == 2  # theta < t+2


# ---------------------------------------------------------------------------
# graph subcommands
# ---------------------------------------------------------------------------

def test_graph_verify(capsys, rook_file):
    code, out, _ = run(capsys, "graph", "verify", rook_file)
    assert code == 0
    assert json.loads(out) == {"srg": True, "v": 16, "k": 6, "lambda": 2, "mu": 2}


def test_graph_verify_with_expected_params(capsys, rook_file):
    code, out, _ = run(capsys, "graph", "verify", rook_file, "--s", "3", "--t", "1")
    assert code == 0 and json.loads(out)["matches_params"] is True
    code, out, _ = run(capsys, "graph", "verify", rook_file, "--s", "2", "--t", "2")
    assert code == 3 and json.loads(out)["matches_params"] is False
    code, _, err = run(capsys, "graph", "verify", rook_file, "--s", "3")
    assert code == 1 and "together" in err


def test_graph_verify_negative(capsys, tmp_path):
    path = tmp_path / "path.pgqgraph"
    path.write_text("pgqgraph 1\n3 2\n0 1\n1 2\n", encoding="ascii")
    code, out, _ = run(capsys, "graph", "verify", str(path))
    assert code == 3
    data = json.loads(out)
    assert data["srg"] is False and "not regular" in data["failure"]


def test_graph_claw(capsys, shrikhande_file):
    code, out, _ = run(capsys, "graph", "claw", shrikhande_file)
    assert code == 0
    assert json.loads(out) == {"histogram": {"3": 16}, "min": 3, "max": 3}
    code, out, _ = run(capsys, "graph", "claw", shrikhande_file, "--s", "3", "--t", "1")
    assert code == 0
    data = json.loads(out)
    assert data["threshold"] == 2 and data["ok"] is True


@pytest.mark.parametrize("action", ["verify", "claw", "extract-gq"])
def test_graph_empty_graph_is_input_error(capsys, monkeypatch, action):
    monkeypatch.setattr("sys.stdin", stdin_of("pgqgraph 1\n0 0\n"))
    code, out, err = run(capsys, "graph", action, "-")
    assert (code, out, err) == (2, "", "error: empty graph\n")


@pytest.mark.parametrize(
    "n", ["100000000000000000000", "1000000000000000", "10000000", str(2**20 + 1)]
)
def test_graph_huge_vertex_count_is_input_error(capsys, monkeypatch, n):
    # Every count above 2^20 is refused before any row is allocated.
    monkeypatch.setattr("sys.stdin", stdin_of(f"pgqgraph 1\n{n} 0\n"))
    code, out, err = run(capsys, "graph", "verify", "-")
    assert (code, out, err) == (2, "", f"error: line 2: vertex count {n} is too large\n")


def test_graph_extract_gq(capsys, rook_file):
    code, out, _ = run(capsys, "graph", "extract-gq", rook_file, "--s", "3", "--t", "1")
    assert code == 0
    inc = parse_pgqinc(out)
    assert (inc.points, len(inc.lines), inc.s, inc.t) == (16, 8, 3, 1)


def test_graph_extract_gq_infers_parameters(capsys, rook_file):
    code, out, _ = run(capsys, "graph", "extract-gq", rook_file)
    assert code == 0
    assert parse_pgqinc(out).s == 3


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["verify", "--s", "3", "--t", "1"], ["claw", "--s", "3", "--t", "1"],
     ["extract-gq"], ["extract-gq", "--s", "3", "--t", "1"]],
    ids=["verify", "verify-st", "claw-st", "extract-gq", "extract-gq-st"],
)
def test_graph_command_verifies_the_srg_once(capsys, srg_passes, rook_file, shrikhande_file, argv):
    # Where the cover walks prove the graph a GQ (the 4x4 rook's graph is
    # a GQ(3,1)), its srg parameters follow with no O(n^2) pass; otherwise
    # (Shrikhande, a pseudo-GQ(3,1)) checking, identifying or matching
    # (s, t) and extracting share one pass.
    code, _, _ = run(capsys, "graph", argv[0], rook_file, *argv[1:])
    assert (code, len(srg_passes)) == (0, 0)
    code, _, _ = run(capsys, "graph", argv[0], shrikhande_file, *argv[1:])
    assert (code, len(srg_passes)) == (3 if argv[0] == "extract-gq" else 0, 1)


class BranchAndBoundReached(Exception):
    pass


W3_GRAPH = gen_symplectic_w3()
Q43_GRAPH = collinearity_graph(dual(extract_gq(W3_GRAPH, GQParams(3, 3)).structure))


@pytest.mark.parametrize(
    "g,histogram",
    [(W3_GRAPH, {"4": 40}), (Q43_GRAPH, {"4": 40}), (gen_shrikhande(), None)],
    ids=["w3", "q43", "shrikhande"],
)
def test_graph_claw_runs_branch_and_bound_only_where_the_walk_fails(
    capsys, monkeypatch, tmp_path, g, histogram
):
    # In a GQ collinearity graph every cover walk takes only cliques, so
    # its count is the claw number; Shrikhande's walks fail and must fall
    # back to branch and bound.
    def refuse(rows, cand):
        raise BranchAndBoundReached

    monkeypatch.setattr("pgq.graph._max_coclique_size", refuse)
    path = tmp_path / "g.pgqgraph"
    path.write_text(write_pgqgraph(g), encoding="ascii")
    if histogram is None:
        with pytest.raises(BranchAndBoundReached):
            main(["graph", "claw", str(path)])
        return
    code, out, _ = run(capsys, "graph", "claw", str(path))
    assert code == 0
    assert json.loads(out) == {"histogram": histogram, "min": 4, "max": 4}


PAYNE_W4 = payne_w4_graph()

#: Graphs with srg parameters of PGQ(s, t) form: the GQ corpus, then the
#: pseudo-GQs Shrikhande, switched Q(4,3), Cameron and switched P(W(4), x).
PGQ_FORM_CORPUS = {
    "kneser": (gen_kneser_6_2(), 2, 2),
    "rook3": (gen_rook(3), 2, 1),
    "rook4": (gen_rook(4), 3, 1),
    "rook5": (gen_rook(5), 4, 1),
    "bipartite2": (gen_complete_bipartite(2), 1, 1),
    "bipartite3": (gen_complete_bipartite(3), 1, 2),
    "bipartite4": (gen_complete_bipartite(4), 1, 3),
    "w3": (W3_GRAPH, 3, 3),
    "q43": (Q43_GRAPH, 3, 3),
    "w5": (symplectic_graph(5), 5, 5),
    "w7": (symplectic_graph(7), 7, 7),
    "payne-w4": (PAYNE_W4, 3, 5),
    "shrikhande": (gen_shrikhande(), 3, 1),
    "switched-q43": (godsil_mckay_switch(Q43_GRAPH, (0, 5, 10, 15)), 3, 3),
    "cameron": (cameron_graph(), 10, 2),
    "switched-payne-w4": (godsil_mckay_switch(PAYNE_W4, next(even_cocliques(PAYNE_W4))), 3, 5),
}


@pytest.mark.parametrize("g,s,t", PGQ_FORM_CORPUS.values(), ids=PGQ_FORM_CORPUS.keys())
def test_graph_claw_verdict_holds_on_the_corpus(capsys, tmp_path, g, s, t):
    # The verdict is written without a check: once the srg parameters
    # match, Caro-Wei puts every claw number at t+1 or above.
    path = tmp_path / "g.pgqgraph"
    path.write_text(write_pgqgraph(g), encoding="ascii")
    code, out, err = run(capsys, "graph", "claw", str(path), "--s", str(s), "--t", str(t))
    data = json.loads(out)
    assert (code, err, data["ok"], data["threshold"]) == (0, "", True, t + 1)
    assert data["min"] >= t + 1


UNMATCHED_PARAMETERS = {
    "mismatched": (gen_shrikhande(), ["--s", "2", "--t", "2"], 2,
                   "error: graph is srg(16, 6, 2, 2) but (s=2, t=2) requires srg(15, 6, 1, 3)\n"),
    "not-srg": (Graph(6, [(i, (i + 1) % 6) for i in range(6)]), ["--s", "2", "--t", "2"], 2,
                "error: graph is not strongly regular: non-adjacent pair (0, 3) has 0 common neighbors, expected 1\n"),
    "s-only": (gen_shrikhande(), ["--s", "3"], 1, "usage error: --s and --t must be given together\n"),
    "t-only": (gen_shrikhande(), ["--t", "1"], 1, "usage error: --s and --t must be given together\n"),
}


# `graph claw` and `graph extract-gq` check (s, t) by the same
# graph._gq_params; only extract-gq identifies (s, t) when none is given.
@pytest.mark.parametrize(
    "action,g,flags,code,err",
    [pytest.param("claw", *case, id=name) for name, case in UNMATCHED_PARAMETERS.items()]
    + [pytest.param("extract-gq", *case, id=f"extract-gq-{name}") for name, case in UNMATCHED_PARAMETERS.items()]
    + [pytest.param("extract-gq", Graph(5, [(i, (i + 1) % 5) for i in range(5)]), [], 2,
                    "error: srg(5, 2, 0, 1) is not of (P)GQ form; pass --s and --t explicitly\n",
                    id="extract-gq-c5-not-pgq-form")],
)
def test_graph_claw_refuses_unmatched_parameters(capsys, tmp_path, action, g, flags, code, err):
    path = tmp_path / "g.pgqgraph"
    path.write_text(write_pgqgraph(g), encoding="ascii")
    assert run(capsys, "graph", action, str(path), *flags) == (code, "", err)


def test_graph_claw_of_a_deep_clique_does_not_recurse(capsys, tmp_path):
    # Vertex 0 is joined to all others; 1201 is also joined to 1202 and
    # 1203.  The cover walk fails at 0, whose local graph has a coclique
    # of 1202 vertices, and the branch and bound goes 1202 levels deep.
    edges = [(0, v) for v in range(1, 1204)] + [(1201, 1202), (1201, 1203)]
    g = Graph(1204, edges)
    assert claw_numbers(g)[0] == 1202
    path = tmp_path / "star.pgqgraph"
    path.write_text(write_pgqgraph(g), encoding="ascii")
    code, out, _ = run(capsys, "graph", "claw", str(path))
    assert code == 0
    assert json.loads(out)["histogram"] == {"1": 1202, "2": 1, "1202": 1}


def test_graph_extract_gq_negative_pipeline(capsys, monkeypatch, shrikhande_file):
    # gen shrikhande | graph extract-gq - --s 3 --t 1
    code, out, _ = run(capsys, "gen", "shrikhande")
    assert code == 0
    monkeypatch.setattr("sys.stdin", stdin_of(out))
    code, out, err = run(capsys, "graph", "extract-gq", "-", "--s", "3", "--t", "1")
    assert code == 3
    assert out == ""  # stdout carries data only
    assert "claw number 3" in err


def test_graph_mismatched_parameters(capsys, shrikhande_file):
    code, _, err = run(capsys, "graph", "extract-gq", shrikhande_file, "--s", "2", "--t", "2")
    assert code == 2 and "error" in err


def test_graph_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.pgqgraph"
    bad.write_text("not a graph\n", encoding="ascii")
    code, _, err = run(capsys, "graph", "verify", str(bad))
    assert code == 2 and "header" in err


#: Bytes that are not ASCII -> the one refusal, from a FILE and from '-'.
NON_ASCII = {
    # U+0662, an Arabic-Indic "2": stdin once read it as the edge 1-2.
    b"pgqgraph 1\n3 2\n0 1\n1 \xd9\xa2\n":
        "error: 'ascii' codec can't decode byte 0xd9 in position 21: ordinal not in range(128)\n",
    # Not UTF-8 at all: stdin once read it as the field '1 \udcff'.
    b"pgqgraph 1\n3 2\n0 1\n1 \xff\n":
        "error: 'ascii' codec can't decode byte 0xff in position 21: ordinal not in range(128)\n",
}


@pytest.mark.parametrize("data", NON_ASCII, ids=["arabic-indic-digit", "invalid-utf8"])
def test_stdin_and_file_refuse_non_ascii_bytes_alike(capsys, monkeypatch, tmp_path, data):
    path = tmp_path / "g.pgqgraph"
    path.write_bytes(data)
    expected = (2, "", NON_ASCII[data])
    assert run(capsys, "graph", "verify", str(path)) == expected
    monkeypatch.setattr("sys.stdin", stdin_of(data))
    assert run(capsys, "graph", "verify", "-") == expected


def test_a_process_reads_stdin_as_it_reads_a_file(tmp_path):
    # The real standard input, whatever the locale, with one file of each
    # kind: non-ASCII, CRLF with a lone CR and a blank line, and canonical.
    canonical = write_pgqgraph(gen_rook(3)).encode("ascii")
    head, count, *body = canonical.split(b"\n")
    mixed = b"\r\n".join([head, count, b"", *body[:2]]) + b"\r" + b"\n".join(body[2:])
    for data in (*NON_ASCII, mixed, canonical):
        path = tmp_path / "g.pgqgraph"
        path.write_bytes(data)
        assert run_capped(data, "graph", "verify", "-") == run_capped(b"", "graph", "verify", str(path))
    assert run_capped(mixed, "graph", "verify", "-") == run_capped(canonical, "graph", "verify", "-")


def test_graph_missing_file(capsys):
    code, _, err = run(capsys, "graph", "verify", "/nonexistent/file")
    assert code == 2


@pytest.mark.parametrize("action", ["verify", "claw"])
def test_graph_out_file_holds_the_stdout_bytes(capsys, tmp_path, action):
    w3 = tmp_path / "w3.pgqgraph"
    w3.write_text(write_pgqgraph(gen_symplectic_w3()), encoding="ascii")
    code, out, err = run(capsys, "graph", action, str(w3))
    target = tmp_path / "out.json"
    assert run(capsys, "graph", action, str(w3), "--out", str(target)) == (code, "", err) == (0, "", "")
    assert target.read_text(encoding="ascii") == out


def test_negative_extract_gq_leaves_no_out_file(capsys, tmp_path, shrikhande_file):
    target = tmp_path / "gq.pgqinc"
    code, out, err = run(capsys, "graph", "extract-gq", shrikhande_file, "--out", str(target))
    assert (code, out, err) == (3, "", "pseudo-GQ evidence: claw number 3 > t+1 = 2 at vertex 0\n")
    assert not target.exists()


# ---------------------------------------------------------------------------
# gen subcommands
# ---------------------------------------------------------------------------

def test_gen_rook_writes_pgqgraph(capsys, tmp_path):
    out_path = tmp_path / "rook.pgqgraph"
    code, out, _ = run(capsys, "gen", "rook", "--m", "4", "--out", str(out_path))
    assert code == 0 and out == ""
    g = parse_pgqgraph(out_path.read_text(encoding="ascii"))
    assert g == gen_rook(4)


def test_gen_rook_64_is_pinned(capsys):
    # 4,096 vertices and 258,048 edges, listed row by row by Graph.edges.
    code, out, err = run(capsys, "gen", "rook", "--m", "64")
    assert (code, err) == (0, "")
    assert out.count("\n") == 2 + 258048
    assert hashlib.md5(out.encode("ascii")).hexdigest() == "92230211115dc1785d7289dc41a8b590"


def test_gen_bipartite_64_is_pinned(capsys):
    # 128 vertices and 64^2 edges.
    code, out, err = run(capsys, "gen", "bipartite", "--m", "64")
    assert (code, err) == (0, "")
    assert out.count("\n") == 2 + 64 * 64
    assert hashlib.md5(out.encode("ascii")).hexdigest() == "4581c28ac41ef1f899a2584dc5472026"


def test_gen_flag_rules(capsys):
    code, _, err = run(capsys, "gen", "rook")
    assert code == 1 and "requires --m" in err
    code, _, err = run(capsys, "gen", "kneser", "--m", "3")
    assert code == 1 and "does not take --m" in err
    code, _, err = run(capsys, "gen", "rook", "--m", "1")
    assert code == 2


def test_gen_refuses_more_vertices_than_a_pgqgraph_holds(capsys):
    # Refused before any row or edge is built: rook has m^2 vertices and
    # bipartite 2m, and a pgqgraph file declares at most 2^20.
    for name, largest in (("rook", 1024), ("bipartite", 2**19)):
        code, out, err = run(capsys, "gen", name, "--m", str(largest + 1))
        assert (code, out) == (2, "")
        assert err == (
            f"error: require m <= {largest}, got {largest + 1}: a pgqgraph holds at most 1048576 vertices\n"
        )


def test_gen_determinism(capsys):
    code1, out1, _ = run(capsys, "gen", "w3")
    code2, out2, _ = run(capsys, "gen", "w3")
    assert code1 == code2 == 0 and out1 == out2
    assert parse_pgqgraph(out1).n == 40


# ---------------------------------------------------------------------------
# inc subcommands
# ---------------------------------------------------------------------------

def test_inc_verify(capsys, gq22_file):
    code, out, _ = run(capsys, "inc", "verify", gq22_file)
    assert code == 0
    assert json.loads(out) == {"ok": True, "points": 15, "lines": 15, "s": 2, "t": 2}


def test_inc_verify_negative(capsys, tmp_path, gq22_file):
    inc = parse_pgqinc(Path(gq22_file).read_text(encoding="ascii"))
    from pgq.incidence import IncidenceStructure
    broken = IncidenceStructure(inc.points, inc.lines[1:], 2, 2)
    path = tmp_path / "broken.pgqinc"
    path.write_text(write_pgqinc(broken), encoding="ascii")
    code, out, _ = run(capsys, "inc", "verify", str(path))
    assert code == 3
    data = json.loads(out)
    assert data["ok"] is False and data["axiom"] == "ii"


def test_cameron_graph_realizes_a_pgq_possible_only_pair(capsys, tmp_path):
    # (10, 2) passes every condition but gq-duality, and the Cameron graph
    # is a pseudo-GQ with these parameters.
    path = tmp_path / "cameron.pgqgraph"
    path.write_text(write_pgqgraph(cameron_graph()), encoding="ascii")
    code, out, err = run(capsys, "graph", "extract-gq", str(path))
    assert (code, out) == (3, "")
    assert err == "pseudo-GQ evidence: claw number 5 > t+1 = 3 at vertex 0\n"
    code, out, err = run(capsys, "check", "--s", "10", "--t", "2")
    assert (code, out, err) == (0, "pgq-possible-only\n", "")


def test_inc_dual_and_collinearity(capsys, gq22_file):
    code, out, _ = run(capsys, "inc", "dual", gq22_file)
    assert code == 0
    d = parse_pgqinc(out)
    assert (d.points, len(d.lines), d.s, d.t) == (15, 15, 2, 2)
    code, out, _ = run(capsys, "inc", "collinearity", gq22_file)
    assert code == 0
    g = parse_pgqgraph(out)
    assert g == gen_kneser_6_2()


ADDRESS_SPACE_CAP = 512 * 2**20


def child_env():
    """This environment, with the pgq under test first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(pgq.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_capped(stdin, *argv, timeout=60, cwd=None):
    """`python -m pgq.cli ARGV` in a child whose address space is capped, so
    an allocation that grows with a declared count fails the test instead of
    exhausting the machine.  stdin is a str, or bytes for byte output too."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    proc = subprocess.run(
        [sys.executable, "-m", "pgq.cli", *argv], input=stdin, capture_output=True,
        text=isinstance(stdin, str), timeout=timeout, preexec_fn=cap, env=child_env(), cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "text,degree",
    [
        ("pgqinc 1\n1000000000000 0 1 1\n", 0),
        ("pgqinc 1\n1000000000000 1 1 1\n0 999999999999\n", 1),
    ],
    ids=["no-lines", "far-point"],
)
def test_inc_work_is_bounded_by_the_input_not_the_point_count(text, degree):
    # 10^12 declared points: verification must stop at point 0, which lies
    # on too few lines, without building per-point data or a mask with
    # bit 999999999999.
    witness = f"point 0 lies on {degree} lines, expected t+1=2"
    code, out, err = run_capped(text, "inc", "verify", "-")
    assert (code, err) == (3, "")
    assert json.loads(out) == {"ok": False, "axiom": "ii", "witness": witness}
    code, out, err = run_capped(text, "inc", "dual", "-")
    assert (code, out, err) == (2, "", f"error: dual requires a verified GQ; axiom (ii): {witness}\n")
    code, out, err = run_capped(text, "inc", "collinearity", "-")
    assert (code, out) == (2, "")
    assert err == f"error: collinearity graph requires a verified GQ; axiom (ii): {witness}\n"


@pytest.mark.parametrize("t", [10**9, 10**100])
def test_bound_at_huge_t_finishes(t):
    code, out, err = run_capped("", "bound", "--t", str(t), timeout=30)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["t"], data["neumaier_bound"]) == (t, t * (t + 1) * (t + 2) // 2)
    bound, theta = t * ((8 * t + 3) // 3), 4 * t // 3 + 1
    assert data["quadratic_bound"] == bound
    opt = data["optimal_bound"]
    assert (opt["threshold"], opt["exact"]["fraction"], opt["theta"]) == (bound, str(bound), theta)
    # beta is the smallest whose term4, (t+1)^2 theta / C(beta, 2), is at most the bound.
    beta = opt["beta"]
    assert comb(beta, 2) * bound >= (t + 1) ** 2 * theta > comb(beta - 1, 2) * bound


def test_check_at_huge_t_finishes():
    t = 10**8
    code, out, err = run_capped("", "check", "--s", "5", "--t", str(t), "--format", "json",
                                timeout=30)
    assert (code, err) == (3, "")
    report = json.loads(out)
    assert report["classification"] == "ruled-out-by-prior-conditions"
    verdicts = {v["name"]: v for v in report["verdicts"]}
    assert verdicts["krein"]["verdict"] == "fail"
    claw = verdicts["claw-bound"]
    assert claw["verdict"] == "pass"
    bound = t * ((8 * t + 3) // 3)
    assert claw["witness"].startswith(f"s=5 <= {bound} (four-term bound at theta={4 * t // 3 + 1}, ")


@pytest.mark.parametrize("t_min,t_max", [(10**1000, 10**1000), (2, 10**12 + 1)],
                         ids=["10**1000", "10**12+1"])
def test_scan_above_the_t_limit_is_a_usage_error(t_min, t_max):
    # Trial division of t-1, t and t+1 has no useful bound at t = 10**1000,
    # so a t_max above MAX_SCAN_T is refused before any work.
    code, out, err = run_capped("", "scan", "--t-min", str(t_min), "--t-max", str(t_max),
                                timeout=30)
    assert (code, out) == (1, "")
    assert err == f"usage error: --t-max must be at most {MAX_SCAN_T} (10**12)\n"


# ---------------------------------------------------------------------------
# the process: run() and the end of stdout
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def process_dir(tmp_path_factory):
    """The inputs of the benchmark's gq commands, at q = 5: W(5), its GQ,
    the dual and the Q(4,5) graph, Shrikhande and the switched Q(4,3)."""
    path = tmp_path_factory.mktemp("process")
    w5 = symplectic_graph(5)
    gq = extract_gq(w5, GQParams(5, 5)).structure
    q43 = collinearity_graph(dual(extract_gq(gen_symplectic_w3(), GQParams(3, 3)).structure))
    for name, text in {
        "w5.pgqgraph": write_pgqgraph(w5),
        "w5.pgqinc": write_pgqinc(gq),
        "w5dual.pgqinc": write_pgqinc(dual(gq)),
        "q45.pgqgraph": write_pgqgraph(collinearity_graph(dual(gq))),
        "shrikhande.pgqgraph": write_pgqgraph(gen_shrikhande()),
        "pseudo.pgqgraph": write_pgqgraph(godsil_mckay_switch(q43, (0, 5, 10, 15))),
    }.items():
        (path / name).write_text(text, encoding="ascii")
    return path


#: (argv, the file given as stdin or None): exit codes 0 to 3, --out, '-'
#: and every command of the benchmark's gq workload.
PROCESS_CASES = [
    (("bound", "--t", "96"), None),
    (("bound", "--t", "7", "--theta", "3", "--beta", "4"), None),
    (("check", "--s", "100", "--t", "96", "--format", "json"), None),
    (("check", "--s", "56", "--t", "4"), None),
    (("scan", "--t-min", "2", "--t-max", "30"), None),
    (("scan", "--t-min", "2", "--t-max", "10", "--format", "json", "--out", "out.json"), None),
    (("--help",), None),
    (("bound",), None),
    (("graph", "verify", "w5.pgqgraph"), None),
    (("graph", "claw", "w5.pgqgraph"), None),
    (("graph", "extract-gq", "w5.pgqgraph"), None),
    (("graph", "extract-gq", "w5.pgqgraph", "--out", "out.pgqinc"), None),
    (("inc", "verify", "w5.pgqinc"), None),
    (("inc", "dual", "w5.pgqinc"), None),
    (("inc", "collinearity", "w5dual.pgqinc"), None),
    (("graph", "extract-gq", "q45.pgqgraph"), None),
    (("graph", "claw", "q45.pgqgraph"), None),
    (("gen", "shrikhande"), None),
    (("graph", "extract-gq", "-"), "shrikhande.pgqgraph"),
    (("graph", "extract-gq", "pseudo.pgqgraph"), None),
    (("graph", "verify", "absent.pgqgraph"), None),
    (("gen", "rook", "--m", "24"), None),
]


@pytest.mark.parametrize("argv,stdin", PROCESS_CASES, ids=[" ".join(argv) for argv, _ in PROCESS_CASES])
def test_a_process_writes_what_main_writes(capsys, monkeypatch, process_dir, argv, stdin):
    # A child's exit code and bytes, --out file included, are those of main
    # called in-process: run() adds only the freeze.
    data = (process_dir / stdin).read_bytes() if stdin else b""
    out_path = process_dir / (argv[argv.index("--out") + 1] if "--out" in argv else "out")

    def out_file():
        written = out_path.read_bytes() if out_path.exists() else None
        out_path.unlink(missing_ok=True)
        return written

    monkeypatch.chdir(process_dir)
    monkeypatch.setattr("sys.stdin", stdin_of(data))
    code, out, err = run(capsys, *argv)
    in_process = (code, out.encode("ascii"), err.encode("ascii"), out_file())
    assert (*run_capped(data, *argv, cwd=process_dir), out_file()) == in_process
    assert code in (0, 1, 2, 3)


def test_main_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert run(capsys, "graph", "extract-gq", "/nonexistent/file")[0] == 2
    assert run(capsys, "gen", "shrikhande")[0] == 0
    assert gc.get_freeze_count() == before


def test_run_is_main_then_one_freeze(capsys, monkeypatch):
    # The freeze comes after main has written and flushed its output.
    frozen = []
    monkeypatch.setattr("sys.argv", ["pgq", "check", "--s", "56", "--t", "4"])
    monkeypatch.setattr("gc.freeze", lambda: frozen.append(capsys.readouterr().out))
    assert run_cli() == 3
    assert frozen == ["ruled-out-by-new-bound\n"]


#: A small output, which stdout buffers until it is flushed, and one
#: larger than stdout's buffer and a pipe's capacity.
WRITES = [("bound", "--t", "7"), ("gen", "rook", "--m", "24")]


def exit_writing_to(stdout, argv, unbuffered):
    """The exit code and stderr of `python -m pgq.cli ARGV` writing to the
    file descriptor or file stdout, with stdout buffered or not."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run([sys.executable, "-m", "pgq.cli", *argv], stdin=subprocess.DEVNULL,
                          stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)
    return proc.returncode, proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", WRITES, ids=" ".join)
def test_a_full_stdout_is_an_input_error(argv, unbuffered):
    # A buffered output once failed only in the interpreter's final flush,
    # which ended the process with status 120 and a warning.
    with open("/dev/full", "wb") as full:
        assert exit_writing_to(full, argv, unbuffered) == (
            2, b"error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", WRITES, ids=" ".join)
def test_a_closed_pipe_is_an_input_error(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = exit_writing_to(write_end, argv, unbuffered)
    finally:
        os.close(write_end)
    assert result == (2, b"error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize(
    "fd,argv",
    [(1, ("bound", "--t", "7")), (0, ("graph", "verify", "-")), (0, ("inc", "verify", "-"))],
    ids=["bound-stdout", "graph-verify-stdin", "inc-verify-stdin"],
)
def test_a_closed_standard_stream_is_an_input_error(fd, argv):
    # Where fd 0 or 1 is closed when the process starts, Python sets
    # sys.stdin or sys.stdout to None, which once ended in a traceback.
    proc = subprocess.run([sys.executable, "-m", "pgq.cli", *argv], stdin=subprocess.DEVNULL,
                          capture_output=True, env=child_env(), timeout=60, preexec_fn=lambda: os.close(fd))
    stream = "output" if fd else "input"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", f"error: standard {stream} is closed\n".encode())


#: A success that writes stdout, an input error, a usage error and a
#: negative verdict that writes stderr, with their exit codes.
STREAM_COMMANDS = {
    "success": (("bound", "--t", "7"), 0),
    "input-error": (("graph", "verify", "/nonexistent/file"), 2),
    "usage-error": (("bound", "--t", "x"), 1),
    "negative": (("graph", "extract-gq", "shrikhande.pgqgraph"), 3),
}


@pytest.mark.parametrize("command", STREAM_COMMANDS)
@pytest.mark.parametrize("state", ["closed", "full", "read-only"])
@pytest.mark.parametrize("fd", [0, 1, 2])
def test_unusable_standard_streams_keep_each_exit_code(tmp_path, fd, state, command):
    # Only the output a command writes to stdout can turn it into an
    # input error (exit 2): stdin is never read here, and a diagnostic
    # is written to stderr only if it takes it, and never to stdout.
    # Where fd 2 is closed at start, sys.stderr is None; where it is open
    # but cannot be written, writes to it fail.  Stdio is buffered, as
    # where PYTHONUNBUFFERED is not set, so a failed stderr write also
    # leaves bytes behind for the interpreter's final flush.
    if state == "full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    argv, code = STREAM_COMMANDS[command]
    (tmp_path / "shrikhande.pgqgraph").write_text(write_pgqgraph(gen_shrikhande()), encoding="ascii")
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    target = os.open("/dev/full" if state == "full" else os.devnull, os.O_RDONLY if state == "read-only" else os.O_RDWR)
    try:
        def place():
            if state == "closed":
                os.close(fd)
            else:
                os.dup2(target, fd)

        proc = subprocess.run([sys.executable, "-m", "pgq.cli", *argv], stdin=subprocess.DEVNULL,
                              capture_output=True, env=env, cwd=tmp_path, timeout=60, preexec_fn=place)
    finally:
        os.close(target)
    writes = command == "success" and fd != 1
    assert (proc.returncode, proc.stdout != b"") == (2 if fd == 1 and command == "success" else code, writes)


# ---------------------------------------------------------------------------
# general contract
# ---------------------------------------------------------------------------

def test_unknown_flag_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "--s", "2", "--t", "2", "--frobnicate")
    assert code == 1 and out == ""


def test_unknown_command_is_usage_error(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 1


def test_stdout_is_deterministic(capsys):
    _, out1, _ = run(capsys, "scan", "--t-min", "2", "--t-max", "6")
    _, out2, _ = run(capsys, "scan", "--t-min", "2", "--t-max", "6")
    assert out1 == out2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "scan" in out


#: Small input files by name; "absent/file" and "dir" are paths that
#: cannot be read.
ARGV_FILES = {
    "rook3.pgqgraph": write_pgqgraph(gen_rook(3)),
    "shrikhande.pgqgraph": write_pgqgraph(gen_shrikhande()),
    "gq22.pgqinc": write_pgqinc(extract_gq(gen_kneser_6_2(), GQParams(2, 2)).structure),
    "junk": "pgqgraph 1\n3 x\n",
}
ARGV_PATHS = st.sampled_from(("-", "absent/file", "dir", *ARGV_FILES))
#: Subcommand -> its positional choices, its required integer flags and
#: its other flags, as the parser has them.
ARGV_GRAMMAR = {
    "scan": ((), ("--t-min", "--t-max"), ("--format", "--out")),
    "check": ((), ("--s", "--t"), ("--format",)),
    "bound": ((), ("--t",), ("--theta", "--beta")),
    "graph": (("verify", "claw", "extract-gq"), (), ("--s", "--t", "--out")),
    "gen": (("rook", "bipartite", "kneser", "w3", "shrikhande"), (), ("--m", "--out")),
    "inc": (("verify", "dual", "collinearity"), (), ("--help",)),
}
ARGV_INTS = st.integers(-3, 12).map(str)
#: Flag -> the values it is given; integers for the flags not named.
ARGV_VALUES = {"--format": st.sampled_from(("csv", "json")), "--out": ARGV_PATHS}
ARGV_WORDS = [w for rule in ARGV_GRAMMAR.values() for part in rule for w in part]
ARGV_TOKENS = st.one_of(
    st.sampled_from(["frobnicate", "csv", "json", *ARGV_GRAMMAR, *ARGV_WORDS]), ARGV_INTS, ARGV_PATHS
)


@st.composite
def argvs(draw, well_formed=False):
    """A subcommand with its positionals, its required flags and up to
    three other flags, each followed by a value of its kind; then at most
    one token of any kind inserted anywhere.

    A well-formed argv has no inserted token, no repeated flag and no
    --help, and its --format is one its subcommand accepts, so argparse
    parses it and a handler runs."""
    command = draw(st.sampled_from(tuple(ARGV_GRAMMAR)))
    positionals, required, optional = ARGV_GRAMMAR[command]
    argv = [command]
    if positionals:
        argv.append(draw(st.sampled_from(positionals)))
    if command in ("graph", "inc"):
        argv.append(draw(ARGV_PATHS))
    for flag in required:
        argv += [flag, draw(ARGV_INTS)]
    if well_formed:
        flags = [flag for flag in optional if flag != "--help"]
        for flag in draw(st.lists(st.sampled_from(flags), unique=True, max_size=3)) if flags else ():
            choices = dict(_COMMANDS[command][1])[flag].get("choices")
            argv += [flag, draw(st.sampled_from(choices) if choices else ARGV_VALUES.get(flag, ARGV_INTS))]
        return argv
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(optional))
        argv += [flag, draw(ARGV_VALUES.get(flag, ARGV_INTS))]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(ARGV_TOKENS))
    return argv


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


def main_in(argv_dir, argv, stdin):
    """main's exit code for argv, run in argv_dir with stdin as input.

    Relative paths resolve in argv_dir; the files are rewritten for each
    call, as --out may have overwritten one."""
    (argv_dir / "dir").mkdir(exist_ok=True)
    for name, text in ARGV_FILES.items():
        (argv_dir / name).write_text(text, encoding="ascii")
    cwd = os.getcwd()
    os.chdir(argv_dir)
    try:
        with mock.patch("sys.stdin", stdin_of(stdin)), \
                redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        os.chdir(cwd)


@settings(max_examples=300)
@given(argvs(), st.sampled_from(tuple(ARGV_FILES.values())))
def test_any_argv_exits_cleanly(argv_dir, argv, stdin):
    assert main_in(argv_dir, argv, stdin) in (0, 1, 2, 3)


def test_well_formed_argvs_reach_the_handlers(argv_dir):
    # A well-formed argv is parsed, so a handler, not argparse, answers
    # it: all 300 examples parse today, and at least 250 must.
    parsed = []

    @settings(max_examples=300)
    @given(argvs(well_formed=True), st.sampled_from(tuple(ARGV_FILES.values())))
    def exits_cleanly(argv, stdin):
        parsed.append(argparse_args(argv) is not None)
        assert main_in(argv_dir, argv, stdin) in (0, 1, 2, 3)

    exits_cleanly()
    assert len(parsed) == 300
    assert sum(parsed) >= 250, sum(parsed)


# ---------------------------------------------------------------------------
# argument parsing: the plain form without argparse, argparse for the rest
# ---------------------------------------------------------------------------

def argparse_args(argv):
    """vars() of argparse's namespace for argv, or None if it refuses argv
    or prints help."""
    try:
        with redirect_stdout(io.StringIO()):
            return vars(_build_parser().parse_args(argv))
    except (UsageError, SystemExit):
        return None


#: Tokens a plain argv must not have, or that int() reads in its own way.
PLAIN_JUNK = st.sampled_from(["-", "--", "-h", "--t=3", "--t-m", " 5", "+5", "1_0", "\u0661", ""])


@st.composite
def junk_argvs(draw):
    """An argv of argvs() with up to two of its tokens replaced by, or two
    tokens inserted from, PLAIN_JUNK."""
    argv = draw(argvs())
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        if i < len(argv) and draw(st.booleans()):
            argv[i] = draw(PLAIN_JUNK)
        else:
            argv.insert(i, draw(PLAIN_JUNK))
    return argv


@settings(max_examples=1000)
@given(junk_argvs())
def test_plain_parse_equals_argparse(argv):
    plain = _parse_plain(argv)
    if plain is not None:
        assert plain == argparse_args(argv)


@pytest.mark.parametrize("argv", [
    # every argv form of the benchmark but --help
    ["scan", "--t-min", "2", "--t-max", "30"],
    ["bound", "--t", "96"],
    ["check", "--s", "100", "--t", "96", "--format", "json"],
    ["graph", "verify", "w7.pgqgraph"],
    ["graph", "claw", "w7.pgqgraph"],
    ["graph", "extract-gq", "-"],
    ["inc", "verify", "w7.pgqinc"],
    ["inc", "dual", "w7.pgqinc"],
    ["inc", "collinearity", "w7dual.pgqinc"],
    ["gen", "shrikhande"],
    # and every other option, in any order
    ["scan", "--out", "x.json", "--format", "json", "--t-max", "+5", "--t-min", "1_0"],
    ["check", "--t", "3", "--s", "\u0661"],
    ["bound", "--beta", "2", "--theta", "4", "--t", " 3"],
    ["graph", "claw", "", "--t", "2", "--s", "3", "--out", "o"],
    ["gen", "rook", "--out", "x", "--m", "4"],
])
def test_plain_argv_is_parsed_without_argparse(argv):
    plain = _parse_plain(argv)
    assert plain is not None and plain == argparse_args(argv)


@pytest.mark.parametrize("argv", [
    ["bound", "--t=7"],
    ["scan", "--t-mi", "2", "--t-ma", "10"],
    ["bound", "--t", "-7"],
    ["bound", "--t", "7", "--t", "8"],
    ["gen", "--m", "4", "rook"],
    ["graph", "verify", "--", "-x"],
    ["gen", "rook", "--out", "-"],
    ["check", "--s", "3", "--t", "3", "--format", "xml"],
    ["bound", "--t", "10" * 2500],
    ["bound", "-h"],
    [],
])
def test_other_argvs_are_left_to_argparse(argv):
    assert _parse_plain(argv) is None


EMPTY_MD5 = hashlib.md5(b"").hexdigest()
#: (exit code, md5 of stdout, stderr) of each argv, recorded from the
#: hand-written parser at COLUMNS=80 before it was built from a table.
PARSER_TEXT = {
    ("--help",): (0, "b706e17290579082b763d8f2cab5d8f4", ""),
    ("scan", "--help"): (0, "1581f7490b45d9a43ff8ac6a500b80ea", ""),
    ("check", "--help"): (0, "b3a6e53508efc089b2c15910ccdf3478", ""),
    ("bound", "--help"): (0, "2bfb39a1c5141f04405d6830164af3c0", ""),
    ("graph", "--help"): (0, "5309719ada95c3343d4f3b498e1226ef", ""),
    ("gen", "--help"): (0, "9a28adfcc63a98a98e4b577caffa79ab", ""),
    ("inc", "--help"): (0, "69715cfee5ff9e6b8a7e62c4064dc265", ""),
    ("bound",): (1, EMPTY_MD5, "usage error: the following arguments are required: --t\n"),
    ("check", "--s", "3", "--t", "3", "--format", "xml"): (
        1, EMPTY_MD5, "usage error: argument --format: invalid choice: 'xml' (choose from 'json')\n"),
    ("bound", "--t", "x"): (1, EMPTY_MD5, "usage error: argument --t: invalid int value: 'x'\n"),
    ("scan", "--t", "3", "--t-max", "4"): (
        1, EMPTY_MD5, "usage error: ambiguous option: --t could match --t-min, --t-max\n"),
    ("bound", "--t", "3", "extra"): (1, EMPTY_MD5, "usage error: unrecognized arguments: extra\n"),
    ("frobnicate",): (
        1, EMPTY_MD5, "usage error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'scan', 'check', 'bound', 'graph', 'gen', 'inc')\n"),
    (): (1, EMPTY_MD5, "usage error: the following arguments are required: command\n"),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse words and lays out help and errors differently in other versions; "
                    "these bytes were recorded on Python 3.11")
@pytest.mark.parametrize("argv", PARSER_TEXT, ids=lambda argv: " ".join(argv) or "no-argv")
def test_parser_text_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *argv)
    assert (code, hashlib.md5(out.encode()).hexdigest(), err) == PARSER_TEXT[argv]


HELP_ARGVS = [argv for argv in PARSER_TEXT if argv[-1:] == ("--help",)]


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
def test_help_does_not_depend_on_the_terminal_width(capsys, monkeypatch, argv, columns):
    # Help is wrapped at a fixed width, so these bytes are the ones pinned
    # in PARSER_TEXT at COLUMNS=80.
    monkeypatch.setenv("COLUMNS", "80")
    at_80 = run(capsys, *argv)
    monkeypatch.setenv("COLUMNS", columns)
    assert run(capsys, *argv) == at_80


README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _synopsis_words(command):
    """The words of each README line that starts `pgq COMMAND`, with the
    brackets of optional parts dropped."""
    return [set(re.sub(r"[][]", " ", line).split()[2:])
            for line in README.splitlines() if line.split()[:2] == ["pgq", command]]


@pytest.mark.parametrize("command", _COMMANDS)
def test_readme_synopsis_names_every_choice_and_option(command):
    # A line `pgq COMMAND ...` of the README lists each positional (its
    # choices as a|b|c, else its name in capitals) and each option, with
    # the choices of an option that has them.
    wanted = set()
    for name, kw in _COMMANDS[command][1]:
        if name[0] == "-":
            wanted.add(name)
        if "choices" in kw:
            wanted.add("|".join(kw["choices"]))
        elif name[0] != "-":
            wanted.add(name.upper())
    assert any(wanted <= words for words in _synopsis_words(command)), sorted(wanted)


def test_readme_states_the_exit_codes_and_the_file_headers():
    codes = [int(c) for c in re.findall(r"^\| `(\d+)` \|", README, re.MULTILINE)]
    assert codes == [EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_NEGATIVE] == [0, 1, 2, 3]
    for header in (PGQGRAPH_HEADER, PGQINC_HEADER):
        assert re.search(rf"^{re.escape(header)}$", README, re.MULTILINE), header
