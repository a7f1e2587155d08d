"""CLI surface: subcommands, exit codes, formats, stdin handling."""

import io
import json
import os
import resource
import subprocess
import sys

import pytest

import pgq
from pgq.cli import main
from pgq.graph import parse_pgqgraph, write_pgqgraph
from pgq.incidence import (
    extract_gq,
    gen_kneser_6_2,
    gen_rook,
    gen_shrikhande,
    parse_pgqinc,
    write_pgqinc,
)
from pgq.params import GQParams
from pgq.scan import ScanRange, emit_csv, emit_json, scan


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert out == emit_csv(scan(ScanRange(2, 10)))
    assert out.count("\n") == 26  # header + 25 rows


def test_scan_json_and_out_file(capsys, tmp_path):
    target = tmp_path / "rows.json"
    code, out, err = run(
        capsys, "scan", "--t-min", "5", "--t-max", "5", "--format", "json",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text(encoding="ascii") == emit_json(scan(ScanRange(5, 5)))


def test_scan_rejects_bad_range(capsys):
    code, out, err = run(capsys, "scan", "--t-min", "1", "--t-max", "4")
    assert code == 2 and out == "" and "error" in err


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
    monkeypatch.setattr("sys.stdin", io.StringIO("pgqgraph 1\n0 0\n"))
    code, out, err = run(capsys, "graph", action, "-")
    assert (code, out, err) == (2, "", "error: empty graph\n")


@pytest.mark.parametrize(
    "n", ["100000000000000000000", "1000000000000000", "10000000", str(2**20 + 1)]
)
def test_graph_huge_vertex_count_is_input_error(capsys, monkeypatch, n):
    # Every count above 2^20 is refused before any row is allocated.
    monkeypatch.setattr("sys.stdin", io.StringIO(f"pgqgraph 1\n{n} 0\n"))
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


def test_graph_extract_gq_negative_pipeline(capsys, monkeypatch, shrikhande_file):
    # gen shrikhande | graph extract-gq - --s 3 --t 1
    code, out, _ = run(capsys, "gen", "shrikhande")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
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


def test_graph_missing_file(capsys):
    code, _, err = run(capsys, "graph", "verify", "/nonexistent/file")
    assert code == 2


# ---------------------------------------------------------------------------
# gen subcommands
# ---------------------------------------------------------------------------

def test_gen_rook_writes_pgqgraph(capsys, tmp_path):
    out_path = tmp_path / "rook.pgqgraph"
    code, out, _ = run(capsys, "gen", "rook", "--m", "4", "--out", str(out_path))
    assert code == 0 and out == ""
    g = parse_pgqgraph(out_path.read_text(encoding="ascii"))
    assert g == gen_rook(4)


def test_gen_flag_rules(capsys):
    code, _, err = run(capsys, "gen", "rook")
    assert code == 1 and "requires --m" in err
    code, _, err = run(capsys, "gen", "kneser", "--m", "3")
    assert code == 1 and "does not take --m" in err
    code, _, err = run(capsys, "gen", "rook", "--m", "1")
    assert code == 2


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
    inc = parse_pgqinc(open(gq22_file, encoding="ascii").read())
    from pgq.incidence import IncidenceStructure
    broken = IncidenceStructure(inc.points, inc.lines[1:], 2, 2)
    path = tmp_path / "broken.pgqinc"
    path.write_text(write_pgqinc(broken), encoding="ascii")
    code, out, _ = run(capsys, "inc", "verify", str(path))
    assert code == 3
    data = json.loads(out)
    assert data["ok"] is False and data["axiom"] == "ii"


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


def run_capped(stdin, *argv):
    """`python -m pgq.cli ARGV` in a child whose address space is capped, so
    an allocation that grows with a declared count fails the test instead of
    exhausting the machine."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    src = os.path.dirname(os.path.dirname(pgq.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "pgq.cli", *argv], input=stdin, capture_output=True,
        text=True, timeout=60, preexec_fn=cap, env=env,
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
