"""End-to-end and per-layer benchmark of the pgq command-line interface.

    python3 perfbench/run.py --workload scan|bound|gq|all --seed N \
        --seconds S --trace 0|1

Each workload is a closed loop with one client: its invocations run one
after another, each in a fresh `python -m pgq.cli` process, and one pass
over them is one sample.  Passes repeat while one more still fits in S
seconds.
Every output is checked against an expectation built without pgq (see
inputs.py and golden/).  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones:

    wall_s       median wall seconds of one pass (children only)
    cpu_s        median user+sys seconds of the children in one pass
    peak_rss_mb  median over passes of the largest child max-RSS
    setup_s      median wall seconds of `pgq --help`, the start-up
                 (interpreter, import pgq.cli, argparse) every call pays

fail_ratio (failed / attempted) is printed by name above the JSON line.
With --trace 1 the passes alternate between plain children and children
run through trace_child.py, and the metrics are the per-layer ones
(PER_LAYER below) plus trace.overhead_s, the traced minus the untraced
median wall_s.

Times are reported at a reference machine speed.  On a shared machine the
speed of a core drifts by a quarter or more over minutes, which moves
every pgq time of a run with it.  So a fixed pure-Python reference_work()
(about 0.05 s) is timed after every invocation, and the times of each
invocation are multiplied by CAL_REFERENCE_S / (mean of the calibrations
just before and just after it).  A change to pgq moves the scaled times
as it moves the raw ones; the unscaled medians and every sample are kept
in the run record.

Workloads and why each was chosen:

    scan   `scan --t-min 2 --t-max 30`: the per-pair condition pipeline
           (scan, params) with many small cached optimizer sweeps; graph
           and incidence are not touched.  The seed is unused: the range
           is the input.
    bound  `bound --t t` and `check --s S --t t` for t in 96..144: every
           process runs one cold O(t^2) (theta, beta) sweep, so bounds
           dominates and scan enumeration is bypassed.  The seed picks
           S's classification class, then S within it.
    gq     the concrete pipeline on W(7) with seeded vertex labels:
           graph verify/claw/extract-gq, inc verify/dual/collinearity, the
           Q(4,7) graph's extract-gq and claw, and two pseudo-GQs that must
           exit 3 with a claw witness.  scan and bounds are bypassed.

A run record (versions, machine, seed, samples and their spread) is
written to perfbench/out/.  counters_check.py pins the traced counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
GOLDEN = BENCH / "golden"
OUT = BENCH / "out"
SRC = ROOT / "src"

WORKLOADS = ("scan", "bound", "gq")
SCAN_ARGS = ("--t-min", "2", "--t-max", "30")
BOUND_TS = (96, 112, 128, 144)
GQ_Q = 7

#: The paper's elimination table for t in [2, 10], as (s, t).
PAPER_TABLE = (
    (56, 4), (95, 5), (120, 6), (134, 6), (140, 7), (161, 7), (189, 7),
    (184, 8), (216, 8), (244, 8), (280, 8), (328, 8), (231, 9), (261, 9),
    (315, 9), (351, 9), (396, 9), (423, 9), (290, 10), (320, 10), (386, 10),
    (440, 10), (485, 10), (540, 10), (650, 10),
)

INVOCATION_TIMEOUT_S = 60.0
#: No invocation may run past this many seconds after a run starts, so a
#: hung program still lets the run end in about three minutes.
RUN_LIMIT_S = 160.0
MIN_SETUP_SAMPLES = 11


# ---------------------------------------------------------------------------
# Invocations and their expected results
# ---------------------------------------------------------------------------

Check = Callable[[int, bytes, bytes], "str | None"]


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    check: Check
    stdin: Path | None = None

    def label(self) -> str:
        return "pgq " + " ".join(self.argv) + (f" < {self.stdin.name}" if self.stdin else "")


def _code_problem(code: int, want: int) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


def expect_bytes(code: int, stdout: bytes, stderr: bytes = b"") -> Check:
    def check(got_code, out, err):
        if problem := _code_problem(got_code, code):
            return problem
        if out != stdout:
            return f"stdout differs from the expected {len(stdout)} bytes (got {len(out)})"
        if err != stderr:
            return f"stderr {err[:200]!r}, expected {stderr!r}"
        return None
    return check


def expect_json(code: int, value) -> Check:
    def check(got_code, out, err):
        if problem := _code_problem(got_code, code):
            return problem
        try:
            got = json.loads(out)
        except ValueError:
            return f"stdout is not JSON: {out[:200]!r}"
        return None if got == value else f"JSON {got!r} differs from expected {value!r}"
    return check


def expect_classification(s: int, t: int, threshold: int) -> Check:
    want = inputs.classify(s, t, threshold)
    ruled_out = want in (inputs.RULED_OUT_NEW, inputs.RULED_OUT_PRIOR)
    derived = {"s": s, "t": t, "v": (s + 1) * (s * t + 1), "k": s * (t + 1),
               "lambda": s - 1, "mu": t + 1}

    def check(got_code, out, err):
        if problem := _code_problem(got_code, 3 if ruled_out else 0):
            return problem
        try:
            got = json.loads(out)
        except ValueError:
            return f"stdout is not JSON: {out[:200]!r}"
        if not isinstance(got, dict):
            return f"JSON {got!r} is not an object"
        fields = {key: got.get(key) for key in derived}
        if fields != derived:
            return f"parameters {fields} differ from {derived}"
        if got.get("classification") != want:
            return f"classification {got.get('classification')!r}, expected {want!r}"
        return None
    return check


def expect_help(code, out, err) -> str | None:
    if problem := _code_problem(code, 0):
        return problem
    return None if out.startswith(b"usage: pgq") else f"help text {out[:80]!r}"


HELP = Invocation(("--help",), expect_help)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def scan_workload(seed: int, work: Path) -> list[Invocation]:
    golden = (GOLDEN / "scan_2_30.csv").read_bytes()
    rows = [tuple(map(int, row.split(","))) for row in golden.decode().splitlines()[1:]]
    if [(s, t) for s, t, *_ in rows if t <= 10] != list(PAPER_TABLE):
        raise RuntimeError("golden scan CSV does not start with the paper's table")
    return [Invocation(("scan", *SCAN_ARGS), expect_bytes(0, golden))]


def bound_workload(seed: int, work: Path) -> list[Invocation]:
    rng = random.Random(seed)
    invocations = []
    for t in BOUND_TS:
        golden = json.loads((GOLDEN / f"bound_t{t}.json").read_text())
        threshold = golden["optimal_bound"]["threshold"]
        s = inputs.pick_s(t, threshold, rng)
        invocations.append(Invocation(("bound", "--t", str(t)), expect_json(0, golden)))
        invocations.append(Invocation(
            ("check", "--s", str(s), "--t", str(t), "--format", "json"),
            expect_classification(s, t, threshold),
        ))
    return invocations


def gq_workload(seed: int, work: Path) -> list[Invocation]:
    rng = random.Random(seed)
    q = GQ_Q
    n, edges, lines = inputs.symplectic_gq(q)
    edges, lines = inputs.relabel(n, edges, lines, rng)
    dual = inputs.dual_lines(n, lines)
    q4_edges = inputs.collinearity_edges(dual)
    v, k, lam, mu = (q + 1) * (q * q + 1), q * (q + 1), q - 1, q + 1
    if inputs.srg_params(inputs.adjacency(len(lines), q4_edges)) != (v, k, lam, mu):
        raise RuntimeError(f"the Q(4,{q}) graph built here is not srg{(v, k, lam, mu)}")
    pn, pedges = inputs.godsil_mckay_pseudo_gq(3)
    pedges, _ = inputs.relabel(pn, pedges, [], rng)
    sn, sedges = inputs.shrikhande()

    texts = {
        "w7.pgqgraph": inputs.pgqgraph_text(n, edges),
        "w7.pgqinc": inputs.pgqinc_text(n, lines, q, q),
        "w7dual.pgqinc": inputs.pgqinc_text(len(lines), dual, q, q),
        "q47.pgqgraph": inputs.pgqgraph_text(len(lines), q4_edges),
        "q47.pgqinc": inputs.pgqinc_text(len(lines), sorted(dual), q, q),
        "shrikhande.pgqgraph": inputs.pgqgraph_text(sn, sedges),
        "pseudo33.pgqgraph": inputs.pgqgraph_text(pn, pedges),
    }
    path = {}
    for name, text in texts.items():
        path[name] = work / name
        path[name].write_text(text, encoding="ascii")
    expected = {name: text.encode() for name, text in texts.items()}
    claws = expect_json(0, {"histogram": {str(q + 1): n}, "min": q + 1, "max": q + 1})
    witness = {
        "shrikhande": inputs.claw_witness(sn, sedges, 1).encode() + b"\n",
        "pseudo33": inputs.claw_witness(pn, pedges, 3).encode() + b"\n",
    }
    return [
        Invocation(("graph", "verify", str(path["w7.pgqgraph"])),
                   expect_json(0, {"srg": True, "v": v, "k": k, "lambda": lam, "mu": mu})),
        Invocation(("graph", "claw", str(path["w7.pgqgraph"])), claws),
        Invocation(("graph", "extract-gq", str(path["w7.pgqgraph"])),
                   expect_bytes(0, expected["w7.pgqinc"])),
        Invocation(("inc", "verify", str(path["w7.pgqinc"])),
                   expect_json(0, {"ok": True, "points": n, "lines": (q * q + 1) * (q + 1),
                                   "s": q, "t": q})),
        Invocation(("inc", "dual", str(path["w7.pgqinc"])),
                   expect_bytes(0, expected["w7dual.pgqinc"])),
        Invocation(("inc", "collinearity", str(path["w7dual.pgqinc"])),
                   expect_bytes(0, expected["q47.pgqgraph"])),
        Invocation(("graph", "extract-gq", str(path["q47.pgqgraph"])),
                   expect_bytes(0, expected["q47.pgqinc"])),
        Invocation(("graph", "claw", str(path["q47.pgqgraph"])), claws),
        Invocation(("gen", "shrikhande"), expect_bytes(0, expected["shrikhande.pgqgraph"])),
        Invocation(("graph", "extract-gq", "-"), expect_bytes(3, b"", witness["shrikhande"]),
                   stdin=path["shrikhande.pgqgraph"]),
        Invocation(("graph", "extract-gq", str(path["pseudo33.pgqgraph"])),
                   expect_bytes(3, b"", witness["pseudo33"])),
    ]


WORKLOAD_INVOCATIONS = {"scan": scan_workload, "bound": bound_workload, "gq": gq_workload}


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    timed_out: bool
    scale: float = 1.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str], stdin: Path | None, env, timeout: float) -> Child:
    """Run cmd to completion; its own rusage comes from wait4, so the
    figures are this child's alone."""
    with open(stdin or os.devnull, "rb") as fin, \
            tempfile.TemporaryFile(dir=OUT) as fout, tempfile.TemporaryFile(dir=OUT) as ferr:
        killed = threading.Event()
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdin=fin, stdout=fout, stderr=ferr, env=env, cwd=ROOT)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        fout.seek(0)
        ferr.seek(0)
        return Child(proc.returncode, fout.read(), ferr.read(), wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6,
                     killed.is_set())


class Runner:
    """Runs invocations, checks them and counts attempts and failures.

    A calibration follows every invocation, and each child's scale is
    CAL_REFERENCE_S over the mean of the calibrations on either side of it.
    """

    def __init__(self, hard_deadline: float):
        self.env = child_env()
        self.deadline = hard_deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.spans_path = OUT / f"spans-{os.getpid()}.bin"
        self.calibrations = [calibrate()]

    def run(self, inv: Invocation, traced: bool = False, invocation_id: int = 0) -> Child:
        if traced:
            self.spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "trace_child.py"), str(self.spans_path),
                   str(invocation_id), *inv.argv]
        else:
            cmd = [sys.executable, "-m", "pgq.cli", *inv.argv]
        timeout = max(0.5, min(INVOCATION_TIMEOUT_S, self.deadline - perf_counter()))
        child = run_child(cmd, inv.stdin, self.env, timeout)
        self.calibrations.append(calibrate())
        child.scale = 2 * CAL_REFERENCE_S / (self.calibrations[-2] + self.calibrations[-1])
        self.attempted += 1
        if child.timed_out:
            problem = f"timed out after {timeout:.1f} s"
        else:
            problem = inv.check(child.code, child.stdout, child.stderr)
        if problem:
            self.failures.append(f"{inv.label()}: {problem}")
        return child


@dataclass
class Pass:
    """Sums over one pass; times are scaled, except the unscaled_ ones."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    unscaled_wall_s: float = 0.0
    unscaled_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    spans: dict[str, list[float]] = field(default_factory=dict)


def run_pass(runner: Runner, invocations: list[Invocation], traced: bool) -> Pass:
    result = Pass()
    for i, inv in enumerate(invocations):
        child = runner.run(inv, traced, i)
        result.wall_s += child.wall_s * child.scale
        result.cpu_s += child.cpu_s * child.scale
        result.unscaled_wall_s += child.wall_s
        result.unscaled_cpu_s += child.cpu_s
        result.peak_rss_mb = max(result.peak_rss_mb, child.max_rss_mb)
        if traced and runner.spans_path.exists():
            for name, (calls, total, own) in read_spans(runner.spans_path).items():
                acc = result.spans.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total * child.scale
                acc[2] += own * child.scale
    return result


# ---------------------------------------------------------------------------
# Spans and per-layer metrics
# ---------------------------------------------------------------------------

def read_spans(path: Path) -> dict[str, list[float]]:
    """Per span name: [calls, total seconds, self seconds]; a span's self
    time is its duration minus that of its direct children."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        columns = [array("d"), array("d"), array("i"), array("i")]
        for column in columns:
            column.fromfile(fh, count)
    starts, ends, name_ids, parents = columns
    durations = [e - s for s, e in zip(starts, ends)]
    child_time = [0.0] * count
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += durations[i]
    stats = {name: [0, 0.0, 0.0] for name in header["names"]}
    names = header["names"]
    for i in range(count):
        acc = stats[names[name_ids[i]]]
        acc[0] += 1
        acc[1] += durations[i]
        acc[2] += durations[i] - child_time[i]
    return stats


PARAMS_SPANS = ("params.derive_srg", "params.krein_check",
                "params.multiplicity_integrality", "params.gq_possible")


def _sum(spans: dict, names, column: int) -> float:
    return sum(spans.get(name, (0, 0.0, 0.0))[column] for name in names)


def _calls(*names):
    return "count", lambda spans, n: int(_sum(spans, names, 0))


def _total(*names):
    return "s", lambda spans, n: _sum(spans, names, 1)


def _self(*names):
    return "s", lambda spans, n: _sum(spans, names, 2)


#: Per-layer metric -> (unit, value from one traced pass's spans and its
#: invocation count).  Each layer is a pgq module; times are per pass
#: except cli.import_s, which is per invocation so it compares with setup_s.
PER_LAYER = {
    "cli.import_s": ("s", lambda spans, n: _sum(spans, ["cli.import"], 1) / n),
    "cli.main_self_s": _self("cli.main"),
    "scan.check_one_calls": _calls("scan.check_one"),
    "scan.check_one_self_s": _self("scan.check_one"),
    "scan.scan_self_s": _self("scan.scan"),
    "scan.emit_s": _total("scan.emit"),
    "params.calls": _calls(*PARAMS_SPANS),
    "params.self_s": _self(*PARAMS_SPANS),
    "bounds.optimal_claw_bound_calls": _calls("bounds.optimal_claw_bound"),
    "bounds.optimal_claw_bound_self_s": _self("bounds.optimal_claw_bound"),
    "bounds.claw_bound_terms_calls": _calls("bounds.claw_bound_terms"),
    "bounds.claw_bound_terms_s": _total("bounds.claw_bound_terms"),
    "graph.parse_s": _total("graph.parse"),
    "graph.write_s": _total("graph.write"),
    "graph.verify_srg_calls": _calls("graph.verify_srg"),
    "graph.verify_srg_s": _total("graph.verify_srg"),
    "graph.claw_number_calls": _calls("graph.claw_number"),
    "graph.claw_number_s": _total("graph.claw_number"),
    "incidence.extract_gq_self_s": _self("incidence.extract_gq"),
    "incidence.dual_self_s": _self("incidence.dual"),
    "incidence.collinearity_graph_self_s": _self("incidence.collinearity_graph"),
    "incidence.verify_axioms_calls": _calls("incidence.verify_axioms"),
    "incidence.verify_axioms_s": _total("incidence.verify_axioms"),
    "incidence.parse_s": _total("incidence.parse"),
    "incidence.write_s": _total("incidence.write"),
}


def layer_values(p: Pass, invocations: int) -> dict[str, float]:
    return {name: fn(p.spans, invocations) for name, (_, fn) in PER_LAYER.items()}


# ---------------------------------------------------------------------------
# Machine-speed calibration
# ---------------------------------------------------------------------------

#: Seconds reference_work() takes at the reference speed: its median on a
#: 2-vCPU Intel Xeon virtual machine under Python 3.11.7.
CAL_REFERENCE_S = 0.05


def reference_work() -> int:
    """Fixed pure-Python work of the kind pgq does: exact rationals, small
    integers, bit counts, tuples and dicts."""
    acc = 0
    table = {}
    for i in range(1, 10001):
        f = Fraction(i, 7) * Fraction(3, i + 1)
        acc += f.numerator % 11 + (i * 2654435761 & 0xFFFF).bit_count()
        table[i % 97] = (acc, i)
    return acc + len(table)


def calibrate() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _quartile_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 below 2 samples)."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run of one workload; returns its result and record."""
    work = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    invocations = WORKLOAD_INVOCATIONS[workload](seed, work)
    runner = Runner(perf_counter() + RUN_LIMIT_S)
    plain: list[Pass] = []
    traced: list[Pass] = []
    setup: list[Child] = []
    began = last_round = perf_counter()
    # Start a round only if one more like the last still fits in the window.
    while not plain or 2 * perf_counter() - last_round - began <= seconds:
        last_round = perf_counter()
        if not trace:
            setup += [runner.run(HELP) for _ in range(2)]
        plain.append(run_pass(runner, invocations, traced=False))
        if trace:
            traced.append(run_pass(runner, invocations, traced=True))
    while not trace and len(setup) < MIN_SETUP_SAMPLES:
        setup.append(runner.run(HELP))
    runner.spans_path.unlink(missing_ok=True)
    shutil.rmtree(work)

    walls = [p.wall_s for p in plain]
    setup_s = [c.wall_s * c.scale for c in setup]
    wall = statistics.median(walls)
    if trace:
        per_pass = [layer_values(p, len(invocations)) for p in traced]
        # Counts are the same in every pass; median_low keeps them integers.
        metrics = {
            name: _metric((statistics.median if unit == "s" else statistics.median_low)(
                [v[name] for v in per_pass]), unit)
            for name, (unit, _) in PER_LAYER.items()
        }
        metrics["trace.overhead_s"] = _metric(
            statistics.median(p.wall_s for p in traced) - wall, "s")
    else:
        metrics = {
            "wall_s": _metric(wall, "s"),
            "cpu_s": _metric(statistics.median(p.cpu_s for p in plain), "s"),
            "peak_rss_mb": _metric(statistics.median(p.peak_rss_mb for p in plain), "MB"),
            "setup_s": _metric(statistics.median(setup_s), "s"),
        }
    raw_walls = [p.unscaled_wall_s for p in plain]
    raw_setup = [c.wall_s for c in setup]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "invocations_per_pass": len(invocations),
        "invocations": [inv.label() for inv in invocations],
        "passes": len(plain),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "metrics": metrics,
        "unscaled_medians": {
            "wall_s": statistics.median(raw_walls),
            "cpu_s": statistics.median(p.unscaled_cpu_s for p in plain),
            "setup_s": statistics.median(raw_setup) if setup else None,
        },
        "samples": {
            "wall_s": walls,
            "unscaled_wall_s": raw_walls,
            "cpu_s": [p.cpu_s for p in plain],
            "peak_rss_mb": [p.peak_rss_mb for p in plain],
            "setup_s": setup_s,
            "unscaled_setup_s": raw_setup,
            "traced_wall_s": [p.wall_s for p in traced],
            "calibration_s": runner.calibrations,
        },
        "spread": {
            "wall_s_iqr_share": _quartile_spread(walls),
            "unscaled_wall_s_iqr_share": _quartile_spread(raw_walls),
            "unscaled_wall_s_range_share": (max(raw_walls) - min(raw_walls)) / statistics.median(raw_walls),
            "calibration_s_iqr_share": _quartile_spread(runner.calibrations),
            "setup_s_iqr_share": _quartile_spread(setup_s),
        },
        "setup_share": statistics.median(setup_s) * len(invocations) / wall if setup else None,
    }


def machine() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "pgq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def report(record: dict) -> None:
    """Human-readable summary of one run, every metric by name and unit."""
    w = record["workload"]
    print(f"[{w}] seed {record['seed']}: {record['passes']} passes x "
          f"{record['invocations_per_pass']} invocations")
    for name, m in record["metrics"].items():
        print(f"[{w}] {name:<38} {m['value']:.6g} {m['unit']}")
    for name, value in record["unscaled_medians"].items():
        if value is not None and not record["trace"]:
            print(f"[{w}] {'unscaled ' + name:<38} {value:.6g} s")
    if not record["trace"]:
        print(f"[{w}] {'fail_ratio':<38} {record['failed'] / record['attempted']:.6g} "
              f"({record['failed']}/{record['attempted']})")
        print(f"[{w}] {'setup_share':<38} {record['setup_share']:.3f}")
        for name, value in record["spread"].items():
            print(f"[{w}] {name:<38} {value:.3f}")
    for failure in record["failures"][:10]:
        print(f"[{w}] FAILED {failure}", file=sys.stderr)


def preflight() -> None:
    """Refuse to measure without a runnable pgq in this checkout."""
    OUT.mkdir(parents=True, exist_ok=True)
    if not (SRC / "pgq" / "cli.py").is_file():
        raise SystemExit(f"error: no pgq sources under {SRC}")
    runner = Runner(perf_counter() + RUN_LIMIT_S)
    runner.run(HELP)  # also compiles the bytecode cache once
    if runner.failures:
        raise SystemExit(f"error: pgq does not start: {runner.failures[0]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    preflight()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in workloads:
        record = measure(workload, args.seed, args.seconds, bool(args.trace))
        record["machine"] = machine()
        path = OUT / f"record-{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
        report(record)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in records for name, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
