"""Command-line interface.

Subcommands:
    scan   --t-min INT --t-max INT [--format csv|json] [--out PATH]
    check  --s INT --t INT [--format json]
    bound  --t INT [--theta INT --beta INT]
    graph  verify|claw|extract-gq FILE [--s INT --t INT] [--out PATH]
    gen    rook|bipartite|kneser|w3|shrikhande [--m INT] [--out PATH]
    inc    verify|dual|collinearity FILE

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 semantic
negative (parameters ruled out / verification failed).  stdout carries
data only, in the declared format; diagnostics go to stderr.  FILE may be
'-' for standard input.  Identical invocations produce identical bytes.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

# Each handler imports the modules of its own subcommand, so a process
# loads only what its subcommand runs (and `--help` none of them).  It
# returns (exit code, output), and main writes the output, a string or an
# iterable of strings, to --out or stdout (nothing for None).  A handler
# refuses its input before it returns, so a refused call opens no --out.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NEGATIVE = 3


class UsageError(Exception):
    pass


def _read_input(path: str) -> str:
    """The text of FILE, or of stdin for '-': its bytes decoded as ASCII,
    with universal newlines (each \\r\\n or lone \\r read as \\n), so the
    same bytes give the same text, or the same error, either way."""
    if path == "-":
        if sys.stdin is None:  # fd 0 was closed when the process started
            raise ValueError("standard input is closed")
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return data.decode("ascii").replace("\r\n", "\n").replace("\r", "\n")


def _write_output(output, out: str | None) -> None:
    """Write a string, or an iterable of strings, to --out, or to stdout
    if none, one write() per string: each reaches the OS when stdout is
    unbuffered."""
    chunks = (output,) if isinstance(output, str) else output
    if out is None:
        if sys.stdout is None:  # fd 1 was closed when the process started
            raise ValueError("standard output is closed")
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.writelines(chunks)


def _json(obj) -> str:
    import json

    return json.dumps(obj, indent=2) + "\n"


def _frac(f) -> dict:
    # f is an exact Fraction; the decimal rendering is for humans only,
    # and verdicts never use it.
    return {"fraction": str(f), "decimal": _decimal(f)}


def _decimal(f) -> str:
    """f > 0 to six significant digits, as `format(float(f), ".6g")`.

    A value beyond the float range is rounded by decimal: one division of
    the exact numerator by the exact denominator, correctly rounded to six
    digits, half to even, in a context whose exponent has no practical
    bound; normalized, so trailing zeros are dropped, and written in the
    same `d.ddddde+NNN` style.  Only this branch imports decimal.
    """
    try:
        return f"{float(f):.6g}"
    except OverflowError:
        from decimal import MAX_EMAX, Context, Decimal
    ctx = Context(prec=6, Emax=MAX_EMAX)
    return f"{ctx.divide(Decimal(f.numerator), Decimal(f.denominator)).normalize(ctx):g}"


def _parse_plain(argv: list[str]) -> dict | None:
    """The arguments argparse parses from argv, if argv has the plain form:
    a subcommand, its positionals, then options spelled out, each at most
    once and followed by a value that does not start with "-" (a positional
    may be "-").  None for any other argv, which argparse then parses or
    refuses; argparse is the oracle of this function."""
    spec = _COMMANDS[argv[0]][1] if argv and argv[0] in _COMMANDS else ()
    positionals = [name for name, _ in spec if name[0] != "-"]
    n = 1 + len(positionals)
    given = dict(zip(positionals, argv[1:n]))
    given.update(zip(argv[n::2], argv[n + 1::2]))
    # Every token is used once: n - 1 positionals, then distinct flags,
    # each with its value.
    if not spec or 2 * len(given) != len(argv) + n - 2:
        return None
    args = {"command": argv[0]}
    for name, kw in spec:
        value = given.pop(name, None)
        if value is None:
            if kw.get("required"):
                return None
            value = kw.get("default")
        else:
            if value[:1] == "-" and (value != "-" or name[0] == "-"):
                return None
            try:
                value = kw.get("type", str)(value)
            except ValueError:
                return None
            if value not in kw.get("choices", (value,)):
                return None
        args[name.lstrip("-").replace("-", "_")] = value
    return None if given else args


def _build_parser():
    """The argparse parser of _COMMANDS.  It parses every argv that is not
    plain, and it alone writes help and usage errors.  Help is wrapped at
    78 columns, the width argparse derives from an 80-column terminal,
    whatever COLUMNS says, so its bytes do not depend on the terminal."""
    import argparse
    from functools import partial

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # exit 1 instead of argparse's default 2
            raise UsageError(message)

    parser = _Parser(prog="pgq", description=__doc__,
                     formatter_class=partial(argparse.RawDescriptionHelpFormatter, width=78))
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (help_, spec, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_, formatter_class=partial(argparse.HelpFormatter, width=78))
        for name, kw in spec:
            p.add_argument(name, **kw)
    return parser


def _cmd_scan(args):
    from .scan import MAX_SCAN_T, ScanRange, chunks

    if args.t_max > MAX_SCAN_T:
        raise UsageError(f"--t-max must be at most {MAX_SCAN_T} (10**12)")
    # The rows stream, one write per t.
    return EXIT_OK, chunks(ScanRange(args.t_min, args.t_max), args.format)


def _cmd_check(args):
    from .params import GQParams
    from .scan import RULED_OUT_NEW, RULED_OUT_PRIOR, check_one

    report = check_one(GQParams(args.s, args.t))
    classification = report["classification"]
    ruled_out = classification in (RULED_OUT_NEW, RULED_OUT_PRIOR)
    return (EXIT_NEGATIVE if ruled_out else EXIT_OK,
            _json(report) if args.format == "json" else classification + "\n")


def _cmd_bound(args):
    from .bounds import (
        TERM_TAGS,
        claw_bound_terms,
        claw_threshold,
        neumaier_bound,
        optimal_claw_bound,
        quadratic_claw_bound,
    )

    t = args.t
    if (args.theta is None) != (args.beta is None):
        raise UsageError("--theta and --beta must be given together")
    given = args.theta is not None
    theta, beta = (args.theta, args.beta) if given else optimal_claw_bound(t)
    terms = claw_bound_terms(t, theta, beta)
    tagged = {tag: _frac(term) for tag, term in zip(TERM_TAGS, terms)}
    if given:
        return EXIT_OK, _json({
            "t": t,
            "theta": theta,
            "beta": beta,
            "terms": tagged,
            "bound": _frac(max(terms)),
        })
    return EXIT_OK, _json({
        "t": t,
        "neumaier_bound": neumaier_bound(t),
        "quadratic_bound": quadratic_claw_bound(t),
        "optimal_bound": {
            "threshold": claw_threshold(t),
            "exact": _frac(max(terms)),
            "theta": theta,
            "beta": beta,
            "terms": tagged,
        },
    })


def _explicit_params(args) -> GQParams | None:
    from .params import GQParams

    if (args.s is None) != (args.t is None):
        raise UsageError("--s and --t must be given together")
    return None if args.s is None else GQParams(args.s, args.t)


def _cmd_graph(args):
    from .graph import _gq_params, _gq_walked, claw_numbers, parse_pgqgraph, verify_srg
    from .params import derive_srg

    g = parse_pgqgraph(_read_input(args.file))
    if args.action == "verify":
        walked = _gq_walked(g)[0]
        if walked is not None:  # a GQ(s,t), so an srg with these parameters
            q = derive_srg(walked)
        else:
            check = verify_srg(g)
            if not check.ok:
                return EXIT_NEGATIVE, _json({"srg": False, "failure": check.failure})
            q = check.params
        payload = {"srg": True, "v": q.v, "k": q.k, "lambda": q.lam, "mu": q.mu}
        p = _explicit_params(args)
        if p is not None:
            payload["matches_params"] = q == derive_srg(p)
        return EXIT_OK if payload.get("matches_params", True) else EXIT_NEGATIVE, _json(payload)
    if args.action == "claw":
        p = _explicit_params(args)
        extra = {}
        walked = None
        if p is not None:
            walked = _gq_walked(g, p)[0]
            if walked is None:
                _gq_params(g, p)
            # Every local graph is then (s-1)-regular on s(t+1) vertices, so
            # by Caro-Wei every claw number is at least t+1; in a GQ each is
            # t+1, the number of masks of its walk.
            extra = {"threshold": p.t + 1, "ok": True}
        from collections import Counter

        hist = {p.t + 1: g.n} if walked else dict(sorted(Counter(claw_numbers(g)).items()))
        return EXIT_OK, _json({
            "histogram": {str(r): c for r, c in hist.items()},
            "min": min(hist),
            "max": max(hist),
            **extra,
        })
    # extract-gq
    from .incidence import extract_gq, write_pgqinc

    result = extract_gq(g, _explicit_params(args))
    if not result.ok:
        _diagnose(result.reason)
        return EXIT_NEGATIVE, None
    return EXIT_OK, write_pgqinc(result.structure)


def _cmd_gen(args):
    from .graph import write_pgqgraph
    from .incidence import (gen_complete_bipartite, gen_kneser_6_2, gen_rook, gen_shrikhande,
                            gen_symplectic_w3)

    name = args.name
    takes_m = name in ("rook", "bipartite")
    if takes_m != (args.m is not None):
        raise UsageError(f"gen {name} requires --m" if takes_m else f"gen {name} does not take --m")
    generate = {"rook": gen_rook, "bipartite": gen_complete_bipartite, "kneser": gen_kneser_6_2,
                "w3": gen_symplectic_w3, "shrikhande": gen_shrikhande}[name]
    return EXIT_OK, write_pgqgraph(generate(args.m) if takes_m else generate())


def _cmd_inc(args):
    from .graph import write_pgqgraph
    from .incidence import collinearity_graph, dual, parse_pgqinc, verify_axioms, write_pgqinc

    inc = parse_pgqinc(_read_input(args.file))
    if args.action == "verify":
        check = verify_axioms(inc)
        if check.ok:
            return EXIT_OK, _json({
                "ok": True,
                "points": inc.points,
                "lines": len(inc.lines),
                "s": inc.s,
                "t": inc.t,
            })
        return EXIT_NEGATIVE, _json({"ok": False, "axiom": check.axiom, "witness": check.witness})
    if args.action == "dual":
        return EXIT_OK, write_pgqinc(dual(inc))
    return EXIT_OK, write_pgqgraph(collinearity_graph(inc))


_INT = {"type": int}
_REQUIRED_INT = {"type": int, "required": True}
_PATH = {}

#: Each subcommand's help, its arguments as argparse's add_argument takes
#: them (positionals first, then options, each at most once) and its handler.
_COMMANDS = {
    "scan": ("emit parameter sets eliminated by the four-term bound", (
        ("--t-min", _REQUIRED_INT),
        ("--t-max", _REQUIRED_INT),
        ("--format", {"choices": ("csv", "json"), "default": "csv"}),
        ("--out", _PATH),
    ), _cmd_scan),
    "check": ("feasibility report for one (s, t)", (
        ("--s", _REQUIRED_INT),
        ("--t", _REQUIRED_INT),
        ("--format", {"choices": ("json",)}),
    ), _cmd_check),
    "bound": ("bound values at t, or the four terms at (theta, beta)", (
        ("--t", _REQUIRED_INT),
        ("--theta", _INT),
        ("--beta", _INT),
    ), _cmd_bound),
    "graph": ("verify/analyze a pgqgraph file", (
        ("action", {"choices": ("verify", "claw", "extract-gq")}),
        ("file", _PATH),
        ("--s", _INT),
        ("--t", _INT),
        ("--out", _PATH),
    ), _cmd_graph),
    "gen": ("write a generator graph in pgqgraph format", (
        ("name", {"choices": ("rook", "bipartite", "kneser", "w3", "shrikhande")}),
        ("--m", _INT),
        ("--out", _PATH),
    ), _cmd_gen),
    "inc": ("verify/transform a pgqinc file", (
        ("action", {"choices": ("verify", "dual", "collinearity")}),
        ("file", _PATH),
    ), _cmd_inc),
}


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] by default) and return its exit
    code.  It freezes nothing, so it may be called again and again, as
    the tests do; run() is the process entry point."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        plain = _parse_plain(argv)
        args = _build_parser().parse_args(argv) if plain is None else SimpleNamespace(**plain)
        code, output = _COMMANDS[args.command][2](args)
        if output is not None:
            _write_output(output, getattr(args, "out", None))
    except UsageError as exc:
        _diagnose(f"usage error: {exc}")
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        code = EXIT_OK if not exc.code else EXIT_USAGE
    except (ValueError, OSError) as exc:
        return _input_error(exc)
    try:
        # What stdout holds is written here, where a failure is reported,
        # and not at interpreter exit, which would end the process with
        # status 120.  (stdout is None where fd 1 was closed at start.)
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        return _input_error(exc)
    return code


def _diagnose(line: str) -> None:
    """Write one line to stderr, if it can take it: a stderr that is
    closed or full loses the line, and the exit code stays that of the
    command.  What a failed write leaves in stderr's buffer is discarded
    (_to_devnull), as the interpreter's final flush would fail on it and
    end the process with status 120."""
    try:
        if sys.stderr is not None:
            print(line, file=sys.stderr)
    except OSError:
        _to_devnull(sys.stderr)


def _input_error(exc: Exception) -> int:
    """Report exc as an input error.  If stdout still holds what it cannot
    write, it is discarded (_to_devnull), so the interpreter's final flush
    has nothing to fail on and the process ends with this error alone."""
    _diagnose(f"error: {exc}")
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        _to_devnull(sys.stdout)
    return EXIT_INPUT


def _to_devnull(stream) -> None:
    """Point the file descriptor of stream at os.devnull, as the signal
    module's note on SIGPIPE does, so what stream still holds is written
    there at exit."""
    import os

    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def run() -> int:
    """The process entry point of `python -m pgq.cli` and the `pgq`
    script: main(), then gc.freeze(), so the interpreter's final
    collections skip every object the run left (README, "Process
    exit").  Exit is otherwise unchanged: streams are flushed, and
    atexit handlers, profilers and coverage still run."""
    import gc

    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
