"""Command-line interface: generation, verdicts, family tables, and scans.

Commands:

* ``gen``           exact terms of one sequence
* ``check``         completeness verdict with certificate (JSON)
* ``oracle-check``  verdict at an explicit prefix length; an incomplete one
                    names a subset-sum witness (JSON)
* ``family-table``  closed-form bounds vs. engine search (CSV)
* ``scan-2l1``      exhaustive counterexample hunt for the 2L-1 window rule
* ``min-root``      least principal root among incomplete vectors vs. the
                    lambda threshold
* ``dense``         root sweep of the sparse family toward 2 (CSV)

Every command runs in one process.  ``scan-2l1`` and ``min-root`` accept
--jobs (default 1), reject it below 1 and echo it in the config, but run
serially at any value.

Exit codes: 0 a report was written (of any kind, ``unknown`` included),
1 a certificate failed re-validation under --verify (the report is still
written), 2 input error, including an --out path that is empty or cannot
be written, which is rejected before any work (no report is written), 3 no
definite answer within the horizon or cost cap while --require-definite was
set (the report is still written), 4 a scan or table surfaced a
counterexample or discrepancy (never silently ignored).

Each command returns its report as (config, body, exit code); ``main``
alone writes it, to stdout unless --out is given.  JSON outputs embed the
effective configuration under "config"; CSV outputs carry it as a leading
``#`` comment; plain outputs echo it to stderr after the report.  Plain
verdicts are coloured only on a terminal stdout.  The only environment
variable consulted is NO_COLOR.

The coefficient list of ``check``, ``oracle-check`` and ``gen`` is put
into text once per report: the request's own text when every field is
already canonical decimal (0 or [1-9][0-9]*, one regular-expression match),
else one str() of each value.  Every place the list appears is written from
that text (the JSON body and config, the CSV row and its ``# config:``
echo, the plain ``[..]`` and its echo), byte for byte as writing the list
itself gives, so a long request costs no Python step per coefficient there.

``main(argv)`` may be called any number of times in one process.  The
argument parser is built on the first call, not on import, and reused;
each call parses into a fresh namespace, so no option carries over from
one call to the next.  Every call sets the process-wide int-digit limit to
0, since terms of many thousands of digits are printed in full.  Importing
this module runs ``core`` alone: every other layer of the package loads on
its first use (see ``plrs``), and ``json`` and ``fractions`` load in the one
function each that needs them, so a command compiles only what it calls.

A call whose first argument is a command name is read straight from the
arguments declared for that command, when each later argument is an exact
option name, the value such an option takes, or the next positional, and
every value passes its type and choices.  Any other call (no arguments, -h,
an unknown command, "--", an abbreviated option, --opt=value, a negative
number, a bad or missing value, a positional left over or missing) goes
through the top-level parser, so every usage, help and error text and every
exit code is the one argparse writes.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import re
import sys

from . import analytic, brown, families, oracle
from .core import Coefficients, InvalidCoefficients, generate_terms, validate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EXHAUSTED = 3
EXIT_COUNTEREXAMPLE = 4

# The keys of families.FAMILIES, spelled out so that building the parser does
# not load families (a test holds the two equal).
_FAMILY_NAMES = ("one-zeros", "ones-zeros", "two-ones-zeros", "one-zeros-ones")


# Comma-separated fields that are each 0 or [1-9][0-9]*: the text str() gives.
_CANONICAL = re.compile(r"(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*")


def _parse_coefficients(text: str) -> tuple[Coefficients, str]:
    # The vector and its canonical text "c_1,...,c_L", from which the report
    # writes the list everywhere: the request's own text when it is already
    # canonical, else one str() pass.  validate() reads each field with one
    # int(), which skips blanks, "+", "_" and leading zeros; a field it
    # rejects is an error, an empty one named first.  Shape errors pass.
    fields = text.split(",")
    try:
        c = validate(fields)
    except InvalidCoefficients:
        raise
    except ValueError:
        if any(not p.strip() for p in fields):
            raise ValueError(f"empty field in coefficients {text!r}") from None
        raise ValueError(f"coefficients must be comma-separated integers, got {text!r}") from None
    return c, text if _CANONICAL.fullmatch(text) else ",".join(map(str, c.values))


def _parse_range(text: str) -> range:
    # "3" or "1..6", inclusive; "3..1" is rejected, not read as empty.  argparse
    # prints the message of an ArgumentTypeError, not of a ValueError.
    try:
        if ".." in text:
            a, b = text.split("..", 1)
            r = range(int(a), int(b) + 1)
        else:
            v = int(text)
            r = range(v, v + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or A..B, got {text!r}")
    if not r:
        raise argparse.ArgumentTypeError(f"expected A..B with A <= B, got {text!r}")
    return r


def _tolerance(tol: float | None) -> Fraction:
    # --tol of min-root and dense; a float that underflows to 0.0 is rejected too.
    from fractions import Fraction

    if tol is None:
        return analytic.DEFAULT_TOL
    if not 0 < tol < float("inf"):
        raise ValueError(f"--tol: tolerance must be positive and finite, got {tol}")
    return Fraction(tol)


def _check_out(out: str) -> None:
    # Runs before the command, so an --out that open() would reject costs no
    # work; it only inspects the path, never creating or truncating a file.
    if not out:
        raise ValueError("--out: empty path")
    if os.path.isdir(out):
        raise ValueError(f"--out {out}: is a directory")
    if os.path.exists(out):
        target = out
    else:
        target = os.path.dirname(out) or "."
        if not os.path.isdir(target):
            raise ValueError(f"--out {out}: no such directory: {target}")
    if not os.access(target, os.W_OK):
        raise ValueError(f"--out {out}: permission denied")


@functools.cache  # built for the first report, not on import
def _encode():
    # json.dumps(obj, sort_keys=True) without a new encoder per call.
    import json

    return json.JSONEncoder(sort_keys=True).encode


def _write(config: dict, body: dict | str, fmt: str, out: str | None) -> None:
    # The one writer of every report; config is serialised once.  The
    # "coefficients" of check, oracle-check and gen, in config and in a JSON
    # body, hold the list's canonical text (_parse_coefficients), which the
    # encoder writes as a string; that string becomes the list here, in one
    # replace over the encoded report.  No other string value can match it:
    # the key is written only for these, and a quote inside a value is
    # escaped.
    text = _encode()({**body, "config": config} if fmt == "json" else config)
    if (listed := config.get("coefficients")) is not None:
        text = text.replace(f'"coefficients": "{listed}"',
                            f'"coefficients": [{listed.replace(",", ", ")}]')
    if fmt != "json":
        echo = f"# config: {text}"
        text = f"{echo}\n{body}" if fmt == "csv" else body
    if out is not None:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if fmt == "plain":
        print(echo, file=sys.stderr)


def _color(kind: str, out: str | None) -> str:
    # Only a terminal stdout is coloured, never an --out file.
    if out is not None or os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return kind
    codes = {brown.COMPLETE: "32", brown.INCOMPLETE: "31", brown.UNKNOWN: "33"}
    return f"\x1b[{codes.get(kind, '0')}m{kind}\x1b[0m"


def _finish(verdict: brown.Verdict, config: dict, args) -> tuple[dict, dict | str, int]:
    # Shared tail of check and oracle-check: optional re-check, report, exit
    # code.  config["coefficients"] is the list's canonical text.
    if args.verify:
        config["verified"] = brown.recheck(verdict)
        if not config["verified"]:
            print(f"certificate failed re-validation: {verdict}", file=sys.stderr)
    listed = config["coefficients"]
    body = verdict.to_json_dict()
    body["coefficients"] = listed
    index = body["index"]
    if args.format == "csv":
        body = (
            "coefficients,kind,certificate,index,conjectural,horizon_used\n"
            f"{listed.replace(',', ';')},{body['kind']},"
            f"{body['certificate']},{'' if index is None else index},"
            f"{str(body['conjectural']).lower()},{body['horizon_used']}"
        )
    elif args.format == "plain":
        bits = [f"[{listed}]", _color(verdict.kind, args.out),
                f"certificate={body['certificate']}"]
        if index is not None:
            bits.append(f"index={index}")
        if verdict.conjectural:
            bits.append("conjectural")
        body = " ".join(bits)
    if config.get("verified") is False:
        return config, body, 1
    return config, body, EXIT_EXHAUSTED if verdict.kind == brown.UNKNOWN else EXIT_OK


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args) -> tuple[dict, dict | str, int]:
    c, listed = _parse_coefficients(args.coefficients)
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    t = generate_terms(c, args.n)
    config = {"command": "gen", "coefficients": listed, "n": args.n, "format": args.format}
    if args.format == "json":
        body = {"coefficients": listed, "terms": list(t.terms)}
    elif args.format == "csv":
        body = "n,term\n" + "\n".join(f"{i},{h}" for i, h in enumerate(t.terms, start=1))
    else:
        body = " ".join(str(h) for h in t.terms)
    return config, body, EXIT_OK


# ---------------------------------------------------------------------------
# check / oracle-check


def _cmd_check(args) -> tuple[dict, dict | str, int]:
    c, listed = _parse_coefficients(args.coefficients)
    config = {
        "command": "check",
        "coefficients": listed,
        "horizon": args.horizon,
        "assume_2l1": args.assume_2l1,
        "triage_first": args.triage_first,
        "format": args.format,
        "path": [],
    }
    verdict = None
    if args.triage_first and c.L >= 2:
        config["path"].append("triage")
        verdict = analytic.triage(c)
        if verdict.kind == brown.UNKNOWN:
            verdict = None
    if verdict is None:
        config["path"].append("brown")
        verdict = brown.check_completeness(c, horizon=args.horizon, assume_2l1=args.assume_2l1)
    return _finish(verdict, config, args)


def _cmd_oracle_check(args) -> tuple[dict, dict | str, int]:
    c, listed = _parse_coefficients(args.coefficients)
    max_prefix = max(4 * c.L, 32) if args.max_prefix is None else args.max_prefix
    config = {"command": "oracle-check", "coefficients": listed,
              "max_prefix": max_prefix, "format": args.format}
    return _finish(oracle.oracle_verdict(c, max_prefix), config, args)


# ---------------------------------------------------------------------------
# family-table


def _cmd_family_table(args) -> tuple[dict, str, int]:
    shape_of = families.FAMILIES[args.family]
    params = shape_of.__slots__
    missing = [p for p in params if getattr(args, p) is None]
    if missing:
        flags = ", ".join(f"--{p}" for p in missing)
        raise ValueError(f"family {args.family!r} needs {flags} (e.g. --{missing[0]} 1..4)")
    config = {"command": "family-table", "family": args.family,
              "g": [args.g.start, args.g.stop - 1] if args.g else None,
              "k": [args.k.start, args.k.stop - 1] if args.k else None,
              "L": [args.L.start, args.L.stop - 1] if args.L else None,
              "m": [args.m.start, args.m.stop - 1] if args.m else None,
              "horizon": args.horizon}
    lines = ["family,g,k,L,m,max_n_rule,proven,max_n_search,agree"]
    discrepancies = undecided = 0
    for values in itertools.product(*(getattr(args, p) for p in params)):
        shape = shape_of(*values)
        try:
            prefix = shape.prefix()
        except families.ShapeViolation:
            continue  # the ranges' grid holds pairs with no family member
        try:
            b = shape.bound()
        except families.OutOfProvenRange:
            b = None
        except families.ShapeViolation:
            validate([*prefix, 1])  # an invalid vector is named before its bound
            raise
        found = families.max_last(prefix, args.horizon)  # validates the row's vector
        agree = "" if b is None or found is None else str(b.max_n == found).lower()
        discrepancies += agree == "false"
        undecided += found is None
        lines.append(
            f"{args.family},{getattr(shape, 'g', '')},{getattr(shape, 'k', '')},{len(prefix) + 1},"
            f"{getattr(shape, 'm', '')},{b.max_n if b else ''},"
            f"{str(b.proven).lower() if b else ''},{'?' if found is None else found},{agree}"
        )
    if discrepancies:
        lines.append(f"# discrepancies: {discrepancies}")
        return config, "\n".join(lines), EXIT_COUNTEREXAMPLE
    return config, "\n".join(lines), EXIT_EXHAUSTED if undecided else EXIT_OK


# ---------------------------------------------------------------------------
# scan-2l1


def _check_jobs(jobs: int) -> int:
    # --jobs is validated and echoed, but both searches run serially: a
    # worker pool lost to one process at every size measured.
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _cmd_scan_2l1(args) -> tuple[dict, dict | str, int]:
    L = args.L
    if L < 1 or args.coeff_cap < 1:
        raise ValueError("need --L >= 1 and --coeff-cap >= 1")
    if args.window is not None and args.window < 1:
        raise ValueError(f"--window must be >= 1, got {args.window}")
    window = 2 * L - 1 if args.window is None else args.window
    config = {"command": "scan-2l1", "L": L, "coeff_cap": args.coeff_cap,
              "window": window, "horizon": args.horizon, "jobs": _check_jobs(args.jobs),
              "format": args.format}
    candidates = args.coeff_cap ** min(L, 2) * (args.coeff_cap + 1) ** max(L - 2, 0)
    counterexamples, undecided = [], []
    for verdict in brown.window_scan(L, args.coeff_cap, window, args.horizon):
        values = list(verdict.coefficients.values)
        if verdict.kind == brown.INCOMPLETE:
            counterexamples.append({"coefficients": values, "status": "counterexample",
                                    "first_failure": verdict.certificate.index})
        elif verdict.kind == brown.UNKNOWN:
            undecided.append({"coefficients": values, "status": "undecided"})
    report = {
        "candidates": candidates,
        "window": window,
        "counterexamples": counterexamples,
        "undecided": undecided,
    }
    if args.format == "plain":
        report = "\n".join([
            f"scanned {candidates} vectors (L={L}, cap={args.coeff_cap}, window={window}): "
            f"{len(counterexamples)} counterexample(s), {len(undecided)} undecided",
            *(f"  fails at {r['first_failure']}: {r['coefficients']}" for r in counterexamples),
        ])
    if counterexamples:
        print(
            f"counterexample(s) found for window {window} at L={L}; "
            "see report for coefficient vectors",
            file=sys.stderr,
        )
        return config, report, EXIT_COUNTEREXAMPLE
    return config, report, EXIT_EXHAUSTED if undecided else EXIT_OK


# ---------------------------------------------------------------------------
# min-root


def _cmd_min_root(args) -> tuple[dict, dict | str, int]:
    L, cap = args.L, args.sum_cap
    if L < 2 or cap < 2:
        raise ValueError("need --L >= 2 and --sum-cap >= 2")
    tol = _tolerance(args.tol)
    config = {"command": "min-root", "L": L, "sum_cap": cap, "jobs": _check_jobs(args.jobs),
              "tol": float(tol), "format": args.format}
    complete, undecided, found = analytic.least_incomplete_root(L, cap, tol)
    candidates = math.comb(cap - 2 + L, L)
    lam = analytic.lambda_threshold(L, tol)
    best, best_bracket = found or (None, None)
    violated = best_bracket is not None and analytic.compare_roots(best_bracket, lam.root) < 0
    report = {
        "candidates": candidates,
        "incomplete": candidates - complete - len(undecided),
        "undecided": [list(c.values) for c in undecided],
        "lambda": lam.root.approx,
        "frontier": list(best.values) if best else None,
        "frontier_root": best_bracket.approx if best_bracket else None,
        "margin": (best_bracket.approx - lam.root.approx) if best_bracket else None,
        "conjecture_violated": violated,
    }
    if args.format == "plain":
        report = "\n".join([
            f"L={L} cap={cap}: {report['incomplete']} incomplete of {candidates}, "
            f"{len(undecided)} undecided; frontier {report['frontier']} "
            f"root={report['frontier_root']} vs lambda={report['lambda']} "
            f"margin={report['margin']}",
            *(f"  undecided: {v}" for v in report["undecided"]),
        ])
    if violated:
        print("frontier root lies below the lambda threshold: conjecture "
              "counterexample; report retained", file=sys.stderr)
        return config, report, EXIT_COUNTEREXAMPLE
    return config, report, EXIT_EXHAUSTED if undecided else EXIT_OK


# ---------------------------------------------------------------------------
# dense


def _cmd_dense(args) -> tuple[dict, str, int]:
    if args.L < 2:
        raise ValueError("need --L >= 2")
    tol = _tolerance(args.tol)
    config = {"command": "dense", "L": args.L, "epsilon": args.epsilon,
              "tol": float(tol)}
    try:
        report = analytic.denseness_scan(args.L, epsilon=args.epsilon, tol=tol)
    except analytic.CostCap as exc:
        return config, f"k,root\n# cost_cap: {exc}", EXIT_EXHAUSTED
    lines = ["k,root", *map("%d,%.12f".__mod__, report.roots)]
    gap = "none" if report.max_gap is None else f"{report.max_gap:.12f} at k={report.max_gap_at}"
    covered = "none" if report.covered is None else "[{:.12f}, {:.12f}]".format(*report.covered)
    lines += [
        f"# max_gap: {gap}",
        f"# covered: {covered}",
        f"# increasing_certified: {report.increasing_certified}",
        f"# gaps_decreasing_certified: {report.gaps_decreasing_certified}",
        f"# terminal_root_exact_two: {report.terminal_root_exact_two}",
    ]
    if args.epsilon is not None:
        lines.append(f"# epsilon_met: {report.epsilon_met}")
    return config, "\n".join(lines), EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    # argparse quotes each choice in its invalid-choice error through 3.13.0
    # and not in later releases; this is that text on every version.
    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")


@functools.cache  # built on the first main() call, not on import
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="plrs",
        description="Completeness toolkit for positive linear recurrence sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}  # name -> (defaults, options, positionals), for _read

    def command(name, func, help):
        # Adds the command's parser and returns add: add_argument on it, which
        # also files the action it returns under the command's name.
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        defaults, options, positionals = parser.commands[name] = (
            {"command": name, "func": func}, {}, [])

        def add(*args, **kwargs):
            action = p.add_argument(*args, **kwargs)
            defaults[action.dest] = action.default
            options.update(dict.fromkeys(action.option_strings, action))
            if not action.option_strings:
                positionals.append(action)

        return add

    def common(add, formats=("json", "csv", "plain"), default="json", definite=True):
        add("--format", choices=formats, default=default)
        add("--out", help="write output to a file instead of stdout")
        if definite:
            add("--require-definite", action="store_true",
                help="exit 3 when no definite verdict is reached")

    add = command("gen", _cmd_gen, "generate exact sequence terms")
    add("coefficients", help="comma-separated, e.g. 1,0,3")
    add("--n", type=int, required=True, help="number of terms")
    common(add, default="plain", definite=False)

    add = command("check", _cmd_check, "completeness verdict with certificate")
    add("coefficients")
    add("--horizon", type=int, default=None, help="explicit scan horizon (default: adaptive)")
    add("--assume-2l1", action="store_true", help="accept the conjectural 2L-1 window rule")
    add("--triage-first", action="store_true", help="try the root triage before gap arithmetic")
    add("--verify", action="store_true", help="re-validate the certificate from scratch")
    common(add)

    add = command("oracle-check", _cmd_oracle_check, "verdict with a subset-sum witness")
    add("coefficients")
    add("--max-prefix", type=int, default=None)
    add("--verify", action="store_true", help="re-validate the certificate from scratch")
    common(add)

    add = command("family-table", _cmd_family_table, "closed-form bounds vs engine search")
    add("--family", required=True, choices=_FAMILY_NAMES, metavar="FAMILY",
        help="one of " + ", ".join(_FAMILY_NAMES))
    add("--g", type=_parse_range, default=None, help="range of leading ones, A..B")
    add("--k", type=_parse_range, default=None, help="range of zeros, A..B")
    add("--L", type=_parse_range, default=None, help="range of total lengths, A..B")
    add("--m", type=_parse_range, default=None, help="range of trailing ones, A..B")
    add("--horizon", type=int, default=None)
    common(add, formats=("csv",), default="csv")

    add = command("scan-2l1", _cmd_scan_2l1, "hunt counterexamples to the 2L-1 window rule")
    add("--L", type=int, required=True)
    add("--coeff-cap", type=int, required=True)
    add("--window", type=int, default=None,
        help="override the pass-window length (default 2L-1)")
    add("--horizon", type=int, default=None)
    add("--jobs", type=int, default=1)
    common(add, formats=("json", "plain"))

    add = command("min-root", _cmd_min_root, "least incomplete principal root vs lambda")
    add("--L", type=int, required=True)
    add("--sum-cap", type=int, required=True)
    add("--tol", type=float, default=None)
    add("--jobs", type=int, default=1)
    common(add, formats=("json", "plain"))

    add = command("dense", _cmd_dense, "root sweep of the sparse family")
    add("--L", type=int, required=True)
    add("--epsilon", type=float, default=None)
    add("--tol", type=float, default=None)
    common(add, formats=("csv",), default="csv")

    return parser


def _read(commands: dict, argv: list[str]) -> argparse.Namespace | None:
    # The namespace parse_args(argv) gives a well-formed call to a command,
    # read from the actions declared for it: each token is an exact option
    # (one that takes a value takes the next token, which must not start
    # with "-") or fills the next positional.  None on anything else, for
    # parse_args to decide: -h, "--", an abbreviation, --opt=value, a
    # negative number, a value its type or choices reject, a positional
    # left over or unfilled, a required option missing.
    if not argv or argv[0] not in commands:
        return None
    defaults, options, positionals = commands[argv[0]]
    values, seen, pending, tokens = dict(defaults), set(), iter(positionals), iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None:
            if token.startswith("-") or (action := next(pending, None)) is None:
                return None
        elif action.nargs == 0:
            values[action.dest] = action.const
            seen.add(action)
            continue
        elif (token := next(tokens, "-")).startswith("-"):
            return None
        try:
            value = token if action.type is None else action.type(token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        seen.add(action)
    if next(pending, None) or any(a.required and a not in seen for a in options.values()):
        return None
    args = argparse.Namespace()
    vars(args).update(values)  # what Namespace(**values) sets, at a third of its cost
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    # The namespace _build_parser().parse_args(argv) gives, or its exit.
    parser = _build_parser()
    return _read(parser.commands, argv) or parser.parse_args(argv)


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # terms grow geometrically; never truncate
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        if args.out is not None:
            _check_out(args.out)
        config, body, code = args.func(args)
        _write(config, body, args.format, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # gen never returns 3, so only commands with --require-definite reach it.
    if code == EXIT_EXHAUSTED and not args.require_definite:
        return EXIT_OK
    return code


if __name__ == "__main__":
    sys.exit(main())
