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

Exit codes: 0 a report was written (of any kind, ``unknown`` included),
1 a certificate failed re-validation under --verify (the report is still
written), 2 input error, including an --out file that cannot be written,
which is rejected before any work (no report is written), 3 no definite
answer within the horizon or cost cap while --require-definite was set (the
report is still written), 4 a scan or table surfaced a counterexample or
discrepancy (never silently ignored).

Each command returns its report as (config, body, exit code); ``main``
alone writes it, to stdout unless --out is given.  JSON outputs embed the
effective configuration under "config"; CSV outputs carry it as a leading
``#`` comment; plain outputs echo it to stderr after the report.  Plain
verdicts are coloured only on a terminal stdout.  The only environment
variable consulted is NO_COLOR.

``main(argv)`` may be called any number of times in one process.  The
argument parser is built on the first call, not on import, and reused;
each call parses into a fresh namespace, so no option carries over from
one call to the next.  Every call sets the process-wide int-digit limit to
0, since terms of many thousands of digits are printed in full.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from typing import Optional

from . import analytic, brown, core, families, oracle
from .core import Coefficients, generate_terms, validate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EXHAUSTED = 3
EXIT_COUNTEREXAMPLE = 4


def _parse_coefficients(text: str) -> Coefficients:
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [int(p) for p in parts if p != ""]
    except ValueError:
        raise ValueError(f"coefficients must be comma-separated integers, got {text!r}")
    if not values:
        raise ValueError("empty coefficient vector")
    return validate(values)


def _parse_range(text: str) -> range:
    # "3" or "1..6", inclusive; "3..1" is rejected, not read as empty.
    try:
        if ".." in text:
            a, b = text.split("..", 1)
            r = range(int(a), int(b) + 1)
        else:
            v = int(text)
            r = range(v, v + 1)
    except ValueError:
        raise ValueError(f"expected N or A..B, got {text!r}")
    if not r:
        raise ValueError(f"expected A..B with A <= B, got {text!r}")
    return r


_parse_range.__name__ = "range"  # argparse uses this in usage errors


def _tolerance(tol: Optional[float]) -> Fraction:
    # --tol of min-root and dense; a float that underflows to 0.0 is rejected too.
    if tol is None:
        return analytic.DEFAULT_TOL
    if not 0 < tol < float("inf"):
        raise ValueError(f"--tol: tolerance must be positive and finite, got {tol}")
    return Fraction(tol)


def _check_out(out: str) -> None:
    # Runs before the command, so an --out that open() would reject costs no
    # work; it only inspects the path, never creating or truncating a file.
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


def _write(config: dict, body: dict | str, fmt: str, out: Optional[str]) -> None:
    # The one writer of every report; config is serialised once.
    if fmt == "json":
        text = json.dumps({**body, "config": config}, sort_keys=True)
    else:
        echo = f"# config: {json.dumps(config, sort_keys=True)}"
        text = f"{echo}\n{body}" if fmt == "csv" else body
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if fmt == "plain":
        print(echo, file=sys.stderr)


def _color(kind: str, out: Optional[str]) -> str:
    # Only a terminal stdout is coloured, never an --out file.
    if out or os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return kind
    codes = {brown.COMPLETE: "32", brown.INCOMPLETE: "31", brown.UNKNOWN: "33"}
    return f"\x1b[{codes.get(kind, '0')}m{kind}\x1b[0m"


def _finish(verdict: brown.Verdict, config: dict, args) -> tuple[dict, dict | str, int]:
    # Shared tail of check and oracle-check: optional re-check, report, exit code.
    if args.verify:
        config["verified"] = brown.recheck(verdict)
        if not config["verified"]:
            print(f"certificate failed re-validation: {verdict}", file=sys.stderr)
    body = verdict.to_json_dict()
    index = body["index"]
    if args.format == "csv":
        body = (
            "coefficients,kind,certificate,index,conjectural,horizon_used\n"
            f"{';'.join(str(v) for v in body['coefficients'])},{body['kind']},"
            f"{body['certificate']},{'' if index is None else index},"
            f"{str(body['conjectural']).lower()},{body['horizon_used']}"
        )
    elif args.format == "plain":
        bits = [str(verdict.coefficients), _color(verdict.kind, args.out),
                f"certificate={body['certificate']}"]
        if index is not None:
            bits.append(f"index={index}")
        if verdict.conjectural:
            bits.append("conjectural")
        if verdict.note:
            bits.append(f"({verdict.note})")
        body = " ".join(bits)
    if config.get("verified") is False:
        return config, body, 1
    return config, body, EXIT_EXHAUSTED if verdict.kind == brown.UNKNOWN else EXIT_OK


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args) -> tuple[dict, dict | str, int]:
    c = _parse_coefficients(args.coefficients)
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    t = generate_terms(c, args.n)
    config = {"command": "gen", "coefficients": list(c.values), "n": args.n,
              "format": args.format}
    if args.format == "json":
        body = {"coefficients": list(c.values), "terms": list(t.terms)}
    elif args.format == "csv":
        body = "n,term\n" + "\n".join(f"{i},{h}" for i, h in enumerate(t.terms, start=1))
    else:
        body = " ".join(str(h) for h in t.terms)
    return config, body, EXIT_OK


# ---------------------------------------------------------------------------
# check / oracle-check


def _cmd_check(args) -> tuple[dict, dict | str, int]:
    c = _parse_coefficients(args.coefficients)
    config = {
        "command": "check",
        "coefficients": list(c.values),
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
    c = _parse_coefficients(args.coefficients)
    max_prefix = max(4 * c.L, 32) if args.max_prefix is None else args.max_prefix
    config = {"command": "oracle-check", "coefficients": list(c.values),
              "max_prefix": max_prefix, "format": args.format}
    return _finish(oracle.oracle_verdict(c, max_prefix), config, args)


# ---------------------------------------------------------------------------
# family-table


def _cmd_family_table(args) -> tuple[dict, str, int]:
    shape_of = families.FAMILIES[args.family]
    params = [f.name for f in dataclasses.fields(shape_of)]
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
            first = shape.coefficients(1)
        except families.ShapeViolation:
            continue  # the ranges' grid holds pairs with no family member
        try:
            b = shape.bound()
        except families.OutOfProvenRange:
            b = None
        found = families.max_last(first.values[:-1], args.horizon)
        agree = "" if b is None or found is None else str(b.max_n == found).lower()
        discrepancies += agree == "false"
        undecided += found is None
        lines.append(
            f"{args.family},{getattr(shape, 'g', '')},{getattr(shape, 'k', '')},{first.L},"
            f"{getattr(shape, 'm', '')},{b.max_n if b else ''},"
            f"{str(b.proven).lower() if b else ''},{'?' if found is None else found},{agree}"
        )
    if discrepancies:
        lines.append(f"# discrepancies: {discrepancies}")
        return config, "\n".join(lines), EXIT_COUNTEREXAMPLE
    return config, "\n".join(lines), EXIT_EXHAUSTED if undecided else EXIT_OK


# ---------------------------------------------------------------------------
# scan-2l1


def _scan_2l1_one(c: Coefficients, horizon: Optional[int]):
    # c already passes the window (brown.window_survivors).
    verdict = brown.check_completeness(c, horizon=horizon)
    if verdict.kind == brown.UNKNOWN:
        verdict = brown.check_completeness(c, horizon=max(4 * c.L, 32) + 1)
    if verdict.kind == brown.INCOMPLETE:
        return {"coefficients": list(c.values), "status": "counterexample",
                "first_failure": verdict.certificate.index}
    if verdict.kind == brown.UNKNOWN:
        return {"coefficients": list(c.values), "status": "undecided"}
    return None


def _run_parallel(worker, tasks, jobs: int):
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(tasks) < 64:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks, chunksize=max(1, len(tasks) // (jobs * 8))))


def _cmd_scan_2l1(args) -> tuple[dict, dict | str, int]:
    L = args.L
    if L < 1 or args.coeff_cap < 1:
        raise ValueError("need --L >= 1 and --coeff-cap >= 1")
    if args.window is not None and args.window < 1:
        raise ValueError(f"--window must be >= 1, got {args.window}")
    window = 2 * L - 1 if args.window is None else args.window
    config = {"command": "scan-2l1", "L": L, "coeff_cap": args.coeff_cap,
              "window": window, "horizon": args.horizon, "jobs": args.jobs,
              "format": args.format}
    edge, inner = range(1, args.coeff_cap + 1), range(args.coeff_cap + 1)
    ranges = [edge] if L == 1 else [edge, *[inner] * (L - 2), edge]
    candidates = math.prod(len(r) for r in ranges)
    tasks = list(brown.window_survivors(ranges, window))
    worker = functools.partial(_scan_2l1_one, horizon=args.horizon)
    results = [r for r in _run_parallel(worker, tasks, args.jobs) if r]  # in task order
    counterexamples = [r for r in results if r["status"] == "counterexample"]
    undecided = [r for r in results if r["status"] == "undecided"]
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
    config = {"command": "min-root", "L": L, "sum_cap": cap, "jobs": args.jobs,
              "tol": float(tol), "format": args.format}
    tasks = [c for total in range(2, cap + 1) for c in core.vectors_with_sum(L, total)]
    kinds = [v.kind for v in _run_parallel(brown.check_completeness, tasks, args.jobs)]
    incomplete = sorted((c for c, kind in zip(tasks, kinds) if kind == brown.INCOMPLETE),
                        key=lambda c: c.values)
    undecided = [list(c.values) for c, kind in zip(tasks, kinds) if kind == brown.UNKNOWN]
    lam = analytic.lambda_threshold(L, tol)
    best_c, best_bracket = analytic.least_root(incomplete, tol) or (None, None)
    best = list(best_c.values) if best_c is not None else None
    violated = best_bracket is not None and analytic.compare_roots(best_bracket, lam.root) < 0
    report = {
        "candidates": len(tasks),
        "incomplete": len(incomplete),
        "undecided": undecided,
        "lambda": lam.root.approx,
        "frontier": best,
        "frontier_root": best_bracket.approx if best_bracket else None,
        "margin": (best_bracket.approx - lam.root.approx) if best_bracket else None,
        "conjecture_violated": violated,
    }
    if args.format == "plain":
        report = (
            f"L={L} cap={cap}: {len(incomplete)} incomplete of {len(tasks)}; "
            f"frontier {best} root={report['frontier_root']} vs lambda={report['lambda']} "
            f"margin={report['margin']}"
        )
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
    lines = ["k,root", *(f"{k},{root:.12f}" for k, root in report.roots)]
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


@functools.cache  # built on the first main() call, not on import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plrs",
        description="Completeness toolkit for positive linear recurrence sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "csv", "plain"), default="json", definite=True):
        p.add_argument("--format", choices=formats, default=default)
        p.add_argument("--out", help="write output to a file instead of stdout")
        if definite:
            p.add_argument("--require-definite", action="store_true",
                           help="exit 3 when no definite verdict is reached")

    p = sub.add_parser("gen", help="generate exact sequence terms")
    p.add_argument("coefficients", help="comma-separated, e.g. 1,0,3")
    p.add_argument("--n", type=int, required=True, help="number of terms")
    common(p, default="plain", definite=False)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="completeness verdict with certificate")
    p.add_argument("coefficients")
    p.add_argument("--horizon", type=int, default=None,
                   help="explicit scan horizon (default: adaptive)")
    p.add_argument("--assume-2l1", action="store_true",
                   help="accept the conjectural 2L-1 window rule")
    p.add_argument("--triage-first", action="store_true",
                   help="try the root triage before gap arithmetic")
    p.add_argument("--verify", action="store_true",
                   help="re-validate the certificate from scratch")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle-check", help="verdict with a subset-sum witness")
    p.add_argument("coefficients")
    p.add_argument("--max-prefix", type=int, default=None)
    p.add_argument("--verify", action="store_true",
                   help="re-validate the certificate from scratch")
    common(p)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("family-table", help="closed-form bounds vs engine search")
    p.add_argument("--family", required=True, choices=list(families.FAMILIES))
    p.add_argument("--g", type=_parse_range, default=None, help="range of leading ones, A..B")
    p.add_argument("--k", type=_parse_range, default=None, help="range of zeros, A..B")
    p.add_argument("--L", type=_parse_range, default=None, help="range of total lengths, A..B")
    p.add_argument("--m", type=_parse_range, default=None, help="range of trailing ones, A..B")
    p.add_argument("--horizon", type=int, default=None)
    common(p, formats=("csv",), default="csv")
    p.set_defaults(func=_cmd_family_table)

    p = sub.add_parser("scan-2l1", help="hunt counterexamples to the 2L-1 window rule")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--coeff-cap", type=int, required=True)
    p.add_argument("--window", type=int, default=None,
                   help="override the pass-window length (default 2L-1)")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    common(p, formats=("json", "plain"))
    p.set_defaults(func=_cmd_scan_2l1)

    p = sub.add_parser("min-root", help="least incomplete principal root vs lambda")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--sum-cap", type=int, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    common(p, formats=("json", "plain"))
    p.set_defaults(func=_cmd_min_root)

    p = sub.add_parser("dense", help="root sweep of the sparse family")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    common(p, formats=("csv",), default="csv")
    p.set_defaults(func=_cmd_dense)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # terms grow geometrically; never truncate
    args = _build_parser().parse_args(argv)
    try:
        if args.out:
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
