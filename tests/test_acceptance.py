"""Acceptance gate: eleven end-to-end criteria, one test and one printed
PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the gate lines
and timings.  Every expected value here is either recomputed by an
independent method inside the test (enumeration, closed forms, exact sign
evaluation) or frozen from such a computation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from typing import Optional

import plrs
from plrs import (
    COMPLETE,
    INCOMPLETE,
    UNKNOWN,
    bound_one_zeros,
    bound_ones_zeros,
    check_completeness,
    compare_roots,
    denseness_scan,
    exact_threshold_search,
    generate_terms,
    lambda_threshold,
    oracle_verdict,
    principal_root,
    reachable_sums,
    recheck,
    root_order_gap,
    triage,
    validate,
)
from helpers import all_vectors, quadratic_root


def gate(name: str, ok: bool, started: float, budget_s: Optional[float], detail: str = ""):
    # A criterion whose budget is not time (budget_s None) states it in `ok`.
    elapsed = time.monotonic() - started
    in_time = budget_s is None or elapsed < budget_s
    status = "PASS" if ok and in_time else "FAIL"
    shown = "" if budget_s is None else f" / {budget_s:.0f}s budget"
    line = f"[{status}] {name} ({elapsed:.2f}s{shown})"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, f"{name}: {detail}"
    assert in_time, f"{name}: exceeded {budget_s}s budget ({elapsed:.2f}s)"


def subset_sums_agree(verdict) -> bool:
    """Check a definite oracle verdict by subset sums alone.

    A complete verdict's prefix, up to its certificate index m, must reach
    exactly [0, S_m]; an incomplete verdict's witness must re-check
    (``recheck`` reads it off ``reachable_sums``, not off the gaps).
    """
    if verdict.kind == INCOMPLETE:
        return recheck(verdict)
    prefix = generate_terms(verdict.coefficients, verdict.certificate.index)
    return reachable_sums(prefix) == (1 << (sum(prefix.terms) + 1)) - 1


def confirmed_verdict(values, max_prefix=None):
    """Engine verdict cross-checked by the subset-sum oracle."""
    c = validate(values)
    engine = check_completeness(c)
    horizon = max_prefix or max(2 * c.L + 2, (engine.certificate.index or 0) + 1)
    orc = oracle_verdict(c, max_prefix=horizon)
    assert engine.kind != UNKNOWN and orc.kind != UNKNOWN, values
    assert engine.kind == orc.kind, f"engine/oracle split on {values}"
    assert subset_sums_agree(orc), f"subset sums contradict {values}"
    return engine.kind


def test_criterion_01_family_bound_reproduction():
    started = time.monotonic()
    expected = (2, 3, 5, 8, 11, 14, 18)
    bounds = tuple(bound_one_zeros(k).max_n for k in range(7))
    ok = bounds == expected
    for k in range(7):
        member = [1] + [0] * k
        ok = ok and confirmed_verdict(member + [bounds[k]]) == COMPLETE
        ok = ok and confirmed_verdict(member + [bounds[k] + 1]) == INCOMPLETE
    gate("criterion 1: sparse-family bounds (2,3,5,8,11,14,18) confirmed both ways",
         ok, started, 5, detail=str(bounds))


def test_criterion_02_ones_zeros_table_exact():
    started = time.monotonic()

    def is_complete(vals) -> bool:
        v = check_completeness(validate(vals))
        assert v.kind != UNKNOWN, vals
        return v.kind == COMPLETE

    def searched_max_n(prefix) -> int:
        lo, hi = 1, 2
        assert is_complete(prefix + [1])
        while is_complete(prefix + [hi]):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if is_complete(prefix + [mid]):
                lo = mid
            else:
                hi = mid
        return lo

    checked = stabilized = 0
    ok = True
    for k in range(1, 5):
        for g in range(k, 9):
            found = searched_max_n([1] * g + [0] * k)
            formula = bound_ones_zeros(g, k).max_n
            ok = ok and found == formula
            checked += 1
            if g >= k + (k - 1).bit_length():
                ok = ok and found == 2 ** (k + 1) - 1
                stabilized += 1
    gate("criterion 2: ones-zeros bound table matches engine search exactly",
         ok, started, 60, detail=f"{checked} cells, {stabilized} in the stabilized regime")


def test_criterion_03_oracle_engine_agreement_exhaustive():
    started = time.monotonic()
    total = contradictions = unknowns = 0
    for vals in all_vectors(4, 4):
        total += 1
        c = validate(vals)
        engine = check_completeness(c, horizon=4 * c.L, assume_2l1=False)
        orc = oracle_verdict(c, max_prefix=4 * c.L)
        if {engine.kind, orc.kind} == {COMPLETE, INCOMPLETE} or (
            orc.kind != UNKNOWN and not subset_sums_agree(orc)
        ):
            contradictions += 1
            print(f"  contradiction: {vals} engine={engine.kind} oracle={orc.kind}")
        if engine.kind == UNKNOWN or orc.kind == UNKNOWN:
            unknowns += 1
            print(f"  unknown: {vals} engine={engine.kind} oracle={orc.kind}")
    ok = contradictions == 0 and unknowns < total * 0.01
    gate("criterion 3: zero oracle/engine contradictions on L<=4, c_i<=4, "
         "every definite verdict checked by subset sums",
         ok, started, 120,
         detail=f"{total} vectors, {contradictions} contradictions, {unknowns} unknowns")


def test_criterion_04_transform_preservation_exhaustive():
    started = time.monotonic()
    from plrs import append_coeff, decrease_last, merge_last_two

    kinds = {vals: confirmed_verdict(vals) for vals in all_vectors(3, 3)}
    violations = 0
    for vals, kind in kinds.items():
        c = validate(vals)
        if kind == INCOMPLETE:
            for extra in (1, 2, 3):
                if confirmed_verdict(append_coeff(c, extra).output.values) != INCOMPLETE:
                    violations += 1
                    print(f"  append violation: {vals} + {extra}")
            if c.L >= 2:
                if confirmed_verdict(merge_last_two(c).output.values) != INCOMPLETE:
                    violations += 1
                    print(f"  merge violation: {vals}")
        else:
            for k_last in range(1, vals[-1] + 1):
                if confirmed_verdict(decrease_last(c, k_last).output.values) != COMPLETE:
                    violations += 1
                    print(f"  decrease violation: {vals} -> {k_last}")
    gate("criterion 4: transforms preserve (in)completeness with zero violations",
         violations == 0, started, 30, detail=f"{len(kinds)} input vectors")


def test_criterion_05_failure_index_law():
    started = time.monotonic()
    ok = True
    for k in range(1, 11):
        ok = ok and check_completeness(validate([1] * k + [0, 4])).certificate.index == 2 * k + 3
        ok = ok and check_completeness(validate([1] * k + [0, 3])).kind == COMPLETE
    gate("criterion 5: [1^k,0,4] first fails at 2k+3 and [1^k,0,3] is complete",
         ok, started, 5)


def _matches_printed(value: float, printed: str) -> bool:
    # Compare at the reference's printed precision, one unit in the last
    # place.  The [2,2] reference digit 2.731 is a truncation of
    # 1 + sqrt(3) = 2.73205..., which misses a plain +-0.001 window by 5e-5;
    # at 3-decimal precision the comparison is exact and unambiguous.
    ref = Decimal(printed)
    one_ulp = Decimal(1).scaleb(ref.as_tuple().exponent)
    rounded = Decimal(repr(value)).quantize(ref)
    return abs(rounded - ref) <= one_ulp


def test_criterion_06_root_benchmarks():
    started = time.monotonic()
    cases = [([2, 1], "2.414", (2, 1)), ([2, 2], "2.731", (2, 2)),
             ([1, 3], "2.303", (1, 3)), ([3, 1], "3.303", (3, 1))]
    ok = True
    shown = []
    for coeffs, printed, (b, c) in cases:
        root = principal_root(validate(coeffs), Fraction(1, 10**12)).approx
        ok = ok and _matches_printed(root, printed)
        ok = ok and abs(root - float(quadratic_root(b, c))) < 1e-9
        shown.append(f"{coeffs}={root:.4f}")
    for L in range(2, 11):
        ok = ok and principal_root(validate([1] * (L - 1) + [2])).exact_root == 2
    ok = ok and lambda_threshold(3).root.exact_root == 2
    gate("criterion 6: root benchmarks match references; boundary roots exact",
         ok, started, 5, detail=", ".join(shown))


def test_criterion_07_root_order_properties():
    started = time.monotonic()
    ok = True
    for L in range(2, 24):
        ok = ok and compare_roots(lambda_threshold(L + 1).root, lambda_threshold(L).root) == -1
    for L in range(2, 25):
        point = 1 + Fraction(L + 2, L * L + L + 4)
        ok = ok and lambda_threshold(L).root.poly.eval(point) <= 0
    grid = [(L, k) for L in range(3, 13) for k in (1, 3, 7, 19, 31)]
    assert len(grid) == 50
    for L, k in grid:
        gap1, gap2 = root_order_gap(L, k)
        ok = ok and gap1 > gap2
    gate("criterion 7: thresholds decrease, stay above the rational bound, "
         "and root gaps shrink on a 50-point grid", ok, started, 10)


def test_criterion_08_triage_soundness_and_coverage():
    started = time.monotonic()
    total = resolved = 0
    sound = True
    for vals in all_vectors(4, 4):
        if len(vals) < 2:
            continue
        total += 1
        c = validate(vals)
        t = triage(c)
        if t.kind == UNKNOWN:
            continue
        resolved += 1
        truth = oracle_verdict(c, max_prefix=4 * c.L).kind
        if t.kind == INCOMPLETE and not t.conjectural and truth != INCOMPLETE:
            sound = False
            print(f"  unsound incomplete triage: {vals}")
        if t.kind == COMPLETE and truth == INCOMPLETE:
            sound = False
            print(f"  CONJECTURE COUNTEREXAMPLE: {vals} triaged complete, oracle says incomplete")
    band = triage(validate([1, 1, 1, 0, 4]))
    resolved_downstream = check_completeness(validate([1, 1, 1, 0, 4]), horizon=20)
    ok = sound and band.kind == UNKNOWN and resolved_downstream.kind == INCOMPLETE
    gate("criterion 8: root triage sound against the oracle; band case resolved downstream",
         ok, started, 60,
         detail=f"triage alone resolves {resolved}/{total} ({100 * resolved / total:.1f}%)")


def _run_cli(*argv):
    # The child imports the same plrs as this process, installed or not.
    src = os.path.dirname(os.path.dirname(plrs.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "plrs.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_09_conjecture_scans():
    started = time.monotonic()
    ok = True
    for L in (2, 3):
        code, out, _ = _run_cli("scan-2l1", "--L", str(L), "--coeff-cap", "3", "--jobs", "1")
        report = json.loads(out)
        ok = ok and code == 0 and report["counterexamples"] == []
    # Control: weakening the window to 2L-2 must surface near-misses through
    # the distinguished counterexample exit code.
    near_misses = 0
    for L in (2, 3):
        code, out, _ = _run_cli("scan-2l1", "--L", str(L), "--coeff-cap", "3",
                                "--jobs", "1", "--window", str(2 * L - 2))
        report = json.loads(out)
        near_misses += len(report["counterexamples"])
        if report["counterexamples"]:
            ok = ok and code == 4
    ok = ok and near_misses >= 1
    code, out, _ = _run_cli("min-root", "--L", "2", "--sum-cap", "4", "--jobs", "1")
    report = json.loads(out)
    ok = ok and code == 0 and report["frontier"] == [1, 3]
    ok = ok and report["conjecture_violated"] is False
    gate("criterion 9: window-rule scan clean, weakened control trips exit 4, "
         "min-root frontier is [1,3]", ok, started, 120,
         detail=f"{near_misses} near-miss(es) under the 2L-2 control")


def test_criterion_10_denseness_sweep():
    started = time.monotonic()
    report = denseness_scan(12)
    ok = (
        report.k_min == 40
        and report.k_max == 2048
        and report.increasing_certified
        and report.gaps_decreasing_certified
        and report.terminal_root_exact_two
    )
    gate("criterion 10: 2009 sparse-family roots strictly increase, gaps shrink, "
         "sweep ends exactly at 2", ok, started, 30,
         detail=f"max gap {report.max_gap:.6f} at k={report.max_gap_at}")


def test_criterion_11_threshold_frontier_search():
    # The budget is work, not time: full prefixes reached, each read once for every c_L.
    started = time.monotonic()
    ok = True
    for L in range(2, 11):
        r = exact_threshold_search(L)
        expected = validate([1] + [0] * (L - 2) + [(L * (L + 1) + 3) // 4 + 1]) if L > 3 else None
        ok = ok and r.frontier_coefficients == expected and r.agrees_with_lambda
        ok = ok and r.undecided == ()
    ok = ok and r.candidates <= 1100
    gate("criterion 11: the least incomplete root below 2 is lambda_L's sparse vector "
         "for L = 2..10, nothing undecided", ok, started, None,
         detail=f"{r.candidates} of at most 1100 full prefixes at L=10")
