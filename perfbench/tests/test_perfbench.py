"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import FAILED, OK, WRONG, Request  # noqa: E402


def cli(argv) -> tuple[int, str]:
    import plrs.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = plrs.cli.main(list(argv))
    return rc, out.getvalue()


# -- streams ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["queries", "oracle"])
def test_streams_repeat_for_a_seed_and_differ_across_seeds(name):
    make = workloads.WORKLOADS[name].make_pass
    assert make(7, 0) == make(7, 0)
    assert make(7, 3) == make(7, 3)
    assert make(7, 0) != make(8, 0)
    assert make(7, 0) != make(7, 1)


def test_stream_composition_is_fixed_per_pass():
    for seed in (1, 2):
        for index in (0, 1):
            q = workloads.queries_pass(seed, index)
            assert len(q) == 200
            assert sum(len(r.vector) > 512 for r in q) == 2 * workloads.QUERIES_TAIL
            assert sum(64 <= len(r.vector) <= 512 for r in q) == 2 * workloads.QUERIES_LONG
            assert len(workloads.oracle_pass(seed, index)) == 52


def test_every_oracle_pass_holds_three_budget_exhausting_requests():
    for seed in (1, 2, 3):
        for index in range(4):
            reqs = workloads.oracle_pass(seed, index)
            assert sum(workloads.oracle_exhausts_budget(r.vector) for r in reqs) == 3


def test_budget_rule_matches_oracle_check():
    strata = workloads.oracle_strata()
    sample = [strata[0][0], strata[-3][-1], strata[-2][0], strata[-1][-1]]
    for group in workloads.oracle_sparse_groups():
        L = group[0] + 2
        sample += [workloads.sparse_vector(L, workloads.sparse_bound(L)),
                   workloads.sparse_vector(L, workloads.sparse_bound(L) + 1)]
    for vector in sample:
        rc, out = cli(["oracle-check", ",".join(map(str, vector))])
        assert rc == 0
        assert (out == "") == workloads.oracle_exhausts_budget(vector), vector


def test_pass_count_depends_on_seconds_alone():
    for workload in workloads.WORKLOADS.values():
        count = workload.pass_count(20)
        assert count == round(20 / workload.pass_s) >= workloads.MIN_PASSES
        assert len(list(workload.passes(1, 20))) == count
    assert workloads.WORKLOADS["oracle"].pass_count(0.1) == workloads.MIN_PASSES


def test_fixed_job_lists_ignore_the_seed():
    for name in ("sweep", "roots"):
        make = workloads.WORKLOADS[name].make_pass
        assert make(1, 0) == make(2, 5)


def test_sparse_bound_matches_the_family_rule():
    from plrs import families

    for k in range(0, 40):
        assert workloads.sparse_bound(k + 2) == families.bound_one_zeros(k).max_n


# -- tail percentile ------------------------------------------------------------


def test_tail_is_the_sample_with_ten_beyond_it():
    lat = list(range(1, 201))  # 1..200
    pct, value = metrics.tail(lat)
    assert value == 190 and pct == 95.0
    assert sum(x > value for x in lat) == 10


def test_tail_counts_failures_as_infinite():
    ten_failed = [1.0] * 190 + [math.inf] * 10
    assert metrics.tail(ten_failed)[1] == 1.0
    eleven_failed = [1.0] * 189 + [math.inf] * 11
    assert math.isinf(metrics.tail(eleven_failed)[1])


def test_short_passes_fall_back_to_the_slowest_request():
    assert metrics.tail([3.0] * 10) is None
    p50, pct, value = metrics.pass_latency([1.0, 2.0, 5.0])
    assert (p50, pct, value) == (2.0, 100.0, 5.0)


def test_speed_scale_maps_the_calibration_median_to_the_reference():
    ref = metrics.CALIBRATION_REF_S
    assert metrics.speed_scale([ref, 3 * ref]) == pytest.approx(0.5)
    assert metrics.calibrate() > 0


# -- names ----------------------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    unit_re = metrics.re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = [n for n, _ in metrics.PER_LAYER] + [n for n, _ in run.END_TO_END]
    assert len(names) == len(set(names))
    for name, unit in list(metrics.PER_LAYER) + list(run.END_TO_END):
        assert metrics.NAME_RE.fullmatch(name), name
        assert unit_re.fullmatch(unit), unit
    for name in workloads.WORKLOADS:
        assert metrics.NAME_RE.fullmatch(name)


def test_benchmark_json_lists_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == set(metrics.PER_LAYER)


# -- output checks ----------------------------------------------------------------


def judged(req: Request, corrupt=lambda text: text) -> str:
    rc, out = cli(req.argv)
    return workloads.judge(req, rc, corrupt(out)).status


SMALL = {
    "scan": workloads._scan(2, 3),
    "family": workloads._family("one-zeros", ("k", 1, 4)),
    "dense": Request(("dense", "--L", "5"), "dense", params=(5,)),
    "min-root": workloads._min_root(2, 4),
    "check": workloads._verdict("check", (1, 3), None, "--verify"),
}

CORRUPTIONS = {
    "scan": lambda t: t.replace('"counterexamples": []', '"counterexamples": [[1]]'),
    "family": lambda t: t.replace("max_n_search", "max_n_found"),
    "dense": lambda t: t.replace("increasing_certified: True", "increasing_certified: False"),
    "min-root": lambda t: t.replace('"conjecture_violated": false', '"conjecture_violated": true'),
    "check": lambda t: t.replace('"verified": true', '"verified": false'),
}


@pytest.mark.parametrize("check", sorted(SMALL))
def test_real_outputs_pass_and_corrupted_outputs_fail(check):
    req = SMALL[check]
    assert judged(req) == OK
    assert judged(req, CORRUPTIONS[check]) == WRONG
    assert judged(req, lambda t: t[: len(t) // 2]) == WRONG


def test_missing_report_and_bad_exit_are_failures():
    req = SMALL["check"]
    assert workloads.judge(req, 0, "").status == FAILED
    assert workloads.judge(req, 2, '{"kind": "complete"}').status == FAILED


def test_wrong_kind_for_a_known_family_member_fails():
    req = workloads._verdict("check", workloads.sparse_vector(5, 8), "complete", "--verify")
    rc, out = cli(req.argv)
    assert workloads.judge(req, rc, out).status == OK
    flipped = out.replace('"kind": "complete"', '"kind": "incomplete"')
    assert workloads.judge(req, rc, flipped).status == WRONG


def test_check_and_triage_first_must_agree():
    v = (1, 1)
    reqs = [workloads._verdict("check", v, None, "--verify"),
            workloads._verdict("check", v, None, "--triage-first", "--verify")]
    outcomes = [workloads.Outcome(OK, kind="complete"), workloads.Outcome(OK, kind="incomplete")]
    workloads.check_pairs(reqs, outcomes)
    assert outcomes[1].status == WRONG
    agreeing = [workloads.Outcome(OK, kind="complete"), workloads.Outcome(OK, kind="unknown")]
    workloads.check_pairs(reqs, agreeing)
    assert all(o.status == OK for o in agreeing)


# -- tracing ----------------------------------------------------------------------


def test_self_time_subtracts_children():
    t = spans.Tracer()
    t.names, t.layer_of = ["cli.main", "core.generate_terms"], ["cli", "core"]
    for nid, start, end, parent in ((0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 5.0, 6.0, 0)):
        t.name_id.append(nid)
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
    assert spans.self_times(t) == [6.0, 3.0, 1.0]


def test_tracer_wraps_imported_names_and_restores_them():
    import plrs.brown
    import plrs.cli
    import plrs.core

    original = plrs.core.generate_terms
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert plrs.brown.generate_terms is plrs.core.generate_terms is not original
        tracer.request = 0
        cli(["check", "1,3", "--verify"])
        m, layer_self, _ = metrics.layer_metrics(tracer)
    finally:
        tracer.uninstall()
    assert plrs.brown.generate_terms is original and plrs.core.generate_terms is original
    assert m["cli.requests"] == 1
    assert m["brown.verdicts"] == 1 and m["brown.recheck_calls"] == 1
    assert m["core.terms_generated"] > 0
    assert sum(m[f"{layer}.self_share"] for layer in spans.LAYERS) == pytest.approx(1.0)
