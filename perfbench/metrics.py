"""Statistics and metric derivation shared by worker.py and run.py.

Latencies of failed requests are ``math.inf``: they count against every
percentile they reach.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
from time import perf_counter
from typing import Optional, Sequence

import spans
import workloads

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TAIL_BEYOND = 10

#: Seconds ``calibrate`` takes at the reference speed (about its mean on a
#: shared 2-core Xeon VM).  Reported times are scaled to this speed.
CALIBRATION_REF_S = 0.006

#: The worker times ``calibrate`` between requests this often.
CALIBRATE_EVERY_S = 0.25


@functools.lru_cache(maxsize=1)
def _calibration_pool() -> tuple[tuple[int, ...], ...]:
    return tuple(workloads.short_vectors()[::32])


def calibrate() -> float:
    """Seconds for a fixed computation that shares no code with ``plrs``.

    It runs the benchmark's own big-integer recurrences over 151 short
    vectors, with a JSON and text round trip for each (about 6 ms).  The CPU
    of a shared machine can slow down by up to 1.8x, in spells from under a
    second to minutes; timing this computation all through a run measures
    how fast the machine was.
    """
    pool = _calibration_pool()
    t0 = perf_counter()
    for vector in pool:
        text = json.dumps({"vector": ",".join(map(str, vector)),
                           "work": workloads.subset_sum_work(vector)})
        [int(x) for x in json.loads(text)["vector"].split(",")]
    return perf_counter() - t0


def speed_scale(calibrations: Sequence[float]) -> float:
    """Factor that turns this run's seconds into reference-speed seconds.

    The mean, not the median: passes average over fast and slow spells,
    and so does the mean of calibrations spread evenly through the run.
    """
    return CALIBRATION_REF_S / statistics.fmean(calibrations)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(latencies: Sequence[float]) -> Optional[tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it.

    Returns (percentile, value): the value is the sample with exactly
    ``TAIL_BEYOND`` samples above it in sorted order, and the percentile is
    ``100 * (n - 10) / n``.  None when there are fewer than 11 samples.
    """
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(latencies)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def pass_latency(latencies: Sequence[float]) -> tuple[float, float, float]:
    """(p50, tail percentile, tail value) of one pass, in seconds.

    A pass with at most ten requests has no percentile with ten samples
    beyond it; its tail is its slowest request (percentile 100).
    """
    found = tail(latencies)
    pct, value = found if found else (100.0, max(latencies))
    return statistics.median(latencies), pct, value


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass

PER_LAYER = (
    ("cli.requests", "count"),
    ("cli.self_s", "s"),
    ("cli.self_share", "ratio"),
    ("cli.self_share_at_median", "ratio"),
    ("core.calls", "count"),
    ("core.busy_s", "s"),
    ("core.self_share", "ratio"),
    ("core.terms_generated", "count"),
    ("core.max_term_bits", "bits"),
    ("brown.verdicts", "count"),
    ("brown.busy_s", "s"),
    ("brown.self_share", "ratio"),
    ("brown.terms_inspected", "count"),
    ("brown.useful_term_ratio", "ratio"),
    ("brown.horizon_extensions", "count"),
    ("brown.unknown_share", "ratio"),
    ("brown.gap_trace_s", "s"),
    ("brown.recheck_calls", "count"),
    ("brown.recheck_s", "s"),
    ("oracle.calls", "count"),
    ("oracle.busy_s", "s"),
    ("oracle.self_share", "ratio"),
    ("oracle.budget_exhausted", "count"),
    ("oracle.wasted_s", "s"),
    ("oracle.definite_share", "ratio"),
    ("analytic.principal_root_calls", "count"),
    ("analytic.principal_root_s", "s"),
    ("analytic.refine_calls", "count"),
    ("analytic.compare_roots_calls", "count"),
    ("analytic.compare_roots_s", "s"),
    ("analytic.sign_evals", "count"),
    ("analytic.triage_calls", "count"),
    ("analytic.triage_s", "s"),
    ("analytic.self_share", "ratio"),
    ("families.calls", "count"),
    ("families.busy_s", "s"),
    ("families.self_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


Seconds = dict[str, float]


def layer_metrics(tracer: spans.Tracer) -> tuple[dict[str, float], Seconds, Seconds]:
    """Per-layer metrics of the spans recorded since the last ``clear``.

    Returns (metrics, self seconds by layer, self seconds by layer summed
    over the requests in the middle half of the pass's latencies).
    """
    names, layer_of = tracer.names, tracer.layer_of
    n = len(tracer)
    self_s = spans.self_times(tracer)
    by_name: dict[str, list[int]] = {}
    layer_self = {layer: 0.0 for layer in spans.LAYERS}
    layer_entries = {layer: 0 for layer in spans.LAYERS}
    for i in range(n):
        name = names[tracer.name_id[i]]
        layer = layer_of[tracer.name_id[i]]
        by_name.setdefault(name, []).append(i)
        layer_self[layer] += self_s[i]
        if spans.entries(tracer, i):
            layer_entries[layer] += 1

    def spans_of(name: str) -> list[int]:
        return by_name.get(name, [])

    def inclusive(name: str) -> float:
        return sum(tracer.end[i] - tracer.start[i] for i in spans_of(name)
                   if spans.outermost(tracer, i))

    requests = spans_of("cli.main")
    request_time = sum(tracer.end[i] - tracer.start[i] for i in requests)

    checks = spans_of("brown.check_completeness")
    check_ids = set(checks)
    generated_in_check = 0
    extensions = {i: 0 for i in checks}
    for i in spans_of("core.generate_terms") + spans_of("core.TermSequence.extended"):
        p = tracer.parent[i]
        if p in check_ids:
            generated_in_check += tracer.info[i]
            if names[tracer.name_id[i]] == "core.TermSequence.extended":
                extensions[p] += 1
    finished = [i for i in checks if tracer.flag[i] in spans.KIND_CODES.values()]
    inspected = sum(tracer.info[i] for i in finished)

    oracle_entries = [i for i in range(n) if layer_of[tracer.name_id[i]] == "oracle"
                      and spans.entries(tracer, i)]
    exhausted = [i for i in oracle_entries if tracer.flag[i] == spans.FLAG_BUDGET]
    oracle_verdicts = spans_of("oracle.oracle_verdict")

    core_spans = [i for i in range(n) if layer_of[tracer.name_id[i]] == "core"]
    unknown = spans.KIND_CODES["unknown"]
    definite = (spans.KIND_CODES["complete"], spans.KIND_CODES["incomplete"])

    m = {
        "cli.requests": len(requests),
        "cli.self_s": layer_self["cli"],
        "core.calls": layer_entries["core"],
        "core.busy_s": layer_self["core"],
        "core.terms_generated": sum(tracer.info[i] for i in core_spans),
        "core.max_term_bits": tracer.max_term_bits,
        "brown.verdicts": len(finished),
        "brown.busy_s": layer_self["brown"],
        "brown.terms_inspected": inspected,
        "brown.useful_term_ratio": _ratio(inspected, generated_in_check),
        "brown.horizon_extensions": sum(max(e - 1, 0) for e in extensions.values()),
        "brown.unknown_share": _ratio(sum(tracer.flag[i] == unknown for i in finished),
                                      len(finished)),
        "brown.gap_trace_s": inclusive("brown.gap_trace"),
        "brown.recheck_calls": len(spans_of("brown.recheck")),
        "brown.recheck_s": inclusive("brown.recheck"),
        "oracle.calls": len(oracle_entries),
        "oracle.busy_s": layer_self["oracle"],
        "oracle.budget_exhausted": len(exhausted),
        "oracle.wasted_s": sum(tracer.end[i] - tracer.start[i] for i in exhausted),
        "oracle.definite_share": _ratio(sum(tracer.flag[i] in definite for i in oracle_verdicts),
                                        len(oracle_verdicts)),
        "analytic.principal_root_calls": len(spans_of("analytic.principal_root")),
        "analytic.principal_root_s": inclusive("analytic.principal_root"),
        "analytic.refine_calls": len(spans_of("analytic.RootBracket.refined")),
        "analytic.compare_roots_calls": len(spans_of("analytic.compare_roots")),
        "analytic.compare_roots_s": inclusive("analytic.compare_roots"),
        "analytic.sign_evals": tracer.counts["analytic.CharPoly.sign_at"],
        "analytic.triage_calls": len(spans_of("analytic.triage")),
        "analytic.triage_s": inclusive("analytic.triage"),
        "families.calls": layer_entries["families"],
        "families.busy_s": layer_self["families"],
        "trace.spans": n,
    }
    for layer in spans.LAYERS:
        m[f"{layer}.self_share"] = _ratio(layer_self[layer], request_time)

    # Requests in the middle half of this pass's latencies.
    durations = sorted(tracer.end[i] - tracer.start[i] for i in requests)
    middle = {layer: 0.0 for layer in spans.LAYERS}
    if durations:
        q1, _, q3 = quartiles(durations)
        band = {tracer.req[i] for i in requests
                if q1 <= tracer.end[i] - tracer.start[i] <= q3}
        for i in range(n):
            if tracer.req[i] in band:
                middle[layer_of[tracer.name_id[i]]] += self_s[i]
    m["cli.self_share_at_median"] = _ratio(middle["cli"], sum(middle.values()))
    return m, layer_self, middle


def dominant(layer_seconds: dict[str, float]) -> str:
    return max(layer_seconds, key=lambda layer: layer_seconds[layer])
