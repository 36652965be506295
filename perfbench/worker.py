"""One workload in one fresh process: a closed loop over ``plrs.cli.main``.

Usage (from the repository root; ``run.py`` starts it):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace]
        [--spans PATH]

Sends a fixed number of passes of the workload's requests, one at a time,
through ``plrs.cli.main(argv)`` in this process: as many as take
``--seconds`` at the reference speed (``Workload.pass_count``).  It stops
early only if the passes have already taken ``OVERRUN`` times ``--seconds``,
which keeps a much slower program within the time limit.  Outputs are judged
between passes, outside the timed region.  ``metrics.calibrate`` is timed before the
first pass, after each pass and between requests every
``metrics.CALIBRATE_EVERY_S``; pass times exclude it.  Prints one JSON object with the raw
samples; ``run.py`` turns them into metrics.

With ``--trace`` every ``plrs`` layer is wrapped (see ``spans.py``) and each
pass also yields per-layer metrics; the first pass's spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import resource
import sys
import time

import metrics
import spans
import workloads

OVERRUN = 4


def call(main, argv) -> tuple[object, float, str]:
    """Run one request in-process; returns (exit code, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # a crash is a failed request, not a dead run
            rc = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    return rc, elapsed, out.getvalue()


def confirm_oracle(definite: dict[tuple[int, ...], str]) -> list[str]:
    """Check definite oracle kinds against the gap engine; returns mismatches."""
    from plrs import brown
    from plrs.core import validate

    wrong = []
    for vector, kind in sorted(definite.items()):
        engine = brown.check_completeness(validate(vector)).kind
        if engine != brown.UNKNOWN and engine != kind:
            wrong.append(f"oracle says {kind}, engine says {engine} for {list(vector)}")
    return wrong


def run(workload: workloads.Workload, seed: int, seconds: float, trace: bool,
        spans_path: str | None) -> dict:
    import plrs.cli

    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    main = plrs.cli.main

    pass_s, latencies, per_layer = [], [], []
    layer_totals = {layer: 0.0 for layer in spans.LAYERS}
    middle_totals = {layer: 0.0 for layer in spans.LAYERS}
    attempted = failed = wrong = 0
    reasons: dict[str, int] = {}
    definite_oracle: dict[tuple[int, ...], str] = {}
    request_id = 0
    measured = 0.0
    metrics.calibrate()  # untimed: builds the calibration pool
    calibrations = [metrics.calibrate()]
    for index, requests in enumerate(workload.passes(seed, seconds)):
        if index >= workloads.MIN_PASSES and measured >= OVERRUN * seconds:
            break
        results = []
        t_pass = last_calibration = time.perf_counter()
        calibrating = 0.0  # seconds of this pass spent calibrating
        for req in requests:
            if tracer is not None:
                tracer.request = request_id
            request_id += 1
            results.append(call(main, req.argv))
            if time.perf_counter() - last_calibration >= metrics.CALIBRATE_EVERY_S:
                t_cal = time.perf_counter()
                calibrations.append(metrics.calibrate())
                last_calibration = time.perf_counter()
                calibrating += last_calibration - t_cal
        elapsed = time.perf_counter() - t_pass - calibrating
        measured += elapsed
        pass_s.append(elapsed)
        calibrations.append(metrics.calibrate())

        if tracer is not None:
            tracer.request = -1
            if index == 0 and spans_path:
                with gzip.open(spans_path, "wt") as fh:
                    spans.write_spans(tracer, fh)
            m, layer_self, middle = metrics.layer_metrics(tracer)
            per_layer.append(m)
            for layer in spans.LAYERS:
                layer_totals[layer] += layer_self[layer]
                middle_totals[layer] += middle[layer]
            tracer.clear()

        outcomes = [workloads.judge(req, rc, out) for req, (rc, _, out) in zip(requests, results)]
        workloads.check_pairs(requests, outcomes)
        pass_lat = []
        for req, (rc, seconds_taken, _), outcome in zip(requests, results, outcomes):
            attempted += 1
            if outcome.status == workloads.OK:
                pass_lat.append(seconds_taken)
                if req.check == "oracle-check" and outcome.kind in ("complete", "incomplete"):
                    definite_oracle[req.vector] = outcome.kind
            else:
                pass_lat.append(math.inf)
                failed += 1
                wrong += outcome.status == workloads.WRONG
                key = f"{outcome.status}: {outcome.reason}"
                reasons[key] = reasons.get(key, 0) + 1
        latencies.append(pass_lat)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    for reason in confirm_oracle(definite_oracle):
        failed += 1
        wrong += 1
        reasons[f"wrong: {reason}"] = reasons.get(f"wrong: {reason}", 0) + 1
    return {
        "workload": workload.name,
        "pass_s": pass_s,
        "calibration_s": calibrations,
        "latencies": [[lat if math.isfinite(lat) else None for lat in p] for p in latencies],
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "reasons": reasons,
        "peak_rss_mb": peak_rss_mb,
        "per_layer": per_layer,
        "layer_self_s": layer_totals,
        "middle_self_s": middle_totals,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                 args.trace, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
