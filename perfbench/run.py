"""plrs benchmark: run one workload and print every metric by name and unit.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep,roots,queries,oracle,all}
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: ``setup_s`` from fresh
interpreters, then the workload in one fresh worker process: as many passes
as take about ``S`` seconds (``Workload.pass_count``).  ``--trace 1`` runs the workload untraced for ``S/2`` seconds and
traced for ``S`` seconds and reports the per-layer metrics, the tracing
overhead and the layer with the most self time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record (and,
when traced, the spans of the first pass) is written under ``.perfbench_out/``.
Exits 2 without a result when the checkout holds no ``src/plrs``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_RUNS = 15
WORKER_TIMEOUT_S = 150
READY = ("import sys; sys.path.insert(0, 'src'); import plrs.cli; "
         "sys.stdout.write('ready\\n'); sys.stdout.flush()")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def setup_once() -> float:
    """Seconds from starting a fresh interpreter until ``plrs.cli`` is imported."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", READY], stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line != b"ready\n" or proc.returncode != 0:
        raise BenchError(f"plrs.cli failed to import (exit {proc.returncode})")
    return elapsed


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               spans_path: str | None = None) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        argv.append("--trace")
    if spans_path:
        argv += ["--spans", spans_path]
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if done.returncode != 0:
        raise BenchError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def commit_hash(root: str) -> str:
    """HEAD of the checkout's git directory, or "unknown" outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summary(values: list[float]) -> dict:
    q1, med, q3 = metrics.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "samples": len(values)}


def latency_per_pass(result: dict) -> tuple[list[float], list[float], dict]:
    """Per-pass p50 and tail in raw seconds (failures are inf), and tail facts."""
    p50s, tails, pcts = [], [], []
    for lat in result["latencies"]:
        p50, pct, value = metrics.pass_latency([math.inf if x is None else x for x in lat])
        p50s.append(p50)
        tails.append(value)
        pcts.append(pct)
    requests = [len(lat) for lat in result["latencies"]]
    tail_info = {"percentile": statistics.median(pcts),
                 "requests_per_pass": statistics.median(requests), "requests": sum(requests)}
    return p50s, tails, tail_info


def timed_setups(count: int) -> tuple[list[float], list[float]]:
    """``count`` set-up times, each followed by three calibrations."""
    setups, calibrations = [], []
    for _ in range(count):
        setups.append(setup_once())
        calibrations += [metrics.calibrate() for _ in range(3)]
    return setups, calibrations


def scaled(values: list[float], scale: float) -> list[float]:
    return [v * scale for v in values]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    setup_once()  # untimed: compiles bytecode caches on a fresh checkout
    metrics.calibrate()  # untimed: builds the calibration pool
    # Half the starts before the worker and half after, so the median spans
    # the whole run rather than one moment of a machine whose speed drifts.
    setup, setup_cal = timed_setups(SETUP_RUNS // 2)
    result = run_worker(workload, seed, seconds, trace=False)
    more, more_cal = timed_setups(SETUP_RUNS - SETUP_RUNS // 2)
    setup, setup_cal = setup + more, setup_cal + more_cal
    setup_scale = metrics.speed_scale(setup_cal)
    scale = metrics.speed_scale(result["calibration_s"])
    p50s, tails, tail_info = latency_per_pass(result)
    stats = {
        "setup_s": summary(scaled(setup, setup_scale)),
        "wall_s": summary(scaled(result["pass_s"], scale)),
        "latency_p50_ms": summary(scaled(p50s, scale * 1000)),
        "latency_tail_ms": summary(scaled(tails, scale * 1000)),
        "peak_rss_mb": summary([result["peak_rss_mb"]]),
    }
    for name, s in stats.items():
        if not math.isfinite(s["median"]):
            raise BenchError(f"{name} is infinite: more requests failed than its percentile "
                             f"allows ({result['reasons']})")
    extra = {
        "tail": tail_info,
        "failed_share": result["failed"] / result["attempted"],
        "speed_scale": scale,
        "setup_speed_scale": setup_scale,
        "raw": {"pass_s": result["pass_s"], "pass_p50_s": p50s, "pass_tail_s": tails,
                "setup_s": setup, "calibration_s": result["calibration_s"],
                "setup_calibration_s": setup_cal},
    }
    return stats, result, extra


def per_layer(workload: str, seed: int, seconds: float, spans_path: str) -> tuple[dict, dict, dict]:
    untraced = run_worker(workload, seed, seconds / 2, trace=False)
    traced = run_worker(workload, seed, seconds, trace=True, spans_path=spans_path)
    scale = metrics.speed_scale(traced["calibration_s"])
    common = min(len(untraced["pass_s"]), len(traced["pass_s"]))
    base = statistics.median(untraced["pass_s"][:common]) * metrics.speed_scale(
        untraced["calibration_s"])
    traced_wall = statistics.median(traced["pass_s"][:common]) * scale
    overhead = traced_wall / base - 1
    stats = {}
    for name, unit in metrics.PER_LAYER:
        if name == "trace.overhead_share":
            stats[name] = summary([overhead])
        else:
            values = [m[name] for m in traced["per_layer"]]
            stats[name] = summary(scaled(values, scale) if unit == "s" else values)
    extra = {
        "untraced_wall_s": base,
        "traced_wall_s": traced_wall,
        "speed_scale": scale,
        "dominant_layer": metrics.dominant(traced["layer_self_s"]),
        "dominant_layer_at_median": metrics.dominant(traced["middle_self_s"]),
        "layer_self_s": traced["layer_self_s"],
        "spans_file": spans_path,
        "failed_share": traced["failed"] / traced["attempted"],
    }
    return stats, traced, extra


def run_one(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
    if trace:
        stats, result, extra = per_layer(workload, seed, seconds, stem + "-spans.csv.gz")
        units = dict(metrics.PER_LAYER)
    else:
        stats, result, extra = end_to_end(workload, seed, seconds)
        units = dict(END_TO_END)

    print(f"# plrs benchmark: workload={workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)} passes={len(result['pass_s'])} requests={result['attempted']}")
    for name, s in stats.items():
        print(f"{name} = {s['median']:.6g} {units[name]}  "
              f"(median of {s['samples']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    print(f"failed_share = {extra['failed_share']:.6g} ratio  "
          f"({result['failed']} of {result['attempted']} requests)")
    print(f"# times are scaled to the reference speed: x{extra['speed_scale']:.4g} "
          f"(calibration reference {metrics.CALIBRATION_REF_S} s); raw samples in the record")
    if "tail" in extra:
        t = extra["tail"]
        print(f"# latency_tail_ms is p{t['percentile']:.4g} of {t['requests_per_pass']} "
              f"requests per pass, median over passes; {t['requests']} requests in all")
    if trace:
        print(f"# dominant layer by self time: {extra['dominant_layer']}; "
              f"in the middle half of request latencies: {extra['dominant_layer_at_median']}")
        print(f"# tracing overhead: traced pass {extra['traced_wall_s']:.6g} s vs untraced "
              f"{extra['untraced_wall_s']:.6g} s; spans of pass 0 in {extra['spans_file']}")
        print("# transforms is not reached by any CLI command and is not measured")
    for reason, count in sorted(result["reasons"].items()):
        print(f"# {count} x {reason}")

    record = {
        "workload": workload,
        "why": workloads.WORKLOADS[workload].why,
        "seed": seed,
        "seed_used": workloads.WORKLOADS[workload].seeded,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_hash(root),
        "passes": len(result["pass_s"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "wrong": result["wrong"],
        "failure_reasons": result["reasons"],
        "metrics": {name: dict(s, unit=units[name]) for name, s in stats.items()},
        **extra,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    line = {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": s["median"], "unit": units[name]} for name, s in stats.items()},
    }
    print(json.dumps(line))
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="plrs benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "plrs", "cli.py")):
        print("error: run from the root of a plrs checkout (src/plrs/cli.py not found)",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            run_one(name, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
