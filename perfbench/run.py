"""Repository benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload pipeline-paper --seed 1 --seconds 12 --trace 0

The workloads and metrics are declared in ``BENCHMARK.json`` at the
root, which this script reads for their names and units. Every run
prints a host fingerprint, each metric by name with its unit, and the
output checks; with ``--trace 1`` it also prints where the traced
phase's time went, layer by layer, and the tracing overhead (traced
minus untraced ``wall_s``), and writes the spans to
``.perfbench-runs/``. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

End-to-end metrics, measured with tracing off:

* ``setup_s`` — process start to the first timed operation; set-up work
  that repeats per start is done three times and its median counted.
* ``wall_s`` — median wall clock of one timed operation: a cold
  pipeline run, a scheduling simulation, or a bulk answer of the test
  split by the live sharded service.
* ``peak_rss_mb`` — peak resident memory of the benchmark process.
* ``ok_pct`` — operations that completed and passed their checks, over
  operations attempted (pipeline runs, simulations, queries, the
  service's close, and the final process audit).
* ``violation_pct``, ``margin_pct`` — miscoverage and overprovision
  margin at ε = 0.1 of the bounds the workload produced, against the
  runtimes they bound.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

_STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
#: Thread pools pinned to one thread in this process and every process it
#: starts (spawned workers inherit the environment).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Spans of the pipeline entry points the timed operations call.
ENTRY_SPANS = ("pipeline.run", "pipeline.simulate")
#: Per-layer metrics a workload reads from the program's own counters or
#: measures itself; they are 0 on workloads that do not exercise them.
WORKLOAD_LAYER_METRICS = (
    "core.mape_pct", "lifecycle.promotions", "lifecycle.resets",
    "orchestration.decision_ms", "orchestration.migrations",
    "orchestration.placed_pct", "serving.cache_hit_pct", "serving.spawn_s",
    "serving.rejections", "serving.latency_p50_ms", "serving.latency_p99_ms",
    "serving.max_rate_qps", "serving.send_lag_p99_ms",
)

WORKLOADS = {
    "pipeline-paper": ("perfbench.workloads", "pipeline_paper"),
    "pipeline-fleet": ("perfbench.workloads", "pipeline_fleet"),
    "schedule-drift": ("perfbench.workloads", "schedule_drift"),
    "serve-open-loop": ("perfbench.serve", "serve_open_loop"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_fingerprint() -> dict:
    import ctypes

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def reap() -> list[str]:
    """Stop and wait for every process this benchmark started, the
    resource tracker that spawn launches included; returns what was
    still running when it should not have been."""
    import multiprocessing
    from multiprocessing import resource_tracker

    problems = []
    for child in multiprocessing.active_children():
        problems.append(f"worker {child.pid} outlived its service")
        child.terminate()
        child.join(timeout=10)
    resource_tracker._resource_tracker._stop()  # closes its pipe, waits for it
    deadline = time.monotonic() + 10
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return problems  # no child process left, running or not
        if pid == 0:
            if time.monotonic() > deadline:
                return problems + ["a child process is still running"]
            time.sleep(0.05)


def peak_rss_mb() -> float:
    """Peak resident MB of this process.

    Spawned shard workers are left out: a child's ``ru_maxrss`` starts
    from its parent's size at the fork that precedes its exec, so
    ``RUSAGE_CHILDREN`` would count the parent a second time.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(outcome) -> dict[str, float]:
    """Per-layer metrics of the traced operations, per operation."""
    tracer = outcome.tracer
    ops = len(outcome.traced_walls)
    spans = tracer.layers()

    def field(name, key):
        return spans.get(name, {}).get(key, 0.0)

    def per_op(name, key="total_s"):
        return field(name, key) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    swaps = [n for n in ("serving.swap", "serving.sharded_swap") if n in spans]
    swap_calls = sum(field(n, "calls") for n in swaps)
    train_s = field("core.train", "total_s")
    untraced = statistics.median(outcome.walls)
    traced = statistics.median(outcome.traced_walls)
    phase = outcome.traced_phase_s
    top = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    # The entry points' own bookkeeping is not attributed to a layer below.
    uncovered = sum(field(n, "self_s") for n in ENTRY_SPANS) + max(phase - top, 0.0)
    metrics = dict.fromkeys(WORKLOAD_LAYER_METRICS, 0.0)
    metrics.update({
        "cluster.collect_s": per_op("cluster.collect"),
        "cluster.save_s": per_op("cluster.save"),
        "pipeline.scale_s": per_op("pipeline.scale"),
        "pipeline.evaluate_s": per_op("pipeline.evaluate"),
        "pipeline.self_s": sum(field(n, "self_s") for n in ENTRY_SPANS) / ops,
        "core.train_s": per_op("core.train"),
        "core.steps_per_s": ratio(field("core.train", "count"), train_s),
        "core.update_s": per_op("core.update"),
        "conformal.calibrate_s": per_op("conformal.calibrate"),
        "conformal.calibrate_calls": per_op("conformal.calibrate", "calls"),
        "lifecycle.ingest_s": per_op("lifecycle.ingest"),
        "lifecycle.recalibrate_s": per_op("lifecycle.recalibrate"),
        "lifecycle.promote_s": per_op("lifecycle.promote"),
        "orchestration.oracle_s": per_op("orchestration.oracle"),
        "orchestration.oracle_calls": per_op("orchestration.oracle", "calls"),
        "orchestration.rows_per_call": ratio(
            field("orchestration.oracle", "count"),
            field("orchestration.oracle", "calls"),
        ),
        "orchestration.run_self_s": per_op("orchestration.run", "self_s"),
        "serving.bound_s": per_op("serving.bound"),
        "serving.swap_ms": 1e3 * ratio(
            sum(field(n, "total_s") for n in swaps), swap_calls
        ),
        "trace.coverage_pct": 100 * (1 - uncovered / phase) if phase else 0.0,
        "trace.overhead_pct": 100 * (traced - untraced) / untraced,
    })
    metrics.update(outcome.layer)
    return metrics


def print_layers(outcome, layers: dict[str, float]) -> None:
    tracer = outcome.tracer
    ops = len(outcome.traced_walls)
    phase = outcome.traced_phase_s / ops
    print(f"\nwhere the traced phase went (per operation, phase {phase:.4f} s):")
    print(f"  {'span':<28}{'self_s':>10}{'total_s':>10}{'calls':>10}{'self/phase':>12}")
    rows = sorted(tracer.layers().items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        print(
            f"  {name:<28}{row['self_s'] / ops:>10.4f}{row['total_s'] / ops:>10.4f}"
            f"{row['calls'] / ops:>10.1f}{100 * row['self_s'] / ops / phase:>11.1f}%"
        )
    untraced = statistics.median(outcome.walls)
    traced = statistics.median(outcome.traced_walls)
    print(
        f"layer spans cover {layers['trace.coverage_pct']:.1f}% of the traced phase"
    )
    print(
        f"tracing overhead: traced wall_s {traced:.6g} - untraced wall_s "
        f"{untraced:.6g} = {traced - untraced:+.6g} s "
        f"({layers['trace.overhead_pct']:+.2f}%)"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import importlib

    import repro  # the program under test; fails without src/

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"measuring {repro.__file__}, not this checkout's src/")

    module, name = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module), name)
    imported_s = time.perf_counter() - _STARTED
    scratch = ROOT / ".perfbench-runs"
    scratch.mkdir(exist_ok=True)
    host = host_fingerprint()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    try:
        outcome = workload(
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            scratch=scratch, imported_s=imported_s,
        )
    finally:
        forced = reap()
    outcome.attempted += 1  # the process audit
    if forced:
        outcome.fail("process audit: " + "; ".join(forced))

    end_to_end = {
        "setup_s": outcome.setup_s,
        "wall_s": statistics.median(outcome.walls),
        "peak_rss_mb": peak_rss_mb(),
        "ok_pct": 100 * (outcome.attempted - outcome.failed) / outcome.attempted,
        "violation_pct": outcome.violation_pct,
        "margin_pct": outcome.margin_pct,
    }
    values, wanted = end_to_end, declared["end_to_end"]
    if args.trace:
        values, wanted = layer_metrics(outcome), declared["per_layer"]
    bad = [m["name"] for m in wanted if not math.isfinite(values[m["name"]])]
    if bad:
        outcome.fail(f"non-finite metrics: {bad}")

    print("operation walls (s): untraced "
          + " ".join(f"{w:.4f}" for w in outcome.walls)
          + (" | traced " + " ".join(f"{w:.4f}" for w in outcome.traced_walls)
             if outcome.traced_walls else ""))
    for line in outcome.notes:
        print(line)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"checks: {outcome.attempted - outcome.failed} of {outcome.attempted} "
          f"operations passed")
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for key, value in end_to_end.items():
        print(f"{key} {value:.6g} {units[key]}")
    if args.trace:
        print_layers(outcome, values)
        path = scratch / f"trace-{args.workload}-seed{args.seed}.jsonl"
        outcome.tracer.write(path, {"workload": args.workload, "seed": args.seed,
                                    "host": host, "metrics": values})
        print(f"spans written to {path.relative_to(ROOT)}")
        for m in wanted:
            print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    metrics = {
        m["name"]: {
            "value": float(values[m["name"]]) if m["name"] not in bad else 0.0,
            "unit": m["unit"],
        }
        for m in wanted
    }
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
