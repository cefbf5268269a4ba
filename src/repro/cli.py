"""Command-line interface: ``python -m repro <command>``.

Every model-backed command works on one scenario in the
content-addressed artifact store: ``--scenario`` names a registry entry,
``--store`` the store root, and each repeatable ``--set KEY=VALUE``
replaces one leaf knob through :meth:`ScenarioSpec.scaled` (JSON values,
e.g. ``--set steps=40 --set 'epsilons=[0.1,0.05]'``).

* ``scenarios list`` — show the named-scenario registry;
* ``pipeline run`` — run ``collect → scale → train → calibrate →
  evaluate → snapshot`` through the store and print the test metrics;
* ``lifecycle run`` — replay a drift scenario's observation stream
  through the continual loop (ingest → warm update → rolling
  recalibration → atomic swap) and report coverage over time against a
  never-recalibrated baseline;
* ``schedule run`` — play a scheduling scenario's job stream through
  the event-driven cluster simulator and report per-epoch
  placement/violation/utilization against a never-recalibrated
  scheduler;
* ``predict`` — runtime for one workload/platform pair with co-runners;
* ``serve`` — answer a stream of bound queries at the spec's ε grid,
  in-process or through N shard workers;
* ``bench-serve`` — serving throughput (per-call forward vs. snapshot
  batch vs. LRU), or tail latency under an open-loop arrival trace;
* ``sweep run`` — a grid of scenario cells as one deduplicated plan;
* ``store ls`` / ``store gc`` — inspect and prune the artifact store;
* ``lint`` — check the repo's invariants with the AST linter.

``lifecycle``, ``schedule``, ``predict``, ``serve`` and ``bench-serve``
build on a trained scenario and never train one: without its trained
stages in the store they exit 2 and print the ``pipeline run`` command
that trains it. The serving commands read the committed ``calibrate``
and ``snapshot`` artifacts as they are.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
import time
from pathlib import Path

import numpy as np

from .cluster import BoundQuery
from .pipeline import ArtifactStore, pipeline_stage_keys, run_pipeline
from .devtools.lint import add_lint_arguments
from .devtools.lint import run as _run_lint
from .scenarios import MARGIN_MODES, ScenarioSpec, get_scenario, iter_scenarios
from .serving import PredictionService, ShardedPredictionService

__all__ = ["main", "build_parser"]

#: The stages a command that builds on a trained scenario needs
#: committed, and the longer prefix the serving commands read.
_TRAINED = ("collect", "scale", "train", "calibrate")
_SERVABLE = _TRAINED + ("evaluate", "snapshot")


def _add_scenario_arguments(p: argparse.ArgumentParser, default: str) -> None:
    """``--scenario``, ``--store`` and ``--set``: one spec in one store."""
    p.add_argument("--scenario", default=default,
                   help="registry name (see `repro scenarios list`)")
    p.add_argument("--store", default=".repro-cache",
                   help="artifact-store root (content-addressed stage cache)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   dest="overrides",
                   help="scenario knob override, e.g. --set steps=40 "
                        "(repeatable; JSON values)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pitot: interference-aware edge runtime prediction "
                    "(MLSys 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenarios", help="inspect the scenario registry")
    scenario_sub = p.add_subparsers(dest="subcommand", required=True)
    p = scenario_sub.add_parser("list", help="list registered scenarios")
    p.add_argument("--verbose", action="store_true",
                   help="also print each scenario's knob summary")

    runs = {}
    for command, command_help, run_help, scenario in (
        ("pipeline", "run the staged scenario pipeline",
         "run collect→scale→train→calibrate→evaluate→snapshot through the "
         "artifact cache", "paper"),
        ("lifecycle", "continual-learning lifecycle over a drift scenario",
         "replay the scenario's drift trace (ingest -> update -> "
         "recalibrate -> swap) and report coverage over time",
         "drifting-fleet"),
        ("schedule", "event-driven fleet scheduling over a scenario",
         "simulate the scenario's job stream (placement on batched "
         "budgets, migration, online recalibration) and report "
         "violations/utilization per epoch", "schedule"),
    ):
        p = sub.add_parser(command, help=command_help)
        p = p.add_subparsers(dest="subcommand", required=True).add_parser(
            "run", help=run_help
        )
        _add_scenario_arguments(p, scenario)
        p.add_argument("--assert-warm", action="store_true",
                       help="exit 1 unless every stage was a cache hit "
                            "(CI cache validation)")
        runs[command] = p
    runs["pipeline"].add_argument(
        "--no-store", action="store_true",
        help="disable caching: compute fresh, persist nothing",
    )
    runs["pipeline"].add_argument(
        "--force", action="store_true",
        help="recompute every stage even on cache hits",
    )

    p = sub.add_parser(
        "sweep",
        help="parallel scenario sweeps over the artifact store",
    )
    sweep_sub = p.add_subparsers(dest="subcommand", required=True)
    p = sweep_sub.add_parser(
        "run",
        help="expand a grid (scenarios x seeds x conformal modes x "
             "policies) into a deduplicated stage plan and run it on a "
             "worker pool",
    )
    p.add_argument("--grid", default=None,
                   help="JSON grid-spec file (keys: scenarios, seeds, "
                        "strategies, policies, stop_after, seed_streams, "
                        "overrides); axis flags below override it")
    p.add_argument("--scenarios", nargs="+", default=None,
                   help="scenario registry names (grid axis)")
    p.add_argument("--seeds", nargs="+", type=int, default=None,
                   help="replicate seeds (grid axis)")
    p.add_argument("--strategies", nargs="+", default=None,
                   choices=("pitot", "naive_cqr", "split"),
                   help="conformal modes (grid axis; omit = scenario default)")
    p.add_argument("--margins", nargs="+", default=None,
                   choices=MARGIN_MODES,
                   help="margin-engine modes (grid axis, orthogonal to "
                        "strategies; omit = scenario default)")
    p.add_argument("--policies", nargs="+", default=None,
                   help="scheduler policies (grid axis; needs "
                        "--stop-after simulate)")
    p.add_argument("--stop-after", default=None,
                   help="last pipeline stage per cell (default evaluate)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   dest="overrides",
                   help="leaf-knob override for every cell, e.g. "
                        "--set steps=40 (repeatable; JSON values)")
    p.add_argument("--store", default=".repro-cache",
                   help="artifact-store root shared by every cell")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = run inline)")
    p.add_argument("--start-method", choices=("fork", "spawn", "forkserver"),
                   default=None,
                   help="multiprocessing start method (platform default)")
    p.add_argument("--assert-warm", action="store_true",
                   help="exit 1 unless every task was a cache hit "
                        "(CI cache validation)")
    p.add_argument("--no-aggregate", action="store_true",
                   help="skip the replicate-aware comparison table")

    p = sub.add_parser(
        "store",
        help="inspect and maintain a content-addressed artifact store",
    )
    store_sub = p.add_subparsers(dest="subcommand", required=True)
    p = store_sub.add_parser(
        "ls", help="list artifacts per stage (committed and partial)"
    )
    p.add_argument("--store", default=".repro-cache",
                   help="artifact-store root")
    p = store_sub.add_parser(
        "gc",
        help="prune uncommitted partial directories left by crashed runs",
    )
    p.add_argument("--store", default=".repro-cache",
                   help="artifact-store root")

    p = sub.add_parser(
        "predict", help="predict one runtime from a trained scenario"
    )
    _add_scenario_arguments(p, "paper")
    p.add_argument("--workload", type=int, required=True)
    p.add_argument("--platform", type=int, required=True)
    p.add_argument("--interferers", type=int, nargs="*", default=[])

    p = sub.add_parser(
        "serve",
        help="serve a trained scenario's calibrated runtime budgets "
             "(its epsilons) for a stream of queries",
    )
    _add_scenario_arguments(p, "paper")
    p.add_argument("--queries", default=None,
                   help="query file, one 'workload platform [co-runners...]' "
                        "per line (default: stdin)")
    p.add_argument("--shards", type=int, default=1,
                   help="serve through N worker processes over one "
                        "shared-memory snapshot (1 = in-process)")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="per-shard in-flight admission bound")
    p.add_argument("--start-method", choices=("spawn", "fork"),
                   default="spawn",
                   help="multiprocessing start method for shard workers")

    p = sub.add_parser(
        "bench-serve",
        help="benchmark serving throughput (cold vs snapshot vs cached) "
             "at a trained scenario's first epsilon",
    )
    _add_scenario_arguments(p, "paper")
    p.add_argument("--n-queries", type=int, default=10_000)
    p.add_argument("--cold-queries", type=int, default=200,
                   help="cap on per-call queries timed for the cold path")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the sampled queries and the arrival trace")
    p.add_argument("--open-loop", action="store_true",
                   help="drive a live sharded service with an open-loop "
                        "arrival trace and report tail latencies instead "
                        "of the closed-loop path comparison")
    p.add_argument("--shards", type=int, default=2,
                   help="shard workers for --open-loop")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="per-shard admission bound for --open-loop")
    p.add_argument("--rate", type=float, default=500.0,
                   help="open-loop base arrival rate, queries/sec")
    p.add_argument("--duration", type=float, default=2.0,
                   help="open-loop trace horizon, seconds")
    p.add_argument("--zipf", type=float, default=0.0,
                   help="workload hot-key skew exponent (0 = uniform)")
    p.add_argument("--burst", type=float, default=1.0,
                   help="ON-window rate multiplier for heavy-tailed "
                        "ON/OFF bursts (1 = pure Poisson)")
    p.add_argument("--start-method", choices=("spawn", "fork"),
                   default="spawn",
                   help="multiprocessing start method for shard workers")

    p = sub.add_parser(
        "lint",
        help="check repo invariants (determinism, spec schema, "
             "swap-atomicity, ...) with the AST linter",
    )
    add_lint_arguments(p)
    return parser


# ----------------------------------------------------------------------
# Shared scenario plumbing
# ----------------------------------------------------------------------
def _parse_sets(items: list[str]) -> dict[str, object]:
    """``--set KEY=VALUE`` items as knobs: JSON values, else raw strings."""
    overrides: dict[str, object] = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ValueError(f"--set needs KEY=VALUE, got {item!r}")
        try:
            overrides[key] = json.loads(raw)
        except ValueError:
            overrides[key] = raw
    return overrides


def _spec(args) -> ScenarioSpec | None:
    """The command's scenario with its ``--set`` knobs applied; ``None``
    (after printing why) on an unknown scenario or a rejected knob."""
    try:
        return get_scenario(args.scenario).scaled(**_parse_sets(args.overrides))
    except (KeyError, ValueError, TypeError) as exc:
        # Unknown scenario or knob, a value the spec rejects (e.g. a
        # device count on a synthetic fleet), or one of the wrong type
        # for its validation (e.g. steps=abc).
        print(exc.args[0], file=sys.stderr)
        return None


def _has_stages(spec: ScenarioSpec, args, stages: tuple[str, ...]) -> bool:
    """Whether ``args.store`` holds ``spec``'s ``stages``; if not, print
    which are missing and the command that trains them."""
    store = ArtifactStore(args.store)
    keys = pipeline_stage_keys(spec)
    missing = [stage for stage in stages if not store.has(stage, keys[stage])]
    if missing:
        hint = " ".join(
            ["repro pipeline run --scenario", shlex.quote(spec.name),
             "--store", shlex.quote(args.store)]
            + [f"--set {shlex.quote(item)}" for item in args.overrides]
        )
        print(
            f"no trained snapshot for scenario {spec.name!r} in store "
            f"{args.store!r} (missing stage(s): {', '.join(missing)}).\n"
            f"Train one first:\n  {hint}",
            file=sys.stderr,
        )
    return not missing


def _served(args):
    """The warm pipeline result a serving command reads; ``None`` (after
    printing why) when the spec is rejected or not fully trained."""
    spec = _spec(args)
    if spec is None or not _has_stages(spec, args, _SERVABLE):
        return None
    return run_pipeline(spec, store=args.store)


# ----------------------------------------------------------------------
# Scenario / pipeline commands
# ----------------------------------------------------------------------
def _cmd_scenarios_list(args) -> int:
    for spec in iter_scenarios():
        print(f"{spec.name:24s} {spec.description}")
        if args.verbose:
            print(f"{'':24s} {spec.describe()}  hash={spec.spec_hash()[:12]}")
    return 0


def _cmd_pipeline_run(args) -> int:
    spec = _spec(args)
    if spec is None:
        return 2
    store = None if args.no_store else args.store
    start = time.perf_counter()
    result = run_pipeline(spec, store=store, force=args.force)
    elapsed = time.perf_counter() - start

    print(f"scenario {spec.name} (spec {spec.spec_hash()[:12]})")
    for stage, key in result.stage_keys.items():
        status = "cached " if stage in result.cached else "run    "
        print(f"  {status} {stage:10s} {key[:16]}")
    for name in ("n_train", "n_calibration", "n_test",
                 "best_val_loss", "final_train_loss",
                 "mape_isolation", "mape_interference"):
        print(f"{name}: {result.metrics[name]}")
    for eps, stats in result.metrics["epsilons"].items():
        print(f"eps={eps}: coverage {stats['coverage']:.3f}, "
              f"margin {stats['margin']:.2%}")
    print(f"{len(result.executed)} stage(s) run, "
          f"{len(result.cached)} cached, {elapsed:.1f}s")
    if args.assert_warm and result.executed:
        print(f"expected a fully-warm run but executed: "
              f"{list(result.executed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_lifecycle_run(args) -> int:
    spec = _spec(args)
    if spec is None:
        return 2
    if not spec.drift.enabled:
        print(
            f"scenario {spec.name!r} defines no drift stream "
            f"(drift.enabled is false); pick a drift scenario such as "
            f"'drifting-fleet' (see `repro scenarios list`)",
            file=sys.stderr,
        )
        return 2
    if not _has_stages(spec, args, _TRAINED):
        return 2

    start = time.perf_counter()
    result = run_pipeline(spec, store=args.store, stop_after="recalibrate")
    elapsed = time.perf_counter() - start
    epsilon = spec.conformal.epsilons[0]

    print(f"scenario {spec.name} (spec {spec.spec_hash()[:12]})")
    for stage in ("ingest", "update", "recalibrate"):
        status = "cached " if stage in result.cached else "run    "
        print(f"  {status} {stage:12s} {result.stage_keys[stage][:16]}")

    print(f"\ncoverage over time (eps={epsilon}, target >= {1 - epsilon:.2f}; "
          f"static = never recalibrated)")
    print(f"{'tick':>4s} {'phase':>5s} {'events':>6s} {'adaptive':>8s} "
          f"{'static':>8s} {'gen':>4s}  flags")
    for tick in result.lifecycle.ticks:
        flags = " ".join(
            name for name in ("reset", "promoted") if tick.get(name)
        )
        print(f"{tick['tick']:>4d} {tick['phase']:>5d} {tick['events']:>6d} "
              f"{tick['coverage_adaptive']:>8.3f} "
              f"{tick['coverage_static']:>8.3f} "
              f"{tick['generation']:>4d}  {flags}")

    phases = sorted({tick["phase"] for tick in result.lifecycle.ticks})
    print("\nper-phase mean coverage (adaptive vs static):")
    for phase in phases:
        rows = [t for t in result.lifecycle.ticks if t["phase"] == phase]
        events = sum(t["events"] for t in rows)
        adaptive = sum(
            t["coverage_adaptive"] * t["events"] for t in rows
        ) / events
        static = sum(t["coverage_static"] * t["events"] for t in rows) / events
        multiplier = spec.drift.phases[phase]
        print(f"  phase {phase} ({multiplier:g}x): "
              f"adaptive {adaptive:.3f}  static {static:.3f}")
    swaps = sum(1 for t in result.lifecycle.ticks if t["promoted"])
    print(f"\n{result.lifecycle.update_steps} warm-update step(s), "
          f"{swaps} atomic swap(s), {elapsed:.1f}s")
    if args.assert_warm and result.executed:
        print(f"expected a fully-warm lifecycle but executed: "
              f"{list(result.executed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_schedule_run(args) -> int:
    from .eval.reporting import format_schedule_table, percent

    spec = _spec(args)
    if spec is None:
        return 2
    if not spec.scheduling.enabled:
        print(
            f"scenario {spec.name!r} defines no scheduling simulation "
            f"(scheduling.enabled is false); pick a scheduling scenario "
            f"such as 'schedule' (see `repro scenarios list`)",
            file=sys.stderr,
        )
        return 2
    if not _has_stages(spec, args, _TRAINED):
        return 2

    start = time.perf_counter()
    result = run_pipeline(
        spec, store=args.store, stop_after="simulate", needed_only=True
    )
    elapsed = time.perf_counter() - start
    report = result.schedule

    print(f"scenario {spec.name} (spec {spec.spec_hash()[:12]})")
    status = "cached " if "simulate" in result.cached else "run    "
    print(f"  {status} simulate     {result.stage_keys['simulate'][:16]}")
    print(
        f"\npolicy {report.policy} over {len(report.adaptive)} epoch(s), "
        f"{report.n_platforms} platform(s), epoch {report.epoch_seconds:.2f}s"
    )
    print(format_schedule_table(
        report.adaptive, report.static, report.epsilon, report.multipliers
    ))

    summary = report.summary
    adaptive, static = summary["adaptive"], summary["static"]
    def pct(value):
        return "-" if value is None else percent(value)
    print(f"\nplacement rate: adaptive {pct(adaptive['placement_rate'])}, "
          f"static {pct(static['placement_rate'])}")
    print(f"budget violations (target {percent(report.epsilon)}): "
          f"adaptive {pct(adaptive['budget_violation_rate'])}, "
          f"static {pct(static['budget_violation_rate'])}")
    steady_a = summary["steady_budget_violation_adaptive"]
    steady_s = summary["steady_budget_violation_static"]
    degradation = summary["degradation"]
    print(f"steady state (final drift regime): adaptive {pct(steady_a)}, "
          f"static {pct(steady_s)}"
          + (f" ({degradation:.1f}x degradation)" if degradation else ""))
    latency = adaptive["mean_decision_ms"]
    if latency is not None:
        print(f"decision latency: {latency:.3f} ms/job "
              f"({adaptive['decisions_per_second']:,.0f} decisions/s)")
    print(f"{adaptive['migrations']} migration(s), "
          f"{adaptive['promotions']} promotion(s), {elapsed:.1f}s")
    if args.assert_warm and result.executed:
        print(f"expected a fully-warm schedule run but executed: "
              f"{list(result.executed)}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# Sweep / store commands
# ----------------------------------------------------------------------
def _cmd_sweep_run(args) -> int:
    from .eval.reporting import format_sweep_table
    from .pipeline.stages import stage_closure
    from .scenarios.grid import parse_grid
    from .sweep import aggregate_sweep, build_plan, execute_plan

    payload: dict = {}
    if args.grid is not None:
        try:
            payload = json.loads(Path(args.grid).read_text())
        except (OSError, ValueError) as exc:
            print(f"cannot read grid {args.grid!r}: {exc}", file=sys.stderr)
            return 2
    for axis in ("scenarios", "seeds", "strategies", "margins", "policies"):
        if getattr(args, axis) is not None:
            payload[axis] = getattr(args, axis)
    if args.stop_after is not None:
        payload["stop_after"] = args.stop_after
    try:
        if args.overrides:
            overrides = dict(payload.get("overrides") or {})
            overrides.update(_parse_sets(args.overrides))
            payload["overrides"] = overrides
        grid = parse_grid(payload)
        plan = build_plan(grid)
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    print(f"grid {grid.grid_hash()[:12]}: {len(plan.cells)} cell(s), "
          f"{len(plan.tasks)} unique task(s) "
          f"({plan.n_deduped} shared-ancestor run(s) deduped)")
    start = time.perf_counter()
    report = execute_plan(
        plan,
        args.store,
        workers=args.workers,
        start_method=args.start_method,
        echo=print,
    )
    elapsed = time.perf_counter() - start
    counts = report.executed_stage_counts()
    by_stage = " ".join(f"{stage}={n}" for stage, n in counts.items())
    print(f"{len(report.executed)} task(s) run, "
          f"{len(report.cached)} cached, {elapsed:.1f}s on "
          f"{args.workers} worker(s)" + (f"  [{by_stage}]" if by_stage else ""))

    # Aggregate whenever a metric-bearing stage ran: evaluate (batch
    # test metrics) and/or update (drift-phase lifecycle coverage).
    closure = stage_closure(grid.stop_after)
    if not args.no_aggregate and ("evaluate" in closure
                                  or "update" in closure):
        groups = aggregate_sweep(list(plan.cells), args.store)
        print()
        print(format_sweep_table(
            groups,
            title=f"sweep results (mean ± 2se across {len(grid.seeds)} "
                  f"seed(s))",
        ))
    if args.assert_warm and report.executed:
        print(f"expected a fully-warm sweep but executed: "
              f"{[r.task_id for r in report.executed]}", file=sys.stderr)
        return 1
    return 0


def _cmd_store_ls(args) -> int:
    store = ArtifactStore(args.store)
    entries = store.entries()
    if not entries:
        print(f"store {args.store!r} is empty")
        return 0
    print(f"{'stage':10s} {'key':24s} {'scenario':24s} "
          f"{'files':>5s} {'bytes':>10s}  state")
    committed = 0
    for entry in entries:
        scenario = str(entry.meta.get("scenario", "-"))
        state = "committed" if entry.committed else "PARTIAL"
        committed += entry.committed
        print(f"{entry.stage:10s} {entry.key_prefix:24s} {scenario:24s} "
              f"{entry.n_files:>5d} {entry.n_bytes:>10,d}  {state}")
    print(f"{committed} committed artifact(s), "
          f"{len(entries) - committed} partial")
    return 0


def _cmd_store_gc(args) -> int:
    store = ArtifactStore(args.store)
    removed = store.gc()
    for stage, key_prefix in removed:
        print(f"pruned {stage}/{key_prefix}")
    print(f"{len(removed)} partial artifact dir(s) pruned")
    return 0


# ----------------------------------------------------------------------
# Serving commands (read a trained scenario's committed artifacts)
# ----------------------------------------------------------------------
def _cmd_predict(args) -> int:
    result = _served(args)
    if result is None:
        return 2
    service = result.service()
    try:
        query = BoundQuery.from_rows(
            [(args.workload, args.platform, args.interferers or ())], service
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    runtime = service.predict_runtime(
        query.w_idx, query.p_idx, query.interferers
    )[0]
    print(f"predicted runtime: {runtime:.6f} s")
    return 0


def _parse_query_line(line: str):
    """Parse 'workload platform [co-runners...]'; None for comments/blank.

    Range limits are checked when the stream becomes one
    :class:`~repro.cluster.BoundQuery`, the rule every front-end shares.
    """
    stripped = line.split("#", 1)[0].strip()
    if not stripped:
        return None
    parts = [int(tok) for tok in stripped.split()]
    if len(parts) < 2:
        raise ValueError(f"need 'workload platform [co-runners...]': {line!r}")
    workload, platform, *co = parts
    return workload, platform, co


def _read_queries(args, population) -> BoundQuery | None:
    """Queries from ``--queries`` or stdin as one canonical query;
    ``None`` (after printing) on a read, parse, or range failure."""
    if args.queries:
        try:
            lines = open(args.queries, encoding="utf-8")
        except OSError as exc:
            print(f"cannot read queries: {exc}", file=sys.stderr)
            return None
    else:
        lines = sys.stdin
    try:
        rows = [row for row in map(_parse_query_line, lines) if row is not None]
        return BoundQuery.from_rows(rows, population)
    except ValueError as exc:
        print(f"bad query: {exc}", file=sys.stderr)
        return None
    finally:
        if args.queries:
            lines.close()


def _print_bounds(query: BoundQuery, epsilons, bounds: np.ndarray) -> None:
    """One line per query: its canonical interferer set and its bounds."""
    for i in range(len(query)):
        co = query.interferers[i][query.interferers[i] >= 0]
        co_text = ",".join(map(str, co)) if len(co) else "-"
        budgets = " ".join(
            f"bound[eps={eps}]={bounds[i, j]:.6f}s"
            for j, eps in enumerate(epsilons)
        )
        print(f"workload={query.w_idx[i]} platform={query.p_idx[i]} "
              f"co={co_text} {budgets}")


def _print_serving_stats(stats: dict, generation: int) -> None:
    """The shared ``serve`` epilogue: cache, swap, and topology counters."""
    print(f"cache: {stats['cache_hits']} hit(s) / {stats['cache_misses']} "
          f"miss(es), hit rate {stats['hit_rate']:.1%}; "
          f"swaps: {stats['swaps']} "
          f"(invalidations: {stats['invalidations']}); "
          f"generation {generation}")
    print(f"topology: {stats['shards']} shard(s), queue depth "
          f"{stats['queue_depth']}, rejections {stats['rejections']}")


def _cmd_serve(args) -> int:
    if args.shards < 1 or args.queue_depth < 1:
        print("--shards and --queue-depth must be >= 1", file=sys.stderr)
        return 2
    result = _served(args)
    if result is None:
        return 2
    epsilons = result.spec.conformal.epsilons
    if args.shards > 1:
        return _cmd_serve_sharded(args, result, epsilons)
    service = result.service()
    query = _read_queries(args, service)
    if query is None:
        return 2

    # One shared forward serves every ε (predict_log is ε-independent).
    bounds = service.predict_bound_sweep(
        query.w_idx, query.p_idx, query.interferers, epsilons
    )
    _print_bounds(query, epsilons, bounds)
    print(f"served {len(query)} queries in {service.stats.batches} "
          f"batches ({len(epsilons)} epsilon(s) from one forward pass)")
    _print_serving_stats(service.stats.as_dict(), service.generation)
    return 0


def _cmd_serve_sharded(args, result, epsilons: tuple[float, ...]) -> int:
    """``serve --shards N``: answer the stream through worker processes
    sharing one read-only shared-memory snapshot."""
    service = ShardedPredictionService.from_predictor(
        result.predictor,
        n_shards=args.shards,
        queue_depth=args.queue_depth,
        start_method=args.start_method,
    )
    try:
        query = _read_queries(args, service)
        if query is None:
            return 2
        bounds = np.column_stack([
            service.predict_bound(
                query.w_idx, query.p_idx, query.interferers, eps
            )
            for eps in epsilons
        ])
        _print_bounds(query, epsilons, bounds)
        stats = service.collect_stats()
        print(f"served {len(query)} queries across {stats.shards} "
              f"shard(s) in {stats.batches} batches")
        _print_serving_stats(stats.as_dict(), service.generation)
    finally:
        audit = service.close()
    print(f"shared-memory audit: published {audit['published']}, "
          f"reclaimed {audit['reclaimed']}, leaked {audit['leaked']}")
    return 0 if audit["leaked"] == 0 else 1


def _cmd_bench_serve_open_loop(args) -> int:
    """``bench-serve --open-loop``: wall-clock tail latencies of a live
    sharded service under scheduled (coordinated-omission-free) load."""
    from .serving.loadgen import OpenLoopConfig, drive_open_loop, generate_trace

    if args.shards < 1 or args.queue_depth < 1:
        print("--shards and --queue-depth must be >= 1", file=sys.stderr)
        return 2
    result = _served(args)
    if result is None:
        return 2
    try:
        config = OpenLoopConfig(
            rate=args.rate,
            duration=args.duration,
            seed=args.seed,
            zipf_s=args.zipf,
            burst_multiplier=args.burst,
            epsilon=result.spec.conformal.epsilons[0],
        )
    except ValueError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    trace = generate_trace(
        config, result.model.n_workloads, result.model.n_platforms
    )
    service = ShardedPredictionService.from_predictor(
        result.predictor,
        n_shards=args.shards,
        queue_depth=args.queue_depth,
        start_method=args.start_method,
    )
    try:
        run = drive_open_loop(service, trace)
        stats = service.collect_stats()
        generation = service.generation
    finally:
        audit = service.close()

    def ms(value: float) -> str:
        return "n/a" if value != value else f"{1000.0 * value:.2f} ms"

    pct = run.percentiles()
    print(f"open loop: {run.offered} queries over {config.duration:g}s "
          f"({trace.offered_rate:,.0f} q/s offered, zipf_s={args.zipf:g}, "
          f"burst={args.burst:g}x)")
    print(f"completed {run.completed}, dropped {run.dropped}, "
          f"rejections {run.rejections} "
          f"({100.0 * run.reject_rate:.1f}% of offered)")
    print(f"throughput: {run.throughput:,.0f} q/s over "
          f"{run.makespan:.2f}s makespan")
    print(f"latency from scheduled arrival: p50 {ms(pct['p50'])}, "
          f"p99 {ms(pct['p99'])}, p999 {ms(pct['p999'])}")
    _print_serving_stats(stats.as_dict(), generation)
    print(f"shared-memory audit: published {audit['published']}, "
          f"reclaimed {audit['reclaimed']}, leaked {audit['leaked']}")
    return 0 if audit["leaked"] == 0 else 1


def _cmd_bench_serve(args) -> int:
    if args.open_loop:
        return _cmd_bench_serve_open_loop(args)
    if args.n_queries < 1 or args.cold_queries < 1:
        print("--n-queries and --cold-queries must be >= 1", file=sys.stderr)
        return 2
    result = _served(args)
    if result is None:
        return 2
    epsilon = result.spec.conformal.epsilons[0]
    predictor = result.predictor

    rng = np.random.default_rng(args.seed)
    test = result.split.test
    rows = rng.integers(0, test.n_observations, size=args.n_queries)
    w, p, k = test.w_idx[rows], test.p_idx[rows], test.interferers[rows]

    # Cold: the pre-snapshot serving story — one model forward per query.
    n_cold = min(args.cold_queries, args.n_queries)
    start = time.perf_counter()
    for i in range(n_cold):
        predictor.predict_bound(w[i : i + 1], p[i : i + 1], k[i : i + 1],
                                epsilon)
    cold_rate = n_cold / (time.perf_counter() - start)

    # Snapshot: vectorized inference-only forward, no memoization.
    service = PredictionService.from_predictor(predictor, cache_size=0)
    start = time.perf_counter()
    snapshot_bounds = service.predict_bound(w, p, k, epsilon)
    snapshot_rate = args.n_queries / (time.perf_counter() - start)

    # Cached: the same working set as single-row calls (the one call
    # shape the LRU serves), timed once the LRU has seen it.
    cached_service = PredictionService.from_predictor(predictor)
    singles = [
        (w[i : i + 1], p[i : i + 1], k[i : i + 1])
        for i in range(args.n_queries)
    ]
    for row in singles:  # warm
        cached_service.predict_bound(*row, epsilon)
    warm_hits, warm_misses = (
        cached_service.cache.hits, cached_service.cache.misses
    )
    start = time.perf_counter()
    cached_bounds = np.concatenate(
        [cached_service.predict_bound(*row, epsilon) for row in singles]
    )
    cached_rate = args.n_queries / (time.perf_counter() - start)
    steady_lookups = (
        cached_service.cache.hits - warm_hits
        + cached_service.cache.misses - warm_misses
    )
    steady_hit_rate = (
        (cached_service.cache.hits - warm_hits) / steady_lookups
        if steady_lookups
        else 0.0
    )

    reference = predictor.predict_bound(w[:256], p[:256], k[:256], epsilon)
    max_diff = float(np.abs(snapshot_bounds[:256] - reference).max())

    print(f"queries: {args.n_queries:,} (cold path timed on {n_cold})")
    print(f"cold per-call:  {cold_rate:12,.0f} q/s")
    print(f"snapshot batch: {snapshot_rate:12,.0f} q/s "
          f"({snapshot_rate / cold_rate:,.1f}x cold)")
    print(f"cached (LRU):   {cached_rate:12,.0f} q/s "
          f"({cached_rate / cold_rate:,.1f}x cold, single-row calls, "
          f"steady-state hit rate {steady_hit_rate:.1%})")
    print(f"max |snapshot - model| bound deviation: {max_diff:.2e} s")
    print("cached bounds match snapshot bounds bitwise"
          if np.array_equal(snapshot_bounds, cached_bounds)
          else "WARNING: cached bounds deviate from snapshot bounds")
    return 0


#: ``command [subcommand]`` → handler.
_HANDLERS = {
    "scenarios list": _cmd_scenarios_list,
    "pipeline run": _cmd_pipeline_run,
    "lifecycle run": _cmd_lifecycle_run,
    "schedule run": _cmd_schedule_run,
    "sweep run": _cmd_sweep_run,
    "store ls": _cmd_store_ls,
    "store gc": _cmd_store_gc,
    "predict": _cmd_predict,
    "serve": _cmd_serve,
    "bench-serve": _cmd_bench_serve,
    "lint": _run_lint,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    subcommand = getattr(args, "subcommand", None)
    name = f"{args.command} {subcommand}" if subcommand else args.command
    return _HANDLERS[name](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
