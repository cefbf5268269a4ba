"""The pipeline and scheduling workloads, plus what every workload shares.

Each workload function takes the run's seed, its measuring time and the
trace flag, and returns an :class:`Outcome`. Set-up work that repeats
per process start runs three times; its median is what ``setup_s``
counts. Timed operations repeat until the measuring time is used up,
each on inputs drawn from ``(seed, index)``; the reported time is their
median, and quality figures average a fixed number of them so they do
not depend on how many fitted. With tracing on, operations alternate
untraced and traced on identical inputs, so the two medians give the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import math
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.tracing import Tracer, capture, instrument

#: Set-up repetitions whose median ``setup_s`` counts.
SETUP_REPEATS = 3
#: ε at which every workload reports miscoverage and margin.
EPSILON = 0.1
#: Half-width of the coverage band, in standard deviations.
COVERAGE_Z = 5.0

#: Training steps of one cold pipeline run (the only knob scaled down
#: from the registry's 2000; collection and split sizes stay the paper's).
PAPER_STEPS = 100
#: Enough steps for the sparse fleet path to record, miss four times and
#: bail out of tape replay before it settles.
FLEET_STEPS = 20
#: Set-up training of the schedule model (the registry trains 800 steps;
#: violation and placement rates barely move at 100).
SCHEDULE_TRAIN_STEPS = 100
#: Warm-update steps per scheduler promotion. The registry's 150 leave
#: policy decisions about a tenth of the simulation; at 16 they are
#: about two fifths.
SCHEDULE_UPDATE_STEPS = 16

_COLD_STAGES = ("collect", "scale", "train", "calibrate", "evaluate", "snapshot")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: float
    #: Untraced and traced durations of each timed operation, seconds.
    walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    violation_pct: float = math.nan
    margin_pct: float = math.nan
    #: Per-layer values the workload reads from the program's own
    #: counters (EpochStats, ServiceStats) or its own measurements.
    layer: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None
    #: Seconds of the traced phase the layer shares are taken against.
    traced_phase_s: float = 0.0
    notes: list[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)


def seeded(spec, seed: int):
    """The spec with every random stream drawn from ``seed``."""
    return spec.with_seeds(
        collect=seed, split=seed, train=seed, model_init=seed,
        drift=seed, schedule=seed,
    )


def repeat_setup(step) -> tuple[float, object]:
    """Run ``step`` :data:`SETUP_REPEATS` times; (median seconds, last value)."""
    times, value = [], None
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        value = step()
        times.append(time.perf_counter() - started)
    return statistics.median(times), value


def repeat_ops(op, seconds: float, trace: bool, min_ops: int) -> None:
    """Call ``op(inputs, traced)`` until ``seconds`` have passed.

    Untraced runs make at least ``min_ops`` calls, each on new inputs.
    Traced runs make untraced/traced pairs on the same inputs and stop on
    a whole pair. Garbage from one call is collected before the next.
    """
    started = time.perf_counter()
    calls = 0
    while True:
        gc.collect()
        op(calls // 2 if trace else calls, trace and calls % 2 == 1)
        calls += 1
        done = calls % 2 == 0 if trace else calls >= min_ops
        if done and time.perf_counter() - started >= seconds:
            return


def coverage_band(epsilon: float, n_cal: int, n_test: int) -> tuple[float, float]:
    """Finite-sample band for split-conformal test coverage at ``epsilon``.

    Coverage given the calibration set is Beta-distributed around 1−ε
    with variance about ε(1−ε)/n_cal; the test set adds binomial noise
    ε(1−ε)/n_test. The per-pool order statistic can only overshoot, by
    about one calibration point per pool; the upper edge allows eight.
    """
    sd = math.sqrt(epsilon * (1 - epsilon) * (1 / n_cal + 1 / n_test))
    return (
        1 - epsilon - COVERAGE_Z * sd,
        1 - epsilon + COVERAGE_Z * sd + 8 / n_cal,
    )


def warm_up(scratch: Path) -> None:
    """A cold and a warm ``smoke`` pipeline: loads every lazy import and
    code path a first pipeline run would otherwise pay inside the timing."""
    from repro.pipeline import stages
    from repro.pipeline.artifacts import ArtifactStore

    store = tempfile.mkdtemp(dir=scratch)
    try:
        stages.run_pipeline("smoke", store=ArtifactStore(store))
        stages.run_pipeline("smoke", store=ArtifactStore(store))
    finally:
        shutil.rmtree(store)


# ----------------------------------------------------------------------
# pipeline-paper / pipeline-fleet
# ----------------------------------------------------------------------
def pipeline(name: str, steps: int, min_ops: int, seed: int, seconds: float,
             trace: bool, scratch: Path, imported_s: float) -> Outcome:
    """Cold ``run_pipeline`` (collect → snapshot) into a fresh store.

    Every run is checked: all six stages executed, and test coverage at
    each ε inside :func:`coverage_band`. The first run is also replayed
    warm from its store, which must execute no stage and return the same
    metrics.
    """
    from repro.eval.metrics import mape
    from repro.pipeline import stages
    from repro.pipeline.artifacts import ArtifactStore
    from repro.scenarios import get_scenario

    setup_s, _ = repeat_setup(lambda: warm_up(scratch))
    out = Outcome(setup_s=imported_s + setup_s)
    base = get_scenario(name).scaled(steps=steps)
    tracer = Tracer() if trace else None
    quality: list[tuple[float, float]] = []
    errors: list[float] = []

    def op(index: int, traced: bool) -> None:
        spec = seeded(base, seed * 1000 + index)
        store_dir = tempfile.mkdtemp(dir=scratch)
        try:
            store = ArtifactStore(store_dir)
            hooks = instrument(tracer) if traced else contextlib.nullcontext()
            started = time.perf_counter()
            with hooks:
                cold = stages.run_pipeline(spec, store=store)
            wall = time.perf_counter() - started
            (out.traced_walls if traced else out.walls).append(wall)
            warm = stages.run_pipeline(spec, store=store) if out.attempted == 0 else None
        finally:
            shutil.rmtree(store_dir)
        out.attempted += 1
        problems = []
        if cold.executed != _COLD_STAGES:
            problems.append(f"cold run executed {cold.executed}")
        if warm is not None and (warm.executed or warm.metrics != cold.metrics):
            problems.append(
                f"warm replay executed {warm.executed} "
                f"(metrics equal: {warm.metrics == cold.metrics})"
            )
        metrics = cold.metrics
        for eps_key, row in metrics["epsilons"].items():
            lo, hi = coverage_band(
                float(eps_key), metrics["n_calibration"], metrics["n_test"]
            )
            if not lo <= row["coverage"] <= hi:
                problems.append(
                    f"coverage {row['coverage']:.4f} at eps={eps_key} "
                    f"outside [{lo:.4f}, {hi:.4f}]"
                )
        if problems:
            out.fail("; ".join(problems))
        at_eps = metrics["epsilons"][repr(EPSILON)]
        if not traced:
            quality.append((100 * (1 - at_eps["coverage"]), 100 * at_eps["margin"]))
        else:
            test = cold.split.test
            predicted = cold.model.predict_runtime(
                test.w_idx, test.p_idx, test.interferers
            )
            errors.append(100 * mape(predicted, test.runtime))

    repeat_ops(op, seconds, trace, min_ops)
    out.violation_pct = float(np.mean([q[0] for q in quality[:min_ops]]))
    out.margin_pct = float(np.mean([q[1] for q in quality[:min_ops]]))
    if trace:
        out.tracer = tracer
        out.traced_phase_s = sum(out.traced_walls)
        out.layer["core.mape_pct"] = float(np.mean(errors))
    return out


def pipeline_paper(**kwargs) -> Outcome:
    return pipeline("paper", PAPER_STEPS, 3, **kwargs)


def pipeline_fleet(**kwargs) -> Outcome:
    return pipeline("fleet-large", FLEET_STEPS, 2, **kwargs)


# ----------------------------------------------------------------------
# schedule-drift
# ----------------------------------------------------------------------
def schedule_drift(seed: int, seconds: float, trace: bool, scratch: Path,
                   imported_s: float) -> Outcome:
    """``simulate_stage`` of the ``schedule`` scenario on a set-up model.

    The fleet, its dataset and the model trained in set-up keep the
    registry's seeds; each timed simulation draws its job stream (arrivals,
    world noise, drift and update batches) from ``(seed, index)``. Every
    epoch of both schedulers must account for each arrival as placed or
    rejected.
    """
    from repro.eval.metrics import overprovision_margin
    from repro.pipeline import stages
    from repro.scenarios import get_scenario

    min_ops = 4
    base = get_scenario("schedule").scaled(
        steps=SCHEDULE_TRAIN_STEPS, update_steps=SCHEDULE_UPDATE_STEPS
    )

    def prepare():
        dataset = stages.collect_stage(base)
        split, _ = stages.scale_stage(base, dataset)
        return dataset, stages.train_stage(base, split)

    setup_s, (dataset, training) = repeat_setup(prepare)
    out = Outcome(setup_s=imported_s + setup_s)
    tracer = Tracer() if trace else None
    epochs: list[dict] = []
    adaptive_rows: list[dict] = []
    quality: list[tuple[float, float]] = []

    def op(index: int, traced: bool) -> None:
        stream = seed * 1000 + index
        spec = base.with_seeds(drift=stream, schedule=stream)
        runs: list = []
        hooks = instrument(tracer) if traced else contextlib.nullcontext()
        with capture(runs):
            started = time.perf_counter()
            with hooks:
                report = stages.simulate_stage(spec, dataset, training)
            wall = time.perf_counter() - started
        (out.traced_walls if traced else out.walls).append(wall)
        out.attempted += 1
        bad = [
            f"{side} epoch {row['epoch']}: placed {row['placed']} + "
            f"rejected {row['rejected']} != arrivals {row['arrivals']}"
            for side in ("adaptive", "static")
            for row in getattr(report, side)
            if row["placed"] + row["rejected"] != row["arrivals"]
        ]
        if len(runs) != 2:
            bad.append(f"expected 2 simulator runs, saw {len(runs)}")
            out.fail("; ".join(bad))
            return
        if bad:
            out.fail("; ".join(bad))
        if traced:
            epochs.extend(report.adaptive + report.static)
            adaptive_rows.extend(report.adaptive)
            return
        done = [job for job in runs[0].jobs if job.completed]
        elapsed = np.array([job.completion - job.start for job in done])
        quotes = np.array([job.quote for job in done])
        quality.append((
            100 * report.summary["adaptive"]["budget_violation_rate"],
            100 * overprovision_margin(quotes, elapsed),
        ))

    repeat_ops(op, seconds, trace, min_ops)
    if quality:
        out.violation_pct = float(np.mean([q[0] for q in quality[:min_ops]]))
        out.margin_pct = float(np.mean([q[1] for q in quality[:min_ops]]))
    if trace:
        traced_ops = len(out.traced_walls)
        decisions = sum(row["decisions"] for row in epochs)
        arrivals = sum(row["arrivals"] for row in adaptive_rows)
        out.tracer = tracer
        out.traced_phase_s = sum(out.traced_walls)
        out.layer.update({
            "lifecycle.promotions": sum(r["promoted"] for r in epochs) / traced_ops,
            "lifecycle.resets": sum(r["reset"] for r in epochs) / traced_ops,
            "orchestration.decision_ms": (
                1e3 * sum(r["decision_seconds"] for r in epochs) / decisions
            ),
            "orchestration.migrations": sum(r["migrations"] for r in epochs) / traced_ops,
            "orchestration.placed_pct": (
                100 * sum(r["placed"] for r in adaptive_rows) / arrivals
            ),
        })
        hits = sum(s.stats.cache_hits for s in tracer.services.values())
        misses = sum(s.stats.cache_misses for s in tracer.services.values())
        out.layer["serving.cache_hit_pct"] = 100 * hits / max(hits + misses, 1)
    return out
