"""In-memory span recorder wrapped around the program's public entry points.

The benchmark never edits the program to trace it: :func:`instrument`
temporarily replaces a fixed list of public functions and methods with
wrappers that record a span (name, start, end, parent, and an optional
count such as rows scored) and then call the original. A layer's self
time is its spans' duration minus the part covered by child spans.
Spans stay in memory until :meth:`Tracer.write` dumps them at exit.

Only :func:`capture` is active in untraced runs: it keeps the return
value of ``ClusterSimulator.run`` (the adaptive run's jobs, from which
the schedule workload computes ``margin_pct``) and records no time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Spans of a run's traced operations, kept in memory."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: PredictionService instances seen by the wrappers, so their own
        #: cache counters can be read after the operation.
        self.services: dict[int, object] = {}

    def wrap(self, name, fn, count=None, keep_self=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([name, time.perf_counter(), None, parent, 0])
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[index][2] = time.perf_counter()
            if count is not None:
                tracer.spans[index][4] = count(args, result)
            if keep_self:
                tracer.services[id(args[0])] = args[0]
            return result

        return traced

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: total time, self time, calls and summed counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0, "count": 0}
        )
        for index, (name, start, end, _, n) in enumerate(self.spans):
            row = out[name]
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
            row["calls"] += 1
            row["count"] += n
        return dict(out)

    def write(self, path, header: dict) -> None:
        """Dump every span as JSON lines after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, n in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "count": n}
                    )
                    + "\n"
                )


def _rows(args, result):
    return len(args[1])


def _steps(args, result):
    return result.steps_run


def _targets():
    """(owner, attribute, span name, count, keep_self) for every wrapped
    entry point. Stage functions are replaced on the stages module, whose
    ``_compute_*`` helpers look them up there at call time; ``simulate_stage``
    imports the simulator names inside its body, so module attributes
    patched on ``repro.orchestration.simulator`` are the ones it binds."""
    from repro.cluster.dataset import RuntimeDataset
    from repro.conformal.predictor import ConformalRuntimePredictor
    from repro.core.trainer import PitotTrainer
    from repro.lifecycle.manager import LifecycleManager
    from repro.orchestration import simulator
    from repro.orchestration.oracle import BudgetOracle
    from repro.pipeline import stages
    from repro.serving.service import PredictionService
    from repro.serving.sharded import ShardedPredictionService

    return [
        (stages, "run_pipeline", "pipeline.run", None, False),
        (stages, "collect_stage", "cluster.collect", None, False),
        (RuntimeDataset, "save", "cluster.save", None, False),
        (stages, "save_model", "core.save", None, False),
        (stages, "scale_stage", "pipeline.scale", None, False),
        (stages, "train_stage", "core.train", _steps, False),
        (stages, "calibrate_stage", "pipeline.calibrate", None, False),
        (stages, "evaluate_stage", "pipeline.evaluate", None, False),
        (stages, "snapshot_stage", "pipeline.snapshot", None, False),
        (stages, "simulate_stage", "pipeline.simulate", None, False),
        (PitotTrainer, "update", "core.update", _steps, False),
        (ConformalRuntimePredictor, "calibrate", "conformal.calibrate", None, False),
        (LifecycleManager, "ingest", "lifecycle.ingest", None, False),
        (LifecycleManager, "update", "lifecycle.update", None, False),
        (LifecycleManager, "recalibrate", "lifecycle.recalibrate", None, False),
        (LifecycleManager, "promote", "lifecycle.promote", None, False),
        (simulator, "world_calibration_window", "orchestration.world", None, False),
        (simulator.FleetWorld, "from_dataset", "orchestration.world", None, False),
        (simulator.ClusterSimulator, "run", "orchestration.run", None, False),
        (BudgetOracle, "budgets", "orchestration.oracle", _rows, False),
        (BudgetOracle, "budgets_arrays", "orchestration.oracle", _rows, False),
        (PredictionService, "predict_bound", "serving.bound", None, True),
        (PredictionService, "swap", "serving.swap", None, False),
        (ShardedPredictionService, "predict_bound", "serving.sharded_bound", _rows, False),
        (ShardedPredictionService, "submit", "serving.submit", None, False),
        (ShardedPredictionService, "swap", "serving.sharded_swap", None, False),
    ]


@contextlib.contextmanager
def _patched(replacements):
    saved = []
    try:
        for owner, attr, new in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every target through ``tracer`` for the ``with`` block.

    The wrappers are built on entry, around whatever is installed then,
    so an enclosing :func:`capture` keeps working.
    """
    replacements = []
    for owner, attr, name, count, keep_self in _targets():
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(tracer.wrap(name, original.__func__, count))
        else:
            wrapped = tracer.wrap(name, original, count, keep_self)
        replacements.append((owner, attr, wrapped))
    with _patched(replacements):
        yield


@contextlib.contextmanager
def capture(results: list):
    """Append every ``ClusterSimulator.run`` result to ``results``."""
    from repro.orchestration.simulator import ClusterSimulator

    original = ClusterSimulator.__dict__["run"]

    @functools.wraps(original)
    def run(self):
        result = original(self)
        results.append(result)
        return result

    with _patched([(ClusterSimulator, "run", run)]):
        yield
