"""Simulator throughput: batched epoch events vs per-platform loops.

The event-driven ``ClusterSimulator`` historically paid Python dispatch
per platform at every epoch boundary — one ``predict_bound`` round-trip
per running job in the migration screen, one scalar world draw per
probe, one comprehension over all platforms per arrival. The simulator
now folds those into one oracle batch, one vectorized RNG draw, and an
occupancy-array scan; ``reference_paths.ScalarEventSimulator`` replays
the loops. The traces are identical
(``tests/orchestration/test_batched_events.py``), so the only question
is epochs/sec.

The service here is a vectorized analytic stub: bound queries cost one
fancy-index expression, so the measured gap isolates simulator dispatch
rather than model inference (that axis is ``bench_serving_throughput``).
"""

import time

import numpy as np

from repro.eval import format_table
from repro.orchestration import ClusterSimulator, FleetWorld
from repro.scenarios import SchedulingSpec

from conftest import emit
from reference_paths import ScalarEventSimulator

#: (label, n_workloads, n_platforms, jobs_per_epoch) fleet presets.
SCALES = [
    ("campus", 64, 48, 150),
    ("fleet", 256, 192, 600),
]
EPOCHS = 6


class _AnalyticService:
    """Vectorized stub bounds: one indexed expression per batch."""

    generation = 0

    def __init__(self, world: FleetWorld, margin: float = 0.4) -> None:
        self.world = world
        self.margin = margin

    def predict_bound(self, w_idx, p_idx, interferers, epsilon):
        w = np.asarray(w_idx, dtype=np.intp)
        p = np.asarray(p_idx, dtype=np.intp)
        co = np.atleast_2d(np.asarray(interferers))
        degree = np.minimum(1 + (co >= 0).sum(axis=1), 4)
        return np.exp(
            self.world.w_base[w]
            + self.world.p_base[p]
            + self.world.degree_offsets[degree - 1]
            + self.margin
        )


def _make_world(n_workloads: int, n_platforms: int) -> FleetWorld:
    rng = np.random.default_rng(0)
    return FleetWorld(
        w_base=rng.uniform(-1.0, 0.5, size=n_workloads),
        p_base=rng.uniform(-0.3, 0.3, size=n_platforms),
        degree_offsets=np.array([0.0, 0.05, 0.12, 0.2]),
        sigma=0.4,
    )


def _epochs_per_sec(
    world: FleetWorld, jobs_per_epoch: int, simulator=ClusterSimulator
) -> float:
    sched = SchedulingSpec(
        enabled=True,
        policy="greedy",
        epochs=EPOCHS,
        jobs_per_epoch=jobs_per_epoch,
        max_residents=3,
        warmup_events=50,
        deadline_slack=(1.0, 1.8),
    )
    sim = simulator(
        world,
        _AnalyticService(world),
        sched,
        epsilon=0.1,
        seed=11,
    )
    start = time.perf_counter()
    sim.run()
    return EPOCHS / (time.perf_counter() - start)


def test_simulator_throughput(benchmark):
    """Epochs/sec, reference event loop vs batched epoch events."""
    fleet = SCALES[-1]
    benchmark.pedantic(
        lambda: _epochs_per_sec(
            _make_world(fleet[1], fleet[2]), fleet[3]
        ),
        rounds=1,
        iterations=1,
    )
    rows, metrics = [], {}
    for label, n_workloads, n_platforms, jobs_per_epoch in SCALES:
        world = _make_world(n_workloads, n_platforms)
        _epochs_per_sec(world, jobs_per_epoch)  # warmup
        batched = _epochs_per_sec(world, jobs_per_epoch)
        reference = _epochs_per_sec(
            world, jobs_per_epoch, ScalarEventSimulator
        )
        ratio = batched / reference
        rows.append([
            f"{label} ({n_platforms} platforms, "
            f"{jobs_per_epoch} jobs/epoch)",
            f"{reference:.2f}",
            f"{batched:.2f}",
            f"{ratio:.2f}x",
        ])
        metrics[f"{label}_reference"] = (reference, "epochs/sec")
        metrics[f"{label}_batched"] = (batched, "epochs/sec")
        metrics[f"{label}_speedup"] = (ratio, "x")
    table = format_table(
        ["scale", "reference epochs/s", "batched epochs/s", "speedup"],
        rows,
        title="Simulator throughput (greedy policy, migration on)",
    )
    emit("simulator_throughput", table, metrics)
    # The batched path must actually win where the loops dominate
    # (measured ~3.8x on 1 CPU core); asserted with headroom for noise.
    assert metrics["fleet_speedup"][0] >= 1.5
