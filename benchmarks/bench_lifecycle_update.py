"""Lifecycle extension — warm-start update vs full retrain at fleet scale.

The continual-learning loop's economics: when a deployed fleet streams a
fresh slice of observations, the alternatives are (a) retrain from
scratch at the scenario's full budget or (b) run a short warm-start
burst (`PitotTrainer.update`) over just the new rows through the
batch-sparse planner, so tower cost scales with the slice, not the
population. Both paths are timed end to end on the same synthetic fleet;
the PR's acceptance bar is a ≥5x wall-clock advantage for the warm path.

``REPRO_SCALE=full`` runs the true fleet-large grid (32768×4096,
2000-step retrain); the default fast grid halves the fleet axes and the
retrain budget so the bench lands in a couple of minutes.
"""

import time

import numpy as np

from repro.cluster.collection import synthetic_fleet_dataset
from repro.core import PitotConfig, PitotTrainer, TrainerConfig, train_pitot
from repro.eval import format_table

from conftest import emit

UPDATE_STEPS = 100
NEW_ROWS = 4096
DRIFT = 1.5
#: Drift is localized (one rack throttles), as the paper's Sec 6 examples
#: are: the fresh slice references a platform subset, which is exactly
#: where the batch-sparse planner prunes the platform tower.
DRIFTED_PLATFORMS = 256


def test_lifecycle_update_speedup(benchmark, scale):
    fast = scale.name == "fast"
    n_workloads, n_platforms = (16384, 2048) if fast else (32768, 4096)
    n_observations = 120_000 if fast else 400_000
    retrain_steps = 400 if fast else 2000

    def run():
        dataset = synthetic_fleet_dataset(
            n_workloads, n_platforms, n_observations, seed=0
        )
        base = dataset.subset(np.arange(n_observations - NEW_ROWS))
        # The drifted slice: observations from the throttled rack.
        rack = np.flatnonzero(dataset.p_idx < DRIFTED_PLATFORMS)[:NEW_ROWS]
        fresh = dataset.subset(rack)
        fresh.runtime = fresh.runtime * DRIFT

        config = TrainerConfig(
            steps=retrain_steps,
            eval_every=retrain_steps,  # no mid-run validation sweeps
        )
        start = time.perf_counter()
        result = train_pitot(
            base, None, model_config=PitotConfig(), trainer_config=config
        )
        retrain_s = time.perf_counter() - start

        trainer = PitotTrainer(result.model, config)
        start = time.perf_counter()
        trainer.update(fresh, steps=UPDATE_STEPS)
        update_s = time.perf_counter() - start
        return retrain_s, update_s

    retrain_s, update_s = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = retrain_s / update_s
    table = format_table(
        ["path", "steps", "wall clock", "steps/sec"],
        [
            ["full retrain (sparse)", str(retrain_steps),
             f"{retrain_s:.1f}s", f"{retrain_steps / retrain_s:.1f}"],
            [f"warm update ({NEW_ROWS} new rows)", str(UPDATE_STEPS),
             f"{update_s:.1f}s", f"{UPDATE_STEPS / update_s:.1f}"],
            ["speedup", "", f"{speedup:.1f}x", ""],
        ],
        title=(
            f"Lifecycle: incorporating a {NEW_ROWS}-row slice from a "
            f"{DRIFTED_PLATFORMS}-platform drifted rack on a "
            f"{n_workloads}x{n_platforms} fleet — warm-start update vs "
            f"full retrain"
        ),
    )
    emit(
        "lifecycle_update",
        table,
        metrics={
            "retrain_seconds": (retrain_s, "s"),
            "update_seconds": (update_s, "s"),
            "speedup": (speedup, "x"),
            "retrain_steps": (retrain_steps, "steps"),
            "update_steps": (UPDATE_STEPS, "steps"),
        },
    )
    assert speedup >= 5.0
