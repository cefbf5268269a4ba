"""Batched epoch-event path vs the reference per-platform loops.

``ClusterSimulator`` batches what used to be Python loops — per-job
migration screening quotes, per-row probe world draws, per-candidate
scan tuples, and the per-arrival open-platform scan — into oracle
batches, one vectorized RNG draw, and an occupancy-array comparison.
``reference_paths.ScalarEventSimulator`` replays the loops. Every test
here pins the same contract: **identical traces**, not
approximately-equal metrics.
"""

import numpy as np
import pytest

from repro.orchestration import ClusterSimulator, FleetWorld
from repro.orchestration.simulator import world_calibration_window
from repro.scenarios import SCHEDULER_POLICIES, SchedulingSpec

from reference_paths import ScalarEventSimulator


class _StubService:
    """Analytic bounds matching a noise-free world's structure."""

    def __init__(self, world: FleetWorld, margin: float = 0.4):
        self.world = world
        self.margin = margin
        self.generation = 0

    def predict_bound(self, w_idx, p_idx, interferers, epsilon):
        co = np.atleast_2d(interferers)
        n_co = (co >= 0).sum(axis=1)
        return np.array([
            np.exp(
                self.world.log_mean(int(w), int(p), int(k))
                + self.margin
            )
            for w, p, k in zip(np.asarray(w_idx), np.asarray(p_idx), n_co)
        ])


def _world(n_workloads=6, n_platforms=4, sigma=0.1) -> FleetWorld:
    rng = np.random.default_rng(0)
    return FleetWorld(
        w_base=rng.uniform(-1.0, 0.5, size=n_workloads),
        p_base=rng.uniform(-0.3, 0.3, size=n_platforms),
        degree_offsets=np.array([0.0, 0.05, 0.12, 0.2]),
        sigma=sigma,
    )


def _sched(**overrides) -> SchedulingSpec:
    defaults = dict(
        enabled=True, policy="greedy", epochs=4, jobs_per_epoch=20,
        max_residents=3, warmup_events=50,
    )
    defaults.update(overrides)
    return SchedulingSpec(**defaults)


def _run(simulator, world, sched, *, seed=11, **kwargs):
    return simulator(
        world, _StubService(world), sched, epsilon=0.1, seed=seed, **kwargs,
    ).run()


def _comparable_epochs(result):
    """Epoch rows minus the wall-clock field (the one nondeterminism)."""
    return [
        e.as_dict() | {"decision_seconds": 0.0} for e in result.epochs
    ]


class TestSampleBatch:
    def test_bitwise_matches_scalar_loop(self):
        world = _world(n_workloads=10, n_platforms=5, sigma=0.3)
        rng = np.random.default_rng(42)
        w = rng.integers(0, 10, size=64)
        p = rng.integers(0, 5, size=64)
        n_co = rng.integers(0, 4, size=64)
        scalar = np.array([
            world.sample(int(w[i]), int(p[i]), int(n_co[i]), 1.3,
                         np.random.default_rng(9 + i))
            for i in range(64)
        ])
        batch = np.array([
            world.sample_batch(w[i:i + 1], p[i:i + 1], n_co[i:i + 1], 1.3,
                               np.random.default_rng(9 + i))[0]
            for i in range(64)
        ])
        assert np.array_equal(scalar, batch)

    def test_stream_order_matches_sequential_draws(self):
        # One array draw must leave the generator exactly where n scalar
        # draws would — the batched probe path continues the same stream.
        world = _world(sigma=0.2)
        w = np.array([0, 1, 2, 3, 4, 5] * 3)
        p = np.array([0, 1, 2, 3] * 4 + [0, 1])
        n_co = np.array([0, 1, 2, 3] * 4 + [1, 2])
        r1, r2 = np.random.default_rng(3), np.random.default_rng(3)
        scalar = np.array([
            world.sample(int(w[i]), int(p[i]), int(n_co[i]), 0.8, r1)
            for i in range(len(w))
        ])
        batch = world.sample_batch(w, p, n_co, 0.8, r2)
        assert np.array_equal(scalar, batch)
        # Both generators end in the same state.
        assert r1.standard_normal() == r2.standard_normal()

    def test_calibration_window_uses_the_same_stream(self, mini_dataset):
        world = FleetWorld.from_dataset(mini_dataset)
        a = world_calibration_window(world, mini_dataset, 50, 1.1, seed=5)
        b = world_calibration_window(world, mini_dataset, 50, 1.1, seed=5)
        assert np.array_equal(a.runtime, b.runtime)
        assert np.array_equal(a.w_idx, b.w_idx)


class TestTraceParity:
    @pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
    def test_every_policy_identical_trace(self, policy):
        world = _world()
        sched = _sched(policy=policy, jobs_per_epoch=15)
        ref = _run(ScalarEventSimulator, world, sched)
        fast = _run(ClusterSimulator, world, sched)
        assert ref.events == fast.events
        assert _comparable_epochs(ref) == _comparable_epochs(fast)
        assert [vars(j) for j in ref.jobs] == [vars(j) for j in fast.jobs]

    def test_migration_heavy_horizon_identical(self):
        # Tight slack + noisy world + rising drift: the migration pass
        # actually fires, so the batched screening (and its dirty-set
        # fallback after a move) is exercised, not vacuously equal.
        world = _world(n_workloads=8, n_platforms=5, sigma=0.5)
        sched = _sched(
            jobs_per_epoch=25, epochs=5, deadline_slack=(1.0, 1.6),
        )
        multipliers = [1.0, 1.2, 1.5, 1.9, 2.4]
        ref = _run(ScalarEventSimulator, world, sched,
                   multipliers=multipliers)
        fast = _run(ClusterSimulator, world, sched,
                    multipliers=multipliers)
        assert sum(e.migrations for e in ref.epochs) > 0
        assert ref.events == fast.events
        assert _comparable_epochs(ref) == _comparable_epochs(fast)

    def test_dirty_platform_requote_identical(self):
        # Here a migration early in a pass changes the co-residents, and
        # so the screening quote, of a job screened later in the same
        # pass. The batched screen must re-quote that job instead of
        # reusing its pre-pass quote; reusing it changes this trace.
        world = _world(n_workloads=8, n_platforms=5, sigma=0.5)
        sched = _sched(
            jobs_per_epoch=25, epochs=5, deadline_slack=(1.2, 1.8),
            max_residents=4,
        )
        multipliers = [1.0, 1.2, 1.5, 1.9, 2.4]
        ref = _run(ScalarEventSimulator, world, sched, seed=18,
                   multipliers=multipliers)
        fast = _run(ClusterSimulator, world, sched, seed=18,
                    multipliers=multipliers)
        assert sum(e.migrations for e in ref.epochs) > 0
        assert ref.events == fast.events
        assert _comparable_epochs(ref) == _comparable_epochs(fast)

    def test_identical_trace_on_real_service(
        self, trained_pitot_quantile, mini_split, mini_dataset
    ):
        # The stub above is row-independent by construction; this pins
        # the same contract against a real conformal service — the
        # batched scan reorders rows within a predict_bound batch, which
        # must not change any quote.
        from repro.conformal import ConformalRuntimePredictor
        from repro.core import PAPER_QUANTILES
        from repro.serving import PredictionService

        cp = ConformalRuntimePredictor(
            trained_pitot_quantile.model, quantiles=PAPER_QUANTILES
        ).calibrate(mini_split.calibration, epsilons=(0.1,))
        service = PredictionService.from_predictor(cp)
        world = FleetWorld.from_dataset(mini_dataset)
        sched = _sched(jobs_per_epoch=12, epochs=3)

        def run(simulator):
            return simulator(world, service, sched, epsilon=0.1, seed=7).run()

        ref, fast = run(ScalarEventSimulator), run(ClusterSimulator)
        assert ref.events == fast.events
        assert [j.quote for j in ref.jobs] == [j.quote for j in fast.jobs]

    def test_occupancy_array_tracks_residents(self):
        world = _world()
        sim = ClusterSimulator(
            world, _StubService(world), _sched(), epsilon=0.1, seed=3,
        )
        sim.run()
        assert np.array_equal(
            sim._n_res,
            np.array([len(sim._residents[p])
                      for p in range(world.n_platforms)]),
        )
