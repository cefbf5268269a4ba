"""Event-driven cluster simulator: worlds, policies, determinism."""

import numpy as np
import pytest

from repro.orchestration import (
    ClusterSimulator,
    FleetWorld,
    build_schedule_report,
    epoch_multipliers,
)
from repro.orchestration.simulator import _steady_epochs
from repro.scenarios import SCHEDULER_POLICIES, DriftSpec, SchedulingSpec

from reference_paths import reference_runtime


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


class TestFleetWorld:
    def test_from_dataset_shapes(self, mini_dataset):
        world = FleetWorld.from_dataset(mini_dataset)
        assert world.n_workloads == mini_dataset.n_workloads
        assert world.n_platforms == mini_dataset.n_platforms
        assert world.sigma > 0
        assert world.degree_offsets.shape == (4,)

    def test_sample_deterministic_and_drift_scales(self):
        world = _world()
        a = world.sample(0, 0, 1, 1.0, np.random.default_rng(7))
        b = world.sample(0, 0, 1, 1.0, np.random.default_rng(7))
        assert a == b
        doubled = world.sample(0, 0, 1, 2.0, np.random.default_rng(7))
        assert doubled == pytest.approx(2.0 * a)

    def test_reference_and_mean_positive(self):
        world = _world()
        assert reference_runtime(world, 0) > 0
        assert world.mean_runtime() > 0


class TestEpochMultipliers:
    def test_disabled_drift_is_flat(self):
        assert epoch_multipliers(None, 3) == [1.0, 1.0, 1.0]
        assert epoch_multipliers(DriftSpec(), 2) == [1.0, 1.0]

    def test_phases_spread_over_horizon(self):
        drift = DriftSpec(enabled=True, phases=(1.0, 2.0))
        assert epoch_multipliers(drift, 4) == [1.0, 1.0, 2.0, 2.0]

    def test_steady_epochs_drop_adaptation_edge(self):
        assert _steady_epochs([1.0, 1.0, 2.0, 2.0, 2.0, 2.0]) == [4, 5]
        assert _steady_epochs([1.0, 2.0]) == [1]
        assert _steady_epochs([]) == []


class TestEdgeCases:
    def test_empty_job_stream(self):
        world = _world()
        sched = _sched(jobs_per_epoch=0)
        result = ClusterSimulator(
            world, _StubService(world), sched, epsilon=0.1
        ).run()
        assert sum(e.arrivals for e in result.epochs) == 0
        assert result.events == []

    def test_zero_platforms_rejects_everything(self):
        world = _world(n_platforms=0)
        result = ClusterSimulator(
            world, _StubService(world), _sched(), epsilon=0.1
        ).run()
        totals = result.totals()
        assert totals["placed"] == 0
        assert totals["arrivals"] == 80
        assert all(e.utilization == 0.0 for e in result.epochs)

    def test_all_infeasible_deadlines(self):
        # Slack far below the bound margin: every budget check fails.
        world = _world(sigma=0.01)
        sched = _sched(deadline_slack=(0.01, 0.02), migrate=False)
        result = ClusterSimulator(
            world, _StubService(world), sched, epsilon=0.1
        ).run()
        assert result.totals()["placed"] == 0
        assert result.totals()["deadline_violation_rate"] is None

    def test_max_residents_one_never_colocates(self):
        world = _world()
        sched = _sched(max_residents=1, jobs_per_epoch=30)
        result = ClusterSimulator(
            world, _StubService(world), sched, epsilon=0.1
        ).run()
        placed = [j for j in result.jobs if j.platform is not None]
        assert placed
        assert all(j.placed_co == () for j in placed)

    def test_unknown_policy_rejected(self):
        world = _world()
        sched = _sched()
        object.__setattr__(sched, "policy", "mystery")
        with pytest.raises(ValueError, match="unknown policy"):
            ClusterSimulator(world, _StubService(world), sched, epsilon=0.1)

    def test_needs_service_or_lifecycle(self):
        with pytest.raises(ValueError, match="service or lifecycle"):
            ClusterSimulator(_world(), None, _sched(), epsilon=0.1)

    def test_multiplier_length_checked(self):
        world = _world()
        with pytest.raises(ValueError, match="multiplier"):
            ClusterSimulator(
                world, _StubService(world), _sched(epochs=4),
                epsilon=0.1, multipliers=[1.0],
            )


class TestDeterminism:
    @pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
    def test_same_seed_same_event_trace(self, policy):
        world = _world()
        sched = _sched(policy=policy, jobs_per_epoch=15)

        def run():
            return ClusterSimulator(
                world, _StubService(world), sched, epsilon=0.1, seed=11
            ).run()

        a, b = run(), run()
        assert a.events == b.events
        assert [e.as_dict() | {"decision_seconds": 0.0}
                for e in a.epochs] == \
               [e.as_dict() | {"decision_seconds": 0.0} for e in b.epochs]

    def test_different_seeds_differ(self):
        world = _world()
        sched = _sched()
        a = ClusterSimulator(
            world, _StubService(world), sched, epsilon=0.1, seed=1
        ).run()
        b = ClusterSimulator(
            world, _StubService(world), sched, epsilon=0.1, seed=2
        ).run()
        assert a.events != b.events


class TestPolicies:
    @pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
    def test_every_policy_places_and_accounts(self, policy):
        world = _world()
        sched = _sched(policy=policy, jobs_per_epoch=15)
        result = ClusterSimulator(
            world, _StubService(world), sched, epsilon=0.1
        ).run()
        totals = result.totals()
        assert totals["arrivals"] == 60
        assert totals["placed"] + sum(e.rejected for e in result.epochs) \
            == totals["arrivals"]
        assert totals["placed"] > 0
        # Every completed job carries a finite quote and realized runtime.
        done = [j for j in result.jobs if j.completed]
        assert done
        assert all(np.isfinite(j.quote) and j.quote > 0 for j in done)

    def test_flow_placements_credited_to_their_epoch(self):
        # Flow flushes run at the epoch-end sentinel, whose timestamp
        # rounds into the next epoch's bucket; placements must still be
        # booked against the epoch whose arrivals they serve (a row's
        # placed count can otherwise exceed its arrivals).
        world = _world()
        sched = _sched(policy="flow", jobs_per_epoch=5, epochs=3)
        result = ClusterSimulator(
            world, _StubService(world), sched, epsilon=0.1
        ).run()
        for epoch in result.epochs:
            assert epoch.placed + epoch.rejected == epoch.arrivals
            rate = epoch.as_dict()["placement_rate"]
            assert rate is None or 0.0 <= rate <= 1.0

    def test_greedy_quotes_tightest_feasible(self):
        # With a noise-free stub bound, greedy's chosen platform carries
        # the minimum bound among platforms with spare capacity.
        world = _world(sigma=0.01)
        sched = _sched(jobs_per_epoch=4, epochs=1, migrate=False)
        service = _StubService(world)
        result = ClusterSimulator(
            world, service, sched, epsilon=0.1, seed=5
        ).run()
        first = result.jobs[0]
        assert first.platform is not None
        bounds = service.predict_bound(
            np.full(world.n_platforms, first.workload),
            np.arange(world.n_platforms),
            np.full((world.n_platforms, 3), -1),
            0.1,
        )
        assert first.platform == int(np.argmin(bounds))

    def test_budget_violations_track_quotes(self):
        # Stub quotes sit a fixed margin above the world mean: with
        # sigma tiny, realized runtimes never exceed them.
        world = _world(sigma=0.01)
        result = ClusterSimulator(
            world, _StubService(world, margin=0.4), _sched(), epsilon=0.1
        ).run()
        assert result.totals()["budget_violation_rate"] == 0.0


class TestReport:
    def test_report_round_trips(self):
        world = _world()
        sched = _sched()
        run = lambda seed: ClusterSimulator(  # noqa: E731
            world, _StubService(world), sched, epsilon=0.1, seed=seed
        ).run()
        report = build_schedule_report(
            "test", run(0), run(0), [1.0] * 4, world.n_platforms, 1.5
        )
        payload = report.as_dict()
        clone = type(report).from_dict(payload)
        assert clone.as_dict() == payload
        assert clone.summary["epsilon"] == 0.1
