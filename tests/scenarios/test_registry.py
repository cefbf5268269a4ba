"""Scenario registry + spec contract."""

import pytest

from repro.scenarios import (
    FleetSpec,
    ScenarioSpec,
    SplitSpec,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
)

#: The regimes the tentpole promises (ISSUE 3).
REQUIRED_SCENARIOS = (
    "paper",
    "fleet-large",
    "heterogeneous-runtimes",
    "interference-heavy",
    "cold-start-workloads",
    "sparse-observations",
)


class TestRegistry:
    def test_required_scenarios_registered(self):
        names = scenario_names()
        for name in REQUIRED_SCENARIOS:
            assert name in names

    def test_at_least_six_scenarios(self):
        assert len(scenario_names()) >= 6

    def test_specs_are_named_and_described(self):
        for spec in iter_scenarios():
            assert spec.name in scenario_names()
            assert spec.description
            assert spec.describe()

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(KeyError, match="paper"):
            get_scenario("nonexistent")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("paper", lambda: get_scenario("paper"))

    def test_get_returns_fresh_equal_specs(self):
        a, b = get_scenario("paper"), get_scenario("paper")
        assert a == b and a is not b


class TestSpecHashing:
    def test_hash_is_stable_across_instances(self):
        assert (
            get_scenario("paper").spec_hash()
            == get_scenario("paper").spec_hash()
        )

    def test_every_scenario_hashes_uniquely(self):
        hashes = {spec.spec_hash() for spec in iter_scenarios()}
        assert len(hashes) == len(scenario_names())

    def test_scaling_changes_hash(self):
        base = get_scenario("paper")
        assert base.scaled(n_workloads=10).spec_hash() != base.spec_hash()

    def test_component_hash_isolates_components(self):
        base = get_scenario("paper")
        scaled = base.scaled(steps=17)
        # trainer changed → trainer excerpt differs, fleet excerpt does not.
        assert base.component_hash("trainer") != scaled.component_hash("trainer")
        assert base.component_hash("fleet") == scaled.component_hash("fleet")

    def test_component_hash_dotted_leaf(self):
        base = get_scenario("paper")
        reseeded = base.with_seeds(collect=99)
        assert (
            base.component_hash("seeds.collect")
            != reseeded.component_hash("seeds.collect")
        )
        assert (
            base.component_hash("seeds.split")
            == reseeded.component_hash("seeds.split")
        )


class TestSpecDerivation:
    def test_scaled_routes_to_components(self):
        spec = get_scenario("paper").scaled(
            n_workloads=12, sets_per_degree=5, steps=30, train_fraction=0.4
        )
        assert spec.fleet.n_workloads == 12
        assert spec.collection.sets_per_degree == 5
        assert spec.trainer.steps == 30
        assert spec.split.train_fraction == 0.4

    def test_scaled_ignores_none(self):
        base = get_scenario("paper")
        assert base.scaled(n_workloads=None, steps=None) == base

    def test_scaled_rejects_unknown_knob(self):
        with pytest.raises(ValueError, match="unknown scenario knob"):
            get_scenario("paper").scaled(warp_factor=9)

    @pytest.mark.parametrize(
        "knob", ["grad_workers", "fused_kernels", "tape_cache"]
    )
    def test_retired_engine_knobs_are_unknown(self, knob):
        with pytest.raises(ValueError, match="unknown scenario knob"):
            get_scenario("paper").scaled(**{knob: 2})

    def test_with_seeds_partial_update(self):
        spec = get_scenario("paper").with_seeds(split=7)
        assert spec.seeds.split == 7
        assert spec.seeds.collect == 0

    def test_specs_are_frozen(self):
        spec = get_scenario("paper")
        with pytest.raises(AttributeError):
            spec.name = "other"


class TestSpecValidation:
    def test_synthetic_requires_dimensions(self):
        with pytest.raises(ValueError, match="synthetic"):
            FleetSpec(synthetic=True)

    def test_real_fleet_rejects_synthetic_knobs(self):
        with pytest.raises(ValueError, match="synthetic"):
            FleetSpec(n_platforms=10)

    def test_bad_train_fraction(self):
        with pytest.raises(ValueError, match="train_fraction"):
            SplitSpec(train_fraction=1.5)

    def test_bad_holdout_name(self):
        with pytest.raises(ValueError, match="holdout"):
            SplitSpec(holdout="warm-ish")

    def test_cold_holdout_requires_fraction(self):
        with pytest.raises(ValueError, match="holdout_fraction"):
            SplitSpec(holdout="cold-workload", holdout_fraction=0.0)

    def test_bad_epsilon(self):
        from repro.scenarios import ConformalSpec

        with pytest.raises(ValueError, match="epsilon"):
            ConformalSpec(epsilons=(1.2,))

    def test_bad_margin_knobs(self):
        from repro.scenarios import ConformalSpec

        with pytest.raises(ValueError, match="margin"):
            ConformalSpec(margin="jackknife")
        with pytest.raises(ValueError, match="margin_tau"):
            ConformalSpec(margin_tau=0.0)
        with pytest.raises(ValueError, match="margin_bootstrap"):
            ConformalSpec(margin_bootstrap=0)
        with pytest.raises(ValueError, match="margin_clip"):
            ConformalSpec(margin_clip=0.9)

    def test_margin_scales_through_conformal_component(self):
        spec = get_scenario("smoke").scaled(margin="weighted",
                                            margin_tau=100.0)
        assert spec.conformal.margin == "weighted"
        assert spec.conformal.margin_tau == 100.0
        # Margin knobs change the conformal component only: training and
        # dataset ancestry stay shared across margin cells.
        base = get_scenario("smoke")
        assert spec.spec_hash() != base.spec_hash()
        assert spec.fleet == base.fleet and spec.trainer == base.trainer

    def test_synthetic_rejects_device_runtime_axis(self):
        with pytest.raises(ValueError, match="device/runtime"):
            get_scenario("fleet-large").scaled(n_devices=4)

    def test_synthetic_rejects_collection_knobs(self):
        # A campaign knob on a synthetic fleet would be a silent no-op
        # (the dataset is drawn directly); it must be a loud error.
        with pytest.raises(ValueError, match="collection"):
            get_scenario("fleet-large").scaled(sets_per_degree=50)
        with pytest.raises(ValueError, match="performance"):
            get_scenario("fleet-large").scaled(interference_strength=2.0)

    def test_trainer_seed_mirrors_seeds_train(self):
        from dataclasses import replace

        from repro.core import TrainerConfig

        spec = get_scenario("paper").with_seeds(train=9)
        assert spec.trainer.seed == 9
        # A redundant trainer.seed spelling is normalized, so it cannot
        # fork the content hash of an identical computation.
        redundant = replace(
            get_scenario("paper").with_seeds(train=9),
            trainer=TrainerConfig(seed=3),
        )
        assert redundant.trainer.seed == 9
        assert redundant.spec_hash() == spec.spec_hash()

    def test_builder_name_mismatch_rejected(self):
        register_scenario("mismatched", lambda: ScenarioSpec(name="other"))
        try:
            with pytest.raises(RuntimeError, match="mismatched"):
                get_scenario("mismatched")
        finally:
            from repro.scenarios import registry

            registry._BUILDERS.pop("mismatched", None)


class TestSchedulingSpec:
    def test_schedule_scenario_registered(self):
        spec = get_scenario("schedule")
        assert spec.scheduling.enabled
        assert spec.drift.enabled
        assert spec.scheduling.policy == "greedy"
        assert "sched=greedy" in spec.describe()

    def test_batch_scenarios_keep_scheduling_inert(self):
        for name in REQUIRED_SCENARIOS:
            assert not get_scenario(name).scheduling.enabled

    def test_policy_validated(self):
        from repro.scenarios import SchedulingSpec

        with pytest.raises(ValueError, match="unknown policy"):
            SchedulingSpec(policy="mystery")

    def test_knob_validation(self):
        from repro.scenarios import SchedulingSpec

        with pytest.raises(ValueError, match="epochs"):
            SchedulingSpec(epochs=0)
        with pytest.raises(ValueError, match="max_residents"):
            SchedulingSpec(max_residents=5)
        with pytest.raises(ValueError, match="load"):
            SchedulingSpec(load=0.0)
        with pytest.raises(ValueError, match="deadline_slack"):
            SchedulingSpec(deadline_slack=(2.0, 1.0))
        with pytest.raises(ValueError, match="probes_per_epoch"):
            SchedulingSpec(probes_per_epoch=-1)
        with pytest.raises(ValueError, match="recalibrate_every"):
            SchedulingSpec(recalibrate_every=0)

    def test_scheduling_knobs_route_through_scaled(self):
        spec = get_scenario("schedule").scaled(
            policy="flow", epochs=5, jobs_per_epoch=9, load=0.3,
            probes_per_epoch=7,
        )
        assert spec.scheduling.policy == "flow"
        assert spec.scheduling.epochs == 5
        assert spec.scheduling.jobs_per_epoch == 9
        assert spec.scheduling.load == 0.3
        assert spec.scheduling.probes_per_epoch == 7

    def test_schedule_seed_feeds_the_hash(self):
        base = get_scenario("schedule")
        reseeded = base.with_seeds(schedule=42)
        assert reseeded.seeds.schedule == 42
        assert base.spec_hash() != reseeded.spec_hash()
        assert (
            base.component_hash("seeds.schedule")
            != reseeded.component_hash("seeds.schedule")
        )
        # The batch prefix is untouched: collect/train keys survive.
        assert (
            base.component_hash("fleet", "collection")
            == reseeded.component_hash("fleet", "collection")
        )
