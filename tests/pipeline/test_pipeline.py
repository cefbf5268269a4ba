"""Staged pipeline: cold/warm runs, cache keying, stage wiring."""

import numpy as np
import pytest

from repro.core import PAPER_QUANTILES
from repro.pipeline import (
    PIPELINE_STAGES,
    ArtifactStore,
    run_pipeline,
)
from repro.scenarios import get_scenario

#: The batch prefix a default (stop_after="snapshot") run covers; the
#: continual-learning suffix is exercised in test_lifecycle_stages.py.
ALL_STAGES = tuple(stage.name for stage in PIPELINE_STAGES)[:6]


@pytest.fixture(scope="module")
def smoke_spec():
    return get_scenario("smoke")


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    return tmp_path_factory.mktemp("artifact-store")


@pytest.fixture(scope="module")
def cold(smoke_spec, store_root):
    return run_pipeline(smoke_spec, store=store_root)


class TestColdRun:
    def test_executes_every_stage(self, cold):
        assert cold.executed == ALL_STAGES
        assert cold.cached == ()

    def test_result_exposes_every_artifact(self, cold):
        assert cold.dataset.n_observations > 0
        assert cold.split.n_train > 0
        assert cold.baseline.w_bar.shape == (cold.dataset.n_workloads,)
        assert cold.training.steps_run == cold.spec.trainer.steps
        assert cold.model is cold.training.model
        assert cold.predictor.choices
        assert cold.snapshot.n_workloads == cold.dataset.n_workloads
        assert np.isfinite(cold.metrics["best_val_loss"])

    def test_trainer_property_is_bound_to_model(self, cold):
        trainer = cold.trainer
        assert trainer.model is cold.model
        loss = trainer.evaluate_loss(cold.split.calibration)
        assert np.isfinite(loss)

    def test_service_serves_calibrated_bounds(self, cold):
        service = cold.service()
        eps = cold.spec.conformal.epsilons[0]
        w = np.array([0, 1])
        p = np.array([0, 1])
        bounds = service.predict_bound(w, p, None, eps)
        expected = cold.predictor.predict_bound(w, p, None, eps)
        np.testing.assert_allclose(bounds, expected, rtol=0, atol=1e-10)


class TestWarmRun:
    def test_warm_run_executes_zero_stages(self, cold, smoke_spec, store_root):
        warm = run_pipeline(smoke_spec, store=store_root)
        assert warm.executed == ()
        assert warm.cached == ALL_STAGES
        assert warm.stage_keys == cold.stage_keys

    def test_warm_artifacts_match_cold_bitwise(self, cold, smoke_spec,
                                               store_root):
        warm = run_pipeline(smoke_spec, store=store_root)
        assert np.array_equal(warm.dataset.runtime, cold.dataset.runtime)
        assert np.array_equal(warm.split.train_rows, cold.split.train_rows)
        assert warm.training.train_loss_history == cold.training.train_loss_history
        assert warm.training.best_val_loss == cold.training.best_val_loss
        assert warm.predictor.choices == cold.predictor.choices
        assert warm.metrics == cold.metrics
        assert np.array_equal(warm.snapshot.W, cold.snapshot.W)

    def test_warm_service_matches_cold(self, cold, smoke_spec, store_root):
        warm = run_pipeline(smoke_spec, store=store_root)
        eps = smoke_spec.conformal.epsilons[0]
        test = cold.split.test
        a = cold.service().predict_bound_sweep(
            test.w_idx, test.p_idx, test.interferers, (eps,)
        )
        b = warm.service().predict_bound_sweep(
            test.w_idx, test.p_idx, test.interferers, (eps,)
        )
        assert np.array_equal(a, b)

    def test_force_recomputes_everything(self, cold, smoke_spec, store_root):
        forced = run_pipeline(smoke_spec, store=store_root, force=True)
        assert forced.executed == ALL_STAGES
        assert forced.training.best_val_loss == cold.training.best_val_loss


class TestCacheKeying:
    def test_trainer_edit_reuses_collect_and_scale(self, cold, smoke_spec,
                                                   store_root):
        edited = smoke_spec.scaled(steps=smoke_spec.trainer.steps + 10)
        result = run_pipeline(edited, store=store_root)
        assert result.cached == ("collect", "scale")
        assert result.executed == ("train", "calibrate", "evaluate", "snapshot")
        assert result.stage_keys["collect"] == cold.stage_keys["collect"]
        assert result.stage_keys["train"] != cold.stage_keys["train"]

    def test_epsilon_edit_reuses_training_and_snapshot(self, cold, smoke_spec,
                                                       store_root):
        edited = smoke_spec.scaled(epsilons=(0.2,))
        result = run_pipeline(edited, store=store_root)
        assert "train" in result.cached
        # The snapshot depends on the trained model only — a
        # conformal-only edit must not invalidate it.
        assert "snapshot" in result.cached
        assert "calibrate" in result.executed

    def test_margin_edit_reuses_training_and_persists_params(
        self, cold, smoke_spec, store_root
    ):
        """A margin-mode edit re-runs only the conformal suffix, and the
        margin params survive the predictor's json round trip: the warm
        read rebuilds the same MarginParams, not the default."""
        edited = smoke_spec.scaled(margin="weighted", margin_tau=123.0)
        result = run_pipeline(edited, store=store_root)
        assert "train" in result.cached and "snapshot" in result.cached
        assert "calibrate" in result.executed
        assert result.predictor.margin.mode == "weighted"
        warm = run_pipeline(edited, store=store_root)
        assert "calibrate" in warm.cached
        assert warm.predictor.margin.mode == "weighted"
        assert warm.predictor.margin.tau == 123.0
        assert warm.predictor.choices == result.predictor.choices

    def test_collect_seed_edit_invalidates_everything(self, cold, smoke_spec,
                                                      store_root):
        result = run_pipeline(
            smoke_spec.with_seeds(collect=123), store=store_root
        )
        assert result.executed == ALL_STAGES

    def test_stale_payload_schema_reads_as_miss(self, smoke_spec, tmp_path):
        """A schema bump under an unchanged key recomputes, never aborts."""
        store = ArtifactStore(tmp_path)
        cold = run_pipeline(smoke_spec, store=store)
        # Simulate an archive written under an older payload schema.
        dataset_npz = (
            store.read_dir("collect", cold.stage_keys["collect"])
            / "dataset.npz"
        )
        with np.load(dataset_npz, allow_pickle=True) as archive:
            payload = {name: archive[name] for name in archive.files}
        payload["schema_version"] = np.array(999)
        np.savez_compressed(dataset_npz, **payload)

        result = run_pipeline(smoke_spec, store=store)
        assert "collect" in result.executed
        assert np.array_equal(result.dataset.runtime, cold.dataset.runtime)
        # The rewritten artifact is healthy again: next run is fully warm.
        warm = run_pipeline(smoke_spec, store=store)
        assert warm.executed == ()

    def test_list_valued_knobs_reload_warm(self, tmp_path):
        """Sequence knobs given as lists (how ``--set`` JSON arrives)
        train a model whose stored config loads back."""
        spec = get_scenario("smoke").scaled(
            hidden=[8], quantiles=list(PAPER_QUANTILES), epsilons=[0.1, 0.05]
        )
        cold = run_pipeline(spec, store=tmp_path)
        assert cold.executed == ALL_STAGES
        warm = run_pipeline(spec, store=tmp_path)
        assert warm.cached == ALL_STAGES
        assert warm.model.config.hidden == (8,)
        assert warm.model.config.quantiles == PAPER_QUANTILES

    def test_store_holds_both_variants(self, store_root):
        store = ArtifactStore(store_root)
        entries = store.stage_entries()
        assert entries["collect"] >= 2  # smoke + reseeded smoke
        assert entries["train"] >= 2


class TestStopAfter:
    def test_collect_only(self, smoke_spec):
        result = run_pipeline(smoke_spec, stop_after="collect")
        assert result.executed == ("collect",)
        assert result.dataset is not None
        assert result.training is None

    def test_unknown_stage_rejected(self, smoke_spec):
        with pytest.raises(ValueError, match="unknown stage"):
            run_pipeline(smoke_spec, stop_after="deploy")


class TestScenarioVariants:
    def test_registry_name_accepted(self):
        result = run_pipeline("smoke", stop_after="collect")
        assert result.spec.name == "smoke"

    def test_cold_start_scenario_end_to_end(self, tmp_path):
        spec = (
            get_scenario("cold-start-workloads")
            .scaled(n_workloads=24, n_devices=4, n_runtimes=3,
                    sets_per_degree=6, steps=30, eval_every=15,
                    hidden=(8,), embedding_dim=4, epsilons=(0.1,))
        )
        result = run_pipeline(spec, store=tmp_path)
        seen = set(np.unique(result.split.train.w_idx))
        seen |= set(np.unique(result.split.calibration.w_idx))
        unseen = set(np.unique(result.split.test.w_idx)) - seen
        assert unseen, "cold-start split must hold out whole workloads"
        assert np.isfinite(result.metrics["mape_isolation"])

    def test_synthetic_fleet_scenario(self, tmp_path):
        spec = get_scenario("fleet-large").scaled(
            n_workloads=256, n_platforms=64, n_observations=2000,
            steps=10, eval_every=5, hidden=(8,), embedding_dim=4,
            epsilons=(0.1,),
        )
        result = run_pipeline(spec, store=tmp_path)
        assert result.dataset.n_workloads == 256
        assert result.dataset.n_platforms == 64
        warm = run_pipeline(spec, store=tmp_path)
        assert warm.executed == ()
