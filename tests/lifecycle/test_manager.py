"""Continual-learning loop: drift traces, lifecycle verbs, coverage."""

import numpy as np
import pytest

from repro.lifecycle import (
    DriftTrace,
    LifecycleManager,
    make_drift_trace,
    run_lifecycle,
)
from repro.pipeline import run_pipeline
from repro.scenarios import get_scenario

EPS = 0.1


@pytest.fixture(scope="module")
def drift_spec():
    """drifting-fleet scaled to test size (two phases, 1.0x -> 1.6x)."""
    return get_scenario("drifting-fleet").scaled(
        n_workloads=40, n_devices=6, n_runtimes=4, sets_per_degree=20,
        steps=300, phases=(1.0, 1.6), events_per_phase=1500, chunk=300,
        update_steps=60, window=600,
    )


@pytest.fixture(scope="module")
def pipeline(drift_spec):
    return run_pipeline(drift_spec, store=None)


@pytest.fixture(scope="module")
def lifecycle(drift_spec, pipeline):
    return run_lifecycle(
        drift_spec, pipeline.dataset, pipeline.model, pipeline.predictor
    )


class TestDriftTrace:
    def test_trace_shape_and_phases(self, drift_spec, pipeline):
        trace = make_drift_trace(drift_spec, pipeline.dataset)
        assert trace.n_events == 2 * 1500
        np.testing.assert_array_equal(np.unique(trace.phase), [0, 1])
        assert trace.multipliers == (1.0, 1.6)

    def test_trace_is_deterministic(self, drift_spec, pipeline):
        a = make_drift_trace(drift_spec, pipeline.dataset)
        b = make_drift_trace(drift_spec, pipeline.dataset)
        np.testing.assert_array_equal(a.w_idx, b.w_idx)
        np.testing.assert_allclose(a.runtime, b.runtime)

    def test_phase_multiplier_applied(self, drift_spec, pipeline):
        trace = make_drift_trace(drift_spec, pipeline.dataset)
        # Same seed stream: phase-1 runtimes are base draws scaled 1.6x,
        # so the phase means differ by roughly that factor in log space.
        log_by_phase = [
            np.mean(np.log(trace.runtime[trace.phase == k])) for k in (0, 1)
        ]
        assert log_by_phase[1] - log_by_phase[0] == pytest.approx(
            np.log(1.6), abs=0.15
        )

    def test_chunks_cover_trace_in_order(self, drift_spec, pipeline):
        trace = make_drift_trace(drift_spec, pipeline.dataset)
        chunks = list(trace.chunks(700))
        assert sum(len(c) for c in chunks) == trace.n_events
        np.testing.assert_array_equal(
            np.concatenate(chunks), np.arange(trace.n_events)
        )

    def test_chunks_never_straddle_phase_boundaries(self, drift_spec,
                                                    pipeline):
        """A chunk size that does not divide events_per_phase emits a
        short chunk at each boundary instead of mixing regimes — per-tick
        phase attribution stays exact."""
        trace = make_drift_trace(drift_spec, pipeline.dataset)  # 1500/phase
        chunks = list(trace.chunks(400))
        assert [len(c) for c in chunks] == [400, 400, 400, 300] * 2
        for chunk in chunks:
            assert len(np.unique(trace.phase[chunk])) == 1

    def test_save_load_roundtrip(self, drift_spec, pipeline, tmp_path):
        trace = make_drift_trace(drift_spec, pipeline.dataset)
        trace.save(tmp_path / "trace.npz")
        loaded = DriftTrace.load(tmp_path / "trace.npz")
        np.testing.assert_array_equal(loaded.w_idx, trace.w_idx)
        np.testing.assert_array_equal(loaded.phase, trace.phase)
        assert loaded.multipliers == trace.multipliers

    def test_disabled_drift_rejected(self, pipeline):
        with pytest.raises(ValueError, match="drift"):
            make_drift_trace(get_scenario("paper"), pipeline.dataset)


class TestManagerVerbs:
    def test_update_recalibrate_promote_cycle(self, drift_spec, pipeline):
        manager = LifecycleManager(
            pipeline.model.clone(),
            pipeline.predictor,
            features_from=pipeline.dataset,
            trainer_config=drift_spec.trainer,
            window=600,
            epsilons=(EPS,),
        )
        test = pipeline.split.test
        rows = np.arange(min(800, test.n_observations))
        manager.ingest(
            test.w_idx[rows], test.p_idx[rows], test.interferers[rows],
            test.runtime[rows] * 1.5,
        )
        assert manager.ready_to_recalibrate()
        assert manager.buffer.max_drift_score() > 0
        generation_before = manager.service.generation
        manager.update(steps=10)
        fresh = manager.recalibrate()
        assert fresh.choices
        assert manager.promote(fresh) == generation_before + 1
        assert manager.service.generation == generation_before + 1

    def test_update_and_calibration_subsets_are_disjoint(
        self, drift_spec, pipeline
    ):
        manager = LifecycleManager(
            pipeline.model.clone(),
            pipeline.predictor,
            features_from=pipeline.dataset,
            window=600,
            epsilons=(EPS,),
        )
        test = pipeline.split.test
        rows = np.arange(200)
        manager.ingest(
            test.w_idx[rows], test.p_idx[rows], test.interferers[rows],
            test.runtime[rows],
        )
        train, cal = manager._window_split()
        assert train.n_observations + cal.n_observations == 200
        assert cal.n_observations == 200 // LifecycleManager.CALIBRATION_MODULUS

    def test_not_ready_on_thin_window(self, drift_spec, pipeline):
        manager = LifecycleManager(
            pipeline.model.clone(),
            pipeline.predictor,
            features_from=pipeline.dataset,
            window=600,
            epsilons=(EPS,),
        )
        test = pipeline.split.test
        manager.ingest(
            test.w_idx[:5], test.p_idx[:5], test.interferers[:5],
            test.runtime[:5],
        )
        assert not manager.ready_to_recalibrate()

    @pytest.mark.parametrize(
        "column, value, field",
        [
            ("w_idx", -1, "workload"),
            ("w_idx", "n_workloads", "workload"),
            ("p_idx", "n_platforms", "platform"),
            ("interferers", -5, "interferer"),
        ],
    )
    def test_malformed_observations_rejected(
        self, pipeline, column, value, field
    ):
        """A batch with an out-of-range index raises naming its field and
        buffers nothing: a negative index would otherwise wrap to a real
        entity when the window is scored."""
        dataset = pipeline.dataset
        manager = LifecycleManager(
            pipeline.model.clone(),
            pipeline.predictor,
            features_from=dataset,
            window=200,
            epsilons=(EPS,),
        )
        batch = pipeline.split.test.subset(np.arange(40))
        manager.ingest(
            batch.w_idx, batch.p_idx, batch.interferers, batch.runtime
        )
        before = manager.buffer.n_buffered()
        bad = {
            "w_idx": batch.w_idx.copy(),
            "p_idx": batch.p_idx.copy(),
            "interferers": batch.interferers.copy(),
        }
        index = (7, 0) if column == "interferers" else 7
        if isinstance(value, str):
            value = getattr(dataset, value)
        bad[column][index] = value
        with pytest.raises(ValueError, match=field):
            manager.ingest(
                bad["w_idx"], bad["p_idx"], bad["interferers"], batch.runtime
            )
        assert manager.buffer.n_buffered() == before


class TestCoverageOverTime:
    def test_acceptance_recalibrated_coverage_static_degrades(self, lifecycle):
        """The PR's acceptance criterion at test scale: after the drift
        phase's change-point recalibration, empirical coverage is within
        +-2% of the 1-eps target, while the never-recalibrated baseline
        collapses."""
        final_phase = [t for t in lifecycle.ticks if t.phase == 1]
        reset_tick = next(t.tick for t in final_phase if t.reset)
        # Steady state: the tick right after the reset recalibrates on a
        # single chunk's thin window; coverage concentrates once the
        # window has refilled past it.
        post = [t for t in final_phase if t.tick > reset_tick + 1]
        assert post, "expected post-recalibration ticks in the drifted phase"
        events = sum(t.events for t in post)
        adaptive = sum(t.coverage_adaptive * t.events for t in post) / events
        static = sum(t.coverage_static * t.events for t in post) / events
        assert abs(adaptive - (1 - EPS)) <= 0.02, adaptive
        assert static < 1 - EPS - 0.10, static

    def test_generations_promoted_each_update_tick(self, lifecycle):
        promoted = [t for t in lifecycle.ticks if t.promoted]
        assert len(promoted) >= len(lifecycle.ticks) - 1  # warm-up may skip
        assert lifecycle.service.generation == len(promoted)
        assert lifecycle.update_steps == 60 * len(promoted)

    def test_change_point_reset_fired_once_at_phase_switch(self, lifecycle):
        resets = [t for t in lifecycle.ticks if t.reset]
        assert len(resets) == 1
        assert resets[0].phase == 1  # the first drifted chunk

    def test_pre_drift_phase_stays_covered(self, lifecycle):
        phase0 = [t for t in lifecycle.ticks if t.phase == 0]
        events = sum(t.events for t in phase0)
        adaptive = sum(t.coverage_adaptive * t.events for t in phase0) / events
        assert adaptive >= 1 - EPS - 0.05

    def test_weighted_margin_softens_reset_to_downweighting(
        self, drift_spec, pipeline
    ):
        """Under `weighted` margins the change-point trigger never hard-
        clears the window: the exponential recency weights already decay
        the stale regime, so no tick may carry the reset flag — and the
        drifted phase still recovers coverage."""
        from repro.conformal import ConformalRuntimePredictor, MarginParams

        # τ is in window-event units (the manager tags each calibration
        # row with its window position): τ=300 ≡ one chunk's half-life.
        predictor = ConformalRuntimePredictor(
            pipeline.predictor.model,
            quantiles=pipeline.predictor.quantiles,
            strategy=pipeline.predictor.strategy,
            margin=MarginParams(mode="weighted", tau=300.0),
        ).calibrate(pipeline.split.calibration, epsilons=(EPS,))
        result = run_lifecycle(
            drift_spec, pipeline.dataset, pipeline.model, predictor
        )
        assert not any(t.reset for t in result.ticks)
        final = [t for t in result.ticks if t.phase == 1][2:]
        assert final, "expected settled ticks in the drifted phase"
        events = sum(t.events for t in final)
        adaptive = sum(t.coverage_adaptive * t.events for t in final) / events
        assert adaptive >= 1 - EPS - 0.06, adaptive

    def test_caller_model_is_not_mutated(self, pipeline, lifecycle):
        assert lifecycle.model is not pipeline.model
        # The pipeline's own predictor still serves: its model was not
        # perturbed by the replay's warm updates.
        assert lifecycle.service.generation > 0
