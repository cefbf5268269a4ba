"""One tower pass per cold pipeline run.

After training, ``run_pipeline`` freezes the model once; calibrate,
evaluate and the snapshot stage score through that snapshot. The
answers must be the bits the model itself gives.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import PAPER_QUANTILES, PitotModel, PitotTrainer
from repro.eval import coverage, mape, overprovision_margin
from repro.pipeline import (
    calibrate_stage,
    collect_stage,
    evaluate_stage,
    run_pipeline,
    scale_stage,
    snapshot_stage,
    train_stage,
)
from repro.pipeline.stages import _spec_predictor
from repro.scenarios import get_scenario

SNAPSHOT_ARRAYS = ("W", "P", "VS", "VG", "baseline_w", "baseline_p")


@pytest.fixture(scope="module")
def spec():
    """``smoke`` with quantile heads and two ε, so calibration picks heads."""
    smoke = get_scenario("smoke")
    return replace(
        smoke,
        model=replace(smoke.model, quantiles=PAPER_QUANTILES),
        conformal=replace(smoke.conformal, epsilons=(0.1, 0.05)),
    )


@pytest.fixture
def tower_passes(monkeypatch):
    """Counts ``PitotModel.compute_embeddings`` calls outside training."""
    passes = {"outside_fit": 0}
    in_fit = [0]
    compute = PitotModel.compute_embeddings
    fit = PitotTrainer.fit

    def counting(self, *args, **kwargs):
        if not in_fit[0]:
            passes["outside_fit"] += 1
        return compute(self, *args, **kwargs)

    def fitting(self, *args, **kwargs):
        in_fit[0] += 1
        try:
            return fit(self, *args, **kwargs)
        finally:
            in_fit[0] -= 1

    monkeypatch.setattr(PitotModel, "compute_embeddings", counting)
    monkeypatch.setattr(PitotTrainer, "fit", fitting)
    return passes


def test_cold_run_makes_one_tower_pass_and_warm_none(tower_passes, tmp_path):
    cold = run_pipeline("smoke", store=tmp_path)
    assert len(cold.executed) == 6
    assert tower_passes["outside_fit"] == 1
    warm = run_pipeline("smoke", store=tmp_path)
    assert warm.executed == ()
    assert tower_passes["outside_fit"] == 1


def _assert_snapshots_equal(a, b):
    for name in SNAPSHOT_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None)
        if x is not None:
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_cold_run_equals_stage_by_stage(spec, tmp_path):
    cold = run_pipeline(spec, store=tmp_path)
    assert cold.snapshot is not None

    dataset = collect_stage(spec)
    split, _ = scale_stage(spec, dataset)
    training = train_stage(spec, split)
    snapshot = snapshot_stage(training.model)
    predictor = calibrate_stage(spec, training.model, split, snapshot)
    metrics = evaluate_stage(spec, training, predictor, split, snapshot)

    assert cold.metrics == metrics
    assert cold.predictor.choices == predictor.choices
    assert cold.predictor.model is cold.model
    _assert_snapshots_equal(cold.snapshot, snapshot)


def test_snapshot_scoring_equals_model_scoring(spec):
    """Calibration scored by the model, and test metrics from the model's
    point predictions and the predictor's per-ε bounds, give the same
    bits as the snapshot path."""
    dataset = collect_stage(spec)
    split, _ = scale_stage(spec, dataset)
    training = train_stage(spec, split)
    model = training.model
    snapshot = snapshot_stage(model)
    predictor = calibrate_stage(spec, model, split, snapshot)
    metrics = evaluate_stage(spec, training, predictor, split, snapshot)

    reference = _spec_predictor(spec, model).calibrate(
        split.calibration, epsilons=spec.conformal.epsilons
    )
    assert reference.choices == predictor.choices
    assert len({choice.head for choice in reference.choices.values()}) > 1

    test = split.test
    pred = model.predict_runtime(test.w_idx, test.p_idx, test.interferers)
    iso = test.isolation_mask()
    assert metrics["mape_isolation"] == float(mape(pred[iso], test.runtime[iso]))
    assert metrics["mape_interference"] == float(
        mape(pred[~iso], test.runtime[~iso])
    )
    for eps in spec.conformal.epsilons:
        bound = reference.predict_bound_dataset(test, eps)
        assert metrics["epsilons"][repr(eps)] == {
            "coverage": float(coverage(bound, test.runtime)),
            "margin": float(overprovision_margin(bound, test.runtime)),
        }
    assert np.isfinite(metrics["mape_interference"])
