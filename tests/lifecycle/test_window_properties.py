"""Rolling-window conformal properties on the production recalibration path.

A lifecycle recalibration materializes the :class:`ObservationBuffer`
window, holds out every ``CALIBRATION_MODULUS``-th row with
:meth:`LifecycleManager.split_window`, and calibrates a
:class:`ConformalRuntimePredictor` on that hold-out. These properties
drive exactly those pieces with a zero-prediction model, so a row's
score is its log runtime:

* a stationary stream's window covers fresh draws at ≥ 1−ε up to
  binomial slack (the split-conformal guarantee, with ``n_cal`` the
  hold-out size);
* after a step-change drift, a window turned over by post-drift rows
  covers fresh post-drift draws the same way;
* each pool keeps the last ``min(window, fed)`` rows in arrival order,
  and the offsets are the order statistics of the hold-out they leave.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MAX_INTERFERERS, ObservationBuffer
from repro.cluster.collection import synthetic_fleet_dataset
from repro.conformal import ConformalRuntimePredictor, conformal_offsets_by_pool
from repro.lifecycle import LifecycleManager

#: Side information the window is materialized against (indices only
#: need to be in range; the zero model never reads features).
FEATURES = synthetic_fleet_dataset(4, 4, 16, seed=0)


class _ZeroModel:
    n_workloads = FEATURES.n_workloads
    n_platforms = FEATURES.n_platforms

    def predict_log(self, w_idx, p_idx, interferers=None):
        return np.zeros((len(np.asarray(w_idx)), 1))


def _recalibrate(buffer, epsilon):
    """What :meth:`LifecycleManager.recalibrate` does, on a zero model;
    returns the predictor and its calibration hold-out."""
    window = buffer.window_dataset(FEATURES)
    _, calibration = LifecycleManager.split_window(window)
    predictor = ConformalRuntimePredictor(_ZeroModel(), strategy="split")
    predictor.calibrate(
        calibration,
        epsilons=(epsilon,),
        arrivals=LifecycleManager.calibration_rows(window.n_observations),
    )
    return predictor, calibration


def _isolated(buffer, runtimes):
    n = len(runtimes)
    buffer.ingest(np.zeros(n, int), np.zeros(n, int), None, runtimes)


def _miscoverage(predictor, fresh, epsilon):
    n = len(fresh)
    bound = predictor.predict_bound(
        np.zeros(n, int), np.zeros(n, int), None, epsilon
    )
    return float(np.mean(fresh > bound))


def _slack(epsilon, n_test, n_cal):
    """Binomial slack on miscoverage: conditional on the calibration draw
    the empirical quantile is itself Beta-distributed, so both the
    test-side and the calibration-side variance enter."""
    return 4.0 * np.sqrt(
        epsilon * (1 - epsilon) * (1.0 / n_test + 1.0 / n_cal)
    ) + 1.0 / n_cal


@settings(max_examples=15, deadline=None)
@given(
    epsilon=st.sampled_from([0.05, 0.1, 0.2]),
    sigma=st.floats(0.1, 2.0),
    seed=st.integers(0, 10_000),
)
def test_property_window_covers_stationary_stream(epsilon, sigma, seed):
    rng = np.random.default_rng(seed)
    n_fed, n_test = 6000, 1500
    buffer = ObservationBuffer(window=n_fed)
    _isolated(buffer, np.exp(rng.normal(0.0, sigma, n_fed)))
    predictor, calibration = _recalibrate(buffer, epsilon)
    fresh = np.exp(rng.normal(0.0, sigma, n_test))
    n_cal = calibration.n_observations
    assert _miscoverage(predictor, fresh, epsilon) <= epsilon + _slack(
        epsilon, n_test, n_cal
    )


@settings(max_examples=15, deadline=None)
@given(
    epsilon=st.sampled_from([0.05, 0.1, 0.2]),
    drift=st.floats(1.3, 3.0),
    sigma=st.floats(0.2, 1.0),
    seed=st.integers(0, 10_000),
)
def test_property_window_recovers_after_step_change_drift(
    epsilon, drift, sigma, seed
):
    """A full window of post-drift rows evicts the stale regime, so the
    recalibrated bound covers fresh post-drift draws again."""
    rng = np.random.default_rng(seed)
    window, n_test = 4000, 1500
    buffer = ObservationBuffer(window=window)
    _isolated(buffer, np.exp(rng.normal(0.0, sigma, window)))
    post = drift * np.exp(rng.normal(0.0, sigma, window))
    _isolated(buffer, post)
    np.testing.assert_array_equal(buffer.window_rows()[3], post)
    predictor, calibration = _recalibrate(buffer, epsilon)
    fresh = drift * np.exp(rng.normal(0.0, sigma, n_test))
    n_cal = calibration.n_observations
    assert _miscoverage(predictor, fresh, epsilon) <= epsilon + _slack(
        epsilon, n_test, n_cal
    )


@settings(max_examples=25, deadline=None)
@given(
    window=st.integers(2, 200),
    batches=st.lists(st.integers(1, 150), min_size=1, max_size=8),
    seed=st.integers(0, 10_000),
)
def test_property_window_keeps_most_recent_rows_per_pool(
    window, batches, seed
):
    """After any ingestion pattern each pool keeps exactly its last
    ``min(window, fed)`` rows in order, the hold-out is every
    ``CALIBRATION_MODULUS``-th window row, and each pool's offset is the
    order statistic of its hold-out scores."""
    rng = np.random.default_rng(seed)
    buffer = ObservationBuffer(window=window)
    fed: dict[int, list[float]] = {1: [], 2: []}
    for n in batches:
        # Split each batch across two pools (isolation and 2-way).
        n_iso = int(rng.integers(0, n + 1))
        for pool, count in ((1, n_iso), (2, n - n_iso)):
            if count == 0:
                continue
            runtimes = np.exp(rng.normal(0.0, 1.0, count))
            interferers = np.full((count, MAX_INTERFERERS), -1)
            interferers[:, : pool - 1] = 0
            buffer.ingest(
                np.zeros(count, int), np.zeros(count, int),
                interferers, runtimes,
            )
            fed[pool].extend(runtimes.tolist())
    window_rows = buffer.window_dataset(FEATURES)
    for pool in (1, 2):
        kept = window_rows.runtime[window_rows.degree == pool]
        assert len(kept) == min(window, len(fed[pool]))
        np.testing.assert_array_equal(kept, fed[pool][len(fed[pool]) - len(kept):])

    modulus = LifecycleManager.CALIBRATION_MODULUS
    if window_rows.n_observations < modulus:
        with pytest.raises(ValueError, match="disjoint"):
            LifecycleManager.split_window(window_rows)
        return
    epsilon = 0.1
    predictor, calibration = _recalibrate(buffer, epsilon)
    np.testing.assert_array_equal(
        calibration.runtime, window_rows.runtime[modulus - 1::modulus]
    )
    expected = conformal_offsets_by_pool(
        calibration.log_runtime, calibration.degree, epsilon
    )
    for pool in (-1, *np.unique(calibration.degree).tolist()):
        assert predictor.choices[(epsilon, pool)].offset == expected.get(
            pool, expected[-1]
        )
