"""Margin engine units: modes, params, weights, and the naive contract."""

import numpy as np
import pytest

from repro.conformal import (
    MARGIN_MODES,
    MarginParams,
    conformal_offsets_by_pool,
    make_estimator,
    margin_offsets_by_pool,
    propensity_weights,
    recency_weights,
)
from repro.scenarios import MARGIN_MODES as SPEC_MARGIN_MODES


def _random_pools(rng, n):
    scores = rng.normal(0.0, 1.0, n)
    pools = rng.integers(1, 5, size=n)
    return scores, pools


class TestNaiveReference:
    def test_bitwise_identical_to_split_offsets(self):
        """The vectorized naive engine IS the legacy per-pool loop."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 400))
            scores, pools = _random_pools(rng, n)
            for eps in (0.02, 0.05, 0.1, 0.25):
                legacy = conformal_offsets_by_pool(scores, pools, eps)
                engine = margin_offsets_by_pool(scores, pools, eps, "naive")
                assert legacy.keys() == engine.keys()
                for pool in legacy:
                    assert legacy[pool] == engine[pool], (pool, eps, n)

    def test_thin_pools_fall_back_to_global(self):
        scores = np.arange(30, dtype=float)
        pools = np.r_[np.ones(28, int), [2, 2]]
        out = margin_offsets_by_pool(scores, pools, 0.1, "naive")
        assert set(out) == {-1, 1}  # pool 2 thinner than ceil(1/eps)


class TestMarginParams:
    def test_mode_validated(self):
        with pytest.raises(ValueError, match="margin mode"):
            MarginParams(mode="jackknife")

    @pytest.mark.parametrize(
        "kwargs", [{"tau": 0.0}, {"tau": float("nan")}, {"clip": 0.5}]
    )
    def test_knobs_validated(self, kwargs):
        with pytest.raises(ValueError):
            MarginParams(**kwargs)

    def test_modes_match_scenario_layer(self):
        """spec.py deliberately duplicates MARGIN_MODES (the scenario
        layer must not import repro.conformal); this pin is the cross-
        check that keeps the two tuples identical."""
        assert MARGIN_MODES == SPEC_MARGIN_MODES

    def test_unknown_mode_string_rejected_by_factory(self):
        with pytest.raises(ValueError, match="margin mode"):
            make_estimator("quantreg")


class TestWeights:
    def test_recency_newest_is_one_and_monotone(self):
        w = recency_weights(50, tau=10.0)
        assert w[-1] == 1.0
        assert np.all(np.diff(w) > 0)

    def test_recency_huge_window_does_not_overflow(self):
        w = recency_weights(100_000, tau=5.0)
        assert np.isfinite(w).all() and w.max() == 1.0

    def test_propensity_mean_one_and_clipped(self):
        rng = np.random.default_rng(0)
        w_idx = rng.integers(0, 10, 500)
        p_idx = rng.integers(0, 8, 500)
        w = propensity_weights(w_idx, p_idx, clip=4.0)
        assert w.mean() == pytest.approx(1.0, rel=0.3)
        assert w.min() >= 1.0 / 4.0 and w.max() <= 4.0

    def test_propensity_upweights_rare_cells(self):
        # Row 0 observed 9x more than row 1 -> row 1's weight larger.
        w_idx = np.r_[np.zeros(90, int), np.ones(10, int)]
        p_idx = np.zeros(100, int)
        w = propensity_weights(w_idx, p_idx)
        assert w[-1] > w[0]


class TestEstimators:
    def test_registry_covers_every_mode(self):
        for mode in MARGIN_MODES:
            assert make_estimator(mode).mode == mode

    def test_weighted_requires_weights(self):
        est = make_estimator("mnar")
        with pytest.raises(ValueError, match="weights"):
            est.default_weights(5)

    def test_weighted_margin_tracks_recent_regime(self):
        # First half of arrivals ~N(0,1), second half shifted +2: with a
        # short memory the weighted margin approaches the recent
        # regime's quantile, above the pooled naive estimate.
        rng = np.random.default_rng(11)
        scores = np.r_[rng.normal(0, 1, 500), rng.normal(2, 1, 500)]
        pools = np.ones(1000, int)
        naive = margin_offsets_by_pool(scores, pools, 0.1, "naive")[1]
        weighted = margin_offsets_by_pool(
            scores, pools, 0.1, MarginParams(mode="weighted", tau=50.0)
        )[1]
        assert weighted > naive
