"""ConformalRuntimePredictor: strategies, pools, head selection."""

import numpy as np
import pytest

from repro.conformal import ConformalRuntimePredictor, HeadOffsetTable
from repro.core import PAPER_QUANTILES
from repro.eval import coverage, overprovision_margin

from reference_paths import resolve_head_offsets


class _StubModel:
    """Predicts fixed quantile curves so outcomes are analytic.

    Head h predicts ``base + spread[h]`` in log space; the 'true' runtime
    used in tests is exp(noise) around base.
    """

    #: Index-blind, so every index a toy dataset uses is in range.
    n_workloads = n_platforms = 1 << 30

    def __init__(self, spreads):
        self.spreads = np.asarray(spreads, dtype=float)

    def predict_log(self, w_idx, p_idx, interferers=None):
        n = len(np.asarray(w_idx))
        return np.tile(self.spreads, (n, 1))


def _toy_calibration(mini_dataset):
    return mini_dataset.subset(np.arange(min(2000, mini_dataset.n_observations)))


class TestValidation:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            ConformalRuntimePredictor(_StubModel([0.0]), strategy="bayes")

    def test_cqr_requires_quantiles(self):
        with pytest.raises(ValueError):
            ConformalRuntimePredictor(_StubModel([0.0]), strategy="pitot")

    def test_uncalibrated_predict_raises(self, mini_dataset):
        cp = ConformalRuntimePredictor(_StubModel([0.0]), strategy="split")
        with pytest.raises(RuntimeError):
            cp.predict_bound_dataset(mini_dataset, 0.1)


class TestNaiveHead:
    def test_naive_head_matches_one_minus_epsilon(self):
        cp = ConformalRuntimePredictor(
            _StubModel(np.zeros(len(PAPER_QUANTILES))),
            quantiles=PAPER_QUANTILES,
            strategy="naive_cqr",
        )
        assert PAPER_QUANTILES[cp._naive_head(0.1)] == 0.9
        assert PAPER_QUANTILES[cp._naive_head(0.01)] == 0.99
        assert PAPER_QUANTILES[cp._naive_head(0.05)] == 0.95


class TestCalibration:
    def test_coverage_on_heldout(self, trained_pitot_quantile, mini_split):
        cp = ConformalRuntimePredictor(
            trained_pitot_quantile.model,
            quantiles=PAPER_QUANTILES,
            strategy="pitot",
        ).calibrate(mini_split.calibration, epsilons=(0.1,))
        bound = cp.predict_bound_dataset(mini_split.test, 0.1)
        cov = coverage(bound, mini_split.test.runtime)
        assert cov >= 0.87  # 1-ε with finite-sample slack

    def test_pitot_margin_not_worse_than_naive(
        self, trained_pitot_quantile, mini_split
    ):
        """Optimal quantile choice can only improve on validation margin;
        on held-out test data it should be at least comparable."""
        kwargs = dict(quantiles=PAPER_QUANTILES)
        pitot = ConformalRuntimePredictor(
            trained_pitot_quantile.model, strategy="pitot", **kwargs
        ).calibrate(mini_split.calibration, epsilons=(0.1,))
        naive = ConformalRuntimePredictor(
            trained_pitot_quantile.model, strategy="naive_cqr", **kwargs
        ).calibrate(mini_split.calibration, epsilons=(0.1,))
        b_pitot = pitot.predict_bound_dataset(mini_split.test, 0.1)
        b_naive = naive.predict_bound_dataset(mini_split.test, 0.1)
        m_pitot = overprovision_margin(b_pitot, mini_split.test.runtime)
        m_naive = overprovision_margin(b_naive, mini_split.test.runtime)
        assert m_pitot <= m_naive * 1.15  # allow sampling slack

    def test_split_strategy_single_head(self, trained_pitot, mini_split):
        cp = ConformalRuntimePredictor(
            trained_pitot.model, strategy="split"
        ).calibrate(mini_split.calibration, epsilons=(0.1,))
        assert all(choice.head == 0 for choice in cp.choices.values())

    def test_choices_keyed_by_epsilon_and_pool(
        self, trained_pitot_quantile, mini_split
    ):
        cp = ConformalRuntimePredictor(
            trained_pitot_quantile.model,
            quantiles=PAPER_QUANTILES,
        ).calibrate(mini_split.calibration, epsilons=(0.1, 0.05))
        eps_seen = {key[0] for key in cp.choices}
        assert eps_seen == {0.1, 0.05}
        pools_seen = {key[1] for key in cp.choices}
        assert -1 in pools_seen
        assert {1, 2, 3, 4} & pools_seen

    def test_bounds_monotone_in_epsilon_same_head(
        self, trained_pitot, mini_split
    ):
        """With a fixed head, a stricter ε always yields larger budgets
        (the conformal offset is an increasing order statistic)."""
        cp = ConformalRuntimePredictor(
            trained_pitot.model, strategy="split", use_pools=False
        ).calibrate(mini_split.calibration, epsilons=(0.1, 0.02))
        b_loose = cp.predict_bound_dataset(mini_split.test, 0.1)
        b_tight = cp.predict_bound_dataset(mini_split.test, 0.02)
        assert (b_tight >= b_loose - 1e-12).all()

    def test_bounds_mostly_monotone_across_heads(
        self, trained_pitot_quantile, mini_split
    ):
        """CQR may switch heads between ε values, so monotonicity is only
        approximate — but the bulk of bounds must still grow."""
        cp = ConformalRuntimePredictor(
            trained_pitot_quantile.model,
            quantiles=PAPER_QUANTILES,
            strategy="naive_cqr",
            use_pools=False,
        ).calibrate(mini_split.calibration, epsilons=(0.1, 0.02))
        b_loose = cp.predict_bound_dataset(mini_split.test, 0.1)
        b_tight = cp.predict_bound_dataset(mini_split.test, 0.02)
        assert np.mean(b_tight >= b_loose) > 0.8


class TestHeadOffsetTable:
    def _calibrated(self, mini_dataset, **kwargs):
        cal = _toy_calibration(mini_dataset)
        return ConformalRuntimePredictor(
            _StubModel([0.0]), strategy="split", **kwargs
        ).calibrate(cal, epsilons=(0.1,))

    def test_table_matches_resolve_head_offsets(self, mini_dataset):
        cp = self._calibrated(mini_dataset)
        pools = np.array([0, 1, 2, 3, 4, 9])  # 9 = uncalibrated degree
        heads, offsets = HeadOffsetTable(cp.choices).resolve(0.1, pools)
        ref_heads, ref_offsets = resolve_head_offsets(cp.choices, 0.1, pools)
        np.testing.assert_array_equal(heads, ref_heads)
        np.testing.assert_array_equal(offsets, ref_offsets)

    def test_uncalibrated_epsilon_raises_same_message(self, mini_dataset):
        cp = self._calibrated(mini_dataset)
        pools = np.zeros(3, int)
        with pytest.raises(RuntimeError, match="not calibrated"):
            HeadOffsetTable(cp.choices).resolve(0.5, pools)
        with pytest.raises(RuntimeError, match="not calibrated"):
            resolve_head_offsets(cp.choices, 0.5, pools)

    def test_replacing_choices_invalidates_cached_table(self, mini_dataset):
        cp = self._calibrated(mini_dataset)
        cal = _toy_calibration(mini_dataset)
        before = cp.predict_bound_dataset(cal, 0.1)
        shifted = {
            key: choice.__class__(head=choice.head, offset=choice.offset + 1.0)
            for key, choice in cp.choices.items()
        }
        cp.choices = shifted  # property setter discards the lazy table
        after = cp.predict_bound_dataset(cal, 0.1)
        np.testing.assert_allclose(after, before * np.e, rtol=1e-12)

    def test_recalibration_refreshes_table(self, mini_dataset):
        import dataclasses

        cp = self._calibrated(mini_dataset)
        cal = _toy_calibration(mini_dataset)
        before = cp.predict_bound_dataset(cal, 0.1)  # builds the lazy table
        doubled = dataclasses.replace(cal, runtime=cal.runtime * 2.0)
        cp.calibrate(doubled, epsilons=(0.1,))
        after = cp.predict_bound_dataset(cal, 0.1)
        # The rebuilt table serves the doubled-runtimes offsets, not the
        # stale cached ones.
        np.testing.assert_allclose(after, before * 2.0, rtol=1e-9)


class TestMarginModes:
    def test_margin_params_attached_and_defaulted(self, mini_dataset):
        cp = ConformalRuntimePredictor(_StubModel([0.0]), strategy="split")
        assert cp.margin.mode == "naive"
        weighted = ConformalRuntimePredictor(
            _StubModel([0.0]), strategy="split", margin="weighted"
        )
        assert weighted.margin.mode == "weighted"

    def test_naive_margin_calibration_is_reference(self, mini_dataset):
        cal = _toy_calibration(mini_dataset)
        a = ConformalRuntimePredictor(
            _StubModel([0.0]), strategy="split"
        ).calibrate(cal, epsilons=(0.1, 0.05))
        b = ConformalRuntimePredictor(
            _StubModel([0.0]), strategy="split", margin="naive"
        ).calibrate(cal, epsilons=(0.1, 0.05))
        assert a.choices.keys() == b.choices.keys()
        for key in a.choices:
            assert a.choices[key].offset == b.choices[key].offset

    def test_weighted_margin_changes_offsets(self, mini_dataset):
        cal = _toy_calibration(mini_dataset)
        naive = ConformalRuntimePredictor(
            _StubModel([0.0]), strategy="split"
        ).calibrate(cal, epsilons=(0.1,))
        from repro.conformal import MarginParams

        weighted = ConformalRuntimePredictor(
            _StubModel([0.0]), strategy="split",
            margin=MarginParams(mode="weighted", tau=20.0),
        ).calibrate(cal, epsilons=(0.1,))
        offsets_n = [c.offset for c in naive.choices.values()]
        offsets_w = [c.offset for c in weighted.choices.values()]
        assert offsets_n != offsets_w

    def test_pool_index_cached_once_per_calibration(self, mini_dataset):
        cal = _toy_calibration(mini_dataset)
        cp = ConformalRuntimePredictor(
            _StubModel([0.0]), strategy="split"
        ).calibrate(cal, epsilons=(0.1, 0.05, 0.02))
        index = cp._pool_index
        assert index is not None and index.n == cal.n_observations
        cp.calibrate(cal, epsilons=(0.1,))
        assert cp._pool_index is not index  # fresh per calibration


class TestStubAnalytics:
    def test_selection_picks_tighter_head(self, mini_dataset):
        """Two heads: one wildly overshooting, one near the data; the
        margin-minimizing selection must pick the near one."""
        cal = _toy_calibration(mini_dataset)
        model = _StubModel([5.0, 0.0])  # head 0 overshoots by e^5
        # Make head 1 roughly match the log runtimes.
        model_pred = np.log(cal.runtime)

        class Near(_StubModel):
            def predict_log(self, w_idx, p_idx, interferers=None):
                n = len(np.asarray(w_idx))
                base = np.zeros((n, 2))
                base[:, 0] = 10.0  # absurd overshoot
                base[:, 1] = model_pred[:n] if n <= len(model_pred) else 0.0
                return base

        cp = ConformalRuntimePredictor(
            Near([0, 0]), quantiles=(0.5, 0.9), strategy="pitot", use_pools=False
        ).calibrate(cal, epsilons=(0.1,))
        assert cp.choices[(0.1, -1)].head == 1
