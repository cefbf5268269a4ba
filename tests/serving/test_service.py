"""PredictionService: cache behavior, batching, and bound equivalence."""

import numpy as np
import pytest

from repro.cluster import BoundQuery
from repro.conformal import ConformalRuntimePredictor
from repro.core import PAPER_QUANTILES
from repro.serving import BoundCache, PredictionService

from reference_paths import RowByRowBounds


@pytest.fixture(scope="module")
def calibrated(trained_pitot_quantile, mini_split):
    return ConformalRuntimePredictor(
        trained_pitot_quantile.model,
        quantiles=PAPER_QUANTILES,
        strategy="pitot",
    ).calibrate(mini_split.calibration, epsilons=(0.1, 0.05))


@pytest.fixture()
def service(calibrated):
    return PredictionService.from_predictor(calibrated)


class TestBoundCache:
    def test_hit_refreshes_recency(self):
        cache = BoundCache(capacity=2)
        cache.put(("a",), 1.0)
        cache.put(("b",), 2.0)
        assert cache.get(("a",)) == 1.0  # refresh "a"
        cache.put(("c",), 3.0)  # evicts "b", the LRU entry
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1.0
        assert cache.get(("c",)) == 3.0
        assert cache.evictions == 1

    def test_eviction_bounds_size(self):
        cache = BoundCache(capacity=8)
        for i in range(50):
            cache.put((i,), float(i))
        assert len(cache) == 8
        assert cache.evictions == 42
        # Newest entries survive.
        assert cache.get((49,)) == 49.0
        assert cache.get((0,)) is None

    def test_zero_capacity_disables_storage(self):
        cache = BoundCache(capacity=0)
        cache.put(("a",), 1.0)
        assert len(cache) == 0
        assert cache.get(("a",)) is None

    def test_hit_rate(self):
        cache = BoundCache(capacity=4)
        cache.put(("a",), 1.0)
        cache.get(("a",))
        cache.get(("missing",))
        assert cache.hit_rate == 0.5

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BoundCache(capacity=-1)


class TestBoundEquivalence:
    ATOL = 1e-10

    def test_bounds_match_conformal_predictor(
        self, service, calibrated, mini_split
    ):
        test = mini_split.test
        for eps in (0.1, 0.05):
            expected = calibrated.predict_bound(
                test.w_idx, test.p_idx, test.interferers, eps
            )
            actual = service.predict_bound(
                test.w_idx, test.p_idx, test.interferers, eps
            )
            np.testing.assert_allclose(actual, expected, rtol=0, atol=self.ATOL)

    def test_cached_second_pass_is_identical(self, service, mini_split):
        test = mini_split.test
        args = (test.w_idx, test.p_idx, test.interferers, 0.1)
        first = RowByRowBounds(service).predict_bound(*args)
        second = RowByRowBounds(service).predict_bound(*args)
        np.testing.assert_array_equal(first, second)
        assert service.cache.hits >= test.n_observations

    def test_predict_bound_dataset(self, service, calibrated, mini_split):
        test = mini_split.test
        np.testing.assert_allclose(
            service.predict_bound_dataset(test, 0.05),
            calibrated.predict_bound_dataset(test, 0.05),
            rtol=0,
            atol=self.ATOL,
        )

    def test_uncalibrated_epsilon_raises(self, service):
        with pytest.raises(RuntimeError, match="not calibrated"):
            service.predict_bound(np.array([0]), np.array([0]), None, 0.42)

    def test_sweep_matches_per_epsilon_bounds(self, service, mini_split):
        """predict_bound_sweep column j == predict_bound at epsilons[j]."""
        test = mini_split.test
        sweep = service.predict_bound_sweep(
            test.w_idx, test.p_idx, test.interferers, (0.1, 0.05)
        )
        assert sweep.shape == (test.n_observations, 2)
        for j, eps in enumerate((0.1, 0.05)):
            single = service.predict_bound(
                test.w_idx, test.p_idx, test.interferers, eps
            )
            np.testing.assert_allclose(
                sweep[:, j], single, rtol=0, atol=self.ATOL
            )

    def test_sweep_rejects_uncalibrated_epsilon(self, service):
        with pytest.raises(RuntimeError, match="not calibrated"):
            service.predict_bound_sweep(
                np.array([0]), np.array([0]), None, (0.1, 0.42)
            )

    def test_mismatched_interferer_rows_raise(self, service):
        """Fewer interferer rows than queries must raise, not return
        uninitialized output rows."""
        with pytest.raises(ValueError, match="rows"):
            service.predict_log(
                np.arange(5), np.zeros(5, dtype=int),
                np.full((3, 3), -1),
            )

    def test_service_as_model_for_conformal_predictor(
        self, service, trained_pitot_quantile, mini_split
    ):
        """The service satisfies the model protocol: calibrating a fresh
        ConformalRuntimePredictor against it reproduces calibrating
        against the raw model."""
        via_service = ConformalRuntimePredictor(
            service, quantiles=PAPER_QUANTILES, strategy="pitot"
        ).calibrate(mini_split.calibration, epsilons=(0.1,))
        via_model = ConformalRuntimePredictor(
            trained_pitot_quantile.model,
            quantiles=PAPER_QUANTILES,
            strategy="pitot",
        ).calibrate(mini_split.calibration, epsilons=(0.1,))
        test = mini_split.test
        np.testing.assert_allclose(
            via_service.predict_bound_dataset(test, 0.1),
            via_model.predict_bound_dataset(test, 0.1),
            rtol=0,
            atol=self.ATOL,
        )


class TestDegreeBatching:
    def test_predict_log_matches_model_on_mixed_degrees(
        self, service, trained_pitot_quantile, mini_split
    ):
        """Degree-regrouped batches scatter back to input order."""
        test = mini_split.test
        # Interleave degrees adversarially.
        order = np.argsort(test.degree, kind="stable")[::-1]
        rows = np.concatenate([order[::2], order[1::2]])
        expected = trained_pitot_quantile.model.predict_log(
            test.w_idx[rows], test.p_idx[rows], test.interferers[rows]
        )
        actual = service.predict_log(
            test.w_idx[rows], test.p_idx[rows], test.interferers[rows]
        )
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-10)

    def test_small_max_batch_is_exact(self, calibrated, mini_split,
                                      monkeypatch):
        from repro.serving import service as service_module

        test = mini_split.test
        full = PredictionService.from_predictor(calibrated).predict_log(
            test.w_idx, test.p_idx, test.interferers
        )
        monkeypatch.setattr(service_module, "MAX_BATCH", 3)
        tiny = PredictionService.from_predictor(calibrated)
        np.testing.assert_array_equal(
            tiny.predict_log(test.w_idx, test.p_idx, test.interferers), full
        )
        # ceil-division per degree group, so at least n/3 batches ran.
        assert tiny.stats.batches >= test.n_observations // 3

    def test_isolation_rows_skip_interference_term(self, service, mini_split):
        test = mini_split.test
        iso = np.flatnonzero(test.degree == 1)[:16]
        before = service.stats.batches
        service.predict_log(
            test.w_idx[iso], test.p_idx[iso], test.interferers[iso]
        )
        # One degree group → one shape-stable batch.
        assert service.stats.batches == before + 1

    def test_permuted_interferers_share_cache_entries(self, service, mini_split):
        test = mini_split.test
        rows = np.flatnonzero(test.degree == 4)[:4]
        assert len(rows) > 0, "mini dataset must contain 4-way rows"
        w, p = test.w_idx[rows], test.p_idx[rows]
        forward = test.interferers[rows]
        backward = forward[:, ::-1].copy()
        first = RowByRowBounds(service).predict_bound(w, p, forward, 0.1)
        hits_before = service.cache.hits
        second = RowByRowBounds(service).predict_bound(w, p, backward, 0.1)
        assert service.cache.hits == hits_before + len(rows)
        np.testing.assert_allclose(first, second, rtol=0, atol=1e-10)


class TestQueryValidation:
    """Every bound entry point builds a canonical BoundQuery first, so a
    malformed query is rejected before any forward runs."""

    def test_rejects_too_many_interferers(self, service):
        with pytest.raises(ValueError, match="at most 3"):
            service.predict_bound(
                np.array([0]), np.array([0]), np.array([[1, 2, 3, 4]]), 0.1
            )
        with pytest.raises(ValueError, match="at most 3"):
            BoundQuery.from_rows([(0, 0, (1, 2, 3, 4))], service)

    def test_rejects_out_of_range_indices(self, service):
        w0, p0 = np.array([0]), np.array([0])
        with pytest.raises(ValueError, match="workload .* out of range"):
            service.predict_bound(
                np.array([service.n_workloads]), p0, None, 0.1
            )
        with pytest.raises(ValueError, match="platform .* out of range"):
            service.predict_bound(
                w0, np.array([service.n_platforms]), None, 0.1
            )
        with pytest.raises(ValueError, match="interferer .* out of range"):
            service.predict_bound(
                w0, p0, np.array([[service.n_workloads]]), 0.1
            )
        assert service.stats.rows_computed == 0

    def test_strips_padding_but_rejects_other_negatives(self, service):
        bound = service.predict_bound(
            np.array([0]), np.array([0]), np.array([[2, -1, -1]]), 0.1
        )
        assert np.isfinite(bound).all()
        with pytest.raises(ValueError, match="out of range"):
            service.predict_bound(
                np.array([0]), np.array([0]), np.array([[-2]]), 0.1
            )


class TestLifecycle:
    def test_from_predictor_calibrates(self, trained_pitot_quantile,
                                       mini_split):
        predictor = ConformalRuntimePredictor(
            trained_pitot_quantile.model, quantiles=PAPER_QUANTILES
        ).calibrate(mini_split.calibration, epsilons=(0.1,))
        service = PredictionService.from_predictor(predictor)
        assert service.calibrated_epsilons == (0.1,)
        test = mini_split.test
        bounds = service.predict_bound_dataset(test, 0.1)
        assert np.isfinite(bounds).all()

    def test_staleness_and_refresh(self, trained_pitot_quantile, mini_split):
        from repro.core import PitotTrainer, TrainerConfig

        model = trained_pitot_quantile.model
        predictor = ConformalRuntimePredictor(
            model, quantiles=PAPER_QUANTILES
        ).calibrate(mini_split.calibration, epsilons=(0.1,))
        service = PredictionService.from_predictor(predictor)
        assert not service.is_stale(model)
        state = model.state_dict()
        try:
            PitotTrainer(
                model,
                TrainerConfig(
                    steps=5, eval_every=5, batch_per_degree=64, seed=9
                ),
            ).fit(mini_split.train, mini_split.calibration)
            assert service.is_stale(model)
            predictor.calibrate(mini_split.calibration, epsilons=(0.1,))
            test = mini_split.test
            RowByRowBounds(service).predict_bound(
                test.w_idx[:64], test.p_idx[:64], test.interferers[:64], 0.1
            )
            assert len(service.cache) > 0
            service.refresh(predictor)
            assert not service.is_stale(model)
            assert len(service.cache) == 0
        finally:
            model.load_state_dict(state)
