"""Atomic generation swap: no torn reads, no stale cached bounds."""

import threading

import numpy as np
import pytest

from repro.conformal import ConformalRuntimePredictor, HeadChoice
from repro.core import PAPER_QUANTILES, PitotTrainer, TrainerConfig
from repro.core.model import EmbeddingSnapshot
from repro.serving import PredictionService

from reference_paths import RowByRowBounds


@pytest.fixture(scope="module")
def calibrated(trained_pitot_quantile, mini_split):
    return ConformalRuntimePredictor(
        trained_pitot_quantile.model,
        quantiles=PAPER_QUANTILES,
        strategy="pitot",
    ).calibrate(mini_split.calibration, epsilons=(0.1, 0.05))


def _shifted(predictor, delta):
    """A predictor clone whose every conformal offset moves by ``delta``."""
    clone = ConformalRuntimePredictor(
        predictor.model,
        quantiles=predictor.quantiles,
        strategy=predictor.strategy,
        use_pools=predictor.use_pools,
    )
    clone.choices = {
        key: HeadChoice(head=c.head, offset=c.offset + delta)
        for key, c in predictor.choices.items()
    }
    clone._calibrated_epsilons = list(predictor._calibrated_epsilons)
    return clone


@pytest.fixture(scope="module")
def generations(trained_pitot_quantile, mini_split, calibrated):
    """Two genuinely different (snapshot, predictor) generations.

    Generation B comes from a warm-start update on drifted rows plus a
    recalibration, so both its embeddings and its offsets differ from A.
    """
    model = trained_pitot_quantile.model
    saved = model.state_dict()
    snap_a = EmbeddingSnapshot.from_model(model)
    drifted = mini_split.calibration.subset(
        np.arange(min(400, mini_split.calibration.n_observations))
    )
    drifted.runtime = drifted.runtime * 2.0
    PitotTrainer(model, TrainerConfig(seed=3)).update(drifted, steps=25)
    pred_b = ConformalRuntimePredictor(
        model, quantiles=PAPER_QUANTILES, strategy="pitot"
    ).calibrate(drifted, epsilons=(0.1, 0.05))
    snap_b = EmbeddingSnapshot.from_model(model)
    model.load_state_dict(saved)
    yield (snap_a, calibrated), (snap_b, pred_b)


class TestSwap:
    def test_swap_bumps_generation_and_installs_fresh_cache(
        self, generations, mini_split
    ):
        (snap_a, pred_a), (snap_b, pred_b) = generations
        service = PredictionService(snap_a, choices=pred_a.choices)
        test = mini_split.test
        RowByRowBounds(service).predict_bound(
            test.w_idx[:32], test.p_idx[:32], test.interferers[:32], 0.1
        )
        assert len(service.cache) > 0
        old_cache = service.cache
        assert service.generation == 0
        generation = service.swap(snap_b, pred_b)
        assert generation == 1 == service.generation
        assert service.cache is not old_cache
        assert len(service.cache) == 0
        assert service.cache.capacity == old_cache.capacity
        assert service.snapshot is snap_b
        assert service.stats.swaps == 1
        assert service.stats.invalidations == 1

    def test_swap_rejects_head_mismatch(self, generations):
        (snap_a, pred_a), _ = generations
        service = PredictionService(snap_a, choices=pred_a.choices)
        bad = _shifted(pred_a, 0.0)
        bad.choices[(0.1, -1)] = HeadChoice(head=99, offset=0.0)
        with pytest.raises(ValueError, match="head"):
            service.swap(snap_a, bad)
        assert service.generation == 0

    def test_choices_setter_drops_cached_bounds(self, calibrated, mini_split):
        """Direct choice edits obey the same stale-bound rule as swap():
        a bound memoized under the old offsets must be unreachable."""
        service = PredictionService.from_predictor(calibrated)
        test = mini_split.test
        args = (test.w_idx[:8], test.p_idx[:8], test.interferers[:8], 0.1)
        before = RowByRowBounds(service).predict_bound(*args)
        service.choices = _shifted(calibrated, 1.0).choices
        after = RowByRowBounds(service).predict_bound(*args)
        np.testing.assert_allclose(after, before * np.e, rtol=1e-12)
        assert service.stats.invalidations == 1

    def test_refresh_never_serves_stale_cached_bound(
        self, calibrated, mini_split
    ):
        """Satellite regression: a bound memoized before a refresh must be
        unreachable afterwards — the shifted recalibration must show up
        in the very next query."""
        service = PredictionService.from_predictor(calibrated)
        test = mini_split.test
        args = (test.w_idx[:16], test.p_idx[:16], test.interferers[:16], 0.1)
        before = RowByRowBounds(service).predict_bound(*args)
        hits0 = service.stats.cache_hits
        again = RowByRowBounds(service).predict_bound(*args)
        np.testing.assert_allclose(again, before)
        assert service.stats.cache_hits == hits0 + 16  # served from cache
        service.refresh(_shifted(calibrated, 1.0))
        after = RowByRowBounds(service).predict_bound(*args)
        # Every bound reflects the new offsets (x e), not the stale cache.
        np.testing.assert_allclose(after, before * np.e, rtol=1e-12)
        assert service.stats.invalidations == 1
        assert service.stats.swaps == 1

    def test_concurrent_predict_bound_observes_one_generation(
        self, generations, mini_split
    ):
        """Acceptance: while swap() flips generations, every predict_bound
        call returns bounds consistent with exactly one (snapshot,
        predictor) pair — never a mixture. The single-row reader's LRU
        writes race the swaps into orphaned caches, and every bound it
        gets back is bit for bit one generation's."""
        (snap_a, pred_a), (snap_b, pred_b) = generations
        test = mini_split.test
        rows = np.arange(min(24, test.n_observations))
        w, p, k = test.w_idx[rows], test.p_idx[rows], test.interferers[rows]

        expected = []
        for snap, pred in ((snap_a, pred_a), (snap_b, pred_b)):
            reference = PredictionService(
                snap, choices=pred.choices, use_pools=pred.use_pools,
                cache_size=0,
            )
            expected.append(reference.predict_bound(w, p, k, 0.1))
        assert not np.allclose(expected[0], expected[1])  # distinguishable

        service = PredictionService(
            snap_a, choices=pred_a.choices, use_pools=pred_a.use_pools,
        )
        torn: list[np.ndarray] = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                got = service.predict_bound(w, p, k, 0.1)
                if not any(
                    np.allclose(got, ref, rtol=1e-10) for ref in expected
                ):
                    torn.append(got)

        def single_reader():
            row = 0
            while not done.is_set():
                got = service.predict_bound(
                    w[row : row + 1], p[row : row + 1], k[row : row + 1], 0.1
                )
                if got[0] not in (expected[0][row], expected[1][row]):
                    torn.append(got)
                row = (row + 1) % len(rows)

        def swapper():
            for _ in range(150):
                service.swap(snap_b, pred_b)
                service.swap(snap_a, pred_a)
            done.set()

        threads = [threading.Thread(target=reader) for _ in range(2)]
        threads.append(threading.Thread(target=single_reader))
        threads.append(threading.Thread(target=swapper))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not torn, f"torn generation read(s): {len(torn)}"
        assert service.stats.swaps == 300


class TestStats:
    def test_as_dict_surfaces_cache_and_swap_counters(
        self, calibrated, mini_split
    ):
        service = PredictionService.from_predictor(calibrated)
        test = mini_split.test
        args = (test.w_idx[:8], test.p_idx[:8], test.interferers[:8], 0.1)
        RowByRowBounds(service).predict_bound(*args)
        RowByRowBounds(service).predict_bound(*args)
        stats = service.stats.as_dict()
        for key in (
            "queries", "rows_computed", "batches",
            "cache_hits", "cache_misses", "hit_rate", "swaps",
            "invalidations",
        ):
            assert key in stats, key
        assert stats["cache_hits"] == 8
        assert stats["cache_misses"] == 8
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["swaps"] == 0

    def test_hit_rate_survives_swap(self, generations, mini_split):
        """Cache counters are cumulative across generations even though
        each generation has its own BoundCache."""
        (snap_a, pred_a), (snap_b, pred_b) = generations
        service = PredictionService(snap_a, choices=pred_a.choices)
        test = mini_split.test
        args = (test.w_idx[:8], test.p_idx[:8], test.interferers[:8], 0.1)
        RowByRowBounds(service).predict_bound(*args)
        RowByRowBounds(service).predict_bound(*args)
        service.swap(snap_b, pred_b)
        RowByRowBounds(service).predict_bound(*args)
        assert service.stats.cache_hits == 8
        assert service.stats.cache_misses == 16
        assert service.cache.misses == 8  # the new generation's own view
        assert service.stats.hit_rate == pytest.approx(8 / 24)

    def test_disabled_cache_counts_misses(self, calibrated, mini_split):
        service = PredictionService.from_predictor(calibrated, cache_size=0)
        test = mini_split.test
        service.predict_bound(
            test.w_idx[:8], test.p_idx[:8], test.interferers[:8], 0.1
        )
        assert service.stats.cache_misses == 8
        assert service.stats.hit_rate == 0.0


class TestStatsTopology:
    def test_zero_lookup_hit_rate_is_zero(self):
        from repro.serving import ServiceStats

        stats = ServiceStats()
        assert stats.hit_rate == 0.0  # no ZeroDivisionError on fresh stats
        assert stats.as_dict()["hit_rate"] == 0.0

    def test_as_dict_surfaces_sharding_fields(self):
        from repro.serving import ServiceStats

        stats = ServiceStats(shards=4, queue_depth=32, rejections=7)
        as_dict = stats.as_dict()
        assert as_dict["shards"] == 4
        assert as_dict["queue_depth"] == 32
        assert as_dict["rejections"] == 7

    def test_single_process_defaults(self):
        from repro.serving import ServiceStats

        as_dict = ServiceStats().as_dict()
        assert as_dict["shards"] == 1
        assert as_dict["queue_depth"] == 0
        assert as_dict["rejections"] == 0


class TestSharedValidation:
    def test_bound_query_validates_and_canonicalizes(self):
        from types import SimpleNamespace

        from repro.cluster import BoundQuery

        population = SimpleNamespace(n_workloads=40, n_platforms=24)
        query = BoundQuery.from_rows([(3, 5, (7, -1))], population)
        assert (
            int(query.w_idx[0]), int(query.p_idx[0]),
            tuple(query.interferers[0]),
        ) == (3, 5, (7, -1, -1))
        with pytest.raises(ValueError, match="workload"):
            BoundQuery.from_rows([(40, 0, ())], population)
        with pytest.raises(ValueError, match="platform"):
            BoundQuery.from_rows([(0, 24, ())], population)
        with pytest.raises(ValueError, match="interferer"):
            BoundQuery.from_rows([(0, 0, (-3,))], population)

    def test_service_is_a_population(self, calibrated):
        from repro.cluster import BoundQuery

        service = PredictionService.from_predictor(calibrated)
        query = BoundQuery.from_rows([(1, 2, (3, -1))], service)
        assert tuple(query.interferers[0]) == (3, -1, -1)
        with pytest.raises(ValueError, match="workload"):
            BoundQuery.from_rows([(service.n_workloads, 0, ())], service)

    def test_validate_choice_heads(self, calibrated):
        from repro.serving import validate_choice_heads

        n_heads = max(c.head for c in calibrated.choices.values()) + 1
        validate_choice_heads(calibrated.choices, n_heads)  # compatible
        with pytest.raises(ValueError, match="head"):
            validate_choice_heads(calibrated.choices, 0)
