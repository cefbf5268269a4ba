"""Sharded frontend: routing, bitwise identity, backpressure, teardown."""

import multiprocessing
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.conformal import ConformalRuntimePredictor
from repro.core import PAPER_QUANTILES
from repro.serving import (
    PredictionService,
    ShardBusy,
    ShardedPredictionService,
    shard_ids,
)


@pytest.fixture(scope="module")
def calibrated(trained_pitot_quantile, mini_split):
    return ConformalRuntimePredictor(
        trained_pitot_quantile.model,
        quantiles=PAPER_QUANTILES,
        strategy="pitot",
    ).calibrate(mini_split.calibration, epsilons=(0.1, 0.05))


@pytest.fixture(scope="module")
def single(calibrated):
    return PredictionService.from_predictor(calibrated)


@pytest.fixture(scope="module")
def sharded(calibrated):
    service = ShardedPredictionService.from_predictor(
        calibrated, n_shards=2, start_method="fork"
    )
    yield service
    service.close()


def _same_shard_keys(n_shards, count, platform=0):
    """Workload ids that all hash to one shard (deterministic probing)."""
    keys, target = [], None
    for workload in range(512):
        shard = int(
            shard_ids(np.array([workload]), np.array([platform]), n_shards)[0]
        )
        if target is None:
            target = shard
        if shard == target:
            keys.append(workload)
        if len(keys) == count:
            return keys, target
    raise AssertionError("could not find enough same-shard keys")


class TestRouting:
    def test_deterministic(self):
        w = np.arange(200) % 40
        p = np.arange(200) % 24
        assert np.array_equal(shard_ids(w, p, 4), shard_ids(w, p, 4))

    def test_in_range_and_spread(self):
        rng = np.random.default_rng(0)
        w = rng.integers(0, 40, size=4000)
        p = rng.integers(0, 24, size=4000)
        shards = shard_ids(w, p, 4)
        assert shards.min() >= 0 and shards.max() < 4
        counts = np.bincount(shards, minlength=4)
        # The finalizer's avalanche should spread keys roughly evenly;
        # a >3x imbalance on uniform keys would mean a broken hash.
        assert counts.min() > counts.max() / 3

    def test_single_shard_routes_everything_to_zero(self):
        shards = shard_ids(np.arange(64), np.zeros(64, dtype=int), 1)
        assert np.all(shards == 0)

    def test_platform_perturbs_routing(self):
        w = np.zeros(64, dtype=int)
        shards = shard_ids(w, np.arange(64), 4)
        assert len(np.unique(shards)) > 1

    def test_rejects_no_shards(self):
        with pytest.raises(ValueError):
            shard_ids(np.array([0]), np.array([0]), 0)


class TestBitwiseIdentity:
    def test_interference_batch_matches_single_process(
        self, sharded, single, mini_split
    ):
        test = mini_split.test
        n = min(200, test.n_observations)
        args = (test.w_idx[:n], test.p_idx[:n], test.interferers[:n])
        for epsilon in (0.1, 0.05):
            expected = single.predict_bound(*args, epsilon)
            got = sharded.predict_bound(*args, epsilon)
            assert np.array_equal(expected, got)

    def test_isolation_batch_matches_single_process(
        self, sharded, single, mini_split
    ):
        test = mini_split.test
        n = min(128, test.n_observations)
        expected = single.predict_bound(
            test.w_idx[:n], test.p_idx[:n], None, 0.1
        )
        got = sharded.predict_bound(test.w_idx[:n], test.p_idx[:n], None, 0.1)
        assert np.array_equal(expected, got)

    def test_submit_gather_matches_batch_path(self, sharded, single):
        ticket = sharded.submit(3, 5, (), 0.05)
        response = sharded.gather(ticket)
        expected = single.predict_bound(
            np.array([3]), np.array([5]), None, 0.05
        )[0]
        assert response.bound == expected
        assert response.consistent
        assert response.generation == sharded.generation


class TestBackpressure:
    def test_bounded_admission_rejects_deterministically(self, calibrated):
        service = ShardedPredictionService.from_predictor(
            calibrated, n_shards=2, queue_depth=2, start_method="fork"
        )
        try:
            keys, shard = _same_shard_keys(2, 3)
            tickets = [service.submit(k, 0, (), 0.1) for k in keys[:2]]
            # In-flight only drains when the router polls: the third
            # same-shard submit must reject regardless of worker speed.
            with pytest.raises(ShardBusy) as info:
                service.submit(keys[2], 0, (), 0.1)
            assert info.value.shard == shard
            assert info.value.retry_after > 0
            assert service.stats.rejections == 1
            assert service.inflight(shard) == 2
            for ticket in tickets:
                service.gather(ticket)
            assert service.inflight() == 0
            # Slots freed: the rejected key is admissible now.
            service.gather(service.submit(keys[2], 0, (), 0.1))
        finally:
            service.close()

    def test_other_shard_unaffected_by_full_neighbor(self, calibrated):
        service = ShardedPredictionService.from_predictor(
            calibrated, n_shards=2, queue_depth=1, start_method="fork"
        )
        try:
            keys, shard = _same_shard_keys(2, 2)
            other = next(
                w
                for w in range(512)
                if int(
                    shard_ids(np.array([w]), np.array([0]), 2)[0]
                ) != shard
            )
            first = service.submit(keys[0], 0, (), 0.1)
            with pytest.raises(ShardBusy):
                service.submit(keys[1], 0, (), 0.1)
            cross = service.submit(other, 0, (), 0.1)
            service.gather(first)
            service.gather(cross)
        finally:
            service.close()


class TestValidation:
    def test_out_of_range_workload_rejected(self, sharded):
        with pytest.raises(ValueError, match="workload"):
            sharded.submit(10_000, 0, (), 0.1)

    def test_uncalibrated_epsilon_rejected_at_submit(self, sharded):
        with pytest.raises(ValueError, match="not calibrated"):
            sharded.submit(0, 0, (), 0.5)

    def test_uncalibrated_epsilon_rejected_in_batch_path(self, sharded):
        with pytest.raises(RuntimeError, match="not calibrated"):
            sharded.predict_bound(np.array([0]), np.array([0]), None, 0.5)

    def test_interferer_row_mismatch_rejected(self, sharded):
        with pytest.raises(ValueError, match="rows"):
            sharded.predict_bound(
                np.array([0, 1]), np.array([0, 1]), np.array([[2]]), 0.1
            )


class TestStats:
    def test_collect_stats_merges_shards(self, calibrated, mini_split):
        service = ShardedPredictionService.from_predictor(
            calibrated, n_shards=2, queue_depth=8, start_method="fork"
        )
        try:
            test = mini_split.test
            n = 64
            service.predict_bound(
                test.w_idx[:n], test.p_idx[:n], test.interferers[:n], 0.1
            )
            stats = service.collect_stats()
            assert stats.shards == 2
            assert stats.queue_depth == 8
            assert stats.queries == n
            assert stats.rows_computed == n
            assert stats.batches >= 2  # both shards computed
            as_dict = stats.as_dict()
            for key in ("shards", "queue_depth", "rejections"):
                assert key in as_dict
        finally:
            service.close()


class TestLifecycle:
    def test_close_audit_reports_no_leaks(self, calibrated):
        service = ShardedPredictionService.from_predictor(
            calibrated, n_shards=2, start_method="fork"
        )
        name = service.state.shared.name
        audit = service.close()
        assert audit == {"published": 1, "reclaimed": 1, "leaked": 0}
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_startup_failure_cleans_up_and_fails_fast(
        self, calibrated, monkeypatch
    ):
        """One shard's attach fails: the constructor raises promptly,
        reaps the sibling worker and unlinks the published segment."""
        from repro.serving import sharded

        real_main = sharded._shard_main

        def main_with_failing_attach(shard_id, *args):
            if shard_id == 1:
                def refuse(layout):
                    raise OSError("injected attach failure")

                # Forked child: patches this worker's module only.
                sharded.attach_snapshot = refuse
            real_main(shard_id, *args)

        published = []
        real_publish = sharded.SharedSnapshot.publish

        def publish(snapshot, generation):
            shared = real_publish(snapshot, generation)
            published.append(shared.name)
            return shared

        monkeypatch.setattr(sharded, "_shard_main", main_with_failing_attach)
        monkeypatch.setattr(sharded.SharedSnapshot, "publish", publish)
        before = set(multiprocessing.active_children())
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="shard 1 exited during start-up"):
            ShardedPredictionService.from_predictor(
                calibrated, n_shards=2, start_method="fork"
            )
        assert time.monotonic() - started < 5.0
        assert set(multiprocessing.active_children()) <= before
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=published[0])

    def test_close_is_idempotent(self, calibrated):
        service = ShardedPredictionService.from_predictor(
            calibrated, n_shards=1, start_method="fork"
        )
        first = service.close()
        assert service.close() == first

    def test_spawn_start_method_serves_bitwise(self, calibrated, single, mini_split):
        """The portable start method: workers rebuild everything from
        pickled layout + choices, no fork inheritance."""
        service = ShardedPredictionService.from_predictor(
            calibrated, n_shards=2, start_method="spawn"
        )
        try:
            test = mini_split.test
            n = 32
            expected = single.predict_bound(
                test.w_idx[:n], test.p_idx[:n], test.interferers[:n], 0.1
            )
            got = service.predict_bound(
                test.w_idx[:n], test.p_idx[:n], test.interferers[:n], 0.1
            )
            assert np.array_equal(expected, got)
        finally:
            assert service.close()["leaked"] == 0

    def test_constructor_validation(self, calibrated, trained_pitot_quantile):
        from repro.core.model import EmbeddingSnapshot

        snapshot = EmbeddingSnapshot.from_model(trained_pitot_quantile.model)
        with pytest.raises(ValueError):
            ShardedPredictionService(snapshot, n_shards=0)
        with pytest.raises(ValueError):
            ShardedPredictionService(snapshot, n_shards=1, queue_depth=0)
