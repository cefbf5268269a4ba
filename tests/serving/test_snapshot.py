"""EmbeddingSnapshot: inference-only forward equals the autograd model."""

import numpy as np
import pytest

from repro.core import (
    EmbeddingSnapshot,
    PitotConfig,
    PitotModel,
    PitotTrainer,
    TrainerConfig,
)
from repro.core.model import SNAPSHOT_CHUNK
from repro.serving import service


@pytest.fixture(scope="module")
def snapshot(trained_pitot):
    return trained_pitot.model.snapshot()


@pytest.fixture(scope="module")
def snapshot_quantile(trained_pitot_quantile):
    return trained_pitot_quantile.model.snapshot()


class TestEquivalence:
    ATOL = 1e-10

    def test_predict_log_matches_with_interference(
        self, trained_pitot, snapshot, mini_split
    ):
        test = mini_split.test
        expected = trained_pitot.model.predict_log(
            test.w_idx, test.p_idx, test.interferers
        )
        actual = snapshot.predict_log(test.w_idx, test.p_idx, test.interferers)
        np.testing.assert_allclose(actual, expected, rtol=0, atol=self.ATOL)

    def test_predict_log_matches_isolation(
        self, trained_pitot, snapshot, mini_split
    ):
        test = mini_split.test
        expected = trained_pitot.model.predict_log(test.w_idx, test.p_idx, None)
        actual = snapshot.predict_log(test.w_idx, test.p_idx, None)
        np.testing.assert_allclose(actual, expected, rtol=0, atol=self.ATOL)

    def test_quantile_heads_match(
        self, trained_pitot_quantile, snapshot_quantile, mini_split
    ):
        test = mini_split.test
        expected = trained_pitot_quantile.model.predict_log(
            test.w_idx, test.p_idx, test.interferers
        )
        actual = snapshot_quantile.predict_log(
            test.w_idx, test.p_idx, test.interferers
        )
        assert actual.shape[1] == len(
            trained_pitot_quantile.model.config.quantiles
        )
        np.testing.assert_allclose(actual, expected, rtol=0, atol=self.ATOL)

    def test_predict_runtime_matches(self, trained_pitot, snapshot, mini_split):
        test = mini_split.test
        expected = trained_pitot.model.predict_runtime(
            test.w_idx, test.p_idx, test.interferers
        )
        actual = snapshot.predict_runtime(test.w_idx, test.p_idx, test.interferers)
        np.testing.assert_allclose(actual, expected, rtol=1e-12)

    def test_chunking_does_not_change_results(self, snapshot, mini_split):
        test = mini_split.test
        full = snapshot.predict_log(test.w_idx, test.p_idx, test.interferers)
        chunked = snapshot.predict_log(
            test.w_idx, test.p_idx, test.interferers, chunk=7
        )
        np.testing.assert_array_equal(full, chunked)

    def test_chunk_sizes_agree_bitwise(self, snapshot_quantile):
        """Chunks of 1, 7, the default and more than n rows give the same
        bits on a batch that spans several default chunks."""
        snap = snapshot_quantile
        rng = np.random.default_rng(5)
        n = 2 * SNAPSHOT_CHUNK + 37
        n_workloads, n_platforms = snap.W.shape[0], snap.P.shape[0]
        w = rng.integers(0, n_workloads, n)
        p = rng.integers(0, n_platforms, n)
        k = rng.integers(-1, n_workloads, (n, 3))
        whole = snap.predict_log(w, p, k, chunk=n + 1)
        for chunk in (1, 7, SNAPSHOT_CHUNK):
            np.testing.assert_array_equal(
                snap.predict_log(w, p, k, chunk=chunk), whole
            )
        np.testing.assert_array_equal(snap.predict_log(w, p, k), whole)

    def test_default_chunk_is_the_serving_batch(self):
        assert SNAPSHOT_CHUNK == service.MAX_BATCH == 8192

    def test_one_dimensional_interferer_row_is_one_query(
        self, trained_pitot, snapshot
    ):
        """A 1-D interferer row means one (1, K) query — predict_log must
        not truncate it during chunk slicing."""
        row = np.array([1, 2, 3])
        w, p = np.array([0]), np.array([0])
        expected = snapshot.forward(w, p, row)
        actual = snapshot.predict_log(w, p, row) - snapshot.baseline_log(w, p)[:, None]
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-10)
        model_log = trained_pitot.model.predict_log(w, p, row)
        np.testing.assert_allclose(
            snapshot.predict_log(w, p, row), model_log, rtol=0, atol=1e-10
        )

    def test_all_padding_interferers_equal_isolation(self, snapshot, mini_split):
        test = mini_split.test
        pad = np.full((test.n_observations, 3), -1)
        with_pad = snapshot.predict_log(test.w_idx, test.p_idx, pad)
        without = snapshot.predict_log(test.w_idx, test.p_idx, None)
        np.testing.assert_array_equal(with_pad, without)


class TestStaleness:
    def test_fresh_snapshot_is_not_stale(self, trained_pitot):
        snap = trained_pitot.model.snapshot()
        assert not snap.is_stale(trained_pitot.model)

    def test_further_fit_marks_snapshot_stale(self, mini_split):
        from repro.core import train_pitot

        result = train_pitot(
            mini_split.train,
            mini_split.calibration,
            model_config=PitotConfig(hidden=(16,), embedding_dim=4),
            trainer_config=TrainerConfig(
                steps=30, eval_every=15, batch_per_degree=64, seed=0
            ),
        )
        snap = result.model.snapshot()
        assert not snap.is_stale(result.model)
        PitotTrainer(
            result.model,
            TrainerConfig(steps=10, eval_every=5, batch_per_degree=64, seed=1),
        ).fit(mini_split.train, mini_split.calibration)
        assert snap.is_stale(result.model)

    def test_fit_without_validation_marks_stale(self, mini_split):
        from repro.core import train_pitot

        result = train_pitot(
            mini_split.train,
            None,
            model_config=PitotConfig(hidden=(16,), embedding_dim=4),
            trainer_config=TrainerConfig(
                steps=10, eval_every=5, batch_per_degree=64, seed=0
            ),
        )
        snap = result.model.snapshot()
        PitotTrainer(
            result.model,
            TrainerConfig(steps=5, eval_every=5, batch_per_degree=64, seed=2),
        ).fit(mini_split.train, None)
        assert snap.is_stale(result.model)

    def test_load_state_dict_bumps_generation(self, trained_pitot):
        model = trained_pitot.model
        before = model.generation
        model.load_state_dict(model.state_dict())
        assert model.generation == before + 1


class TestSnapshotContents:
    def test_shapes(self, snapshot, trained_pitot):
        model = trained_pitot.model
        cfg = model.config
        assert snapshot.W.shape == (
            model.n_workloads, cfg.n_heads, cfg.embedding_dim
        )
        assert snapshot.P.shape == (model.n_platforms, cfg.embedding_dim)
        assert snapshot.VS.shape == (
            model.n_platforms, cfg.interference_types, cfg.embedding_dim
        )
        assert snapshot.VS.shape == snapshot.VG.shape

    def test_snapshot_is_detached_from_model(self, trained_pitot):
        """Mutating model parameters must not leak into a live snapshot."""
        model = trained_pitot.model
        snap = EmbeddingSnapshot.from_model(model)
        before = snap.predict_log(np.array([0]), np.array([0]))
        state = model.state_dict()
        perturbed = {k: v + 0.1 for k, v in state.items()}
        model.load_state_dict(perturbed)
        try:
            after = snap.predict_log(np.array([0]), np.array([0]))
            np.testing.assert_array_equal(before, after)
            assert snap.is_stale(model)
        finally:
            model.load_state_dict(state)

    def test_missing_baseline_raises_like_model(self, mini_dataset, rng):
        model = PitotModel(
            mini_dataset.workload_features,
            mini_dataset.platform_features,
            PitotConfig(hidden=(8,), embedding_dim=4),
            rng,
        )
        snap = model.snapshot()
        with np.testing.assert_raises(RuntimeError):
            snap.predict_log(np.array([0]), np.array([0]))
