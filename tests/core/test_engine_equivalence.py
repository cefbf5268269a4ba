"""Engine equivalence: fused / tape-replay paths vs the primitive reference.

``reference_paths.PrimitiveTrainer`` rebuilds the pre-engine primitive
autograd graph every step. The fused arena kernels without replay
(``reference_paths.UntapedTrainer``: the production step after a tape
bail-out) and the recorded-tape replay path must be **bitwise**
identical to it in float64 — not approximately equal: same train-loss
history, same validation history, same checkpoint selection, same final
parameters.
These tests pin that contract over full seeded fits across both
objectives and all three sparse modes, plus the warm-update path.

The float32 engine is a deliberate precision trade, so it is pinned
loosely (finite, tracks float64 at the first step) rather than bitwise.
"""

import numpy as np
import pytest

from repro.core import (
    PAPER_QUANTILES,
    PitotConfig,
    PitotModel,
    PitotTrainer,
    TrainerConfig,
)
from repro.core.trainer import (
    SPARSE_AUTO_FRACTION,
    SPARSE_MIN_SAVED_ROWS,
    TAPE_BAILOUT_MISSES,
    choose_sparse,
)

from reference_paths import PrimitiveTrainer, UntapedTrainer, train_with

TINY = dict(hidden=(32,), embedding_dim=8, learned_features=1)

REFERENCE = PrimitiveTrainer
FUSED = UntapedTrainer
TAPED = PitotTrainer


def _fit(split, *, quantile=False, steps=30, engine=TAPED, **overrides):
    cfg = dict(steps=steps, eval_every=10, batch_per_degree=64, seed=2)
    cfg.update(overrides)
    return train_with(
        engine,
        split.train,
        split.calibration,
        model_config=PitotConfig(
            quantiles=PAPER_QUANTILES if quantile else None, **TINY
        ),
        trainer_config=TrainerConfig(**cfg),
    )


def _params(result):
    return [p.data for p in result.model.parameters()]


class TestBitwiseParity:
    @pytest.mark.parametrize("sparse", [False, True, None],
                             ids=["dense", "sparse", "auto"])
    @pytest.mark.parametrize("quantile", [False, True],
                             ids=["squared", "pinball"])
    def test_engines_match_reference(self, mini_split, quantile, sparse):
        ref = _fit(mini_split, quantile=quantile,
                   sparse_embeddings=sparse, engine=REFERENCE)
        for engine in (FUSED, TAPED):
            out = _fit(mini_split, quantile=quantile,
                       sparse_embeddings=sparse, engine=engine)
            assert out.train_loss_history == ref.train_loss_history
            assert out.val_loss_history == ref.val_loss_history
            assert out.best_step == ref.best_step
            for a, b in zip(_params(out), _params(ref), strict=True):
                assert np.array_equal(a, b)

    def test_warm_update_matches_reference(self, trained_pitot, mini_split):
        # The continual-learning burst forces the sparse planner with
        # stream-sized batches — shapes the fit path never sees.
        histories = []
        for engine in (REFERENCE, TAPED):
            trainer = engine(
                trained_pitot.model.clone(),
                TrainerConfig(batch_per_degree=48, seed=7),
            )
            histories.append(
                trainer.update(mini_split.calibration, steps=12, rng=5)
                .train_loss_history
            )
        assert histories[0] == histories[1]


class TestTapeCache:
    def test_dense_run_replays_from_cache(self, mini_split):
        model = PitotModel(
            mini_split.train.workload_features,
            mini_split.train.platform_features,
            PitotConfig(**TINY),
            np.random.default_rng(0),
        )
        trainer = PitotTrainer(
            model,
            TrainerConfig(steps=12, eval_every=10_000, batch_per_degree=64,
                          seed=1, sparse_embeddings=False),
        )
        trainer.fit(mini_split.train)
        stats = trainer._tapes.stats()
        # Dense shapes repeat every step: record once, replay the rest.
        assert stats["misses"] >= 1
        assert stats["hits"] >= 10
        assert stats["rejected"] == 0

    def test_unstable_shapes_trigger_bailout(self, mini_split):
        """Never-repeating batch shapes must not thrash the cache.

        Fleet-scale sparse steps draw a different unique-row count every
        batch, so every step would miss and pay recording overhead on
        top of the fused forward (measured ~2x slower than not taping at
        all). After ``TAPE_BAILOUT_MISSES`` consecutive misses the
        trainer stops taping and releases the cached programs; a later
        ``fit`` on a stable regime re-enables it.
        """
        train = mini_split.train
        model = PitotModel(
            train.workload_features,
            train.platform_features,
            PitotConfig(**TINY),
            np.random.default_rng(0),
        )
        trainer = PitotTrainer(
            model,
            TrainerConfig(steps=12, eval_every=10_000, batch_per_degree=64,
                          seed=1, sparse_embeddings=False),
        )
        for n in range(8, 8 + TAPE_BAILOUT_MISSES + 2):  # no shape repeats
            trainer._batch_loss_backward(
                np.ascontiguousarray(train.w_idx[:n]),
                np.ascontiguousarray(train.p_idx[:n]),
                None,
                np.zeros(n),
                np.ones(n),
            )
        assert trainer._tape_disabled
        stats = trainer._tapes.stats()
        # The streak stops exactly at the threshold (later steps bypass
        # the cache entirely) and bail-out releases every program.
        assert stats["misses"] == TAPE_BAILOUT_MISSES
        assert stats["hits"] == 0
        assert stats["programs"] == 0
        # A fresh fit gets a stable dense regime: taping comes back.
        trainer.fit(train)
        assert not trainer._tape_disabled
        assert trainer._tapes.stats()["hits"] >= 10


class TestDtype:
    def test_float64_is_the_default(self, trained_pitot):
        assert TrainerConfig().dtype == "float64"
        for p in trained_pitot.model.parameters():
            assert p.data.dtype == np.float64

    def test_float32_trains_and_tracks_float64(self, mini_split):
        f32 = _fit(mini_split, steps=15, dtype="float32")
        f64 = _fit(mini_split, steps=15, dtype="float64")
        for p in f32.model.parameters():
            assert p.data.dtype == np.float32
        assert np.all(np.isfinite(f32.train_loss_history))
        assert len(f32.train_loss_history) == len(f64.train_loss_history)
        # Identical first batch, so the first loss differs only by
        # rounding; trajectories may diverge later and that is the trade.
        assert f32.train_loss_history[0] == pytest.approx(
            f64.train_loss_history[0], rel=1e-4
        )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="dtype"):
            TrainerConfig(dtype="float16")


class TestChooseSparse:
    """Auto-mode boundaries: both the fraction AND the absolute-savings
    gate must pass (the latter is the ``paper_sparse`` regression fix)."""

    def test_fraction_boundary(self):
        cutoff = int(SPARSE_AUTO_FRACTION * 4096)
        assert choose_sparse(cutoff, 4096)          # exactly at 0.5: sparse
        assert not choose_sparse(cutoff + 1, 4096)  # one row over: dense

    def test_min_saved_rows_boundary(self):
        # Population just under 2x the row floor: the fraction gate
        # passes on both sides of the boundary, so the absolute-savings
        # gate alone flips the verdict.
        population = 2 * SPARSE_MIN_SAVED_ROWS - 36
        at = population - SPARSE_MIN_SAVED_ROWS
        assert at + 1 <= SPARSE_AUTO_FRACTION * population
        assert choose_sparse(at, population)          # saves exactly 768
        assert not choose_sparse(at + 1, population)  # saves 767: dense

    def test_paper_scale_is_always_dense(self):
        # 249 workloads + 220 platforms < 768: no batch can save enough
        # rows to pay the gather/scatter bookkeeping.
        population = 249 + 220
        assert population < SPARSE_MIN_SAVED_ROWS
        assert not choose_sparse(0, population)

    def test_fleet_scale_small_batch_is_sparse(self):
        assert choose_sparse(900, 32768 + 4096)
