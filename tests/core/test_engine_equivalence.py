"""Engine equivalence: the fused production step vs the primitive reference.

``reference_paths.PrimitiveTrainer`` rebuilds the pre-engine primitive
autograd graph every step. The production step (fused arena kernels,
graph rebuilt every step) must be **bitwise** identical to it in
float64 — not approximately equal: same train-loss history, same
validation history, same checkpoint selection, same final parameters.
These tests pin that contract over full seeded fits across both
objectives and all three tower plans (dense and sparse forced through
``reference_paths.forced_plan``, and the automatic choice), each with
Eq. 9 scored from the pairwise table and by per-row gathers (forced
through ``reference_paths.forced_formulation``), plus the warm-update
path.

The float32 engine is a deliberate precision trade, so it is pinned
loosely (finite, tracks float64 at the first step) rather than bitwise.
"""

import numpy as np
import pytest

from repro.core import (
    PAPER_QUANTILES,
    PitotConfig,
    PitotTrainer,
    TrainerConfig,
)
from repro.core.trainer import (
    SPARSE_AUTO_FRACTION,
    SPARSE_MIN_SAVED_ROWS,
    choose_sparse,
    choose_table,
)

from reference_paths import (
    PrimitiveTrainer,
    forced_formulation,
    forced_plan,
    train_with,
)

TINY = dict(hidden=(32,), embedding_dim=8, learned_features=1)

REFERENCE = PrimitiveTrainer


def _fit(split, *, quantile=False, steps=30, engine=PitotTrainer, **overrides):
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


def _forced(engine, sparse, table):
    return forced_formulation(forced_plan(engine, sparse), table)


#: Each parity test runs every step in each Eq. 9 formulation in turn.
FORMULATIONS = (True, False)  # pairwise table, per-row gathers


class TestBitwiseParity:
    @pytest.mark.parametrize("sparse", [False, True, None],
                             ids=["dense", "sparse", "auto"])
    @pytest.mark.parametrize("quantile", [False, True],
                             ids=["squared", "pinball"])
    def test_engines_match_reference(self, mini_split, quantile, sparse):
        for table in FORMULATIONS:
            ref = _fit(mini_split, quantile=quantile,
                       engine=_forced(REFERENCE, sparse, table))
            out = _fit(mini_split, quantile=quantile,
                       engine=_forced(PitotTrainer, sparse, table))
            assert out.train_loss_history == ref.train_loss_history
            assert out.val_loss_history == ref.val_loss_history
            assert out.best_step == ref.best_step
            for a, b in zip(_params(out), _params(ref), strict=True):
                assert np.array_equal(a, b)

    @staticmethod
    def _update_histories(trained_pitot, mini_split, sparse, table):
        # The continual-learning burst draws stream-sized batches —
        # shapes the fit path never sees.
        histories = []
        for engine in (REFERENCE, PitotTrainer):
            trainer = _forced(engine, sparse, table)(
                trained_pitot.model.clone(),
                TrainerConfig(batch_per_degree=48, seed=7),
            )
            histories.append(
                trainer.update(mini_split.calibration, steps=12, rng=5)
                .train_loss_history
            )
        return histories

    def test_warm_update_matches_reference(self, trained_pitot, mini_split):
        for table in FORMULATIONS:
            histories = self._update_histories(
                trained_pitot, mini_split, None, table
            )
            assert histories[0] == histories[1]

    def test_sparse_warm_update_matches_reference(
        self, trained_pitot, mini_split
    ):
        # A fleet-scale update runs batch-sparse; the mini population
        # would pick dense, so force the sparse plan here.
        for table in FORMULATIONS:
            histories = self._update_histories(
                trained_pitot, mini_split, True, table
            )
            assert histories[0] == histories[1]


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


#: Paper architecture: r = 32, s = 2, up to K = 3 interferers per row.
PAPER_ARCH = dict(rank=32, types=2, width=3)


class TestChooseTable:
    """Size-rule boundaries: the table ``W·[P | V_s | V_g]ᵀ`` over the
    step's tower rows against what the gather formulation materialises."""

    def test_boundary(self):
        # 1 head, no interference: table n_w·n_p vs gathers B·r·2.
        assert choose_table(64, 32, 256, heads=1, rank=4, types=0, width=0)
        assert not choose_table(
            65, 32, 256, heads=1, rank=4, types=0, width=0
        )

    def test_paper_population_picks_table(self):
        # 249 x 220, batch 2048 = 4 x 512: 273,900 table entries against
        # 589,824 gathered.
        assert choose_table(249, 220, 2048, heads=1, **PAPER_ARCH)
        # The quantile version: 8 heads, 2,191,200 against 4,784,128.
        assert choose_table(249, 220, 2048, heads=8, **PAPER_ARCH)

    def test_schedule_population_picks_table(self):
        # 60 x 35 platforms, 8 heads, batch 1024 = 4 x 256.
        assert choose_table(60, 35, 1024, heads=8, **PAPER_ARCH)

    def test_isolation_only_step_at_paper_scale_picks_gather(self):
        # The "discard" ablation trains on 512 isolation rows a step:
        # 54,780 table entries against 32,768 gathered.
        assert not choose_table(
            249, 220, 512, heads=1, rank=32, types=0, width=0
        )

    def test_larger_dense_population_picks_gather(self):
        # 1000 x 220: 1.1M table entries against 589,824 gathered.
        assert not choose_table(1000, 220, 2048, heads=1, **PAPER_ARCH)

    def test_fleet_large_sparse_step_picks_gather(self):
        # A fleet-large sparse step forwards about 4,750 workload and
        # 1,600 platform rows (6,285-6,377 entities measured).
        assert not choose_table(4750, 1600, 2048, heads=1, **PAPER_ARCH)
        # Even the fewest rows it could reference at one platform per
        # row pair stay far above the gather size.
        assert not choose_table(2048, 512, 2048, heads=1, **PAPER_ARCH)
