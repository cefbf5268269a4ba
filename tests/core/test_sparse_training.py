"""Batch-sparse training path: plan correctness and dense equivalence.

The tentpole invariant: because the tower MLPs are row-independent, the
batch-sparse step (forward only the entity rows a batch references) is
*row-identical* to App B.3's dense full-population step. These tests pin
that from the index bookkeeping up to full training runs.
"""

import numpy as np
import pytest

from repro.core import (
    PitotConfig,
    PitotModel,
    PitotTrainer,
    TrainerConfig,
    plan_sparse_batch,
)
from repro.nn import Tensor

from reference_paths import forced_plan, train_with

TINY = dict(hidden=(16,), embedding_dim=4, learned_features=1)


@pytest.fixture()
def model(mini_split):
    train = mini_split.train
    return PitotModel(
        train.workload_features,
        train.platform_features,
        PitotConfig(**TINY),
        np.random.default_rng(0),
    )


class TestPlanSparseBatch:
    def test_roundtrip_without_interferers(self, rng):
        w = rng.integers(0, 50, 200)
        p = rng.integers(0, 12, 200)
        plan = plan_sparse_batch(w, p)
        assert np.array_equal(plan.w_rows[plan.w_local], w)
        assert np.array_equal(plan.p_rows[plan.p_local], p)
        assert plan.interferers_local is None
        # Unique and sorted: the subset rows are canonical.
        assert np.array_equal(plan.w_rows, np.unique(w))
        assert np.array_equal(plan.p_rows, np.unique(p))

    def test_roundtrip_with_interferers(self, rng):
        w = rng.integers(0, 50, 64)
        p = rng.integers(0, 12, 64)
        intf = np.where(
            rng.random((64, 3)) < 0.5, rng.integers(0, 50, (64, 3)), -1
        ).astype(np.intp)
        plan = plan_sparse_batch(w, p, intf)
        assert np.array_equal(plan.w_rows[plan.w_local], w)
        # Padding is preserved; real cells map back to their global index.
        mask = intf >= 0
        assert np.array_equal(plan.interferers_local < 0, ~mask)
        assert np.array_equal(
            plan.w_rows[plan.interferers_local[mask]], intf[mask]
        )
        # Interferer indices are folded into the workload row set.
        assert np.array_equal(
            plan.w_rows, np.unique(np.concatenate([w, intf[mask]]))
        )

    def test_all_padding_interferers(self):
        w = np.array([3, 1, 3])
        p = np.array([0, 1, 0])
        intf = np.full((3, 3), -1, dtype=np.intp)
        plan = plan_sparse_batch(w, p, intf)
        assert np.all(plan.interferers_local == -1)
        assert np.array_equal(plan.w_rows, [1, 3])


class TestSparseEmbeddingsMatchDense:
    def test_rows_identical(self, model):
        w_rows = np.array([0, 3, 17, 22])
        p_rows = np.array([1, 2, 9])
        W, P, VS, VG = model.compute_embeddings()
        Ws, Ps, VSs, VGs = model.compute_embeddings_sparse(w_rows, p_rows)
        assert np.allclose(Ws.data, W.data[w_rows], atol=1e-12)
        assert np.allclose(Ps.data, P.data[p_rows], atol=1e-12)
        assert np.allclose(VSs.data, VS.data[p_rows], atol=1e-12)
        assert np.allclose(VGs.data, VG.data[p_rows], atol=1e-12)

    def test_forward_identical(self, model, mini_split):
        train = mini_split.train
        batch = np.arange(0, train.n_observations, 7)
        w, p = train.w_idx[batch], train.p_idx[batch]
        intf = train.interferers[batch]
        dense = model.forward(w, p, intf)
        plan = plan_sparse_batch(w, p, intf)
        sparse = model.forward(
            plan.w_local,
            plan.p_local,
            plan.interferers_local,
            embeddings=model.compute_embeddings_sparse(plan.w_rows, plan.p_rows),
        )
        assert np.allclose(dense.data, sparse.data, atol=1e-12)

    def test_gradients_identical(self, model, mini_split):
        """Sparse and dense steps produce the same parameter gradients."""
        train = mini_split.train
        batch = np.arange(0, train.n_observations, 5)
        w, p = train.w_idx[batch], train.p_idx[batch]
        intf = train.interferers[batch]
        target = Tensor(np.zeros((len(batch), model.config.n_heads)))

        model.zero_grad()
        pred = model.forward(w, p, intf, embeddings=model.compute_embeddings())
        diff = pred - target
        (diff * diff).sum().backward()
        dense_grads = {n: g.grad.copy() for n, g in model.named_parameters()}

        model.zero_grad()
        plan = plan_sparse_batch(w, p, intf)
        pred = model.forward(
            plan.w_local,
            plan.p_local,
            plan.interferers_local,
            embeddings=model.compute_embeddings_sparse(plan.w_rows, plan.p_rows),
        )
        diff = pred - target
        (diff * diff).sum().backward()
        for name, param in model.named_parameters():
            assert np.allclose(
                param.grad, dense_grads[name], atol=1e-10
            ), name


class TestPlanSkippedWhenSparseCannotWin:
    def test_small_population_fit_never_plans(self, monkeypatch):
        """Below ``SPARSE_MIN_SAVED_ROWS + 2`` entities no batch can save
        enough tower rows, so ``_plan`` returns dense without running
        ``plan_sparse_batch``'s two ``np.unique`` calls."""
        from repro.core import trainer as trainer_module
        from repro.core.trainer import SPARSE_MIN_SAVED_ROWS
        from repro.pipeline import collect_stage, make_scenario_split
        from repro.scenarios import get_scenario

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return plan_sparse_batch(*args, **kwargs)

        monkeypatch.setattr(trainer_module, "plan_sparse_batch", counting)
        spec = get_scenario("smoke").scaled(steps=5)
        split = make_scenario_split(spec, collect_stage(spec))
        model = PitotModel(
            split.train.workload_features,
            split.train.platform_features,
            spec.model,
            np.random.default_rng(0),
        )
        assert model.n_workloads + model.n_platforms < SPARSE_MIN_SAVED_ROWS + 2
        PitotTrainer(model, spec.trainer).fit(split.train, split.calibration)
        assert calls == []


class TestTrainerEquivalence:
    @pytest.mark.parametrize("quantiles", [None, (0.5, 0.9)])
    def test_loss_histories_match(self, mini_split, quantiles):
        """≥50 steps: sparse and dense runs share the same loss history."""

        def run(sparse):
            return train_with(
                forced_plan(PitotTrainer, sparse),
                mini_split.train,
                mini_split.calibration,
                model_config=PitotConfig(quantiles=quantiles, **TINY),
                trainer_config=TrainerConfig(
                    steps=60,
                    eval_every=20,
                    batch_per_degree=64,
                    seed=0,
                ),
            )

        sparse, dense = run(True), run(False)
        assert len(sparse.train_loss_history) == 60
        np.testing.assert_allclose(
            sparse.train_loss_history,
            dense.train_loss_history,
            rtol=0,
            atol=1e-9,
        )
        np.testing.assert_allclose(
            [v for _, v in sparse.val_loss_history],
            [v for _, v in dense.val_loss_history],
            rtol=0,
            atol=1e-9,
        )
        assert sparse.best_step == dense.best_step

    def test_auto_mode_matches_forced_paths(self, mini_split):
        """Auto selection changes speed, never the trajectory."""

        def run(mode):
            return train_with(
                forced_plan(PitotTrainer, mode),
                mini_split.train,
                None,
                model_config=PitotConfig(**TINY),
                trainer_config=TrainerConfig(
                    steps=25,
                    batch_per_degree=64,
                    seed=0,
                ),
            ).train_loss_history

        np.testing.assert_allclose(run(None), run(True), rtol=0, atol=1e-9)
        np.testing.assert_allclose(run(None), run(False), rtol=0, atol=1e-9)


class TestEvaluateLossNoGrad:
    def test_matches_autograd_formulation(self, trained_pitot, mini_split):
        """The ndarray eval path equals the old Tensor-graph computation."""
        trainer = PitotTrainer(trained_pitot.model, TrainerConfig(steps=1))
        ds = mini_split.calibration
        targets = trainer._targets(ds)
        fast = trainer.evaluate_loss(ds, targets)

        # Reference: the pre-PR implementation, built on the tape.
        rows_by_degree = trainer._degree_rows(ds)
        n_int = sum(1 for d in rows_by_degree if d > 1)
        embeddings = trained_pitot.model.compute_embeddings()
        total, weight_sum = 0.0, 0.0
        for degree, rows in rows_by_degree.items():
            w = trainer._degree_weight(degree, n_int)
            losses = []
            for lo in range(0, len(rows), 8192):
                sub = rows[lo : lo + 8192]
                pred = trained_pitot.model.forward(
                    ds.w_idx[sub],
                    ds.p_idx[sub],
                    ds.interferers[sub] if degree > 1 else None,
                    embeddings=embeddings,
                )
                losses.append(
                    trainer._loss(pred, targets[sub]).item() * len(sub)
                )
            total += w * (sum(losses) / len(rows))
            weight_sum += w
        reference = total / max(weight_sum, 1e-12)
        assert fast == pytest.approx(reference, abs=1e-12)

    def test_leaves_no_gradients(self, trained_pitot, mini_split):
        model = trained_pitot.model
        model.zero_grad()
        trainer = PitotTrainer(model, TrainerConfig(steps=1))
        trainer.evaluate_loss(mini_split.calibration)
        assert all(p.grad is None for p in model.parameters())
