"""Pitot training loop (Sec 3.6 / App B.3).

Reproduces the paper's procedure:

* AdaMax at default hyperparameters;
* fixed-size sub-batches per interference degree (512 each of 1/2/3/4-way,
  batch 2048 total) so interference compute stays shape-stable;
* multi-objective weighting: isolation weight 1.0, interference weight β
  split equally across 2/3/4-way (App D.2, β=0.5);
* periodic validation with best-checkpoint selection;
* objectives: squared log-residual (Eq. 1), pinball for the quantile
  version (Eq. 13), plus the "log" and "naive proportional" ablation
  objectives of Fig 4a.

Deviating from App B.3's "compute all embeddings" step (an optimization on
GPU, a liability on CPU), a step runs *batch-sparse* whenever that pays
(:func:`choose_sparse`): it forwards only the entity rows its batch
references through the towers (see
:func:`repro.core.model.plan_sparse_batch`); that is row-identical to the
dense formulation. Over those tower rows, a step scores Eq. 9 from one
pairwise table whenever the table is no larger than the per-row gathers
(:func:`choose_table`), which agrees with the gather formulation to
rounding. Validation runs on the tape-free gather kernel serving uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.dataset import RuntimeDataset
from ..nn import AdaMax, Tensor, default_dtype, no_grad, where
from .config import PitotConfig, TrainerConfig
from .model import (
    PitotModel,
    SparseBatchPlan,
    interference_rows,
    plan_sparse_batch,
)
from .scaling import LinearScalingBaseline

__all__ = [
    "PitotTrainer",
    "TrainingResult",
    "train_pitot",
    "choose_sparse",
    "choose_table",
]

#: Auto mode runs a batch-sparse step only when the batch references at
#: most this fraction of the population; below the cutoff the pruned tower
#: rows no longer pay for the extra gather/scatter (measured crossover on
#: CPU BLAS is near 0.6; 0.5 keeps a safety margin).
SPARSE_AUTO_FRACTION = 0.5

#: Auto mode additionally requires the sparse step to prune at least this
#: many tower rows. At small populations the *fraction* test alone lets
#: sparse win on a few hundred saved rows — less than the fixed cost of
#: the unique/gather/scatter bookkeeping, which measured as a ~3% slowdown
#: at paper scale (BENCH_training_throughput ``paper_sparse``).
SPARSE_MIN_SAVED_ROWS = 768


def choose_sparse(referenced: int, population: int) -> bool:
    """Auto-mode policy: run this step batch-sparse?

    ``referenced`` is the number of unique entity rows (workloads +
    platforms) the batch touches; ``population`` the total entity count.
    Sparse must both prune a meaningful *fraction* of the population
    (:data:`SPARSE_AUTO_FRACTION`) and a meaningful *absolute* number of
    rows (:data:`SPARSE_MIN_SAVED_ROWS`) to pay for its bookkeeping.
    """
    return (
        referenced <= SPARSE_AUTO_FRACTION * population
        and population - referenced >= SPARSE_MIN_SAVED_ROWS
    )


def choose_table(
    n_workloads: int,
    n_platforms: int,
    batch: int,
    *,
    heads: int,
    rank: int,
    types: int,
    width: int,
) -> bool:
    """Score this step's Eq. 9 from one pairwise table?

    ``n_workloads`` and ``n_platforms`` are the step's tower rows (the
    population, or a sparse plan's subset). The table
    ``W·[P | V_s | V_g]ᵀ`` holds ``n_workloads·heads × n_platforms·(1+2s)``
    entries; the gather formulation materialises
    ``batch·rank·(heads·(1 + K) + 1 + 2s)`` — each row's target and
    interferer embeddings and its platform vectors. The table is chosen
    while it is no larger. ``types`` (s) and ``width`` (K) are 0 for a
    step without an interference term.
    """
    table = n_workloads * heads * n_platforms * (1 + 2 * types)
    gathered = batch * rank * (heads * (1 + width) + 1 + 2 * types)
    return table <= gathered


@dataclass
class TrainingResult:
    """Outcome of one training run."""

    model: PitotModel
    train_loss_history: list[float] = field(default_factory=list)
    val_loss_history: list[tuple[int, float]] = field(default_factory=list)
    best_val_loss: float = float("inf")
    best_step: int = -1
    steps_run: int = 0


class PitotTrainer:
    """Trains a :class:`PitotModel` on a train/validation dataset pair."""

    def __init__(
        self,
        model: PitotModel,
        config: TrainerConfig | None = None,
    ) -> None:
        self.model = model
        self.config = config or TrainerConfig()
        #: Training precision; parameters are cast lazily on first step.
        self._dtype = np.dtype(self.config.dtype)

    def _ensure_dtype(self) -> None:
        """Cast model parameters to the training precision (once)."""
        params = self.model.parameters()
        if params and params[0].data.dtype != self._dtype:
            self.model.cast(self._dtype)

    # ------------------------------------------------------------------
    # Targets
    # ------------------------------------------------------------------
    def _fit_baseline(self, train: RuntimeDataset) -> None:
        """Fit the linear scaling baseline on isolation rows (App B.1)."""
        model = self.model
        if model.config.objective != "log_residual":
            model.baseline = None
            return
        baseline = LinearScalingBaseline(model.n_workloads, model.n_platforms)
        iso = train.isolation_mask()
        baseline.fit(
            train.w_idx[iso],
            train.p_idx[iso],
            train.log_runtime[iso],
            fallback=(train.w_idx, train.p_idx, train.log_runtime),
        )
        model.baseline = baseline

    def _targets(self, ds: RuntimeDataset) -> np.ndarray:
        """Regression targets in the model's output domain."""
        y = ds.log_runtime
        if self.model.config.objective == "log_residual":
            return y - self.model.baseline.predict(ds.w_idx, ds.p_idx)
        return y

    # ------------------------------------------------------------------
    # Loss
    # ------------------------------------------------------------------
    def _loss_elementwise(self, pred: Tensor, target: np.ndarray) -> Tensor:
        """Per-row/per-head loss matrix; ``pred`` is ``(B, H)``."""
        cfg = self.model.config
        t = target[:, None]
        if cfg.quantiles is not None:
            xi = np.asarray(cfg.quantiles)[None, :]  # (1, H)
            under = Tensor(t) - pred
            return where(under.data > 0, under * xi, under * (xi - 1.0))
        if cfg.objective == "proportional":
            # Naive proportional loss ((Ĉ-C)/C)^2 = (exp(ŷ-y)-1)^2 — the
            # Fig 4a strawman. tanh-clamped exponent keeps it finite.
            diff = pred - Tensor(t)
            clamped = (diff * (1.0 / 15.0)).tanh() * 15.0
            return (clamped.exp() - 1.0) ** 2.0
        diff = pred - Tensor(t)
        return diff * diff

    def _loss(self, pred: Tensor, target: np.ndarray) -> Tensor:
        """Mean loss for one sub-batch."""
        return self._loss_elementwise(pred, target).mean()

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _degree_rows(self, ds: RuntimeDataset) -> dict[int, np.ndarray]:
        """Training row indices per degree, honoring the ablation mode."""
        mode = self.model.config.interference_mode
        degree = ds.degree
        if mode == "discard":
            return {1: np.flatnonzero(degree == 1)}
        rows = {d: np.flatnonzero(degree == d) for d in (1, 2, 3, 4)}
        return {d: r for d, r in rows.items() if len(r) > 0}

    def _degree_weight(self, degree: int, n_interference_degrees: int) -> float:
        if degree == 1:
            return 1.0
        return self.model.config.interference_weight / max(
            n_interference_degrees, 1
        )

    def evaluate_loss(
        self, ds: RuntimeDataset, targets: np.ndarray | None = None, chunk: int = 8192
    ) -> float:
        """Weighted objective on a full dataset (for checkpoint selection).

        Runs on the no-grad snapshot kernel: one tape-free tower forward,
        then plain-ndarray batch forwards through the same
        ``EmbeddingSnapshot.forward`` serving uses. The loss reuses the
        training-path ``_loss_elementwise`` under ``no_grad`` (same ops,
        no tape). It matches a gather-formulation training forward
        bitwise; where a step scores Eq. 9 from the pairwise table
        (:func:`choose_table`) the two agree to rounding.
        """
        if ds.n_observations == 0:
            return float("nan")
        if targets is None:
            targets = self._targets(ds)
        rows_by_degree = self._degree_rows(ds)
        n_int = sum(1 for d in rows_by_degree if d > 1)
        snapshot = self.model.snapshot()
        total, weight_sum = 0.0, 0.0
        with no_grad():
            for degree, rows in rows_by_degree.items():
                w = self._degree_weight(degree, n_int)
                losses = []
                for lo in range(0, len(rows), chunk):
                    sub = rows[lo : lo + chunk]
                    pred = snapshot.forward(
                        ds.w_idx[sub],
                        ds.p_idx[sub],
                        ds.interferers[sub] if degree > 1 else None,
                    )
                    elem = self._loss_elementwise(Tensor(pred), targets[sub])
                    # Mirror Tensor.mean (sum * 1/n): bitwise-aligned
                    # with the training-path loss.
                    losses.append(
                        float(elem.data.sum() * (1.0 / elem.size)) * len(sub)
                    )
                total += w * (sum(losses) / len(rows))
                weight_sum += w
        return total / max(weight_sum, 1e-12)

    def _gradient_step(
        self,
        train: RuntimeDataset,
        train_targets: np.ndarray,
        rows_by_degree: dict[int, np.ndarray],
        n_int: int,
        any_interference: bool,
        rng: np.random.Generator,
        optimizer: AdaMax,
    ) -> float:
        """One weighted SGD step; returns the batch loss.

        Shared by :meth:`fit` and :meth:`update`.
        """
        cfg = self.config
        optimizer.zero_grad()
        # One combined batch with per-row coefficients reproduces the
        # paper's per-degree sub-batch weighting exactly (the weighted
        # sum of per-degree means) while traversing one graph.
        batches, coeffs = [], []
        for degree, rows in rows_by_degree.items():
            size = min(cfg.batch_per_degree, len(rows))
            batch = rows[rng.integers(0, len(rows), size=size)]
            batches.append(batch)
            coeffs.append(
                np.full(size, self._degree_weight(degree, n_int) / size)
            )
        batch = np.concatenate(batches)
        coeff = np.concatenate(coeffs)
        w_idx = train.w_idx[batch]
        p_idx = train.p_idx[batch]
        interferers = train.interferers[batch] if any_interference else None
        targets_b = train_targets[batch]
        plan = self._plan(w_idx, p_idx, interferers)
        with default_dtype(self._dtype):
            loss = self._fused_step(
                w_idx, p_idx, interferers, plan, targets_b, coeff
            )
        optimizer.step()
        return loss

    def _plan(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
    ) -> SparseBatchPlan | None:
        """The batch-sparse plan for this step, or ``None`` to run dense.

        A sparse step runs the towers only over the unique entity rows
        the batch references, and the gathers scatter gradients back to
        the full tables. It is row-identical to the dense formulation
        (the towers are row-independent), so the choice is made per step
        from the pruning alone (:func:`choose_sparse`). A batch references
        at least one workload and one platform, so a population where
        even that could not pay is never planned.
        """
        population = self.model.n_workloads + self.model.n_platforms
        if not choose_sparse(2, population):
            return None
        plan = plan_sparse_batch(w_idx, p_idx, interferers)
        referenced = len(plan.w_rows) + len(plan.p_rows)
        return plan if choose_sparse(referenced, population) else None

    def _table_step(
        self, embeddings: tuple, batch: int, interferers: np.ndarray | None
    ) -> bool:
        """Whether this step scores Eq. 9 from one pairwise table over
        ``embeddings``' rows (:func:`choose_table`)."""
        W, P, VS, _ = embeddings
        cfg = self.model.config
        active = interference_rows(VS, cfg.interference_mode, interferers)
        types, width = (
            (0, 0) if active is None
            else (cfg.interference_types, active.shape[1])
        )
        return choose_table(
            W.shape[0], P.shape[0], batch, heads=cfg.n_heads,
            rank=cfg.embedding_dim, types=types, width=width,
        )

    def _predict_step(
        self,
        embeddings: tuple,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
    ) -> Tensor:
        """Eq. 9 for one training batch over the step's tower rows, in the
        formulation :meth:`_table_step` picks."""
        model = self.model
        if self._table_step(embeddings, len(w_idx), interferers):
            return model.forward_table(w_idx, p_idx, interferers, embeddings)
        return model.forward(w_idx, p_idx, interferers, embeddings=embeddings)

    def _fused_step(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        plan: SparseBatchPlan | None,
        targets_b: np.ndarray,
        coeff: np.ndarray,
    ) -> float:
        """Forward + backward for one batch; gradients land in ``p.grad``.

        The towers run on the arena-backed fused kernels, over the rows
        ``plan`` names (``None``: the whole population), and Eq. 9 runs in
        the formulation :meth:`_predict_step` picks; the graph is rebuilt
        every step.
        """
        model = self.model
        if plan is not None:
            embeddings = model.compute_embeddings_sparse(
                plan.w_rows, plan.p_rows, fused=True
            )
            w_idx, p_idx = plan.w_local, plan.p_local
            interferers = plan.interferers_local
        else:
            embeddings = model.compute_embeddings(fused=True)
        pred = self._predict_step(embeddings, w_idx, p_idx, interferers)
        loss_elem = self._loss_elementwise(pred, targets_b)
        total_loss = (loss_elem * Tensor(coeff[:, None])).sum() * (
            1.0 / model.config.n_heads
        )
        total_loss.backward()
        return total_loss.item()

    def fit(
        self,
        train: RuntimeDataset,
        validation: RuntimeDataset | None = None,
    ) -> TrainingResult:
        """Run the full training procedure; returns history + best model."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self._fit_baseline(train)
        train_targets = self._targets(train)
        val_targets = (
            self._targets(validation)
            if validation is not None and validation.n_observations > 0
            else None
        )
        if validation is not None and val_targets is not None:
            if validation.n_observations > cfg.max_eval_rows:
                keep = rng.choice(
                    validation.n_observations, size=cfg.max_eval_rows, replace=False
                )
                validation = validation.subset(keep)
                val_targets = self._targets(validation)

        rows_by_degree = self._degree_rows(train)
        n_int = sum(1 for d in rows_by_degree if d > 1)
        self._ensure_dtype()
        optimizer = AdaMax(self.model.parameters(), lr=cfg.learning_rate)
        result = TrainingResult(model=self.model)
        best_state = self.model.state_dict()

        any_interference = any(d > 1 for d in rows_by_degree)
        for step in range(cfg.steps):
            loss = self._gradient_step(
                train, train_targets, rows_by_degree, n_int,
                any_interference, rng, optimizer,
            )
            result.train_loss_history.append(loss)
            result.steps_run = step + 1

            if val_targets is not None and (
                (step + 1) % cfg.eval_every == 0 or step == cfg.steps - 1
            ):
                val_loss = self.evaluate_loss(validation, val_targets)
                result.val_loss_history.append((step + 1, val_loss))
                if val_loss < result.best_val_loss:
                    result.best_val_loss = val_loss
                    result.best_step = step + 1
                    best_state = self.model.state_dict()

        if val_targets is not None:
            self.model.load_state_dict(best_state)
        else:
            # In-place optimizer updates bypass load_state_dict; record
            # the parameter change so serving snapshots read as stale.
            self.model.mark_updated()
        return result

    def update(
        self,
        new_rows: RuntimeDataset,
        steps: int = 200,
        rng: np.random.Generator | int | None = None,
    ) -> TrainingResult:
        """Warm-start incremental training on freshly-streamed rows.

        The continual-learning path: instead of re-fitting from scratch
        when the fleet produces new observations, run a short burst of
        gradient steps *from the current parameters*, sampling batches
        only from ``new_rows``. Each step picks its plan as :meth:`fit`
        does: an update batch references a small slice of a large
        population, so at fleet scale the towers forward only the entity
        rows it references — an update's cost scales with the stream
        slice, not the population, which is where the ≥5x-over-retrain
        headroom at fleet scale comes from (see
        ``benchmarks/bench_lifecycle_update``). At small populations the
        dense step is the faster one, and :func:`choose_sparse` picks it.

        The scaling baseline and the best-checkpoint machinery are *not*
        re-run: an update is a perturbation of an already-selected model,
        and re-fitting the baseline would silently redefine the targets
        the towers were trained against. The parameter generation is
        bumped so serving snapshots read as stale and get re-promoted via
        :meth:`~repro.serving.PredictionService.swap`.

        Parameters
        ----------
        new_rows:
            Recent observations (e.g. an
            :class:`~repro.cluster.ObservationBuffer` window).
        steps:
            Gradient steps for this burst.
        rng:
            Batch-sampling stream (generator, seed, or ``None`` for the
            trainer config's seed). Lifecycle loops pass one persistent
            generator so successive update bursts draw fresh batches.
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if new_rows.n_observations == 0:
            raise ValueError("update needs at least one new observation")
        if (
            self.model.config.objective == "log_residual"
            and self.model.baseline is None
        ):
            raise RuntimeError(
                "update() requires a fitted model (no scaling baseline "
                "present); run fit() before streaming updates"
            )
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(
                self.config.seed if rng is None else rng
            )
        targets = self._targets(new_rows)
        rows_by_degree = self._degree_rows(new_rows)
        n_int = sum(1 for d in rows_by_degree if d > 1)
        any_interference = any(d > 1 for d in rows_by_degree)
        self._ensure_dtype()
        optimizer = AdaMax(
            self.model.parameters(), lr=self.config.learning_rate
        )
        result = TrainingResult(model=self.model)
        for step in range(steps):
            loss = self._gradient_step(
                new_rows, targets, rows_by_degree, n_int,
                any_interference, rng, optimizer,
            )
            result.train_loss_history.append(loss)
            result.steps_run = step + 1
        self.model.mark_updated()
        return result


def train_pitot(
    train: RuntimeDataset,
    validation: RuntimeDataset | None = None,
    model_config: PitotConfig | None = None,
    trainer_config: TrainerConfig | None = None,
    seed: int = 0,
) -> TrainingResult:
    """Convenience constructor + trainer in one call."""
    model_config = model_config or PitotConfig()
    trainer_config = trainer_config or TrainerConfig(seed=seed)
    model = PitotModel(
        train.workload_features,
        train.platform_features,
        model_config,
        np.random.default_rng(seed),
    )
    trainer = PitotTrainer(model, trainer_config)
    return trainer.fit(train, validation)
