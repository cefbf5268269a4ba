"""Shared infrastructure for the Sec 5.3 baseline predictors.

All baselines predict the natural-log runtime directly (the paper makes
them "more competitive" by giving them the log domain, App B.4) and are
trained with the same optimizer, batching, and validation-checkpoint
protocol as Pitot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.dataset import RuntimeDataset
from ..nn import AdaMax, Module, Tensor, no_grad
from ..core.config import TrainerConfig

__all__ = ["BaselineModel", "BaselineTrainer", "BaselineTrainingResult"]


class BaselineModel(Module):
    """Interface: ``forward(w_idx, p_idx, interferers) → Tensor (B, 1)``.

    ``train_degrees`` restricts which interference degrees the model
    trains on (the MF baseline discards interference observations).
    ``n_workloads``/``n_platforms`` are the population, the index ranges
    a bound query against the model is validated in.
    """

    train_degrees: tuple[int, ...] = (1, 2, 3, 4)

    def __init__(self, n_workloads: int, n_platforms: int) -> None:
        super().__init__()
        self.n_workloads = n_workloads
        self.n_platforms = n_platforms

    def forward(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None = None,
    ) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def predict_log(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None = None,
        chunk: int = 8192,
    ) -> np.ndarray:
        """Natural-log predictions, shape ``(n, 1)`` (single head)."""
        w_idx = np.asarray(w_idx, dtype=np.intp)
        p_idx = np.asarray(p_idx, dtype=np.intp)
        n = len(w_idx)
        out = np.empty((n, 1))
        with no_grad():  # prediction never backpropagates
            for lo in range(0, n, chunk):
                hi = min(lo + chunk, n)
                sub = None if interferers is None else interferers[lo:hi]
                out[lo:hi] = self.forward(
                    w_idx[lo:hi], p_idx[lo:hi], sub
                ).data.reshape(-1, 1)
        return out

    def predict_runtime(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None = None,
    ) -> np.ndarray:
        """Point runtime prediction in seconds."""
        return np.exp(self.predict_log(w_idx, p_idx, interferers)[:, 0])


@dataclass
class BaselineTrainingResult:
    model: BaselineModel
    train_loss_history: list[float] = field(default_factory=list)
    best_val_loss: float = float("inf")
    steps_run: int = 0


class BaselineTrainer:
    """Pitot-equivalent training loop for baseline models (App B.4)."""

    def __init__(
        self,
        model: BaselineModel,
        config: TrainerConfig | None = None,
        interference_weight: float = 0.5,
    ) -> None:
        self.model = model
        self.config = config or TrainerConfig()
        self.interference_weight = interference_weight

    def _degree_rows(self, ds: RuntimeDataset) -> dict[int, np.ndarray]:
        degree = ds.degree
        rows = {
            d: np.flatnonzero(degree == d)
            for d in self.model.train_degrees
        }
        return {d: r for d, r in rows.items() if len(r) > 0}

    def _weight(self, degree: int, n_int: int) -> float:
        return 1.0 if degree == 1 else self.interference_weight / max(n_int, 1)

    def evaluate_loss(self, ds: RuntimeDataset, chunk: int = 8192) -> float:
        """Degree-weighted squared log loss on a dataset."""
        rows_by_degree = self._degree_rows(ds)
        if not rows_by_degree:
            return float("nan")
        n_int = sum(1 for d in rows_by_degree if d > 1)
        y = ds.log_runtime
        total, weight_sum = 0.0, 0.0
        for degree, rows in rows_by_degree.items():
            sq_sum = 0.0
            for lo in range(0, len(rows), chunk):
                sub = rows[lo : lo + chunk]
                pred = self.model.predict_log(
                    ds.w_idx[sub],
                    ds.p_idx[sub],
                    ds.interferers[sub] if degree > 1 else None,
                )[:, 0]
                sq_sum += float(np.sum((pred - y[sub]) ** 2))
            w = self._weight(degree, n_int)
            total += w * sq_sum / len(rows)
            weight_sum += w
        return total / max(weight_sum, 1e-12)

    def fit(
        self,
        train: RuntimeDataset,
        validation: RuntimeDataset | None = None,
    ) -> BaselineTrainingResult:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        rows_by_degree = self._degree_rows(train)
        if not rows_by_degree:
            raise ValueError("no training rows for this baseline's degrees")
        n_int = sum(1 for d in rows_by_degree if d > 1)
        y = train.log_runtime
        optimizer = AdaMax(self.model.parameters(), lr=cfg.learning_rate)
        result = BaselineTrainingResult(model=self.model)
        best_state = self.model.state_dict()

        if validation is not None and validation.n_observations > cfg.max_eval_rows:
            keep = rng.choice(
                validation.n_observations, size=cfg.max_eval_rows, replace=False
            )
            validation = validation.subset(keep)

        for step in range(cfg.steps):
            optimizer.zero_grad()
            total_loss: Tensor | None = None
            for degree, rows in rows_by_degree.items():
                size = min(cfg.batch_per_degree, len(rows))
                batch = rows[rng.integers(0, len(rows), size=size)]
                pred = self.model.forward(
                    train.w_idx[batch],
                    train.p_idx[batch],
                    train.interferers[batch] if degree > 1 else None,
                )
                diff = pred.reshape(size) - Tensor(y[batch])
                loss = (diff * diff).mean() * self._weight(degree, n_int)
                total_loss = loss if total_loss is None else total_loss + loss
            total_loss.backward()
            optimizer.step()
            result.train_loss_history.append(total_loss.item())
            result.steps_run = step + 1

            if validation is not None and (
                (step + 1) % cfg.eval_every == 0 or step == cfg.steps - 1
            ):
                val_loss = self.evaluate_loss(validation)
                if val_loss < result.best_val_loss:
                    result.best_val_loss = val_loss
                    best_state = self.model.state_dict()

        if validation is not None:
            self.model.load_state_dict(best_state)
        return result
