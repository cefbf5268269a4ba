"""Pure matrix factorization baseline (Sec 5.3, after Quasar/Paragon).

``log Ĉ_ij = w_i · p_j`` with learned per-entity vectors — no side
information, no log-residual normalization, no interference model. It
discards interference observations (Sec 5.3: matrix factorization "is not
interference-aware (and discards any observations with interference)") and
returns the same prediction regardless of co-runners.

The paper finds this baseline data-hungry (invisible in Fig 6a's cropped
axes; >75% error) yet competitive without interference once most of the
matrix is observed (App D.3) — behaviour our benches reproduce.
"""

from __future__ import annotations

import numpy as np

from ..nn import EmbeddingTable, Tensor
from .base import BaselineModel

__all__ = ["MatrixFactorizationBaseline"]


class MatrixFactorizationBaseline(BaselineModel):
    """Rank-r factorization of the log-runtime matrix."""

    train_degrees = (1,)

    def __init__(
        self,
        n_workloads: int,
        n_platforms: int,
        rng: np.random.Generator,
        rank: int = 32,
        init_std: float = 0.1,
    ) -> None:
        super().__init__(n_workloads, n_platforms)
        self.rank = rank
        self.w_table = EmbeddingTable(n_workloads, rank, rng, std=init_std)
        self.p_table = EmbeddingTable(n_platforms, rank, rng, std=init_std)

    def forward(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None = None,
    ) -> Tensor:
        w_idx = np.asarray(w_idx, dtype=np.intp)
        p_idx = np.asarray(p_idx, dtype=np.intp)
        w = self.w_table(w_idx)  # (B, r)
        p = self.p_table(p_idx)  # (B, r)
        return (w * p).sum(axis=1).reshape(len(w_idx), 1)
