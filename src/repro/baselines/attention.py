"""Attention baseline (Sec 5.3 / App B.4).

Replaces the NN baseline's per-pair multiplier with a single-headed
attention mechanism over the interferer set:

* the base network additionally emits a **query** vector (dim 8);
* a key/value network maps ``[x_w(interferer), x_p] → (key, value)``;
* attention weights over the valid interferers pool the values, and a
  small output head turns the pooled context into one log-multiplier.

The paper positions this as the strongest baseline for interference
(Fig 6a): structurally close to Pitot's interference term but with a
generic learned output function instead of the theory-informed
susceptibility × activation(magnitude) form.
"""

from __future__ import annotations

import numpy as np

from ..core.model import standardize_features
from ..nn import MLP, Tensor, gelu, softmax
from .base import BaselineModel

__all__ = ["AttentionBaseline"]


class AttentionBaseline(BaselineModel):
    """Base prediction + attention-pooled interference multiplier."""

    def __init__(
        self,
        workload_features: np.ndarray,
        platform_features: np.ndarray,
        rng: np.random.Generator,
        hidden: tuple[int, ...] = (256, 256),
        qk_dim: int = 8,
        value_dim: int = 8,
        output_hidden: int = 32,
    ) -> None:
        super().__init__(len(workload_features), len(platform_features))
        self._xw = standardize_features(workload_features)
        self._xp = standardize_features(platform_features)
        self.qk_dim = qk_dim
        self.value_dim = value_dim
        dw, dp = self._xw.shape[1], self._xp.shape[1]
        # Base net outputs [prediction, query].
        self.base_net = MLP(dw + dp, hidden, 1 + qk_dim, rng, activation=gelu)
        # Key/value net per interferer.
        self.kv_net = MLP(dw + dp, hidden, qk_dim + value_dim, rng, activation=gelu)
        self.output_net = MLP(value_dim, (output_hidden,), 1, rng, activation=gelu)

    def forward(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None = None,
    ) -> Tensor:
        w_idx = np.asarray(w_idx, dtype=np.intp)
        p_idx = np.asarray(p_idx, dtype=np.intp)
        b = len(w_idx)
        base_in = np.concatenate([self._xw[w_idx], self._xp[p_idx]], axis=1)
        base_out = self.base_net(Tensor(base_in))  # (B, 1 + qk)
        base = base_out[:, :1]

        if interferers is None:
            return base
        interferers = np.atleast_2d(np.asarray(interferers, dtype=np.intp))
        mask = interferers >= 0
        if not mask.any():
            return base
        k = interferers.shape[1]
        safe = np.where(mask, interferers, 0)

        query = base_out[:, 1:]  # (B, qk)
        kv_in = np.concatenate(
            [self._xw[safe.ravel()], np.repeat(self._xp[p_idx], k, axis=0)], axis=1
        )
        kv = self.kv_net(Tensor(kv_in)).reshape(b, k, self.qk_dim + self.value_dim)
        keys = kv[:, :, : self.qk_dim]  # (B, K, qk)
        values = kv[:, :, self.qk_dim :]  # (B, K, v)

        scale = 1.0 / np.sqrt(self.qk_dim)
        logits = (keys @ query.reshape(b, self.qk_dim, 1)).reshape(b, k) * scale
        # Mask padded slots with a large negative constant before softmax.
        neg = Tensor(np.where(mask, 0.0, -1e9))
        weights = softmax(logits + neg, axis=1)  # (B, K)
        context = (weights.reshape(b, 1, k) @ values).reshape(b, self.value_dim)
        multiplier = self.output_net(context)  # (B, 1)
        # Rows without any interferer contribute no multiplier.
        has_int = Tensor(mask.any(axis=1, keepdims=True).astype(np.float64))
        return base + multiplier * has_int
