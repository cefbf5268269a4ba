"""Neural-network baseline (Sec 5.3 / App B.4, after Pham'17 + Saeed'21).

Two networks, each with two 256-unit GELU hidden layers (twice Pitot's
width):

* a **base** network mapping ``[x_w, x_p] → log runtime`` (interference-
  blind point prediction);
* an **interference** network mapping ``[x_w(target), x_w(interferer),
  x_p] → log multiplier`` applied once per interferer (a purely
  multiplicative pairwise interference model).

Feature matrices are constants, so interferer inputs are assembled in
NumPy and only network weights receive gradients.
"""

from __future__ import annotations

import numpy as np

from ..core.model import standardize_features
from ..nn import MLP, Tensor, gelu
from .base import BaselineModel

__all__ = ["NeuralNetworkBaseline"]


class NeuralNetworkBaseline(BaselineModel):
    """Base + per-interferer multiplier networks."""

    def __init__(
        self,
        workload_features: np.ndarray,
        platform_features: np.ndarray,
        rng: np.random.Generator,
        hidden: tuple[int, ...] = (256, 256),
    ) -> None:
        super().__init__(len(workload_features), len(platform_features))
        self._xw = standardize_features(workload_features)
        self._xp = standardize_features(platform_features)
        dw, dp = self._xw.shape[1], self._xp.shape[1]
        self.base_net = MLP(dw + dp, hidden, 1, rng, activation=gelu)
        self.interference_net = MLP(2 * dw + dp, hidden, 1, rng, activation=gelu)

    # ------------------------------------------------------------------
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
        base = self.base_net(Tensor(base_in))  # (B, 1)

        if interferers is None:
            return base
        interferers = np.atleast_2d(np.asarray(interferers, dtype=np.intp))
        mask = interferers >= 0
        if not mask.any():
            return base
        k = interferers.shape[1]
        safe = np.where(mask, interferers, 0)
        # (B*K, 2*dw + dp) inputs; padded slots are masked out after.
        int_in = np.concatenate(
            [
                np.repeat(self._xw[w_idx], k, axis=0),
                self._xw[safe.ravel()],
                np.repeat(self._xp[p_idx], k, axis=0),
            ],
            axis=1,
        )
        mult = self.interference_net(Tensor(int_in)).reshape(b, k)
        mult = mult * Tensor(mask.astype(np.float64))
        return base + mult.sum(axis=1).reshape(b, 1)
