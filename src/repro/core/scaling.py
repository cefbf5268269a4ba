"""Linear scaling baseline (Sec 3.2 / App B.1).

Fits ``log C̄_ij = w̄_i + p̄_j`` — workload log "difficulty" plus platform
log "speed" — by alternating minimization on interference-free data. The
log-loss is convex in each block, so the coordinate updates (Eq. 14) are
exact means of residuals and descent is monotone.

Pitot's towers then predict the *residual* ``y = log C − log C̄`` (Eq. 3),
which is invariant to scaling a workload by a constant repetition factor.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LinearScalingBaseline"]


def _fill_from_rows(
    bar: np.ndarray, seen: np.ndarray, column: np.ndarray, residual: np.ndarray
) -> None:
    """Set each unseen entity that has rows to its mean ``residual``.

    One stable sort groups the rows of every unseen entity, each group in
    row order, so ``np.mean`` sums exactly the values a per-entity mask
    over ``column`` would select, in the same order, and gives the same
    bits without a column scan per entity. Marks those entities seen.
    """
    rows = np.flatnonzero(~seen[column])
    if not len(rows):
        return
    rows = rows[np.argsort(column[rows], kind="stable")]
    keys = column[rows]
    values = residual[rows]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    ends = np.append(starts[1:], len(rows))
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        bar[keys[lo]] = float(np.mean(values[lo:hi]))
    seen[keys[starts]] = True


class LinearScalingBaseline:
    """Alternating-minimization fit of the additive log model.

    Works in natural-log space (the model's target domain). Entities never
    observed in the fitting data receive fallback values so downstream
    residuals stay finite; see :meth:`fit`.
    """

    def __init__(self, n_workloads: int, n_platforms: int) -> None:
        self.n_workloads = n_workloads
        self.n_platforms = n_platforms
        self.w_bar = np.zeros(n_workloads)
        self.p_bar = np.zeros(n_platforms)
        self.loss_history: list[float] = []
        self._fitted = False

    @classmethod
    def from_parameters(
        cls, w_bar: np.ndarray, p_bar: np.ndarray
    ) -> "LinearScalingBaseline":
        """Rebuild a fitted baseline from persisted parameter vectors.

        The restore path for model archives and pipeline artifacts: the
        returned baseline predicts identically to the one that was saved.
        Only the parameters are persisted — ``loss_history`` (a fit-time
        convergence diagnostic) starts empty.
        """
        baseline = cls(len(w_bar), len(p_bar))
        baseline.w_bar = np.asarray(w_bar, dtype=np.float64)
        baseline.p_bar = np.asarray(p_bar, dtype=np.float64)
        baseline._fitted = True
        return baseline

    # ------------------------------------------------------------------
    def fit(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        log_runtime: np.ndarray,
        n_iterations: int = 30,
        tol: float = 1e-9,
        fallback: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> "LinearScalingBaseline":
        """Fit on isolation observations.

        Parameters
        ----------
        w_idx, p_idx, log_runtime:
            Interference-free training rows (natural log seconds).
        n_iterations:
            Maximum alternating-minimization sweeps.
        tol:
            Stop when the loss improves by less than this.
        fallback:
            Optional ``(w_idx, p_idx, log_runtime)`` of *all* training
            rows (including interference). Workloads/platforms with no
            isolation observation get their parameter estimated from
            these rows instead — slightly biased upward by interference,
            but finite. Remaining unseen entities get the population mean.
        """
        w_idx = np.asarray(w_idx)
        p_idx = np.asarray(p_idx)
        y = np.asarray(log_runtime, dtype=np.float64)

        w_counts = np.bincount(w_idx, minlength=self.n_workloads).astype(float)
        p_counts = np.bincount(p_idx, minlength=self.n_platforms).astype(float)
        self.loss_history = []

        if len(y) > 0:
            previous = np.inf
            for _ in range(n_iterations):
                # w̄_i ← mean_j (y_ij − p̄_j)   (Eq. 14)
                resid_w = np.bincount(
                    w_idx, weights=y - self.p_bar[p_idx], minlength=self.n_workloads
                )
                np.divide(
                    resid_w, w_counts, out=self.w_bar, where=w_counts > 0
                )
                # p̄_j ← mean_i (y_ij − w̄_i)
                resid_p = np.bincount(
                    p_idx, weights=y - self.w_bar[w_idx], minlength=self.n_platforms
                )
                np.divide(
                    resid_p, p_counts, out=self.p_bar, where=p_counts > 0
                )
                loss = float(
                    np.mean((y - self.w_bar[w_idx] - self.p_bar[p_idx]) ** 2)
                )
                self.loss_history.append(loss)
                if previous - loss < tol:
                    break
                previous = loss

        # Identifiability: put the global level into w̄ (mean(p̄) = 0 over
        # observed platforms).
        seen_p = p_counts > 0
        if seen_p.any():
            shift = self.p_bar[seen_p].mean()
            self.p_bar[seen_p] -= shift
            self.w_bar[w_counts > 0] += shift

        self._fill_unseen(w_counts > 0, p_counts > 0, fallback)
        self._fitted = True
        return self

    def _fill_unseen(
        self,
        w_seen: np.ndarray,
        p_seen: np.ndarray,
        fallback: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
    ) -> None:
        if fallback is not None:
            fw, fp, fy = (np.asarray(a) for a in fallback)
            # Workloads first: the platform pass reads the filled w̄.
            _fill_from_rows(self.w_bar, w_seen, fw, fy - self.p_bar[fp])
            _fill_from_rows(self.p_bar, p_seen, fp, fy - self.w_bar[fw])
        if (~w_seen).any():
            self.w_bar[~w_seen] = self.w_bar[w_seen].mean() if w_seen.any() else 0.0
        if (~p_seen).any():
            self.p_bar[~p_seen] = self.p_bar[p_seen].mean() if p_seen.any() else 0.0

    # ------------------------------------------------------------------
    def predict(self, w_idx: np.ndarray, p_idx: np.ndarray) -> np.ndarray:
        """Baseline natural-log runtime ``w̄_i + p̄_j``."""
        if not self._fitted:
            raise RuntimeError("baseline not fitted")
        return self.w_bar[np.asarray(w_idx)] + self.p_bar[np.asarray(p_idx)]

    def residual(
        self, w_idx: np.ndarray, p_idx: np.ndarray, log_runtime: np.ndarray
    ) -> np.ndarray:
        """Residual target ``y = log C − (w̄_i + p̄_j)`` (Eq. 3)."""
        return np.asarray(log_runtime) - self.predict(w_idx, p_idx)
