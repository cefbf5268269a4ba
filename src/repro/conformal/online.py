"""Online conformal recalibration (paper future work, Sec 6).

The paper notes that deployed predictors would benefit from "efficient
online learning". Retraining the towers online is expensive, but the
*conformal layer* can be updated cheaply: maintain a sliding window of
recent nonconformity scores per calibration pool and recompute offsets on
demand. Under a slowly-drifting environment this restores approximate
validity without touching model weights — and the window makes the
predictor forget stale regimes.

Each pool keeps its window as parallel NumPy arrays *sorted by score*
with a monotone arrival tag per observation. A batch ingests via one
stable group-by-pool pass plus ``np.searchsorted``/``np.insert`` merges,
FIFO eviction drops the smallest arrival tags, and a recalibration is an
O(batch + pools) order-statistic gather instead of an O(window log
window) re-sort. The window retains exactly the most recent ``window``
scores per pool. The original per-score ``deque`` loop is a test oracle
(``tests/reference_paths.py``) that the equivalence tests and the
throughput benchmark compare against.

Margins come from :mod:`repro.conformal.margins`, so the online layer
supports all four modes (``naive``/``weighted``/``bootstrap``/``mnar``);
``weighted`` measures recency in *global* arrival time, so a pool that
goes quiet decays even while others stream.
"""

from __future__ import annotations

import math

import numpy as np

from .margins import (
    MarginParams,
    _bootstrap_cut,
    _coerce_params,
    _naive_k,
    _weighted_cut,
)
from .predictor import interference_pools

__all__ = ["OnlineConformalizer"]


class _PoolWindow:
    """One pool's retained scores, kept sorted by score value.

    ``arrivals`` carries the global observation sequence number of each
    score; it is what FIFO eviction and recency weighting key on, and it
    lets :meth:`OnlineConformalizer.pool_scores` reconstruct arrival
    order without storing a second copy.
    """

    __slots__ = ("scores", "arrivals", "w_idx", "p_idx")

    def __init__(self, track_cells: bool) -> None:
        self.scores = np.empty(0, dtype=np.float64)
        self.arrivals = np.empty(0, dtype=np.int64)
        self.w_idx: np.ndarray | None = (
            np.empty(0, dtype=np.intp) if track_cells else None
        )
        self.p_idx: np.ndarray | None = (
            np.empty(0, dtype=np.intp) if track_cells else None
        )

    def __len__(self) -> int:
        return len(self.scores)

    def insert(
        self,
        scores: np.ndarray,
        arrivals: np.ndarray,
        window: int,
        w_idx: np.ndarray | None = None,
        p_idx: np.ndarray | None = None,
    ) -> None:
        """Merge a batch (one searchsorted + insert), then evict FIFO."""
        order = np.argsort(scores, kind="stable")
        scores = scores[order]
        arrivals = arrivals[order]
        positions = np.searchsorted(self.scores, scores, side="left")
        self.scores = np.insert(self.scores, positions, scores)
        self.arrivals = np.insert(self.arrivals, positions, arrivals)
        if self.w_idx is not None and w_idx is not None:
            self.w_idx = np.insert(self.w_idx, positions, w_idx[order])
            self.p_idx = np.insert(self.p_idx, positions, p_idx[order])
        excess = len(self.scores) - window
        if excess > 0:
            # Arrival tags are unique and monotone, so the FIFO eviction
            # set is exactly the `excess` smallest tags.
            cutoff = np.partition(self.arrivals, excess - 1)[excess - 1]
            keep = self.arrivals > cutoff
            self.scores = self.scores[keep]
            self.arrivals = self.arrivals[keep]
            if self.w_idx is not None:
                self.w_idx = self.w_idx[keep]
                self.p_idx = self.p_idx[keep]

    def arrival_order(self) -> np.ndarray:
        return np.argsort(self.arrivals)


class OnlineConformalizer:
    """Sliding-window one-sided conformal calibration per pool.

    Parameters
    ----------
    model:
        Object with ``predict_log(w_idx, p_idx, interferers) → (n, H)``.
    head:
        Which model head to calibrate (for quantile models, pick the head
        the offline selector chose).
    window:
        Maximum scores retained per pool; older observations are evicted
        FIFO, bounding both memory and staleness.
    margin:
        Margin mode name or :class:`~repro.conformal.margins.MarginParams`
        (``naive``/``weighted``/``bootstrap``/``mnar``).
    """

    def __init__(
        self,
        model,
        head: int = 0,
        window: int = 2000,
        margin: MarginParams | str = "naive",
    ) -> None:
        if window < 2:
            raise ValueError("window must be at least 2")
        self.model = model
        self.head = head
        self.window = window
        self.margin = _coerce_params(margin)
        self._seq = 0
        self._track_cells = self.margin.mode == "mnar"
        # Per-pool sorted structures, plus a cache of the merged-global
        # view (invalidated on every ingest).
        self._windows: dict[int, _PoolWindow] = {}
        self._merged: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def _pool_of(interferers: np.ndarray | None, n: int) -> np.ndarray:
        return interference_pools(interferers, n)

    def observe(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        runtime_seconds: np.ndarray,
    ) -> None:
        """Feed realized runtimes; scores enter their pool's window."""
        runtime_seconds = np.asarray(runtime_seconds, dtype=np.float64)
        if np.any(runtime_seconds <= 0):
            raise ValueError("runtimes must be positive")
        pred = self.model.predict_log(w_idx, p_idx, interferers)[:, self.head]
        scores = np.log(runtime_seconds) - pred
        pools = self._pool_of(interferers, len(scores))
        arrivals = self._seq + np.arange(len(scores), dtype=np.int64)
        self._seq += len(scores)
        self._merged = None
        w_idx = np.asarray(w_idx) if self._track_cells else None
        p_idx = np.asarray(p_idx) if self._track_cells else None
        # Group rows by pool with one stable argsort; each group merges
        # into its window as a single vectorized insert.
        order = np.argsort(pools, kind="stable")
        grouped = pools[order]
        unique, starts = np.unique(grouped, return_index=True)
        bounds = np.append(starts, len(grouped))
        for i, pool in enumerate(unique):
            rows = order[bounds[i] : bounds[i + 1]]
            pw = self._windows.get(int(pool))
            if pw is None:
                pw = self._windows[int(pool)] = _PoolWindow(self._track_cells)
            pw.insert(
                scores[rows],
                arrivals[rows],
                self.window,
                w_idx[rows] if w_idx is not None else None,
                p_idx[rows] if p_idx is not None else None,
            )

    # ------------------------------------------------------------------
    def n_observed(self, pool: int | None = None) -> int:
        if pool is not None:
            return len(self._windows.get(pool, ()))
        return sum(len(pw) for pw in self._windows.values())

    def pool_scores(self, pool: int) -> np.ndarray:
        """The pool's retained score window, oldest first.

        At most ``window`` entries — always the *most recent* scores fed
        to the pool (FIFO trimming). Public so lifecycle observability
        (and the window-trimming property tests) need not reach into
        internals.
        """
        pw = self._windows.get(pool)
        if pw is None:
            return np.empty(0, dtype=np.float64)
        return pw.scores[pw.arrival_order()]

    # ------------------------------------------------------------------
    def _pool_window_sorted(
        self, pool: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(scores sorted ascending, matching arrival tags) for a pool."""
        pw = self._windows.get(pool)
        if pw is None:
            return np.empty(0), np.empty(0, dtype=np.int64)
        return pw.scores, pw.arrivals

    def _merged_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """All pools' windows merged, sorted by score.

        Merges the already-sorted pool windows pairwise via
        ``np.searchsorted``/``np.insert`` — O(total) instead of the
        O(total log total) re-sort — and caches the result until the
        next ingest. Tie *order* can differ from a stable concatenated
        sort, but every cut returns a score drawn from inside a tie run,
        so the produced offsets are identical.
        """
        if self._merged is not None:
            return self._merged
        pools = self._tracked_pools()
        if not pools:
            return np.empty(0), np.empty(0, dtype=np.int64)
        per_pool = [self._pool_window_sorted(pool) for pool in pools]
        scores, arrivals = per_pool[0]
        for more_scores, more_arrivals in per_pool[1:]:
            positions = np.searchsorted(scores, more_scores, side="left")
            scores = np.insert(scores, positions, more_scores)
            arrivals = np.insert(arrivals, positions, more_arrivals)
        self._merged = (scores, arrivals)
        return self._merged

    def _tracked_pools(self) -> list[int]:
        return sorted(self._windows)

    def _window_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(w_idx, p_idx) across every retained observation (mnar)."""
        ws = [
            pw.w_idx
            for pw in self._windows.values()
            if pw.w_idx is not None and len(pw.w_idx)
        ]
        ps = [
            pw.p_idx
            for pw in self._windows.values()
            if pw.p_idx is not None and len(pw.p_idx)
        ]
        if not ws:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        return np.concatenate(ws), np.concatenate(ps)

    def _cut(
        self,
        sorted_scores: np.ndarray,
        arrivals: np.ndarray,
        epsilon: float,
        cell_weights: np.ndarray | None = None,
    ) -> float:
        """Margin of one pre-sorted score set under the active mode."""
        mode = self.margin.mode
        n = len(sorted_scores)
        if n == 0:
            return float("inf")
        if mode == "naive":
            k = _naive_k(n, epsilon)
            if n == 0 or k > n:
                return float("inf")
            return float(sorted_scores[k - 1])
        if mode == "bootstrap":
            return _bootstrap_cut(sorted_scores, epsilon, self.margin)
        if mode == "weighted":
            newest = self._seq - 1
            weights = np.exp(
                (arrivals.astype(np.float64) - newest) / self.margin.tau
            )
            # The test point is the next arrival: weight 1 under the
            # global-newest normalization (matches WeightedMargin's
            # global-max test weight in the batch path).
            return _weighted_cut(sorted_scores, weights, epsilon, 1.0)
        # mnar: inverse-propensity weights over the retained mask.
        assert cell_weights is not None
        return _weighted_cut(sorted_scores, cell_weights, epsilon)

    def _mnar_weights_by_pool(self) -> dict[int, np.ndarray]:
        """Per-pool propensity weights aligned to score-sorted order."""
        w_all, p_all = self._window_cells()
        if not len(w_all):
            return {}
        weights: dict[int, np.ndarray] = {}
        row_counts = np.bincount(w_all).astype(np.float64)
        col_counts = np.bincount(p_all).astype(np.float64)
        n = float(len(w_all))
        for pool in self._tracked_pools():
            pw = self._windows[pool]
            w_idx, p_idx = pw.w_idx, pw.p_idx
            if w_idx is None or not len(w_idx):
                weights[pool] = np.empty(0)
                continue
            propensity = row_counts[w_idx] * col_counts[p_idx] / n
            w = 1.0 / propensity
            w /= w.mean()
            np.clip(w, 1.0 / self.margin.clip, self.margin.clip, out=w)
            weights[pool] = w
        return weights

    # ------------------------------------------------------------------
    def offset(self, epsilon: float, pool: int) -> float:
        """Current conformal offset for a pool (global fallback if thin)."""
        sorted_scores, arrivals = self._pool_window_sorted(pool)
        if len(sorted_scores) >= math.ceil(1.0 / epsilon):
            cell_weights = None
            if self.margin.mode == "mnar":
                cell_weights = self._mnar_weights_by_pool().get(pool)
            return self._cut(sorted_scores, arrivals, epsilon, cell_weights)
        return self._merged_cut(epsilon)

    def offsets_by_pool(self, epsilon: float) -> dict[int, float]:
        """Offsets for every tracked pool in one pass (plus global ``-1``).

        This is the recalibration entry point: with the sorted pool
        windows it is an O(pools) gather for ``naive`` margins (no
        re-sorting), and never worse than one pass over the retained
        window for the weighted modes. Pools thinner than ``⌈1/ε⌉`` are
        omitted; callers fall back to the merged global key ``-1``.
        """
        min_n = math.ceil(1.0 / epsilon)
        out: dict[int, float] = {}
        mnar_weights = (
            self._mnar_weights_by_pool()
            if self.margin.mode == "mnar"
            else {}
        )
        for pool in self._tracked_pools():
            sorted_scores, arrivals = self._pool_window_sorted(pool)
            if len(sorted_scores) >= min_n:
                out[pool] = self._cut(
                    sorted_scores, arrivals, epsilon, mnar_weights.get(pool)
                )
        out[-1] = self._merged_cut(epsilon)
        return out

    def _merged_cut(self, epsilon: float) -> float:
        if self.margin.mode == "naive":
            # The naive cut is one order statistic of the union, so the
            # merged view never needs materializing: concatenate the
            # sorted pool windows and select — O(total), no log factor.
            parts = [pw.scores for pw in self._windows.values() if len(pw)]
            if not parts:
                return float("inf")
            scores = np.concatenate(parts)
            k = _naive_k(len(scores), epsilon)
            if k > len(scores):
                return float("inf")
            return float(np.partition(scores, k - 1)[k - 1])
        scores, arrivals = self._merged_sorted()
        cell_weights = None
        if self.margin.mode == "mnar" and len(scores):
            per_pool = self._mnar_weights_by_pool()
            pools_sorted = self._tracked_pools()
            unsorted = np.concatenate(
                [self._pool_window_sorted(p)[0] for p in pools_sorted]
            )
            stacked = np.concatenate(
                [per_pool[p] for p in pools_sorted if p in per_pool]
            )
            cell_weights = stacked[np.argsort(unsorted, kind="stable")]
        return self._cut(scores, arrivals, epsilon, cell_weights)

    def predict_bound(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        epsilon: float,
    ) -> np.ndarray:
        """Runtime budgets using the current windows (seconds)."""
        pred = self.model.predict_log(w_idx, p_idx, interferers)[:, self.head]
        pools = self._pool_of(interferers, len(pred))
        bound = np.empty(len(pred))
        for pool in np.unique(pools):
            rows = pools == pool
            bound[rows] = np.exp(pred[rows] + self.offset(epsilon, int(pool)))
        return bound
