"""Calibrated runtime-bound predictors (Sec 3.5).

Wraps any model exposing ``predict_log(w_idx, p_idx, interferers) →
(n, H)`` with one-sided conformal calibration. Three strategies reproduce
the Fig 5 comparison:

* ``"pitot"`` — conformalized quantile regression over a spread of
  trained target quantiles, with the paper's *optimal quantile choice*:
  per (ε, pool), every head is calibrated and the head whose calibrated
  bound has the smallest overprovisioning margin on the validation pool
  is selected (App B.2).
* ``"naive_cqr"`` — CQR with the conventional head choice ξ = 1−ε.
* ``"split"`` — plain split conformal on a single point-prediction head
  (the "non-quantile" baseline; also how the paper calibrates the
  NN/attention/MF baselines for Fig 6b).

All strategies use per-degree calibration pools; pools too small for the
requested ε fall back to the global calibration set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.dataset import BoundQuery, RuntimeDataset
from ..eval.metrics import overprovision_margin
from .margins import (
    MarginParams,
    PoolIndex,
    SortedScores,
    _coerce_params,
    make_estimator,
    propensity_weights,
    recency_weights,
    sort_scores,
)

__all__ = [
    "ConformalRuntimePredictor",
    "HeadChoice",
    "HeadOffsetTable",
    "calibration_pools",
    "interference_pools",
    "require_calibrated",
]


@dataclass(frozen=True)
class HeadChoice:
    """Calibration outcome for one (ε, pool): head index + log offset."""

    head: int
    offset: float


def interference_pools(
    interferers: np.ndarray | None, n: int
) -> np.ndarray:
    """Calibration-pool id (interference degree, 1..4) per query row."""
    if interferers is None:
        return np.ones(n, dtype=int)
    return 1 + (np.atleast_2d(np.asarray(interferers)) >= 0).sum(axis=1)


def calibration_pools(
    interferers: np.ndarray | None, n: int, use_pools: bool
) -> np.ndarray:
    """Per-row pool ids, honoring the global-calibration ablation.

    Pool ``0`` for every row when ``use_pools`` is off (one global
    calibration set); per-degree pools otherwise.
    """
    if not use_pools:
        return np.zeros(n, dtype=int)
    return interference_pools(interferers, n)


def require_calibrated(
    choices: dict[tuple[float, int], HeadChoice],
    epsilon: float,
    error: type[Exception] = RuntimeError,
) -> float:
    """``epsilon`` as a float; raises ``error`` if it was never calibrated.

    The one uncalibrated-ε check: :class:`HeadOffsetTable` runs it when a
    bound path first resolves ε (before any forward), and the sharded
    router runs it before the cross-process hop.
    """
    epsilon = float(epsilon)
    if (epsilon, -1) not in choices:
        calibrated = sorted({eps for eps, pool in choices if pool == -1})
        raise error(
            f"not calibrated for epsilon={epsilon}; calibrated: {calibrated}"
        )
    return epsilon


class HeadOffsetTable:
    """Dense per-ε ``pool → (head, offset)`` lookup tables.

    Pool ids are tiny non-negative integers (interference degree ≤ 4, or
    0 under global calibration), so the whole mapping fits in two short
    arrays per ε — built once per calibration, after which a batch
    resolve is two fancy-indexed gathers with no ``np.unique`` scan and
    no Python loop. Each pool falls back to the global pool ``-1`` when
    it has no calibration of its own.

    The table snapshots ``choices`` lazily per ε; owners (predictor /
    serving state) must discard it whenever ``choices`` is replaced.
    """

    def __init__(self, choices: dict[tuple[float, int], HeadChoice]) -> None:
        self._choices = choices
        self._per_eps: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def _build(self, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
        require_calibrated(self._choices, epsilon)
        fallback = self._choices[(epsilon, -1)]
        pool_ids = [
            pool
            for eps, pool in self._choices
            if eps == epsilon and pool >= 0
        ]
        size = max(pool_ids, default=4) + 1
        heads = np.full(size, fallback.head, dtype=np.intp)
        offsets = np.full(size, fallback.offset)
        for pool in pool_ids:
            choice = self._choices[(epsilon, pool)]
            heads[pool] = choice.head
            offsets[pool] = choice.offset
        table = (heads, offsets)
        self._per_eps[epsilon] = table
        return table

    def resolve(
        self, epsilon: float, pools: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (head, offset) per query row; fallback for unknowns.

        Raises ``RuntimeError`` if ``epsilon`` was never calibrated.
        """
        table = self._per_eps.get(epsilon)
        if table is None:
            table = self._build(epsilon)
        heads_tab, offsets_tab = table
        size = len(heads_tab)
        safe = np.minimum(pools, size - 1)
        heads = heads_tab[safe]
        offsets = offsets_tab[safe]
        oob = pools >= size
        if oob.any():
            # Any pool past the table is by construction uncalibrated →
            # global fallback.
            fallback = self._choices[(epsilon, -1)]
            heads[oob] = fallback.head
            offsets[oob] = fallback.offset
        return heads, offsets


class ConformalRuntimePredictor:
    """Conformal wrapper producing runtime upper bounds in seconds.

    Parameters
    ----------
    model:
        Object with ``predict_log(w_idx, p_idx, interferers) → (n, H)``.
    quantiles:
        The target quantiles of the model's heads (``None`` for point
        predictors, which have a single head).
    strategy:
        ``"pitot"``, ``"naive_cqr"``, or ``"split"`` (see module docs).
    use_pools:
        Calibrate per interference degree (paper) or globally.
    margin:
        Margin-estimator mode or :class:`MarginParams`
        (``naive``/``weighted``/``mnar``); ``naive`` is
        bitwise-identical to the pre-engine split-conformal path.
    """

    def __init__(
        self,
        model,
        quantiles: tuple[float, ...] | None = None,
        strategy: str = "pitot",
        use_pools: bool = True,
        margin: MarginParams | str = "naive",
    ) -> None:
        if strategy not in ("pitot", "naive_cqr", "split"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if strategy in ("pitot", "naive_cqr") and not quantiles:
            raise ValueError(f"strategy {strategy!r} requires quantile heads")
        self.model = model
        self.quantiles = quantiles
        self.strategy = strategy
        self.use_pools = use_pools
        self.margin = _coerce_params(margin)
        self._choices: dict[tuple[float, int], HeadChoice] = {}
        self._calibrated_epsilons: list[float] = []
        self._table: HeadOffsetTable | None = None
        self._pool_index: PoolIndex | None = None

    @property
    def choices(self) -> dict[tuple[float, int], HeadChoice]:
        """Mapping (epsilon, pool) → HeadChoice; pool −1 is the fallback.

        *Replace* this dict to update calibration state (assignment
        invalidates the cached offset table); in-place mutation outside
        :meth:`calibrate` is unsupported.
        """
        return self._choices

    @choices.setter
    def choices(self, value: dict[tuple[float, int], HeadChoice]) -> None:
        self._choices = value
        self._table = None

    # ------------------------------------------------------------------
    def _pools(self, ds: RuntimeDataset) -> np.ndarray:
        if not self.use_pools:
            return np.zeros(ds.n_observations, dtype=int)
        return ds.degree

    def _n_heads(self) -> int:
        return len(self.quantiles) if self.quantiles else 1

    def _naive_head(self, epsilon: float) -> int:
        """Head whose target quantile is closest to 1−ε (naive CQR)."""
        targets = np.asarray(self.quantiles)
        return int(np.argmin(np.abs(targets - (1.0 - epsilon))))

    # ------------------------------------------------------------------
    def calibrate(
        self,
        calibration: RuntimeDataset,
        epsilons: tuple[float, ...] = (0.1, 0.05, 0.01),
        arrivals: np.ndarray | None = None,
        scorer=None,
    ) -> "ConformalRuntimePredictor":
        """Compute per-(ε, pool) head choices and conformal offsets.

        For the ``"pitot"`` strategy the head minimizing the calibrated
        overprovisioning margin (Eq. 11) on the calibration pool is
        selected — the paper's optimal quantile choice, which lets one
        trained model serve any ε without retraining.

        Margins come from the configured
        :class:`~repro.conformal.margins.MarginEstimator`: each head's
        scores are sorted into pool segments exactly once (the
        :class:`PoolIndex` decomposition is also cached for the query
        path) and reused across the whole ε grid.

        ``arrivals`` (optional) tags each calibration row with its
        position in the originating event stream; under ``weighted``
        margins the recency decay then runs in stream-event units (a
        rolling window's positions, see
        :meth:`repro.lifecycle.LifecycleManager.calibration_rows`) instead
        of dilating τ by the hold-out's subsampling factor.

        ``scorer`` (optional) scores the calibration rows in place of the
        wrapped model: any object with the model's ``predict_log`` and
        the same answers, such as a service over a frozen snapshot of it,
        which spares a second tower pass.
        """
        pred = (self.model if scorer is None else scorer).predict_log(
            calibration.w_idx, calibration.p_idx, calibration.interferers
        )  # (n, H)
        y = calibration.log_runtime
        runtime = calibration.runtime
        scores = y[:, None] - pred  # (n, H)
        pools = self._pools(calibration)
        index = PoolIndex(pools)
        self._pool_index = index
        unique_pools = [int(p) for p in index.unique]
        estimator = make_estimator(self.margin)
        weights = self._margin_weights(calibration, index.n, arrivals)
        prepared: dict[int, SortedScores] = {}

        self.choices = {}
        self._calibrated_epsilons = list(epsilons)
        best_margin: dict[tuple[float, int], float] = {}
        for eps in epsilons:
            for head in self._candidate_heads(eps):
                sorted_head = prepared.get(head)
                if sorted_head is None:
                    sorted_head = sort_scores(scores[:, head], index)
                    prepared[head] = sorted_head
                offsets = estimator.offsets_by_pool(
                    sorted_head, eps, weights=weights
                )
                for pool in [-1, *unique_pools]:
                    offset = offsets.get(pool, offsets[-1])
                    rows = (
                        slice(None) if pool == -1 else np.flatnonzero(pools == pool)
                    )
                    bound = np.exp(pred[rows, head] + offset)
                    margin = overprovision_margin(bound, runtime[rows])
                    key = (eps, pool)
                    if key not in best_margin or margin < best_margin[key]:
                        best_margin[key] = margin
                        self._choices[key] = HeadChoice(head=head, offset=offset)
        return self

    def _margin_weights(
        self,
        calibration: RuntimeDataset,
        n: int,
        arrivals: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Per-row calibration weights for the configured margin mode."""
        if self.margin.mode == "weighted":
            # Dataset rows are in collection (arrival) order; explicit
            # arrival tags override when rows subsample a wider stream.
            return recency_weights(n, self.margin.tau, arrivals)
        if self.margin.mode == "mnar":
            return propensity_weights(
                calibration.w_idx, calibration.p_idx, clip=self.margin.clip
            )
        return None

    def _candidate_heads(self, epsilon: float) -> list[int]:
        if self.strategy == "split":
            return [0]
        if self.strategy == "naive_cqr":
            return [self._naive_head(epsilon)]
        return list(range(self._n_heads()))

    # ------------------------------------------------------------------
    def predict_bound(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        epsilon: float,
    ) -> np.ndarray:
        """Runtime budgets (seconds) with ``Pr(C* > bound) ≤ ε``.

        The query is validated against the model's population and put in
        canonical form first (:class:`~repro.cluster.BoundQuery`), so a
        bound is bitwise the same for any interferer order or padding;
        ε resolves before the forward, so an uncalibrated ε costs none.
        """
        query = BoundQuery.from_arrays(w_idx, p_idx, interferers, self.model)
        pools = calibration_pools(query.interferers, len(query), self.use_pools)
        if self._table is None:
            self._table = HeadOffsetTable(self._choices)
        heads, offsets = self._table.resolve(float(epsilon), pools)
        pred = self.model.predict_log(
            query.w_idx, query.p_idx, query.interferers
        )
        return np.exp(pred[np.arange(len(query)), heads] + offsets)

    def predict_bound_dataset(
        self, ds: RuntimeDataset, epsilon: float
    ) -> np.ndarray:
        """Bounds for every row of a dataset."""
        return self.predict_bound(ds.w_idx, ds.p_idx, ds.interferers, epsilon)
