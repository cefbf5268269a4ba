"""Vectorized margin estimators: naive, weighted, MNAR.

The split-conformal offset of :mod:`repro.conformal.split` assumes the
calibration scores are exchangeable with the test scores. Two deployment
realities of the paper's setting break that assumption:

* **drift** — a fleet's interference regime changes over time, so old
  calibration scores misrepresent the present (Sec 6 "online learning");
* **MNAR sampling** — the benchmarking campaign observes (workload,
  platform) cells non-uniformly, so the calibration set over-represents
  heavily-probed cells (Gui, Barber & Ma, "Conformalized matrix
  completion").

Both are handled by *weighted* conformal quantiles: sort the scores once,
then pick the smallest score ``s_(j)`` whose cumulative weight reaches
``(1 − ε)(W + w̄)`` where ``W`` is the total calibration weight and ``w̄``
the mean weight (the test point's stand-in weight). Under uniform weights
this reduces *exactly* to the unweighted ``⌈(n+1)(1−ε)⌉``-th order
statistic — the property tests pin that reduction bitwise.

Three modes, one strategy interface (:class:`MarginEstimator`):

* ``naive`` — the plain order statistic; bitwise-identical to
  :func:`repro.conformal.split.conformal_offset`.
* ``weighted`` — exponential recency weights ``w_i = exp(i/τ)`` (newest
  weight 1 after overflow-safe normalization).
* ``mnar`` — inverse rank-one propensity weights estimated from the
  dataset's observation mask (row/column observation counts), clipped
  for variance control.

Everything here is pure NumPy over a precomputed :class:`PoolIndex`:
scores are sorted once per head (``np.lexsort`` on (pool, score)), pool
segments are located by index arithmetic, and every pool's margin comes
out of one gather — no per-pool ``np.unique`` masking loops.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "MARGIN_MODES",
    "MarginParams",
    "MarginEstimator",
    "PoolIndex",
    "SortedScores",
    "make_estimator",
    "margin_offsets_by_pool",
    "propensity_weights",
    "recency_weights",
    "sort_scores",
]

#: Margin-estimator modes a :class:`MarginParams` may request.
MARGIN_MODES = ("naive", "weighted", "mnar")


@dataclass(frozen=True)
class MarginParams:
    """Frozen margin-engine configuration (hashes into the spec).

    Parameters
    ----------
    mode:
        One of :data:`MARGIN_MODES`.
    tau:
        Recency time-scale for ``weighted`` mode: observation ``i`` (in
        arrival order) gets weight ``exp((i − i_max)/τ)``. Larger τ →
        longer memory; τ → ∞ recovers ``naive``.
    clip:
        Inverse-propensity weight cap for ``mnar`` mode (weights are
        normalized to mean 1 then clipped into ``[1/clip, clip]``).
    """

    mode: str = "naive"
    tau: float = 500.0
    clip: float = 20.0

    def __post_init__(self) -> None:
        if self.mode not in MARGIN_MODES:
            raise ValueError(
                f"unknown margin mode {self.mode!r}; "
                f"expected one of {MARGIN_MODES}"
            )
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.clip >= 1.0:
            raise ValueError(f"clip must be >= 1, got {self.clip}")

    @classmethod
    def from_conformal_spec(cls, conformal: object) -> "MarginParams":
        """Build from a :class:`~repro.scenarios.spec.ConformalSpec`.

        Duck-typed (attribute access only) so the conformal layer never
        imports the scenarios layer.
        """
        return cls(
            mode=getattr(conformal, "margin", "naive"),
            tau=getattr(conformal, "margin_tau", 500.0),
            clip=getattr(conformal, "margin_clip", 20.0),
        )


def _coerce_params(margin: "MarginParams | str") -> MarginParams:
    if isinstance(margin, MarginParams):
        return margin
    return MarginParams(mode=margin)


# ----------------------------------------------------------------------
class PoolIndex:
    """Precomputed pool decomposition, shared across heads and ε values.

    One stable argsort of the pool ids yields, for every pool, a
    contiguous segment ``[starts[i], starts[i] + counts[i])`` of row
    positions — the per-batch ``np.unique`` scan happens exactly once.
    """

    __slots__ = ("pools", "n", "order", "unique", "starts", "counts")

    def __init__(self, pools: np.ndarray) -> None:
        pools = np.asarray(pools, dtype=np.intp)
        self.pools = pools
        self.n = len(pools)
        self.order = np.argsort(pools, kind="stable")
        grouped = pools[self.order]
        if self.n:
            self.unique, self.starts = np.unique(grouped, return_index=True)
            self.counts = np.diff(np.append(self.starts, self.n))
        else:
            self.unique = np.empty(0, dtype=np.intp)
            self.starts = np.empty(0, dtype=np.intp)
            self.counts = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class SortedScores:
    """One head's scores sorted within each pool segment + globally.

    ``lex_order`` maps sorted positions back to original row ids so
    per-row weights can be gathered into segment order without
    re-sorting.
    """

    index: PoolIndex
    by_pool: np.ndarray
    lex_order: np.ndarray
    global_sorted: np.ndarray
    global_order: np.ndarray


def sort_scores(scores: np.ndarray, index: PoolIndex) -> SortedScores:
    """Sort one head's scores into pool segments (one lexsort pass)."""
    scores = np.asarray(scores, dtype=np.float64)
    if len(scores) != index.n:
        raise ValueError(
            f"scores length {len(scores)} != pool index length {index.n}"
        )
    order = np.lexsort((scores, index.pools))
    global_order = np.argsort(scores, kind="stable")
    return SortedScores(
        index=index,
        by_pool=scores[order],
        lex_order=order,
        global_sorted=scores[global_order],
        global_order=global_order,
    )


def recency_weights(
    n: int, tau: float, arrivals: np.ndarray | None = None
) -> np.ndarray:
    """Exponential recency weights ``w_i = exp(i/τ)``, newest ≡ 1.

    ``i`` is arrival order — the row position by default, or the caller's
    explicit ``arrivals`` tags when the calibration rows are a *subset*
    of a larger event stream (a rolling window's every-Kth hold-out).
    Explicit tags keep τ in stream-event units instead of silently
    dilating by the subsampling factor. Normalizing by the newest weight
    keeps the largest exponent at 0 so no window length or τ can
    overflow; the weighted-quantile threshold is scale-invariant, so the
    normalization does not change any margin.
    """
    if arrivals is not None:
        arrivals = np.asarray(arrivals, dtype=np.float64)
        if len(arrivals) != n:
            raise ValueError(
                f"arrivals length {len(arrivals)} != calibration rows {n}"
            )
        if not n:
            return np.empty(0)
        return np.exp((arrivals - arrivals.max()) / tau)
    i = np.arange(n, dtype=np.float64)
    return np.exp((i - (n - 1)) / tau) if n else np.empty(0)


def propensity_weights(
    w_idx: np.ndarray,
    p_idx: np.ndarray,
    clip: float = 20.0,
) -> np.ndarray:
    """Inverse rank-one propensity weights from the observation mask.

    Following Gui, Barber & Ma's conformalized matrix completion, the
    sampling propensity of cell ``(i, j)`` is estimated by the rank-one
    model ``p̂_ij ∝ r_i · c_j`` from the row/column observation counts of
    the calibration mask itself. Calibration rows from heavily-probed
    cells are *down*-weighted (they are over-represented relative to a
    uniformly-missing test point) and sparse cells are up-weighted.
    Weights are normalized to mean 1 and clipped into ``[1/clip, clip]``.
    """
    w_idx = np.asarray(w_idx)
    p_idx = np.asarray(p_idx)
    n = len(w_idx)
    if len(p_idx) != n:
        raise ValueError("w_idx and p_idx must have equal length")
    if n == 0:
        return np.empty(0)
    row_counts = np.bincount(w_idx).astype(np.float64)
    col_counts = np.bincount(p_idx).astype(np.float64)
    propensity = row_counts[w_idx] * col_counts[p_idx] / float(n)
    weights = 1.0 / propensity
    weights /= weights.mean()
    np.clip(weights, 1.0 / clip, clip, out=weights)
    return weights


# ----------------------------------------------------------------------
def _naive_k(count: int, epsilon: float) -> int:
    return math.ceil((count + 1) * (1.0 - epsilon))


def _weighted_cut(
    sorted_scores: np.ndarray,
    sorted_weights: np.ndarray,
    epsilon: float,
    test_weight: float | None = None,
) -> float:
    """Weighted conformal quantile of one pre-sorted segment.

    Smallest ``s_(j)`` with ``Σ_{i≤j} w_i ≥ (1−ε)(W + w_test)``; ``inf``
    when no prefix reaches the threshold (the weighted analogue of
    ``⌈(n+1)(1−ε)⌉ > n``). Weighted split conformal (Tibshirani et al.)
    places the *test point's* weight ``w_test`` on the +∞ atom; each
    mode supplies its own: recency weights pass the newest weight (the
    test point is the next arrival), and ``None`` falls back to the
    mean ``W/n`` — the neutral choice when the test point's weight is
    genuinely unknown (propensity weights, whose clipped sup would make
    tight ε vacuous). With uniform weights both rules coincide and the
    cumulative sums are exact integer multiples, so the cut index
    equals the naive order statistic *exactly*, not merely to rounding.
    """
    n = len(sorted_scores)
    if n == 0:
        return float("inf")
    cumulative = np.cumsum(sorted_weights)
    total = float(cumulative[-1])
    if test_weight is None:
        test_weight = total / n
    threshold = (1.0 - epsilon) * (total + test_weight)
    j = int(np.searchsorted(cumulative, threshold, side="left"))
    if j >= n:
        return float("inf")
    return float(sorted_scores[j])


# ----------------------------------------------------------------------
class MarginEstimator(ABC):
    """Strategy interface: per-pool margins from pre-sorted scores.

    Subclasses implement :meth:`offsets_by_pool` over a
    :class:`SortedScores` (sort once per head, reuse across the ε grid).
    All modes share the pool/fallback contract of
    :func:`repro.conformal.split.conformal_offsets_by_pool`: the global
    margin lives under the sentinel key ``-1`` and pools smaller than
    ``min_pool_size`` (default ``⌈1/ε⌉``) are omitted so callers fall
    back to it.
    """

    mode: ClassVar[str]

    def __init__(self, params: MarginParams) -> None:
        self.params = params

    @abstractmethod
    def offsets_by_pool(
        self,
        prepared: SortedScores,
        epsilon: float,
        weights: np.ndarray | None = None,
        min_pool_size: int | None = None,
    ) -> dict[int, float]:
        """Margins for every qualifying pool plus the global ``-1``."""

    # ------------------------------------------------------------------
    def default_weights(self, n: int) -> np.ndarray | None:
        """Per-row weights when the caller supplies none (mode-specific)."""
        return None

    @staticmethod
    def _qualifying(
        index: PoolIndex, epsilon: float, min_pool_size: int | None
    ) -> np.ndarray:
        if min_pool_size is None:
            min_pool_size = math.ceil(1.0 / epsilon)
        return index.counts >= min_pool_size


class NaiveMargin(MarginEstimator):
    """The plain ``⌈(n+1)(1−ε)⌉`` order statistic, fully vectorized.

    Bitwise-identical to the pre-batched
    :func:`~repro.conformal.split.conformal_offsets_by_pool` path: the
    per-pool gather reads the same element the old per-pool
    ``np.partition`` selected.
    """

    mode = "naive"

    def offsets_by_pool(
        self,
        prepared: SortedScores,
        epsilon: float,
        weights: np.ndarray | None = None,
        min_pool_size: int | None = None,
    ) -> dict[int, float]:
        index = prepared.index
        n = index.n
        k_global = _naive_k(n, epsilon)
        if n == 0 or k_global > n:
            global_offset = float("inf")
        else:
            global_offset = float(prepared.global_sorted[k_global - 1])
        out = {-1: global_offset}
        if not len(index.unique):
            return out
        ks = np.ceil(
            (index.counts + 1) * (1.0 - epsilon)
        ).astype(np.intp)
        qualifying = self._qualifying(index, epsilon, min_pool_size)
        valid = qualifying & (ks <= index.counts)
        positions = index.starts + ks - 1
        pool_offsets = np.full(len(index.unique), np.inf)
        pool_offsets[valid] = prepared.by_pool[positions[valid]]
        for i in np.flatnonzero(qualifying):
            out[int(index.unique[i])] = float(pool_offsets[i])
        return out


class WeightedMargin(MarginEstimator):
    """Weighted conformal quantiles (recency weights by default)."""

    mode = "weighted"

    def default_weights(self, n: int) -> np.ndarray | None:
        return recency_weights(n, self.params.tau)

    def _test_weight(self, weights: np.ndarray) -> float | None:
        """The +∞ atom's weight: the *global* maximum (newest ≡ 1).

        Every pool segment shares the global normalization, so the test
        point — the next arrival, in whichever pool — carries the
        global-newest weight, not the segment's own (possibly stale)
        maximum. With uniform weights this is exactly the common value.
        """
        return float(weights.max())

    def offsets_by_pool(
        self,
        prepared: SortedScores,
        epsilon: float,
        weights: np.ndarray | None = None,
        min_pool_size: int | None = None,
    ) -> dict[int, float]:
        index = prepared.index
        if weights is None:
            weights = self.default_weights(index.n)
        if weights is None or len(weights) != index.n:
            raise ValueError(
                f"mode {self.mode!r} needs one weight per score "
                f"({index.n}), got "
                f"{None if weights is None else len(weights)}"
            )
        weights = np.asarray(weights, dtype=np.float64)
        test_weight = self._test_weight(weights)
        out = {
            -1: _weighted_cut(
                prepared.global_sorted,
                weights[prepared.global_order],
                epsilon,
                test_weight,
            )
        }
        segment_weights = weights[prepared.lex_order]
        qualifying = self._qualifying(index, epsilon, min_pool_size)
        for i in np.flatnonzero(qualifying):
            start = index.starts[i]
            stop = start + index.counts[i]
            out[int(index.unique[i])] = _weighted_cut(
                prepared.by_pool[start:stop],
                segment_weights[start:stop],
                epsilon,
                test_weight,
            )
        return out


class MnarMargin(WeightedMargin):
    """Inverse-propensity weighted margins for MNAR observation masks.

    The weighted-quantile machinery is shared with
    :class:`WeightedMargin`; only the weight *source* differs — callers
    must supply :func:`propensity_weights` computed from the calibration
    mask (there is no sensible default from scores alone).
    """

    mode = "mnar"

    def default_weights(self, n: int) -> np.ndarray | None:
        raise ValueError(
            "mnar mode needs explicit propensity weights "
            "(see propensity_weights); none were supplied"
        )

    def _test_weight(self, weights: np.ndarray) -> float | None:
        """``None`` → mean weight: the test cell's propensity is
        unknown, and the clipped sup would make tight ε vacuous (an
        all-``inf`` margin) on any realistically-skewed mask."""
        return None


_ESTIMATORS: dict[str, type[MarginEstimator]] = {
    cls.mode: cls
    for cls in (NaiveMargin, WeightedMargin, MnarMargin)
}


def make_estimator(margin: MarginParams | str) -> MarginEstimator:
    """Instantiate the estimator for a mode name or :class:`MarginParams`."""
    params = _coerce_params(margin)
    return _ESTIMATORS[params.mode](params)


def margin_offsets_by_pool(
    scores: np.ndarray,
    pool_ids: np.ndarray,
    epsilon: float,
    margin: MarginParams | str = "naive",
    weights: np.ndarray | None = None,
    min_pool_size: int | None = None,
) -> dict[int, float]:
    """One-shot convenience: sort, decompose, and estimate in one call.

    Drop-in generalization of
    :func:`repro.conformal.split.conformal_offsets_by_pool` — identical
    output for ``margin="naive"``. Callers with many heads or ε values
    should build the :class:`PoolIndex` / :class:`SortedScores` once and
    call the estimator directly.
    """
    estimator = make_estimator(margin)
    index = PoolIndex(pool_ids)
    prepared = sort_scores(np.asarray(scores, dtype=np.float64), index)
    if weights is None:
        weights = estimator.default_weights(index.n)
    return estimator.offsets_by_pool(
        prepared, epsilon, weights=weights, min_pool_size=min_pool_size
    )
