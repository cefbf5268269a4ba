"""The prediction service: snapshot forward, one bound path, single-row LRU.

Serving cost model (why each piece exists):

* ``PitotModel.predict_log`` re-runs both towers through the autograd
  engine on *every* call — training-time cost per query. The
  :class:`~repro.core.EmbeddingSnapshot` pays that cost once and serves
  every subsequent query with one gather-and-GEMM forward.
* Every bound query is first built into a canonical
  :class:`~repro.cluster.BoundQuery` (validated against the snapshot's
  population, interferers sorted and ``-1``-padded to a fixed width), so
  a bound is a pure function of (generation, workload, platform,
  interferer set, ε): bitwise the same for any order, padding, entry
  point, or cache hit.
* Orchestration consumers (placement scans, admission storms) issue
  small batches of mixed interference degree. Grouping them into
  shape-stable per-degree batches keeps the interference term off the
  isolation queries and the GEMMs fat.
* A bounded LRU serves the one call shape where it measured a win:
  single-row calls (the sharded ``submit`` path), keyed by the canonical
  row and ε. A call on more than one row computes every row and stores
  nothing — a per-row dictionary walk costs more than the batched
  forward it would skip.

Continual-learning contract (why :class:`ServingState` exists):

* The lifecycle loop retrains and recalibrates while queries are in
  flight. Everything a bound depends on — embeddings, head choices,
  pool policy, and the memoized bounds themselves — lives in one
  immutable, generation-tagged :class:`ServingState`; every query path
  captures the state reference exactly once, so a concurrent
  :meth:`PredictionService.swap` can never produce a torn read (new
  offsets against old embeddings, or a pre-swap bound served from the
  post-swap cache). Swapping installs a *fresh* cache: in-flight writers
  finish into the orphaned old cache, which is unreachable from any new
  query.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..cluster.dataset import BoundQuery
from ..conformal.predictor import (
    ConformalRuntimePredictor,
    HeadChoice,
    HeadOffsetTable,
    calibration_pools,
    interference_pools,
)
from ..core.model import SNAPSHOT_CHUNK, EmbeddingSnapshot, PitotModel

__all__ = [
    "PredictionService",
    "BoundCache",
    "ServiceStats",
    "ServingState",
    "validate_choice_heads",
]

#: Cache key: (workload, platform, canonical interferer row, epsilon).
_Key = tuple[int, int, tuple[int, ...], float]

#: Upper bound on rows per shape-stable sub-batch of the forward.
MAX_BATCH = SNAPSHOT_CHUNK


def validate_choice_heads(
    choices: dict[tuple[float, int], HeadChoice], n_heads: int
) -> None:
    """Reject calibrated choices that index heads the snapshot lacks.

    The guard every promotion path runs before installing a
    ``(snapshot, choices)`` pair: a head mismatch means the two
    artifacts came from different models, and serving them together
    would silently select garbage quantiles.
    """
    for (eps, pool), choice in choices.items():
        if not 0 <= choice.head < n_heads:
            raise ValueError(
                f"choice for (eps={eps}, pool={pool}) selects head "
                f"{choice.head}, but the snapshot has {n_heads} head(s); "
                f"snapshot and predictor are from different models"
            )


class BoundCache:
    """Bounded LRU for memoized bounds.

    ``capacity == 0`` disables caching entirely (every lookup misses and
    nothing is stored) — the configuration benchmarks use to time the
    raw snapshot path.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict[_Key, float] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: _Key) -> float | None:
        """Value for ``key`` (refreshing recency), or ``None``."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: _Key, value: float) -> None:
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class ServiceStats:
    """Observability counters for one serving front-end.

    The cache counters are cumulative across generations (each
    :meth:`PredictionService.swap` installs a fresh :class:`BoundCache`
    whose own counters restart at zero), so steady-state dashboards keep
    a continuous series across promotions.

    The sharding fields describe the front-end topology: an in-process
    :class:`PredictionService` is one shard with no admission queue; a
    :class:`~repro.serving.ShardedPredictionService` reports its replica
    count, the bounded per-shard admission depth, and how many
    submissions were rejected with backpressure.
    """

    queries: int = 0  #: bound queries received (rows × ε, not calls)
    rows_computed: int = 0  #: rows that reached the snapshot forward
    batches: int = 0  #: shape-stable sub-batches executed
    cache_hits: int = 0  #: bounds served from the LRU (single-row calls)
    cache_misses: int = 0  #: bounds computed (every multi-row bound counts)
    swaps: int = 0  #: generation promotions (swap/refresh)
    invalidations: int = 0  #: cache invalidation events (one per swap)
    shards: int = 1  #: serving replicas behind this front-end
    queue_depth: int = 0  #: bounded admission depth per shard (0 = none)
    rejections: int = 0  #: submissions refused with retry-after backpressure

    @property
    def hit_rate(self) -> float:
        """Lifetime cache hit rate across all serving generations.

        Guarded against the zero-lookup state (a freshly started or
        never-queried service): no lookups means a rate of 0.0, not a
        ``ZeroDivisionError`` in a dashboard.
        """
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    def as_dict(self) -> dict[str, int | float]:
        return {
            "queries": self.queries,
            "rows_computed": self.rows_computed,
            "batches": self.batches,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "swaps": self.swaps,
            "invalidations": self.invalidations,
            "shards": self.shards,
            "queue_depth": self.queue_depth,
            "rejections": self.rejections,
        }


@dataclass(frozen=True)
class ServingState:
    """One immutable serving generation, promoted atomically.

    Bundles everything a bound computation reads — frozen embeddings,
    calibrated head choices, the pool policy, and the generation's own
    bound cache — so a query that captured this object once can never
    mix artifacts from two generations. Python attribute assignment is
    atomic, which makes ``service._state = new_state`` the entire
    promotion protocol.
    """

    snapshot: EmbeddingSnapshot
    choices: dict[tuple[float, int], HeadChoice]
    use_pools: bool
    cache: BoundCache
    generation: int
    #: Dense per-ε (pool → head/offset) lookup, built once per
    #: generation. Invalidation rides the same promotion protocol as the
    #: bound cache: a new generation gets a fresh table, so offsets from
    #: superseded calibrations are unreachable.
    table: HeadOffsetTable = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.table is None:
            object.__setattr__(self, "table", HeadOffsetTable(self.choices))


class PredictionService:
    """Batched, cached serving front-end over a trained Pitot model.

    Speaks both existing protocols:

    * ``predict_log(w_idx, p_idx, interferers) → (n, H)`` — so a
      :class:`~repro.conformal.ConformalRuntimePredictor` can calibrate
      against the service exactly as it would against the raw model;
    * ``predict_bound(w_idx, p_idx, interferers, epsilon) → seconds`` —
      so :func:`~repro.orchestration.greedy_placement`,
      :func:`~repro.orchestration.flow_placement`, and
      :class:`~repro.orchestration.AdmissionController` consume it
      unchanged.

    Parameters
    ----------
    snapshot:
        Frozen embeddings of the trained model.
    choices:
        Calibrated ``(ε, pool) → HeadChoice`` mapping (from a
        :class:`ConformalRuntimePredictor`); may be empty when the
        service is only used for point predictions.
    use_pools:
        Whether bounds use per-degree calibration pools (must match the
        calibration that produced ``choices``).
    cache_size:
        LRU capacity in entries for single-row calls; 0 disables
        memoization.
    """

    def __init__(
        self,
        snapshot: EmbeddingSnapshot,
        choices: dict[tuple[float, int], HeadChoice] | None = None,
        use_pools: bool = True,
        cache_size: int = 65536,
    ) -> None:
        self._state = ServingState(
            snapshot=snapshot,
            choices=dict(choices or {}),
            use_pools=use_pools,
            cache=BoundCache(cache_size),
            generation=0,
        )
        self.stats = ServiceStats()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_predictor(
        cls,
        predictor: ConformalRuntimePredictor,
        cache_size: int = 65536,
    ) -> "PredictionService":
        """Snapshot a calibrated predictor's model and adopt its choices."""
        return cls(
            EmbeddingSnapshot.from_model(predictor.model),
            choices=predictor.choices,
            use_pools=predictor.use_pools,
            cache_size=cache_size,
        )

    # ------------------------------------------------------------------
    # State access (delegates to the current generation)
    # ------------------------------------------------------------------
    @property
    def state(self) -> ServingState:
        """The current serving generation (capture once per operation)."""
        return self._state

    @property
    def snapshot(self) -> EmbeddingSnapshot:
        return self._state.snapshot

    @property
    def choices(self) -> dict[tuple[float, int], HeadChoice]:
        return self._state.choices

    @choices.setter
    def choices(self, choices: dict[tuple[float, int], HeadChoice]) -> None:
        # Re-bundling keeps the atomicity invariant even for direct
        # choice edits (tests simulate dropped calibrations this way).
        # The cache is replaced, not kept: bounds memoized under the old
        # choices must be unreachable under the new ones — the same
        # stale-bound rule swap() enforces.
        state = self._state
        self._state = ServingState(
            snapshot=state.snapshot,
            choices=dict(choices),
            use_pools=state.use_pools,
            cache=BoundCache(state.cache.capacity),
            generation=state.generation,
        )
        self.stats.invalidations += 1

    @property
    def use_pools(self) -> bool:
        return self._state.use_pools

    @property
    def cache(self) -> BoundCache:
        """The current generation's bound cache."""
        return self._state.cache

    @property
    def generation(self) -> int:
        """Monotonic serving generation (bumped by every swap/refresh)."""
        return self._state.generation

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def calibrated_epsilons(self) -> tuple[float, ...]:
        return tuple(sorted({eps for eps, pool in self.choices if pool == -1}))

    @property
    def n_workloads(self) -> int:
        return self._state.snapshot.n_workloads

    @property
    def n_platforms(self) -> int:
        return self._state.snapshot.n_platforms

    def is_stale(self, model: PitotModel) -> bool:
        """True when ``model`` was re-fitted after this service's snapshot."""
        return self._state.snapshot.is_stale(model)

    # ------------------------------------------------------------------
    # Generation promotion
    # ------------------------------------------------------------------
    def swap(
        self,
        snapshot: EmbeddingSnapshot,
        predictor: ConformalRuntimePredictor,
    ) -> int:
        """Atomically promote a new ``(snapshot, predictor)`` generation.

        The continual-learning hand-off: after a warm-start update and a
        rolling recalibration, the lifecycle promotes the new artifacts
        in one attribute store. Queries already in flight finish against
        the generation they captured; every query that starts after the
        swap sees the new snapshot, the new head choices, *and* an empty
        :class:`BoundCache` — a bound memoized under the old generation
        is unreachable, so a stale budget can never be served
        (recorded as an ``invalidations`` event in :class:`ServiceStats`).

        Returns the new generation number.
        """
        choices = dict(predictor.choices)
        validate_choice_heads(choices, snapshot.config.n_heads)
        old = self._state
        new = ServingState(
            snapshot=snapshot,
            choices=choices,
            use_pools=predictor.use_pools,
            cache=BoundCache(old.cache.capacity),
            generation=old.generation + 1,
        )
        self._state = new
        self.stats.swaps += 1
        self.stats.invalidations += 1
        return new.generation

    def refresh(self, predictor: ConformalRuntimePredictor) -> None:
        """Re-snapshot after retraining/recalibration.

        Convenience wrapper over :meth:`swap`: snapshots the predictor's
        model and promotes it. The old generation's cache is dropped
        wholesale — after a refresh, no previously-memoized bound can be
        served.
        """
        self.swap(EmbeddingSnapshot.from_model(predictor.model), predictor)

    # ------------------------------------------------------------------
    # Model protocol: predict_log
    # ------------------------------------------------------------------
    def predict_log(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None = None,
    ) -> np.ndarray:
        """Log-runtime predictions ``(n, H)`` via degree-grouped batches.

        Rows are regrouped by interference degree so isolation rows skip
        the interference term entirely and interference rows run in
        shape-stable batches; results are scattered back to input order
        and match :meth:`PitotModel.predict_log` bitwise.
        """
        w_idx = np.asarray(w_idx, dtype=np.intp)
        p_idx = np.asarray(p_idx, dtype=np.intp)
        if interferers is not None:
            interferers = np.atleast_2d(np.asarray(interferers, dtype=np.intp))
            if len(interferers) != len(w_idx):
                # The raw model raises for this shape mismatch; silently
                # scattering would leave uninitialized output rows.
                raise ValueError(
                    f"interferers has {len(interferers)} rows for "
                    f"{len(w_idx)} queries"
                )
        return self._forward(self._state, w_idx, p_idx, interferers)

    def _forward(
        self,
        state: ServingState,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
    ) -> np.ndarray:
        """The forward under one captured generation (see module docs)."""
        snapshot = state.snapshot
        n = len(w_idx)
        out = np.empty((n, snapshot.config.n_heads))
        for rows, sub_interferers in self._degree_groups(interferers, n):
            for lo in range(0, len(rows), MAX_BATCH):
                batch = rows[lo : lo + MAX_BATCH]
                batch_int = (
                    None
                    if sub_interferers is None
                    else sub_interferers[lo : lo + MAX_BATCH]
                )
                out[batch] = snapshot.forward(
                    w_idx[batch], p_idx[batch], batch_int
                )
                self.stats.batches += 1
                self.stats.rows_computed += len(batch)
        return out + snapshot.baseline_log(w_idx, p_idx)[:, None]

    def _degree_groups(self, interferers: np.ndarray | None, n: int):
        """Yield ``(row_indices, interferer_rows | None)`` per degree.

        ``interferers`` is already an ``(n, K)`` matrix or ``None``.
        """
        if interferers is None:
            yield np.arange(n), None
            return
        degrees = interference_pools(interferers, n)
        for degree in np.unique(degrees):
            rows = np.flatnonzero(degrees == degree)
            yield rows, None if degree == 1 else interferers[rows]

    def predict_runtime(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None = None,
        head: int = 0,
    ) -> np.ndarray:
        """Point runtime prediction in seconds (one head)."""
        return np.exp(self.predict_log(w_idx, p_idx, interferers)[:, head])

    # ------------------------------------------------------------------
    # Bound protocol: one canonical query, one compute path
    # ------------------------------------------------------------------
    def predict_bound(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        epsilon: float,
    ) -> np.ndarray:
        """Runtime budgets (seconds) with ``Pr(C* > bound) ≤ ε``.

        The one-ε column of :meth:`predict_bound_sweep`. Bitwise equal to
        :meth:`ConformalRuntimePredictor.predict_bound` on the wrapped
        model, and to itself under any interferer order or padding, from
        the LRU or not. The whole call runs under one captured
        generation: a concurrent :meth:`swap` affects only calls that
        start after it.
        """
        bounds = self.predict_bound_sweep(w_idx, p_idx, interferers, (epsilon,))
        return bounds[:, 0]

    def predict_bound_dataset(self, ds, epsilon: float) -> np.ndarray:
        """Bounds for every row of a dataset."""
        return self.predict_bound(ds.w_idx, ds.p_idx, ds.interferers, epsilon)

    def predict_bound_sweep(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        epsilons: tuple[float, ...],
    ) -> np.ndarray:
        """Bounds at several ε from one shared forward; ``(n, len(ε))``.

        The paper's "one model, any ε" story in one call: the embedding
        forward is ε-independent, so it runs once and each ε only pays
        the vectorized head/offset resolution. Column *j* equals
        ``predict_bound(..., epsilons[j])`` exactly.
        """
        state = self._state
        query = BoundQuery.from_arrays(w_idx, p_idx, interferers, state.snapshot)
        return self._bounds(state, query, epsilons)

    def serve_query(
        self, query: BoundQuery, epsilons: tuple[float, ...]
    ) -> np.ndarray:
        """:meth:`predict_bound_sweep` for an already-built query.

        The shard workers' entry: the sharded router validated and
        canonicalized the query before the cross-process hop.
        """
        return self._bounds(self._state, query, epsilons)

    def _bounds(
        self,
        state: ServingState,
        query: BoundQuery,
        epsilons: tuple[float, ...],
    ) -> np.ndarray:
        """The one compute path, under one captured generation.

        A call on more than one row computes every row and stores
        nothing. A one-row call is answered from the generation's LRU
        when every ε hits (a generation stores bounds only for ε it
        resolved), and otherwise computes and stores. Every ε resolves
        before the forward, so an uncalibrated ε fails without paying one.
        """
        n = len(query)
        cache = state.cache
        keys: list[_Key] = []
        hits = 0
        if n == 1 and cache.capacity:
            row = (
                int(query.w_idx[0]),
                int(query.p_idx[0]),
                tuple(query.interferers[0].tolist()),
            )
            keys = [(*row, float(eps)) for eps in epsilons]
            cached = [cache.get(key) for key in keys]
            hits = len(keys) - cached.count(None)
            if hits == len(keys):
                self.stats.queries += hits
                self.stats.cache_hits += hits
                return np.array([cached])
        pools = calibration_pools(query.interferers, n, state.use_pools)
        resolved = [state.table.resolve(float(eps), pools) for eps in epsilons]
        self.stats.queries += n * len(resolved)
        self.stats.cache_hits += hits
        self.stats.cache_misses += n * len(resolved) - hits
        pred = self._forward(state, query.w_idx, query.p_idx, query.interferers)
        bounds = np.empty((n, len(resolved)))
        for j, (heads, offsets) in enumerate(resolved):
            bounds[:, j] = np.exp(pred[np.arange(n), heads] + offsets)
        if keys:
            # Writes go to the *captured* generation's cache: if a swap
            # landed mid-computation these entries are orphaned with it,
            # never served against the new snapshot.
            for key, value in zip(keys, bounds[0]):
                cache.put(key, float(value))
        return bounds
