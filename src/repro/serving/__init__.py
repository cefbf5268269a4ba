"""Serving layer: batched, embedding-cached calibrated bound queries.

The paper's selling point is that one trained Pitot model serves
calibrated runtime budgets for *any* ε without retraining (Sec 3.5) —
which only pays off if queries are cheap at serving time. This package
provides that cheap path: :class:`PredictionService` freezes trained
embeddings into an :class:`~repro.core.EmbeddingSnapshot` (no autograd
tape, no tower recomputation), builds every bound query into one
canonical :class:`~repro.cluster.BoundQuery` (so a bound is bitwise the
same for any interferer order, padding, or entry point), runs it through
shape-stable per-interference-degree batches, and memoizes single-row
calls in a bounded LRU keyed by the canonical row and ε.

The service speaks both sides of the existing protocols — it exposes
``predict_log`` (so :class:`~repro.conformal.ConformalRuntimePredictor`
can wrap it like a model) and ``predict_bound`` (so
:mod:`repro.orchestration` planners consume it unchanged).

For traffic one process cannot absorb, :class:`ShardedPredictionService`
replicates the service across worker processes over a single
shared-memory snapshot (:mod:`repro.serving.shm`), with deterministic
``(workload, platform)`` routing, bounded admission (:class:`ShardBusy`
backpressure) and a torn-read-free cross-process swap protocol; the
open-loop load shapes that exercise it live in
:mod:`repro.serving.loadgen`.
"""

from .service import (
    BoundCache,
    PredictionService,
    ServiceStats,
    ServingState,
    validate_choice_heads,
)
from .sharded import (
    ShardBusy,
    ShardedPredictionService,
    ShardResponse,
    shard_ids,
)
from .shm import SharedSnapshot, SnapshotLayout, attach_snapshot

__all__ = [
    "PredictionService",
    "BoundCache",
    "ServiceStats",
    "ServingState",
    "ShardedPredictionService",
    "ShardBusy",
    "ShardResponse",
    "SharedSnapshot",
    "SnapshotLayout",
    "attach_snapshot",
    "shard_ids",
    "validate_choice_heads",
]
