"""Sharded serving frontend: N replicas over one shared snapshot.

A single :class:`~repro.serving.PredictionService` saturates one core;
the fleet-scale traffic the ROADMAP targets needs replicas. This module
runs N service replicas in worker processes with three properties a
naive ``multiprocessing.Pool`` copy-per-worker design lacks:

* **One snapshot in memory, not N.** The router publishes the frozen
  :class:`~repro.core.EmbeddingSnapshot` into a named
  ``multiprocessing.shared_memory`` block (:mod:`repro.serving.shm`);
  every shard attaches zero-copy, read-only views. Resident memory and
  swap cost are O(1) in the shard count.
* **Deterministic routing.** ``(workload, platform)`` hashes to a shard
  with a splitmix64 finalizer (:func:`shard_ids`) — *not* Python's
  per-process-salted ``hash`` — so the same key always lands on the
  same shard's :class:`~repro.serving.BoundCache`, and a request trace
  replays identically across runs and machines.
* **Backpressure, not buffering.** Admission is bounded per shard: when
  a shard already has ``queue_depth`` requests in flight,
  :meth:`ShardedPredictionService.submit` raises :class:`ShardBusy`
  carrying a ``retry_after`` estimate instead of queueing unboundedly.
  Under overload the caller sees rejections immediately — the open-loop
  tail-latency benchmark measures exactly this knee.

Cross-process swap protocol (the PR 4 generation-tag discipline, one
process boundary wider): ``swap()`` **publishes** the new block tagged
``generation+1``, **broadcasts** the layout to every shard's FIFO
control queue, waits for every shard to attach + flip (one atomic
``service.swap`` in the worker) and **acknowledge**, and only then
**reclaims** the old block. FIFO queues mean every batch enqueued
before the swap is served before the flip; the ack barrier means the
old block outlives every mapping that could still read it. The worker
stamps each response with the serving generation *and* the generation
word read back from its mapped block's header — the pair the torn-read
stress test asserts equal.

Start method: workers use ``spawn`` by default — nothing here relies on
fork inheritance (the layout, choices, and config all pickle), and
spawn is the only portable choice.
"""

from __future__ import annotations

import gc
import multiprocessing
import queue as queue_mod
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..conformal.predictor import ConformalRuntimePredictor, HeadChoice
from ..core.model import EmbeddingSnapshot
from .service import (
    PredictionService,
    ServiceStats,
    validate_choice_heads,
    validate_query,
)
from .shm import (
    SharedSnapshot,
    SnapshotLayout,
    attach_snapshot,
    header_generation,
)

__all__ = [
    "ShardBusy",
    "ShardResponse",
    "ShardedPredictionService",
    "shard_ids",
]


def shard_ids(
    w_idx: np.ndarray, p_idx: np.ndarray, n_shards: int
) -> np.ndarray:
    """Deterministic shard for each ``(workload, platform)`` pair.

    splitmix64 finalizer over the packed 32/32-bit key. Chosen over
    ``hash()`` because Python salts string/bytes hashes per process —
    a router restart would scatter every hot key to a different shard's
    cache — and over modulo-of-key because real traces are skewed in
    workload id (Zipf hot keys); the finalizer's avalanche spreads
    adjacent ids across all shards.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    w = np.asarray(w_idx, dtype=np.uint64)
    p = np.asarray(p_idx, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (w << np.uint64(32)) ^ (p & np.uint64(0xFFFF_FFFF))
        z = z + np.uint64(0x9E37_79B9_7F4A_7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58_476D_1CE4_E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D0_49BB_1331_11EB)
        z = z ^ (z >> np.uint64(31))
    return (z % np.uint64(n_shards)).astype(np.intp)


class ShardBusy(RuntimeError):
    """Admission rejected: the target shard's bounded queue is full.

    Open-loop clients should back off for ``retry_after`` seconds (an
    EWMA-based estimate of when a slot frees up) and resubmit; the
    rejection is counted in :attr:`ShardedPredictionService.stats`.
    """

    def __init__(self, shard: int, retry_after: float) -> None:
        super().__init__(
            f"shard {shard} at queue depth; retry after {retry_after:.4f}s"
        )
        self.shard = shard
        self.retry_after = retry_after


@dataclass(frozen=True)
class ShardResponse:
    """One completed single-query ticket from :meth:`gather`."""

    ticket: int
    shard: int
    bound: float  #: calibrated runtime budget, seconds
    generation: int  #: serving generation the shard computed under
    header_generation: int  #: generation word read from the mapped block

    @property
    def consistent(self) -> bool:
        """True iff the response cannot be a torn read: the shard served
        from the very block its claimed generation was published into."""
        return self.generation == self.header_generation


@dataclass(frozen=True)
class RouterState:
    """One immutable router generation, promoted atomically.

    The cross-process analogue of :class:`~repro.serving.ServingState`:
    the published block handle, the calibrated choices, and the
    generation number travel as one frozen bundle, so a submission that
    captured this state once can never validate against one generation
    and route to another. Promotion is a single attribute store in
    :meth:`ShardedPredictionService.swap`.
    """

    shared: SharedSnapshot
    choices: dict[tuple[float, int], HeadChoice]
    use_pools: bool
    generation: int


@dataclass
class _InFlight:
    """Router-side bookkeeping for one outstanding request."""

    rows: np.ndarray | None  #: scatter positions (batch path) or None
    shard: int
    sent_at: float


class _Calibration:
    """Duck-typed ``predictor`` for :meth:`PredictionService.swap` in a
    worker: carries exactly the two attributes swap reads."""

    def __init__(
        self,
        choices: dict[tuple[float, int], HeadChoice],
        use_pools: bool,
    ) -> None:
        self.choices = choices
        self.use_pools = use_pools


def _close_mapping(shm) -> None:
    """Close a shared-memory mapping, collecting stragglers first.

    NumPy views over the buffer keep exports alive until they are
    garbage-collected; refcounting normally frees them the moment the
    old :class:`ServingState` is dropped, but a cycle (e.g. through a
    traceback) can delay that — one ``gc.collect()`` retry covers it.
    """
    try:
        shm.close()
    except BufferError:  # pragma: no cover - cycle-dependent
        gc.collect()
        shm.close()


def _shard_main(
    shard_id: int,
    layout: SnapshotLayout,
    choices: dict[tuple[float, int], HeadChoice],
    use_pools: bool,
    cache_size: int,
    max_batch: int,
    tasks,
    responses,
) -> None:
    """Worker loop: attach the shared snapshot, serve batches, flip on swap.

    Single-threaded by design: messages on the FIFO control queue are
    handled strictly in order, so a batch enqueued before a swap is
    always served from the pre-swap block, and the generation pair
    stamped on each result is read race-free.
    """
    snapshot, shm = attach_snapshot(layout)
    service = PredictionService(
        snapshot,
        choices=choices,
        use_pools=use_pools,
        cache_size=cache_size,
        max_batch=max_batch,
    )
    generation = layout.generation
    responses.put(("ready", shard_id, generation))
    while True:
        message = tasks.get()
        kind = message[0]
        if kind == "stop":
            break
        if kind == "batch":
            _, req_id, w, p, ints, epsilon = message
            try:
                bounds = service.predict_bound(w, p, ints, epsilon)
            except Exception as exc:  # noqa: BLE001 - forwarded to router
                responses.put(
                    ("error", req_id, shard_id, f"{type(exc).__name__}: {exc}")
                )
            else:
                responses.put(
                    (
                        "result",
                        req_id,
                        shard_id,
                        bounds,
                        generation,
                        header_generation(shm),
                    )
                )
        elif kind == "swap":
            _, new_layout, new_choices, new_use_pools = message
            new_snapshot, new_shm = attach_snapshot(new_layout)
            service.swap(new_snapshot, _Calibration(new_choices, new_use_pools))
            # Rebind locals before closing: the old snapshot's views die
            # with the old ServingState + this frame's references. The
            # dels matter — a lingering new_snapshot binding would pin
            # buffer exports and make the *next* close raise BufferError.
            old_shm, shm, snapshot = shm, new_shm, new_snapshot
            generation = new_layout.generation
            del new_snapshot, new_shm
            _close_mapping(old_shm)
            responses.put(("swapped", shard_id, generation))
        elif kind == "stats":
            responses.put(("stats", shard_id, service.stats.as_dict()))
    del service, snapshot, message
    _close_mapping(shm)
    responses.put(("stopped", shard_id))


class ShardedPredictionService:
    """Router over N :class:`PredictionService` replicas in processes.

    Speaks the same bound protocol as the single-process service —
    :meth:`predict_bound` is a synchronous scatter/gather that returns
    bitwise-identical results (the snapshot forward is row-partition
    stable: stacked 3-D matmuls compute each row independently of its
    batch neighbours) — plus an asynchronous single-query path
    (:meth:`submit` / :meth:`poll` / :meth:`gather`) with bounded
    admission, which is what open-loop load generators drive.

    Parameters
    ----------
    snapshot:
        Frozen embeddings to publish into shared memory.
    choices:
        Calibrated ``(ε, pool) → HeadChoice`` mapping.
    use_pools:
        Pool policy matching the calibration.
    n_shards:
        Replica count.
    queue_depth:
        Max in-flight requests per shard before :meth:`submit` rejects
        with :class:`ShardBusy`. The control queues themselves are
        unbounded so swap/stats/stop messages never block behind data.
    start_method:
        ``spawn`` (default) works everywhere; ``fork`` is accepted for
        tests that need sub-100ms startup.
    """

    def __init__(
        self,
        snapshot: EmbeddingSnapshot,
        choices: dict[tuple[float, int], HeadChoice] | None = None,
        use_pools: bool = True,
        n_shards: int = 2,
        queue_depth: int = 64,
        cache_size: int = 65536,
        max_batch: int = 8192,
        start_method: str = "spawn",
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        choices = dict(choices or {})
        validate_choice_heads(choices, snapshot.config.n_heads)
        self.n_shards = n_shards
        self.queue_depth = queue_depth
        self.n_workloads = snapshot.n_workloads
        self.n_platforms = snapshot.n_platforms
        self.stats = ServiceStats(shards=n_shards, queue_depth=queue_depth)

        shared = SharedSnapshot.publish(snapshot, generation=0)
        self._published = 1
        self._reclaim_log: list[tuple[int, int]] = []  # (generation, acks)

        # Demux state: the response queue carries results, swap acks and
        # stats replies interleaved (a swap can land while queries are in
        # flight), so one lock-guarded drain routes each message to its
        # waiter's mailbox.
        self._lock = threading.Lock()
        self._results: dict[int, tuple] = {}
        self._errors: dict[int, str] = {}
        self._swap_acks: set[int] = set()
        self._stats_replies: dict[int, dict] = {}
        self._stopped: set[int] = set()
        self._ready: set[int] = set()
        self._inflight: dict[int, _InFlight] = {}
        self._single: set[int] = set()
        self._inflight_per_shard = [0] * n_shards
        self._next_ticket = 0
        self._latency_ewma: float | None = None
        self._closed = False

        self._tasks = []
        self._responses = None
        self._procs = []
        try:
            ctx = multiprocessing.get_context(start_method)
            self._tasks = [ctx.Queue() for _ in range(n_shards)]
            self._responses = ctx.Queue()
            for shard in range(n_shards):
                proc = ctx.Process(
                    target=_shard_main,
                    args=(
                        shard,
                        shared.layout,
                        choices,
                        use_pools,
                        cache_size,
                        max_batch,
                        self._tasks[shard],
                        self._responses,
                    ),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
            self._await(self._all_ready)
        except BaseException:
            self._abort_startup(shared)
            raise
        self._state = RouterState(
            shared=shared,
            choices=choices,
            use_pools=use_pools,
            generation=0,
        )

    def _all_ready(self) -> bool:
        """Start-up barrier: every shard attached; raises as soon as a
        worker has exited instead of waiting out the deadline."""
        with self._lock:
            if len(self._ready) == self.n_shards:
                return True
        for shard, proc in enumerate(self._procs):
            if proc.exitcode is not None:
                raise RuntimeError(
                    f"shard {shard} exited during start-up "
                    f"(exit code {proc.exitcode})"
                )
        return False

    def _abort_startup(self, shared: SharedSnapshot) -> None:
        """Undo a failed start-up: terminate and join every started
        worker, close the queues and reclaim the published segment."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=10)
        for tasks in self._tasks:
            tasks.close()
        if self._responses is not None:
            self._responses.close()
        shared.reclaim()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_predictor(
        cls,
        predictor: ConformalRuntimePredictor,
        n_shards: int = 2,
        **kwargs,
    ) -> "ShardedPredictionService":
        """Snapshot a calibrated predictor and shard it N ways."""
        return cls(
            EmbeddingSnapshot.from_model(predictor.model),
            choices=predictor.choices,
            use_pools=predictor.use_pools,
            n_shards=n_shards,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def state(self) -> RouterState:
        """The current router generation (capture once per operation)."""
        return self._state

    @property
    def generation(self) -> int:
        return self._state.generation

    @property
    def choices(self) -> dict[tuple[float, int], HeadChoice]:
        return self._state.choices

    @property
    def calibrated_epsilons(self) -> tuple[float, ...]:
        state = self._state
        return tuple(sorted({eps for eps, pool in state.choices if pool == -1}))

    @property
    def reclaim_log(self) -> tuple[tuple[int, int], ...]:
        """(generation, acks-received) per reclaimed block, in order."""
        return tuple(self._reclaim_log)

    def inflight(self, shard: int | None = None) -> int:
        """Outstanding requests, per shard or total."""
        if shard is None:
            return sum(self._inflight_per_shard)
        return self._inflight_per_shard[shard]

    # ------------------------------------------------------------------
    # Response demux
    # ------------------------------------------------------------------
    def _drain(self, timeout: float | None = None) -> bool:
        """Route one response-queue message to its mailbox; False on idle."""
        try:
            if timeout is None:
                message = self._responses.get_nowait()
            else:
                message = self._responses.get(timeout=timeout)
        except queue_mod.Empty:
            return False
        kind = message[0]
        with self._lock:
            if kind == "result":
                _, req_id, shard, bounds, gen, header_gen = message
                self._settle(req_id, shard)
                self._results[req_id] = (shard, bounds, gen, header_gen)
            elif kind == "error":
                _, req_id, shard, text = message
                self._settle(req_id, shard)
                self._errors[req_id] = f"shard {shard}: {text}"
            elif kind == "swapped":
                self._swap_acks.add(message[1])
            elif kind == "stats":
                self._stats_replies[message[1]] = message[2]
            elif kind == "ready":
                self._ready.add(message[1])
            elif kind == "stopped":
                self._stopped.add(message[1])
        return True

    def _settle(self, req_id: int, shard: int) -> None:
        """Retire in-flight bookkeeping for a completed request.

        Caller holds ``self._lock``.
        """
        entry = self._inflight.pop(req_id, None)
        if entry is None:  # pragma: no cover - defensive
            return
        self._inflight_per_shard[shard] -= 1
        observed = time.monotonic() - entry.sent_at
        if self._latency_ewma is None:
            self._latency_ewma = observed
        else:
            self._latency_ewma += 0.2 * (observed - self._latency_ewma)

    def _await(self, done, timeout: float = 60.0) -> None:
        """Drain responses until ``done()`` or ``timeout`` seconds pass."""
        deadline = time.monotonic() + timeout
        while not done():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    "sharded service timed out awaiting worker responses"
                )
            self._drain(timeout=min(remaining, 0.1))

    # ------------------------------------------------------------------
    # Synchronous bound protocol (scatter/gather)
    # ------------------------------------------------------------------
    def predict_bound(
        self,
        w_idx: np.ndarray,
        p_idx: np.ndarray,
        interferers: np.ndarray | None,
        epsilon: float,
    ) -> np.ndarray:
        """Bounds (seconds) for a batch, scattered across shards.

        Rows route by :func:`shard_ids`; each shard serves its rows and
        the router scatters results back to input order. Bitwise equal
        to :meth:`PredictionService.predict_bound` on the same snapshot:
        the stacked-matmul forward computes rows independently, so the
        partition does not perturb a single bit.

        Atomicity is per shard sub-batch, one notch weaker than the
        single-process whole-call guarantee: every row is served from a
        consistent ``(snapshot, choices)`` pair, but a batch spanning
        shards that straddles a concurrent :meth:`swap` may mix rows
        from the outgoing and incoming generations.
        """
        state = self._state
        w_idx = np.asarray(w_idx, dtype=np.intp)
        p_idx = np.asarray(p_idx, dtype=np.intp)
        n = len(w_idx)
        epsilon = float(epsilon)
        if (epsilon, -1) not in state.choices:
            raise RuntimeError(
                f"service not calibrated for epsilon={epsilon}; "
                f"calibrated: {list(self.calibrated_epsilons)}"
            )
        rows_int = (
            None
            if interferers is None
            else np.atleast_2d(np.asarray(interferers, dtype=np.intp))
        )
        if rows_int is not None and len(rows_int) != n:
            raise ValueError(
                f"interferers has {len(rows_int)} rows for {n} queries"
            )
        self.stats.queries += n
        if n == 0:
            return np.empty(0)

        shards = shard_ids(w_idx, p_idx, self.n_shards)
        pending: set[int] = set()
        scatter: dict[int, np.ndarray] = {}
        now = time.monotonic()
        with self._lock:
            for shard in np.unique(shards):
                rows = np.flatnonzero(shards == shard)
                ticket = self._next_ticket
                self._next_ticket += 1
                self._inflight[ticket] = _InFlight(
                    rows=rows, shard=int(shard), sent_at=now
                )
                self._inflight_per_shard[int(shard)] += 1
                pending.add(ticket)
                scatter[ticket] = rows
                self._tasks[shard].put(
                    (
                        "batch",
                        ticket,
                        w_idx[rows],
                        p_idx[rows],
                        None if rows_int is None else rows_int[rows],
                        epsilon,
                    )
                )

        out = np.empty(n)
        while pending:
            self._drain(timeout=0.1)
            with self._lock:
                for ticket in list(pending):
                    if ticket in self._errors:
                        raise RuntimeError(self._errors.pop(ticket))
                    if ticket in self._results:
                        _, bounds, _, _ = self._results.pop(ticket)
                        out[scatter.pop(ticket)] = bounds
                        pending.discard(ticket)
        return out

    # ------------------------------------------------------------------
    # Asynchronous single-query protocol (bounded admission)
    # ------------------------------------------------------------------
    def submit(
        self,
        workload: int,
        platform: int,
        interferers: tuple[int, ...] | list[int] = (),
        epsilon: float = 0.05,
    ) -> int:
        """Admit one bound query; returns a ticket for :meth:`gather`.

        Validates indices and ε *before* the cross-process hop, then
        applies bounded admission: if the target shard already has
        ``queue_depth`` requests in flight, raises :class:`ShardBusy`
        with a ``retry_after`` derived from the latency EWMA — the
        open-loop contract (reject fast, let the client re-offer) that
        keeps tail latency bounded instead of queue-diverging.
        """
        state = self._state
        workload, platform, co = validate_query(
            workload, platform, interferers, self.n_workloads, self.n_platforms
        )
        epsilon = float(epsilon)
        if (epsilon, -1) not in state.choices:
            raise ValueError(
                f"service not calibrated for epsilon={epsilon}; "
                f"calibrated: {list(self.calibrated_epsilons)}"
            )
        shard = int(shard_ids(np.array([workload]), np.array([platform]), self.n_shards)[0])
        with self._lock:
            if self._inflight_per_shard[shard] >= self.queue_depth:
                self.stats.rejections += 1
                backlog = self._inflight_per_shard[shard]
                per_request = self._latency_ewma or 1e-3
                raise ShardBusy(shard, retry_after=backlog * per_request)
            ticket = self._next_ticket
            self._next_ticket += 1
            self._inflight[ticket] = _InFlight(
                rows=None, shard=shard, sent_at=time.monotonic()
            )
            self._single.add(ticket)
            self._inflight_per_shard[shard] += 1
            self.stats.queries += 1
            self._tasks[shard].put(
                (
                    "batch",
                    ticket,
                    np.array([workload], dtype=np.intp),
                    np.array([platform], dtype=np.intp),
                    np.array([co], dtype=np.intp) if co else None,
                    epsilon,
                )
            )
        return ticket

    def validate_query(
        self,
        workload: int,
        platform: int,
        interferers: tuple[int, ...] | list[int] = (),
    ) -> tuple[int, int, tuple[int, ...]]:
        """Range-check one query; same contract as
        :meth:`PredictionService.validate_query`, so front-ends (the CLI
        ``serve`` command) treat the two services interchangeably."""
        return validate_query(
            workload, platform, interferers, self.n_workloads, self.n_platforms
        )

    def poll(self) -> int:
        """Drain any completed responses without blocking.

        Returns how many tickets are now gatherable.
        """
        while self._drain():
            pass
        with self._lock:
            return len(self._results) + len(self._errors)

    def gather(self, ticket: int, timeout: float = 60.0) -> ShardResponse:
        """Block until ``ticket`` completes; returns its response.

        Raises ``RuntimeError`` if the shard reported an error for it.
        """

        def done() -> bool:
            with self._lock:
                return ticket in self._results or ticket in self._errors

        self._await(done, timeout=timeout)
        with self._lock:
            if ticket in self._errors:
                self._single.discard(ticket)
                raise RuntimeError(self._errors.pop(ticket))
            shard, bounds, gen, header_gen = self._results.pop(ticket)
            self._single.discard(ticket)
        return ShardResponse(
            ticket=ticket,
            shard=shard,
            bound=float(np.asarray(bounds)[0]),
            generation=gen,
            header_generation=header_gen,
        )

    def gather_ready(self) -> list[ShardResponse]:
        """Collect every completed :meth:`submit` ticket without blocking.

        The open-loop driver's drain: called between arrivals so
        completions are timestamped promptly. Only single-query tickets
        are consumed — a concurrent :meth:`predict_bound` scatter keeps
        its own results. Raises on the first shard-reported error.
        """
        while self._drain():
            pass
        ready: list[ShardResponse] = []
        with self._lock:
            for ticket in [t for t in self._single if t in self._errors]:
                self._single.discard(ticket)
                raise RuntimeError(self._errors.pop(ticket))
            done = [t for t in self._single if t in self._results]
            for ticket in done:
                shard, bounds, gen, header_gen = self._results.pop(ticket)
                self._single.discard(ticket)
                ready.append(
                    ShardResponse(
                        ticket=ticket,
                        shard=shard,
                        bound=float(np.asarray(bounds)[0]),
                        generation=gen,
                        header_generation=header_gen,
                    )
                )
        return ready

    # ------------------------------------------------------------------
    # Generation promotion (cross-process swap)
    # ------------------------------------------------------------------
    def swap(
        self,
        snapshot: EmbeddingSnapshot,
        predictor: ConformalRuntimePredictor,
    ) -> int:
        """Promote a new generation across every shard; torn-read-free.

        Publish → broadcast → ack-barrier → reclaim:

        1. publish the new block tagged ``generation+1``;
        2. broadcast the layout on every shard's FIFO queue — batches
           already queued are served first, from the old block;
        3. wait until *every* shard has attached, flipped its service
           atomically, closed its old mapping, and acknowledged;
        4. only then reclaim (unlink) the old block and promote the
           router state in one attribute store.

        The barrier is what makes reclaim safe: a block is destroyed
        only when no process can still read it. Each reclaim is recorded
        in :attr:`reclaim_log` with the ack count the stress test audits.
        """
        choices = dict(predictor.choices)
        validate_choice_heads(choices, snapshot.config.n_heads)
        old = self._state
        new_generation = old.generation + 1
        shared = SharedSnapshot.publish(snapshot, generation=new_generation)
        self._published += 1
        with self._lock:
            self._swap_acks.clear()
        for tasks in self._tasks:
            tasks.put(("swap", shared.layout, choices, predictor.use_pools))

        def acked() -> bool:
            with self._lock:
                return len(self._swap_acks) == self.n_shards

        self._await(acked)
        old.shared.reclaim()
        self._reclaim_log.append((old.generation, self.n_shards))
        self._state = RouterState(
            shared=shared,
            choices=choices,
            use_pools=predictor.use_pools,
            generation=new_generation,
        )
        self.stats.swaps += 1
        self.stats.invalidations += 1
        return new_generation

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def collect_stats(self) -> ServiceStats:
        """Aggregate shard counters with router-side topology counters.

        Sums each replica's cache/batch/query counters and overlays the
        router's own ``shards`` / ``queue_depth`` / ``rejections`` /
        ``swaps`` — the merged view ``repro serve`` prints.
        """
        with self._lock:
            self._stats_replies.clear()
        for tasks in self._tasks:
            tasks.put(("stats",))

        def done() -> bool:
            with self._lock:
                return len(self._stats_replies) == self.n_shards

        self._await(done)
        merged = ServiceStats(
            shards=self.n_shards,
            queue_depth=self.queue_depth,
            rejections=self.stats.rejections,
            swaps=self.stats.swaps,
            invalidations=self.stats.invalidations,
            queries=self.stats.queries,
        )
        with self._lock:
            replies = dict(self._stats_replies)
        for reply in replies.values():
            merged.rows_computed += reply["rows_computed"]
            merged.batches += reply["batches"]
            merged.flushes += reply["flushes"]
            merged.cache_hits += reply["cache_hits"]
            merged.cache_misses += reply["cache_misses"]
        return merged

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> dict[str, int]:
        """Stop every shard, reclaim the live block, audit the ledger.

        Returns ``{"published", "reclaimed", "leaked"}``; ``leaked`` is
        published minus reclaimed after the final reclaim and must be 0
        — the invariant the CI serving-smoke job asserts so a refactor
        can never start leaking named segments silently.
        """
        if self._closed:
            return self._audit()
        self._closed = True
        for tasks in self._tasks:
            tasks.put(("stop",))

        def stopped() -> bool:
            with self._lock:
                return len(self._stopped) == self.n_shards

        self._await(stopped)
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
        state = self._state
        state.shared.reclaim()
        self._reclaim_log.append((state.generation, self.n_shards))
        for tasks in self._tasks:
            tasks.close()
        self._responses.close()
        return self._audit()

    def _audit(self) -> dict[str, int]:
        reclaimed = len(self._reclaim_log)
        return {
            "published": self._published,
            "reclaimed": reclaimed,
            "leaked": self._published - reclaimed,
        }

    def __enter__(self) -> "ShardedPredictionService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
