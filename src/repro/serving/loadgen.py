"""Open-loop load shapes and drivers for the serving frontend.

Closed-loop benchmarks (issue a batch, wait, issue the next) cannot see
queueing delay: the client slows down exactly when the server does, so
measured latency stays flat right up to the cliff — the *coordinated
omission* trap. Real traffic is open-loop: arrivals are scheduled by the
outside world and keep coming whether or not the service is keeping up.
This module generates such traffic and drives the sharded frontend with
it two ways:

* :func:`generate_trace` — a deterministic arrival schedule with the
  three shapes production traces exhibit: **Poisson** base arrivals,
  **heavy-tailed ON/OFF bursts** (Pareto ON durations — C-Koordinator's
  microservice bursts), and **Zipf hot-key skew** over workloads (a few
  services dominate query volume).
* :func:`drive_open_loop` — wall-clock driver against a live
  :class:`~repro.serving.ShardedPredictionService`: submits at the
  scheduled instants, backs off on :class:`~repro.serving.ShardBusy`,
  and measures each query's latency from its *scheduled* arrival (so
  time spent rejected-and-retrying is charged to the query, not hidden).
* :func:`simulate_open_loop` — the same admission/queueing discipline
  evaluated in **virtual time**: per-query service times are an input
  (measured live from the real service by the benchmark), so the
  committed tail-latency numbers are deterministic and the shard-scaling
  ratios machine-portable instead of hostage to the CI runner's core
  count. The simulator mirrors the router faithfully: hashed routing via
  :func:`~repro.serving.shard_ids`, per-shard FIFO service, bounded
  in-flight admission with EWMA-free retry-after, open-loop latency
  accounting.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from ..eval.reporting import tail_percentiles
from .sharded import ShardBusy, ShardedPredictionService, shard_ids

__all__ = [
    "OpenLoopConfig",
    "OpenLoopResult",
    "QueryTrace",
    "drive_open_loop",
    "generate_trace",
    "simulate_open_loop",
    "zipf_weights",
]


@dataclass(frozen=True)
class OpenLoopConfig:
    """One open-loop traffic shape.

    ``burst_multiplier == 1`` degenerates to a pure Poisson process;
    ``zipf_s == 0`` to uniform workload popularity. The defaults for the
    burst process give ON windows with infinite-variance durations
    (Pareto shape 1.5) — single bursts occasionally span a large
    fraction of the run, which is exactly what stresses a bounded queue.
    """

    rate: float  #: base arrival rate, queries/second
    duration: float  #: trace horizon, seconds
    seed: int = 0
    zipf_s: float = 0.0  #: workload popularity exponent (0 = uniform)
    burst_multiplier: float = 1.0  #: ON-window rate = multiplier × rate
    burst_on_alpha: float = 1.5  #: Pareto shape of ON durations
    burst_on_scale: float = 0.05  #: minimum ON duration, seconds
    burst_off_mean: float = 0.2  #: mean exponential OFF gap, seconds
    epsilon: float = 0.05  #: ε every query asks its bound at

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be > 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be >= 0")
        if self.burst_multiplier < 1:
            raise ValueError("burst_multiplier must be >= 1")


@dataclass(frozen=True)
class QueryTrace:
    """A materialized arrival schedule: when each query lands, and what
    it asks. Isolation queries only — tail latency under load is a
    queueing phenomenon, and a fixed query shape keeps per-query service
    time comparable across the grid."""

    arrivals: np.ndarray  #: sorted arrival instants, seconds from 0
    workloads: np.ndarray
    platforms: np.ndarray
    epsilon: float
    config: OpenLoopConfig

    @property
    def n(self) -> int:
        return len(self.arrivals)

    @property
    def offered_rate(self) -> float:
        """Realized arrivals/second over the trace horizon."""
        return self.n / self.config.duration


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Bounded-Zipf popularity over ``n`` keys: ``w_k ∝ 1/(k+1)^s``.

    Normalized; ``s == 0`` is uniform. Rank 0 is the hottest key — the
    trace generator maps ranks through a seeded permutation so the hot
    set is not always the lowest workload ids.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=float), s)
    return weights / weights.sum()


def _on_intervals(config: OpenLoopConfig, rng: np.random.Generator) -> np.ndarray:
    """Alternating OFF/ON boundaries covering the trace horizon.

    Returns a flat, sorted array ``[on0_start, on0_end, on1_start, ...]``
    so membership testing is one ``searchsorted`` parity check.
    """
    bounds = []
    t = 0.0
    while t < config.duration:
        t += rng.exponential(config.burst_off_mean)  # OFF gap
        on = config.burst_on_scale * (1.0 + rng.pareto(config.burst_on_alpha))
        bounds.extend((t, t + on))
        t += on
    return np.asarray(bounds)


def generate_trace(
    config: OpenLoopConfig, n_workloads: int, n_platforms: int
) -> QueryTrace:
    """Materialize one deterministic open-loop arrival trace.

    The doubly-stochastic arrival process is built by thinning: generate
    a homogeneous Poisson stream at the peak rate
    (``rate × burst_multiplier``), then keep each arrival with
    probability ``rate(t) / peak`` — the textbook construction for a
    piecewise-constant intensity, here driven by the heavy-tailed ON/OFF
    envelope. Everything derives from ``config.seed``, so the same
    config replays the same trace bit-for-bit on any machine.
    """
    rng = np.random.default_rng(config.seed)
    peak = config.rate * config.burst_multiplier

    # Homogeneous candidates at the peak rate (generated in chunks —
    # the count is random, ~peak × duration).
    arrivals = []
    t = 0.0
    while t < config.duration:
        gaps = rng.exponential(1.0 / peak, size=1024)
        times = t + np.cumsum(gaps)
        arrivals.append(times)
        t = float(times[-1])
    candidates = np.concatenate(arrivals)
    candidates = candidates[candidates < config.duration]

    if config.burst_multiplier > 1.0:
        bounds = _on_intervals(config, rng)
        in_on = (np.searchsorted(bounds, candidates) % 2) == 1
        accept_p = np.where(in_on, 1.0, 1.0 / config.burst_multiplier)
        keep = rng.random(len(candidates)) < accept_p
        times = candidates[keep]
    else:
        times = candidates

    n = len(times)
    if config.zipf_s > 0:
        ranks = rng.choice(
            n_workloads, size=n, p=zipf_weights(n_workloads, config.zipf_s)
        )
        perm = rng.permutation(n_workloads)
        workloads = perm[ranks]
    else:
        workloads = rng.integers(0, n_workloads, size=n)
    platforms = rng.integers(0, n_platforms, size=n)
    return QueryTrace(
        arrivals=times,
        workloads=workloads.astype(np.intp),
        platforms=platforms.astype(np.intp),
        epsilon=config.epsilon,
        config=config,
    )


@dataclass
class OpenLoopResult:
    """Outcome of one open-loop run (simulated or wall-clock).

    ``latencies`` holds completed queries only, each measured from its
    *scheduled* arrival — a query that was rejected twice before
    admission carries its full retry delay.
    """

    latencies: np.ndarray  #: seconds, one entry per completed query
    offered: int  #: queries the trace scheduled
    completed: int
    dropped: int  #: gave up after max_retries rejections
    rejections: int  #: ShardBusy events (retries included)
    makespan: float  #: first scheduled arrival → last completion, seconds
    n_shards: int

    @property
    def throughput(self) -> float:
        """Completed queries per second of makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.completed / self.makespan

    @property
    def reject_rate(self) -> float:
        if self.offered == 0:
            return 0.0
        return self.rejections / self.offered

    def percentiles(self) -> dict[str, float]:
        """p50/p99/p999 completion latency (NaN where under-sampled)."""
        return tail_percentiles(self.latencies)


def simulate_open_loop(
    trace: QueryTrace,
    service_times: np.ndarray | float,
    n_shards: int,
    queue_depth: int = 64,
    max_retries: int = 10,
) -> OpenLoopResult:
    """Deterministic virtual-time replay of the router's discipline.

    Each shard is a FIFO single server (the worker loop handles one
    message at a time); admission rejects when a shard's in-flight count
    reaches ``queue_depth``, exactly as
    :meth:`ShardedPredictionService.submit` does, and a rejected query
    re-offers after ``backlog × mean-service`` — the router's
    ``retry_after`` estimate with the EWMA replaced by the true mean,
    which the virtual-time setting knows exactly.

    ``service_times`` is per-query seconds (scalar broadcasts): the
    benchmark measures these on the *real* :class:`PredictionService`
    and feeds them in, so the simulated tails are calibrated to the
    machine while arrival/queueing arithmetic stays deterministic.
    """
    n = trace.n
    tau = np.broadcast_to(np.asarray(service_times, dtype=float), (n,))
    mean_tau = float(tau.mean()) if n else 0.0
    shards = shard_ids(trace.workloads, trace.platforms, n_shards)

    free_at = np.zeros(n_shards)
    inflight = np.zeros(n_shards, dtype=np.intp)
    completions: list[list[float]] = [[] for _ in range(n_shards)]

    # Event heap: (time, seq, query index, attempt). seq breaks ties
    # deterministically (heapq would otherwise compare payloads).
    events: list[tuple[float, int, int, int]] = [
        (float(trace.arrivals[i]), i, i, 0) for i in range(n)
    ]
    heapq.heapify(events)
    seq = n

    latencies = np.full(n, np.nan)
    rejections = 0
    dropped = 0
    last_completion = 0.0
    while events:
        now, _, qi, attempt = heapq.heappop(events)
        shard = int(shards[qi])
        done = completions[shard]
        while done and done[0] <= now:
            heapq.heappop(done)
            inflight[shard] -= 1
        if inflight[shard] >= queue_depth:
            rejections += 1
            if attempt >= max_retries:
                dropped += 1
                continue
            retry_after = max(float(inflight[shard]) * mean_tau, 1e-6)
            heapq.heappush(events, (now + retry_after, seq, qi, attempt + 1))
            seq += 1
            continue
        start = max(now, free_at[shard])
        completion = start + float(tau[qi])
        free_at[shard] = completion
        inflight[shard] += 1
        heapq.heappush(done, completion)
        latencies[qi] = completion - float(trace.arrivals[qi])
        last_completion = max(last_completion, completion)

    completed = int(np.count_nonzero(~np.isnan(latencies)))
    first = float(trace.arrivals[0]) if n else 0.0
    return OpenLoopResult(
        latencies=latencies[~np.isnan(latencies)],
        offered=n,
        completed=completed,
        dropped=dropped,
        rejections=rejections,
        makespan=max(last_completion - first, 0.0),
        n_shards=n_shards,
    )


def drive_open_loop(
    service: ShardedPredictionService,
    trace: QueryTrace,
    max_retries: int = 10,
    settle_timeout: float = 60.0,
) -> OpenLoopResult:
    """Drive a live sharded service with ``trace`` in wall-clock time.

    The CI smoke path and ``repro bench-serve --open-loop``: submits
    each query at its scheduled instant (never waiting for earlier
    completions — open loop) and converts :class:`ShardBusy` into a
    delayed re-offer. Between arrivals it blocks on the oldest
    outstanding ticket until the next arrival is due, so a completion
    is timestamped when it lands rather than when the client next
    wakes; it sleeps only when nothing is outstanding.
    """
    n = trace.n
    start = time.monotonic()
    pending: list[tuple[float, int, int, int]] = [
        (float(trace.arrivals[i]), i, i, 0) for i in range(n)
    ]
    heapq.heapify(pending)
    seq = n
    tickets: dict[int, int] = {}  # ticket -> query index, oldest first
    latencies = np.full(n, np.nan)
    rejections = 0
    dropped = 0
    last_completion = 0.0

    def settle(response) -> None:
        nonlocal last_completion
        now = time.monotonic() - start
        qi = tickets.pop(response.ticket)
        latencies[qi] = now - float(trace.arrivals[qi])
        last_completion = max(last_completion, now)

    def drain() -> None:
        for response in service.gather_ready():
            settle(response)

    while pending or tickets:
        drain()
        now = time.monotonic() - start
        if pending and pending[0][0] <= now:
            due, _, qi, attempt = heapq.heappop(pending)
            try:
                ticket = service.submit(
                    int(trace.workloads[qi]),
                    int(trace.platforms[qi]),
                    (),
                    trace.epsilon,
                )
            except ShardBusy as busy:
                rejections += 1
                if attempt >= max_retries:
                    dropped += 1
                else:
                    heapq.heappush(
                        pending,
                        (now + busy.retry_after, seq, qi, attempt + 1),
                    )
                    seq += 1
            else:
                tickets[ticket] = qi
            continue
        if pending:
            wait = pending[0][0] - now
        else:
            wait = float(trace.arrivals[-1]) + settle_timeout - now
            if wait <= 0:
                raise TimeoutError(
                    f"{len(tickets)} queries unresolved "
                    f"{settle_timeout}s past the last arrival"
                )
        if not tickets:
            time.sleep(wait)  # nothing in flight to wait on
            continue
        try:
            settle(service.gather(next(iter(tickets)), timeout=wait))
        except TimeoutError:
            continue

    drain()
    completed = int(np.count_nonzero(~np.isnan(latencies)))
    first = float(trace.arrivals[0]) if n else 0.0
    return OpenLoopResult(
        latencies=latencies[~np.isnan(latencies)],
        offered=n,
        completed=completed,
        dropped=dropped,
        rejections=rejections,
        makespan=max(last_completion - first, 0.0),
        n_shards=service.n_shards,
    )
