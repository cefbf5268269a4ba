"""The ``serve-open-loop`` workload: a live spawn-started sharded service.

The timed phase alternates two parts until the measuring time is used
up, so both sample all of it: a short open-loop window at a fixed rate,
whose latencies are reported per layer (with a capacity ladder in traced
runs; on a shared two-core host their run-to-run spread is far wider
than any bound a gate could use), and a bulk answer of the whole
``paper`` test split through the service's batch path right after a
promotion, so every row is computed. The bulk answers' median is
``wall_s``.

One client thread drives the service in the open loop: Poisson arrivals
are scheduled up front, each query is timed from its scheduled send to
its receipt, and between sends the client blocks on the oldest
outstanding ticket rather than sleeping. With one shard, responses come
back in send order, so blocking on the oldest ticket timestamps every
receipt as it lands; the client and router take one core and the shard
the other. A query refused by admission is re-offered after the
service's ``retry_after``; one refused :data:`MAX_RETRIES` times, one
that never comes back, or one answered wrongly counts as failed.

The fleet, dataset and both served generations keep the registry's
seeds; the run's seed draws the queries and their arrival times.
Queries are rows of the ``paper`` test split (isolation rows and 2–4-way
co-location sets), drawn with a Zipf skew over workloads so that a hot
set recurs in the shard's ``BoundCache``. Every :data:`SWAP_EVERY_S`
seconds the client promotes the other of two calibrated generations
with ``swap()``, which also empties the cache.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import statistics
import time
from pathlib import Path

import numpy as np

from perfbench.tracing import Tracer, instrument
from perfbench.workloads import EPSILON, Outcome, repeat_ops, repeat_setup

#: Training steps of the served model, trained during set-up.
SERVE_TRAIN_STEPS = 100
#: Warm-update steps that make the second generation's model.
GENERATION_B_STEPS = 10
#: One shard: see the module docstring.
SHARDS = 1
QUEUE_DEPTH = 64
#: Fixed offered rate of the measured window, below one shard's knee.
RATE_QPS = 800.0
#: Offered rates of the capacity ladder (traced runs only).
LADDER_QPS = (1000.0, 2000.0, 3000.0, 4000.0, 5000.0)
LADDER_STEP_S = 2.0
#: p99 limit a ladder rate must meet to count as sustained.
P99_LIMIT_MS = 25.0
SWAP_EVERY_S = 1.0
ZIPF_S = 1.2
#: Distinct queries per workload (its hot set).
POOL_ROWS = 16
MAX_RETRIES = 3
WARMUP_S = 0.5
#: Longest wait for stragglers after the last send.
DRAIN_S = 10.0
#: Length of each open-loop window between two bulk answers.
WINDOW_S = 1.0
MIN_BULK = 5


class Queries:
    """Zipf-skewed draws of test-split rows: workloads by Zipf rank, then
    uniformly among a fixed pool of :data:`POOL_ROWS` rows per workload,
    so the hot workloads' queries recur within a generation."""

    def __init__(self, test, rng: np.random.Generator) -> None:
        workloads = np.unique(test.w_idx)
        rank = rng.permutation(len(workloads))
        weight = 1.0 / (rank + 1.0) ** ZIPF_S
        self.p_workload = weight / weight.sum()
        self.pools = [
            rng.permutation(np.flatnonzero(test.w_idx == w))[:POOL_ROWS]
            for w in workloads
        ]

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Test-split row indices of ``n`` queries."""
        pick = rng.choice(len(self.pools), size=n, p=self.p_workload)
        return np.array([self.pools[k][rng.integers(len(self.pools[k]))] for k in pick])


class Window:
    """One open-loop schedule: send offsets and the rows they query."""

    def __init__(self, queries: Queries, rng, rate: float, seconds: float):
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
        offsets = np.cumsum(gaps)
        self.offsets = offsets[offsets < seconds]
        self.rows = queries.draw(rng, len(self.offsets))
        self.rate = rate


class Driven:
    """What :func:`drive` observed for one window."""

    def __init__(self, n: int) -> None:
        self.latency = np.full(n, np.nan)  #: seconds from scheduled send
        self.lag = np.full(n, np.nan)  #: send time minus scheduled send
        self.backlog = np.zeros(n, dtype=np.intp)  #: in flight at send
        self.bound = np.full(n, np.nan)
        self.generation = np.full(n, -1)
        self.order = np.full(n, -1)  #: submission sequence number
        self.inconsistent = 0
        self.refused = 0
        self.errors = 0
        self.busy = 0  #: admission refusals, retried or not

    @property
    def answered(self) -> np.ndarray:
        return ~np.isnan(self.latency)


def drive(service, test, window: Window, swap=None) -> Driven:
    """Offer ``window`` to ``service`` on schedule; see the module docstring."""
    from repro.serving.sharded import ShardBusy

    rows = window.rows
    n = len(rows)
    queries = [
        (int(test.w_idx[r]), int(test.p_idx[r]),
         tuple(int(c) for c in test.interferers[r] if c >= 0))
        for r in rows
    ]
    seen = Driven(n)
    if swap is not None:
        swap()  # each checked window starts on a fresh generation and cache
    outstanding: dict[int, int] = {}  # ticket → position, in send order
    retries: list[tuple[float, int, int]] = []
    start = time.perf_counter() + 0.01
    due = start + window.offsets
    next_swap = start + SWAP_EVERY_S if swap is not None else math.inf
    drain_until = math.inf
    sent = 0

    def settle(response) -> None:
        position = outstanding.pop(response.ticket, None)
        if position is None:  # answered after an earlier window gave up
            return
        seen.latency[position] = time.perf_counter() - due[position]
        seen.bound[position] = response.bound
        seen.generation[position] = response.generation
        seen.inconsistent += not response.consistent

    while True:
        now = time.perf_counter()
        if sent < n and now >= next_swap:
            swap()
            next_swap += SWAP_EVERY_S
            continue
        position = None
        if sent < n and now >= due[sent]:
            position, attempts = sent, 0
            sent += 1
        elif retries and now >= retries[0][0]:
            _, position, attempts = heapq.heappop(retries)
        if position is not None:
            workload, platform, co = queries[position]
            try:
                ticket = service.submit(workload, platform, co, EPSILON)
            except ShardBusy as busy:
                seen.busy += 1
                if attempts >= MAX_RETRIES:
                    seen.refused += 1
                else:
                    heapq.heappush(
                        retries, (now + busy.retry_after, position, attempts + 1)
                    )
            else:
                if attempts == 0:
                    seen.lag[position] = now - due[position]
                    seen.backlog[position] = len(outstanding)
                seen.order[position] = ticket
                outstanding[ticket] = position
            continue
        if sent >= n and not retries:
            if not outstanding:
                break
            if drain_until == math.inf:
                drain_until = now + DRAIN_S
            if now >= drain_until:
                break  # whatever is still outstanding was dropped
        wake = min(
            due[sent] if sent < n else drain_until,
            retries[0][0] if retries else math.inf,
            next_swap if sent < n else math.inf,
        )
        if not outstanding:
            time.sleep(max(wake - now, 0.0))  # nothing in flight to wait on
            continue
        oldest = next(iter(outstanding))
        try:
            settle(service.gather(oldest, timeout=wake - now))
        except TimeoutError:
            continue
        except RuntimeError:
            outstanding.pop(oldest)
            seen.errors += 1
        try:
            for response in service.gather_ready():
                settle(response)
        except RuntimeError:
            seen.errors += 1
    return seen


def sustained(seen: Driven) -> bool:
    """A ladder rate holds when nothing failed, p99 meets the limit and
    the in-flight count did not grow over the window."""
    if seen.refused or seen.errors or seen.busy or not seen.answered.all():
        return False
    p99 = np.percentile(seen.latency, 99) * 1e3
    quarter = max(len(seen.backlog) // 4, 1)
    growing = seen.backlog[-quarter:].mean() > seen.backlog[:quarter].mean() + 4
    return p99 <= P99_LIMIT_MS and not growing


class Generations:
    """The two calibrated generations the service alternates between, and
    an uncached in-process reference service for each."""

    def __init__(self, spec, result) -> None:
        from repro.conformal.predictor import ConformalRuntimePredictor
        from repro.core.model import EmbeddingSnapshot
        from repro.core.trainer import PitotTrainer
        from repro.serving.service import PredictionService

        first = result.predictor
        model = result.model.clone()
        PitotTrainer(model, spec.trainer).update(
            result.split.train, steps=GENERATION_B_STEPS
        )
        second = ConformalRuntimePredictor(
            model, quantiles=first.quantiles, strategy=first.strategy,
            use_pools=first.use_pools, margin=first.margin,
        ).calibrate(result.split.calibration, epsilons=spec.conformal.epsilons)
        self.predictors = (first, second)
        self.snapshots = tuple(
            EmbeddingSnapshot.from_model(p.model) for p in self.predictors
        )
        self.references = tuple(
            PredictionService(
                s, choices=p.choices, use_pools=p.use_pools, cache_size=0
            )
            for s, p in zip(self.snapshots, self.predictors)
        )
        #: service generation → index of the generation's content
        self.content = {0: 0}

    def start(self):
        from repro.serving.sharded import ShardedPredictionService

        self.content = {0: 0}
        return ShardedPredictionService(
            self.snapshots[0], choices=self.predictors[0].choices,
            use_pools=self.predictors[0].use_pools, n_shards=SHARDS,
            queue_depth=QUEUE_DEPTH, start_method="spawn",
        )

    def promote(self, service, target: int) -> None:
        """Swap ``service`` to generation content ``target`` (0 or 1)."""
        generation = service.swap(self.snapshots[target], self.predictors[target])
        self.content[generation] = target

    def swapper(self, service):
        """A callable that promotes whichever content is not live."""
        return lambda: self.promote(service, 1 - self.content[service.generation])


def _keys(test, rows: np.ndarray) -> np.ndarray:
    """The service's cache key of each row: workload, platform and the
    interferer *set* (sorted; padding sorts first)."""
    co = np.sort(test.interferers[rows], axis=1)
    return np.column_stack([test.w_idx[rows], test.p_idx[rows], co])


def check(seen: Driven, window: Window, test, generations: Generations) -> int:
    """Answered queries whose bound is not bit for bit the reference.

    The reference is an uncached in-process service of the response's
    generation, given each query in the form ``submit`` forwards it:
    interferers unpadded, ``None`` for an isolation row (the last bits
    of a bound depend on that width). The shard's cache keys a bound on
    the interferer *set* while the forward pass sums interferers in
    query order, so within a generation every query of a key is served
    the bound computed for the key's first query; the reference is
    evaluated on those first queries.
    """
    wrong = 0
    answered = np.flatnonzero(seen.answered)
    for generation in np.unique(seen.generation[answered]):
        mine = answered[seen.generation[answered] == generation]
        mine = mine[np.argsort(seen.order[mine])]
        rows = window.rows[mine]
        _, first, inverse = np.unique(
            _keys(test, rows), axis=0, return_index=True, return_inverse=True
        )
        heads = rows[first]
        reference = generations.references[generations.content[generation]]
        width = np.sum(test.interferers[heads] >= 0, axis=1)
        expected_heads = np.empty(len(heads))
        for k in np.unique(width):
            group = np.flatnonzero(width == k)
            r = heads[group]
            co = None if k == 0 else test.interferers[r][:, :k]  # padding trails
            expected_heads[group] = reference.predict_bound(
                test.w_idx[r], test.p_idx[r], co, EPSILON
            )
        expected = expected_heads[inverse.ravel()]
        wrong += int(np.sum(expected != seen.bound[mine]))
    return wrong


def serve_open_loop(seed: int, seconds: float, trace: bool, scratch: Path,
                    imported_s: float) -> Outcome:
    from repro.pipeline import stages
    from repro.scenarios import get_scenario

    started = time.perf_counter()
    spec = get_scenario("paper").scaled(steps=SERVE_TRAIN_STEPS)
    result = stages.run_pipeline(spec, stop_after="calibrate")
    generations = Generations(spec, result)
    test = result.split.test
    rng = np.random.default_rng(seed)
    queries = Queries(test, rng)
    warm_window = Window(queries, rng, RATE_QPS, WARMUP_S)
    prepared_s = time.perf_counter() - started

    services: list = []
    spawn_times: list[float] = []

    def start():
        began = time.perf_counter()
        service = generations.start()
        services.append(service)
        spawn_times.append(time.perf_counter() - began)
        drive(service, test, warm_window, generations.swapper(service))
        return service

    out = Outcome(setup_s=math.nan)
    try:
        start_s, service = repeat_setup(start)
        out.setup_s = imported_s + prepared_s + start_s
        for stale in services[:-1]:
            stale.close()  # one shard runs during the timed phase
        _measure(out, service, generations, queries, test, rng, seconds, trace)
    finally:
        for started_service in services:  # close() is idempotent
            out.attempted += 1
            audit = started_service.close()
            if audit["leaked"]:
                out.fail(f"shared-memory audit: {audit}")
    out.layer["serving.spawn_s"] = statistics.median(spawn_times)
    return out


def _measure(out, service, generations, queries, test, rng, seconds, trace):
    """The timed phase (see the module docstring), then in traced runs the
    capacity ladder. Traced runs trace every other window and bulk answer;
    paired bulk answers serve the same generation content."""
    from repro.eval.metrics import overprovision_margin

    rows = (test.w_idx, test.p_idx, test.interferers, EPSILON)
    expected = [reference.predict_bound(*rows) for reference in generations.references]
    served = {}
    tracer = Tracer() if trace else None
    before = service.collect_stats()
    latencies, lags = [], []
    lookups = [0, 0]  # open-loop cache hits, lookups (bulk answers excluded)

    def op(index: int, traced: bool) -> None:
        hooks = (lambda: instrument(tracer)) if traced else contextlib.nullcontext
        window = Window(queries, rng, RATE_QPS, WINDOW_S)
        stats = service.collect_stats()
        began = time.perf_counter()
        with hooks():
            seen = drive(service, test, window, generations.swapper(service))
        if traced:
            out.traced_phase_s += time.perf_counter() - began
        after = service.collect_stats()
        lookups[0] += after.cache_hits - stats.cache_hits
        lookups[1] += (after.cache_hits + after.cache_misses) - (
            stats.cache_hits + stats.cache_misses
        )
        out.attempted += len(window.rows)
        wrong = check(seen, window, test, generations)
        unanswered = int(np.sum(~seen.answered)) - seen.refused
        failed = seen.refused + unanswered + seen.inconsistent + wrong
        if failed:
            out.fail(
                f"{failed} of {len(window.rows)} queries failed: "
                f"{seen.refused} refused, {unanswered} dropped or errored, "
                f"{seen.inconsistent} torn, {wrong} wrong",
                count=failed,
            )
        # A failed query misses every latency limit.
        latencies.append(np.where(seen.answered, seen.latency, DRAIN_S))
        lags.append(seen.lag)

        content = index % 2
        generations.promote(service, content)
        started = time.perf_counter()
        with hooks():
            bounds = service.predict_bound(*rows)
        wall = time.perf_counter() - started
        (out.traced_walls if traced else out.walls).append(wall)
        out.attempted += 1
        if not np.array_equal(bounds, expected[content]):
            out.fail(f"bulk answer {index}: sharded bounds differ from in-process")
        served.setdefault(content, bounds)

    repeat_ops(op, seconds, trace, MIN_BULK)
    out.violation_pct = 100 * float(np.mean(test.runtime > served[0]))
    out.margin_pct = 100 * overprovision_margin(served[0], test.runtime)
    latency = np.concatenate(latencies) * 1e3
    out.layer.update({
        "serving.latency_p50_ms": float(np.median(latency)),
        "serving.latency_p99_ms": float(np.percentile(latency, 99)),
        "serving.send_lag_p99_ms": float(np.nanpercentile(np.concatenate(lags), 99) * 1e3),
        "serving.cache_hit_pct": 100 * lookups[0] / max(lookups[1], 1),
    })
    out.notes.append(
        f"open loop at {RATE_QPS:.0f} q/s: {len(latency)} queries, p50 "
        f"{out.layer['serving.latency_p50_ms']:.3f} ms, p99 "
        f"{out.layer['serving.latency_p99_ms']:.3f} ms, send lag p99 "
        f"{out.layer['serving.send_lag_p99_ms']:.3f} ms, cache hits "
        f"{out.layer['serving.cache_hit_pct']:.1f}%"
    )
    if not trace:
        return
    out.tracer = tracer
    out.traced_phase_s += sum(out.traced_walls)
    ladder = [Window(queries, rng, r, LADDER_STEP_S) for r in LADDER_QPS]
    results = [drive(service, test, w) for w in ladder]
    out.layer["serving.rejections"] = float(
        service.collect_stats().rejections - before.rejections
    )
    out.layer["serving.max_rate_qps"] = max(
        (w.rate for w, r in zip(ladder, results) if sustained(r)), default=0.0
    )
    for w, r in zip(ladder, results):
        latency = np.where(r.answered, r.latency, DRAIN_S) * 1e3
        out.notes.append(
            f"ladder {w.rate:6.0f} q/s: p50 {np.median(latency):7.2f} ms, "
            f"p99 {np.percentile(latency, 99):7.2f} ms, busy {r.busy}, "
            f"refused {r.refused}, unanswered {int(np.sum(~r.answered))}"
            + ("" if sustained(r) else "  (not sustained)")
        )
