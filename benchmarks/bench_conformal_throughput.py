"""Conformal engine throughput: incremental windows vs the scalar loop.

The online recalibration loop (lifecycle ticks, the scheduler's live
world calibration) pays two costs per batch of observed runtimes: the
*ingest* of new nonconformity scores into per-pool sliding windows, and
the *recalibration* that turns those windows into per-pool offsets. The
pre-PR reference path appends scores one at a time into ``deque``s and
re-sorts the full window on every offset query — O(window log window)
per pool per recalibration. The batched engine keeps each pool's window
sorted (``np.searchsorted`` + ``np.insert`` merges, FIFO eviction by
arrival tag), so a recalibration is an order-statistic *gather*. The
reference is ``reference_paths.DequeConformalizer``.

Methodology: both paths consume the identical synthetic stream (seeded
rng; a zero model so the conformal layer — not tower inference — is
what's timed) at a fleet-scale window, recalibrating every batch the
way a lifecycle tick does. Equality of the produced offsets is asserted
first (the speedup must not come from computing something else), then
each path's ingest+recalibrate wall-clock feeds the guarded ratio.
Units "x" → ``repro.devtools.bench_guard`` fails CI if the speedup
regresses >30%; the ≥5× floor below is the PR's acceptance contract.
"""

import time

import numpy as np

from repro.conformal import OnlineConformalizer
from repro.eval import format_table

from conftest import emit
from reference_paths import DequeConformalizer

WINDOW = 16_384  # fleet-scale retained scores per pool
BATCH = 512  # observations per lifecycle tick
N_BATCHES = 120
EPS = 0.1


class _ZeroModel:
    """predict_log stub: the bench times the conformal layer only."""

    def predict_log(self, w_idx, p_idx, interferers):
        return np.zeros((len(w_idx), 1))


def _stream(rng):
    """(w_idx, p_idx, interferers, runtimes) batches with pools 1..4."""
    batches = []
    for _ in range(N_BATCHES):
        degree = rng.integers(0, 4, size=BATCH)  # 0..3 co-runners
        interferers = np.full((BATCH, 3), -1, dtype=np.int64)
        for k in range(3):
            interferers[degree > k, k] = rng.integers(
                0, 60, size=int((degree > k).sum())
            )
        batches.append((
            rng.integers(0, 60, size=BATCH),
            rng.integers(0, 40, size=BATCH),
            interferers,
            np.exp(rng.normal(0.0, 0.5, size=BATCH)),
        ))
    return batches


def _drive(conformalizer, batches):
    """Ingest + per-tick recalibration; returns (seconds, last offsets)."""
    offsets = {}
    start = time.perf_counter()
    for w_idx, p_idx, interferers, runtimes in batches:
        conformalizer.observe(w_idx, p_idx, interferers, runtimes)
        offsets = conformalizer.offsets_by_pool(EPS)
    return time.perf_counter() - start, offsets


def test_conformal_throughput(benchmark):
    model = _ZeroModel()
    batches = _stream(np.random.default_rng(0))

    rows, metrics = [], {}
    for mode in ("naive", "weighted"):
        batched = OnlineConformalizer(model, window=WINDOW, margin=mode)
        scalar = DequeConformalizer(model, window=WINDOW, margin=mode)
        if mode == "naive":
            t_batched, off_batched = benchmark.pedantic(
                lambda: _drive(batched, batches), rounds=1, iterations=1
            )
        else:
            t_batched, off_batched = _drive(batched, batches)
        t_scalar, off_scalar = _drive(scalar, batches)
        # Same stream, same contract: the two paths must agree exactly
        # before their timings are comparable.
        assert off_batched.keys() == off_scalar.keys()
        for pool in off_batched:
            assert off_batched[pool] == off_scalar[pool], (mode, pool)
        speedup = t_scalar / t_batched
        events = N_BATCHES * BATCH
        rows.append([
            mode, f"{events / t_scalar:,.0f}/s", f"{events / t_batched:,.0f}/s",
            f"{speedup:.1f}x",
        ])
        metrics[f"speedup_{mode}"] = (speedup, "x")
        metrics[f"batched_events_per_s_{mode}"] = (events / t_batched, "ev/s")
    table = format_table(
        ["margin", "scalar ingest+recal", "batched ingest+recal", "speedup"],
        rows,
        title=(
            f"Conformal engine throughput (window {WINDOW}, "
            f"{N_BATCHES} ticks x {BATCH} events, recalibrate every tick)"
        ),
    )
    emit("conformal_throughput", table, metrics)
    # Acceptance floor: incremental sorted windows beat the deque+re-sort
    # reference by >=5x at fleet scale (measured ~10-30x).
    assert metrics["speedup_naive"][0] >= 5.0
