"""Serving throughput — queries/sec for cold vs. snapshot vs. cached paths.

This is an extension bench (no paper artifact): it quantifies the serving
layer the paper's "any ε without retraining" story presumes. Three paths
answer the same 10k-query stream of calibrated bound requests:

* **cold** — ``ConformalRuntimePredictor`` over the raw model, one call
  per query: every call re-runs both towers through autograd (the
  pre-serving state of this repo);
* **snapshot** — :class:`~repro.serving.PredictionService` with the LRU
  disabled: one inference-only gather-and-GEMM forward per shape-stable
  degree batch;
* **cached** — the same stream as single-row calls against a warm LRU
  (the one call shape the LRU serves; a multi-row call never consults
  it): repeated ``(workload, platform, interferer-set, ε)`` queries
  become dict hits.

Acceptance: snapshot ≥ 5× cold on the per-query rate, and snapshot
bounds match the raw predictor's to atol 1e-10.
"""

import time

import numpy as np

from repro.core import PAPER_QUANTILES
from repro.serving import PredictionService
from repro.eval import format_table

from conftest import emit
from reference_paths import RowByRowBounds

EPSILON_INDEX = 0  # loosest calibrated ε; any calibrated value works
N_QUERIES = 10_000
N_COLD = 100  # per-call queries timed for the cold path (then extrapolated)


def _query_stream(split, n, seed=0):
    rng = np.random.default_rng(seed)
    test = split.test
    rows = rng.integers(0, test.n_observations, size=n)
    return test.w_idx[rows], test.p_idx[rows], test.interferers[rows]


def _calibrated(zoo, scale):
    model = zoo.pitot_quantile(scale.fractions[0], 0)
    return zoo.conformal(
        model, scale.fractions[0], 0, strategy="pitot",
        quantiles=PAPER_QUANTILES,
    )


def test_serving_throughput(benchmark, zoo, scale):
    """The headline comparison: snapshot must be ≥ 5× the cold path."""
    predictor = _calibrated(zoo, scale)
    epsilon = scale.epsilons[EPSILON_INDEX]
    split = zoo.split(scale.fractions[0], 0)
    w, p, k = _query_stream(split, N_QUERIES)

    # Cold: per-call autograd forward (timed on a subsample; rate is
    # per-query so the comparison is fair).
    start = time.perf_counter()
    for i in range(N_COLD):
        predictor.predict_bound(
            w[i : i + 1], p[i : i + 1], k[i : i + 1], epsilon
        )
    cold_rate = N_COLD / (time.perf_counter() - start)

    # Snapshot: batched inference-only forward, memoization off.
    service = PredictionService.from_predictor(predictor, cache_size=0)
    snapshot_bounds = benchmark.pedantic(
        lambda: service.predict_bound(w, p, k, epsilon),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    start = time.perf_counter()
    service.predict_bound(w, p, k, epsilon)
    snapshot_rate = N_QUERIES / (time.perf_counter() - start)

    # Cached: single-row calls once the LRU has seen the working set.
    cached = RowByRowBounds(PredictionService.from_predictor(predictor))
    cached.predict_bound(w, p, k, epsilon)  # warm
    start = time.perf_counter()
    cached_bounds = cached.predict_bound(w, p, k, epsilon)
    cached_rate = N_QUERIES / (time.perf_counter() - start)

    table = format_table(
        ["path", "queries/sec", "speedup vs cold"],
        [
            ["cold (per-call model)", f"{cold_rate:,.0f}", "1.0x"],
            ["snapshot (batched)", f"{snapshot_rate:,.0f}",
             f"{snapshot_rate / cold_rate:.1f}x"],
            ["cached (warm LRU, single-row)", f"{cached_rate:,.0f}",
             f"{cached_rate / cold_rate:.1f}x"],
        ],
        title=f"Serving throughput, {N_QUERIES:,} queries @ eps={epsilon}",
    )
    emit(
        "serving_throughput",
        table,
        metrics={
            "cold_rate": (cold_rate, "queries/sec"),
            "snapshot_rate": (snapshot_rate, "queries/sec"),
            "cached_rate": (cached_rate, "queries/sec"),
            "snapshot_speedup": (snapshot_rate / cold_rate, "x"),
            "cached_speedup": (cached_rate / cold_rate, "x"),
        },
    )

    assert snapshot_rate >= 5 * cold_rate, (
        f"snapshot path {snapshot_rate:,.0f} q/s is not ≥ 5x the cold "
        f"path {cold_rate:,.0f} q/s"
    )
    np.testing.assert_array_equal(snapshot_bounds, cached_bounds)


def test_serving_bounds_match_predictor(benchmark, zoo, scale):
    """Snapshot-path bounds equal the raw predictor's to atol 1e-10."""
    predictor = _calibrated(zoo, scale)
    epsilon = scale.epsilons[EPSILON_INDEX]
    split = zoo.split(scale.fractions[0], 0)
    w, p, k = _query_stream(split, 2048, seed=7)
    service = PredictionService.from_predictor(predictor)

    served = benchmark.pedantic(
        lambda: service.predict_bound(w, p, k, epsilon),
        rounds=2, iterations=1,
    )
    reference = predictor.predict_bound(w, p, k, epsilon)
    np.testing.assert_allclose(served, reference, rtol=0, atol=1e-10)


def test_serving_cache_steady_state(benchmark, zoo, scale):
    """A repeating working set of single-row calls is served from the LRU."""
    predictor = _calibrated(zoo, scale)
    epsilon = scale.epsilons[EPSILON_INDEX]
    split = zoo.split(scale.fractions[0], 0)
    # Small working set queried over and over, one row per call.
    w, p, k = _query_stream(split, 256, seed=11)
    service = PredictionService.from_predictor(predictor)
    one_row = RowByRowBounds(service)
    one_row.predict_bound(w, p, k, epsilon)  # populate

    benchmark.pedantic(
        lambda: one_row.predict_bound(w, p, k, epsilon),
        rounds=10, iterations=1, warmup_rounds=1,
    )
    assert service.cache.hit_rate > 0.5
    assert service.stats.queries >= 256 * 11
