"""Open-loop load shapes and the virtual-time queueing replay."""

import time

import numpy as np
import pytest

from repro.serving.loadgen import (
    OpenLoopConfig,
    QueryTrace,
    drive_open_loop,
    generate_trace,
    simulate_open_loop,
    zipf_weights,
)
from repro.serving.sharded import ShardResponse


class TestZipfWeights:
    def test_normalized_and_monotone(self):
        w = zipf_weights(40, 1.1)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0)

    def test_zero_exponent_is_uniform(self):
        w = zipf_weights(10, 0.0)
        assert np.allclose(w, 0.1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)


class TestGenerateTrace:
    def test_deterministic_replay(self):
        config = OpenLoopConfig(
            rate=500, duration=4.0, seed=11, zipf_s=1.1, burst_multiplier=3.0
        )
        a = generate_trace(config, 40, 24)
        b = generate_trace(config, 40, 24)
        assert np.array_equal(a.arrivals, b.arrivals)
        assert np.array_equal(a.workloads, b.workloads)
        assert np.array_equal(a.platforms, b.platforms)

    def test_arrivals_sorted_within_horizon(self):
        trace = generate_trace(OpenLoopConfig(rate=300, duration=5.0), 40, 24)
        assert np.all(np.diff(trace.arrivals) >= 0)
        assert trace.arrivals[0] >= 0
        assert trace.arrivals[-1] < 5.0

    def test_poisson_rate_matches_config(self):
        trace = generate_trace(
            OpenLoopConfig(rate=1000, duration=20.0, seed=4), 40, 24
        )
        assert trace.offered_rate == pytest.approx(1000, rel=0.1)

    def test_bursts_add_arrivals_on_top_of_base(self):
        base = generate_trace(
            OpenLoopConfig(rate=500, duration=20.0, seed=2), 40, 24
        )
        bursty = generate_trace(
            OpenLoopConfig(
                rate=500, duration=20.0, seed=2, burst_multiplier=4.0
            ),
            40,
            24,
        )
        assert bursty.n > base.n * 1.05

    def test_zipf_concentrates_workloads(self):
        uniform = generate_trace(
            OpenLoopConfig(rate=2000, duration=5.0, seed=9), 40, 24
        )
        skewed = generate_trace(
            OpenLoopConfig(rate=2000, duration=5.0, seed=9, zipf_s=1.2), 40, 24
        )
        top = lambda t: np.bincount(t.workloads, minlength=40).max() / t.n
        assert top(skewed) > 3 * top(uniform)

    def test_query_indices_in_range(self):
        trace = generate_trace(
            OpenLoopConfig(rate=500, duration=3.0, zipf_s=1.1), 40, 24
        )
        assert trace.workloads.min() >= 0 and trace.workloads.max() < 40
        assert trace.platforms.min() >= 0 and trace.platforms.max() < 24

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OpenLoopConfig(rate=0, duration=1.0)
        with pytest.raises(ValueError):
            OpenLoopConfig(rate=1, duration=1.0, burst_multiplier=0.5)


def _manual_trace(arrivals, workload=0, platform=0, epsilon=0.05):
    arrivals = np.asarray(arrivals, dtype=float)
    n = len(arrivals)
    return QueryTrace(
        arrivals=arrivals,
        workloads=np.full(n, workload, dtype=np.intp),
        platforms=np.full(n, platform, dtype=np.intp),
        epsilon=epsilon,
        config=OpenLoopConfig(rate=1.0, duration=float(arrivals[-1]) + 1.0),
    )


class TestSimulateOpenLoop:
    def test_idle_service_has_no_queueing(self):
        trace = _manual_trace([0.0, 10.0, 20.0])
        result = simulate_open_loop(trace, 0.5, n_shards=1, queue_depth=4)
        assert result.completed == 3
        assert result.rejections == 0
        assert np.allclose(result.latencies, 0.5)

    def test_backlog_latency_counts_from_scheduled_arrival(self):
        """Two simultaneous arrivals, one server: the second query's
        latency includes its wait behind the first."""
        trace = _manual_trace([0.0, 0.0])
        result = simulate_open_loop(trace, 1.0, n_shards=1, queue_depth=4)
        assert sorted(result.latencies) == [1.0, 2.0]

    def test_bounded_admission_rejects_and_retries(self):
        trace = _manual_trace([0.0, 0.0])
        result = simulate_open_loop(trace, 1.0, n_shards=1, queue_depth=1)
        assert result.rejections >= 1
        assert result.completed == 2
        # The retried query still measures from its scheduled arrival.
        assert max(result.latencies) >= 2.0

    def test_overload_drops_after_max_retries(self):
        trace = _manual_trace(np.zeros(50))
        result = simulate_open_loop(
            trace, 1.0, n_shards=1, queue_depth=1, max_retries=1
        )
        assert result.dropped > 0
        assert result.completed + result.dropped == 50

    def test_throughput_saturates_at_shard_capacity(self):
        trace = generate_trace(
            OpenLoopConfig(rate=2000, duration=10.0, seed=7), 40, 24
        )
        tau = 0.002  # capacity = shards / tau
        one = simulate_open_loop(trace, tau, n_shards=1, queue_depth=64)
        four = simulate_open_loop(trace, tau, n_shards=4, queue_depth=64)
        assert one.throughput == pytest.approx(500, rel=0.1)
        assert four.throughput >= 3 * one.throughput
        assert one.rejections > 0  # overloaded: backpressure visible

    def test_subcritical_tail_is_tight(self):
        trace = generate_trace(
            OpenLoopConfig(rate=50, duration=30.0, seed=7), 40, 24
        )
        result = simulate_open_loop(trace, 0.002, n_shards=4, queue_depth=64)
        pct = result.percentiles()
        assert pct["p50"] == pytest.approx(0.002, rel=0.5)
        assert result.rejections == 0

    def test_per_query_service_times_broadcast(self):
        trace = _manual_trace([0.0, 5.0])
        result = simulate_open_loop(
            trace, np.array([1.0, 2.0]), n_shards=1, queue_depth=4
        )
        assert sorted(result.latencies) == [1.0, 2.0]


class _FixedDelayService:
    """In-process stand-in for the sharded service: every ticket
    completes ``delay`` seconds after its submit."""

    n_shards = 1

    def __init__(self, delay: float) -> None:
        self.delay = delay
        self.ready_at: dict[int, float] = {}
        self.next_ticket = 0

    def submit(self, workload, platform, interferers, epsilon):
        ticket = self.next_ticket
        self.next_ticket += 1
        self.ready_at[ticket] = time.monotonic() + self.delay
        return ticket

    def _answer(self, ticket):
        del self.ready_at[ticket]
        return ShardResponse(
            ticket=ticket, shard=0, bound=1.0, generation=0,
            header_generation=0,
        )

    def gather(self, ticket, timeout=60.0):
        wait = self.ready_at[ticket] - time.monotonic()
        if wait > timeout:
            time.sleep(max(timeout, 0.0))
            raise TimeoutError("ticket not ready")
        time.sleep(max(wait, 0.0))
        return self._answer(ticket)

    def gather_ready(self):
        now = time.monotonic()
        done = [t for t, at in self.ready_at.items() if at <= now]
        return [self._answer(t) for t in done]


class TestDriveOpenLoop:
    def test_latency_not_floored_at_arrival_gap(self):
        """A 2 ms service with arrivals 50 ms apart must read ~2 ms, not
        the client's wake-up interval."""
        trace = _manual_trace(np.arange(12) * 0.05)
        result = drive_open_loop(_FixedDelayService(0.002), trace)
        assert result.completed == trace.n
        assert np.median(result.latencies) < 0.005

    def test_drives_live_sharded_service(self, trained_pitot_quantile, mini_split):
        """End-to-end wall-clock open loop against real shard workers."""
        from repro.conformal import ConformalRuntimePredictor
        from repro.core import PAPER_QUANTILES
        from repro.serving import ShardedPredictionService

        predictor = ConformalRuntimePredictor(
            trained_pitot_quantile.model,
            quantiles=PAPER_QUANTILES,
            strategy="pitot",
        ).calibrate(mini_split.calibration, epsilons=(0.05,))
        trace = generate_trace(
            OpenLoopConfig(rate=80, duration=0.5, seed=1, epsilon=0.05),
            n_workloads=40,
            n_platforms=20,
        )
        service = ShardedPredictionService.from_predictor(
            predictor, n_shards=2, start_method="fork"
        )
        try:
            result = drive_open_loop(service, trace)
            assert result.completed + result.dropped == trace.n
            assert result.completed > 0
            assert np.all(result.latencies >= 0)
            assert result.n_shards == 2
        finally:
            assert service.close()["leaked"] == 0
