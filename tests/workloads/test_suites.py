"""Benchmark suite composition (Sec 4: 249 workloads, 6 suites)."""

import pytest

from repro.workloads import SUITES, enumerate_workload_specs, suite_names


def test_paper_workload_count():
    assert sum(s.n_workloads for s in SUITES) == 249


def test_six_suites_with_paper_names():
    assert suite_names() == [
        "polybench", "mibench", "cortex", "sdvbs", "libsodium", "python",
    ]


def test_python_suite_has_12_benchmarks():
    python = next(s for s in SUITES if s.name == "python")
    assert len(python.benchmarks) == 12  # "12 benchmarks written for CPython"


def test_polybench_has_30_kernels():
    poly = next(s for s in SUITES if s.name == "polybench")
    assert len(poly.benchmarks) == 30


def test_mix_priors_normalized():
    for suite in SUITES:
        total = sum(suite.mix_prior.values())
        assert total == pytest.approx(1.0, abs=0.02), suite.name


def test_benchmarks_unique_within_suite():
    for suite in SUITES:
        assert len(set(suite.benchmarks)) == len(suite.benchmarks)


def test_runtime_ranges_ordered():
    for suite in SUITES:
        lo, hi = suite.log_seconds_range
        assert lo < hi


def test_enumeration_order_is_deterministic():
    a = enumerate_workload_specs()
    b = enumerate_workload_specs()
    assert [(s.name, bench, size) for s, bench, size in a] == [
        (s.name, bench, size) for s, bench, size in b
    ]
    assert len(a) == 249


def test_homogeneous_suites_have_high_concentration():
    # The paper notes Polybench/Libsodium cluster tightly (Fig 7 footnote).
    by_name = {s.name: s for s in SUITES}
    assert by_name["polybench"].mix_concentration > by_name["mibench"].mix_concentration
    assert by_name["libsodium"].mix_concentration > by_name["sdvbs"].mix_concentration
