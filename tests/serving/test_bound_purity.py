"""Bitwise purity: a served bound is a function of the interferer *set*.

Every bound entry point builds the same canonical query, so any order or
``-1`` padding of a query's interferers, any entry point (single- or
multi-process, sweep, dataset, conformal predictor), and a cache hit or
miss all return the same float64 bits. Also pinned here: the rule for
when the LRU is consulted, and the validation every batch path applies.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformal import ConformalRuntimePredictor
from repro.core import PAPER_QUANTILES
from repro.orchestration import BudgetOracle
from repro.serving import PredictionService, ShardedPredictionService

EPS = 0.1
N_WORKLOADS = 40  # the mini scenario's population (asserted below)


@pytest.fixture(scope="module")
def calibrated(trained_pitot_quantile, mini_split):
    return ConformalRuntimePredictor(
        trained_pitot_quantile.model,
        quantiles=PAPER_QUANTILES,
        strategy="pitot",
    ).calibrate(mini_split.calibration, epsilons=(0.1, 0.05))


@pytest.fixture(scope="module")
def uncached(calibrated):
    return PredictionService.from_predictor(calibrated, cache_size=0)


def _forms(co):
    """Every order of ``co`` unpadded and ``-1``-padded with the padding
    trailing, leading and interleaved, as distinct ``(1, K)`` interferer
    matrices; isolation also as ``None``."""
    if not co:
        return [None, np.empty((1, 0), dtype=int), np.array([[-1]]),
                np.array([[-1, -1, -1]])]
    forms = {}
    for perm in itertools.permutations(co):
        perm = list(perm)
        pad = [-1] * (3 - len(perm))
        interleaved = [-1] + [x for c in perm for x in (c, -1)]
        for row in (perm, perm + pad, pad + perm, interleaved):
            forms.setdefault(tuple(row), np.array([row]))
    return list(forms.values())


def _bits(values) -> set[bytes]:
    return {v.tobytes() for v in np.hstack(values).astype(np.float64)}


query_strategy = st.tuples(
    st.integers(0, N_WORKLOADS - 1),
    st.integers(0, 23),
    st.lists(st.integers(0, N_WORKLOADS - 1), min_size=0, max_size=3),
)


def _stacked(forms, width):
    """``forms`` (``None`` = isolation) as rows of one ``(m, width)``
    matrix, padding trailing."""
    out = np.full((len(forms), width), -1)
    for i, form in enumerate(forms):
        if form is not None:
            out[i, : form.shape[1]] = form
    return out


class TestBitwisePurity:
    # Derandomized: order changes the last bits of only a few percent of
    # rows, so a fixed example set keeps the property's verdict stable.
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        queries=st.lists(query_strategy, min_size=8, max_size=16),
        position=st.integers(0, 31),
    )
    def test_every_form_and_entry_point_agrees(
        self, calibrated, uncached, mini_split, queries, position
    ):
        assert uncached.n_workloads == N_WORKLOADS
        test = mini_split.test
        context = np.arange(32) * (test.n_observations // 32)
        for workload, platform, co in queries:
            platform %= uncached.n_platforms
            w, p = np.array([workload]), np.array([platform])
            forms = _forms(co)
            cached = PredictionService.from_predictor(calibrated)
            results = []
            # Single-row calls: uncached, a fresh cache's miss then hit,
            # one shared cache across every form, and a sweep column.
            for form in forms:
                results.append(uncached.predict_bound(w, p, form, EPS))
                fresh = PredictionService.from_predictor(calibrated)
                results.append(fresh.predict_bound(w, p, form, EPS))
                results.append(fresh.predict_bound(w, p, form, EPS))
                assert (fresh.cache.misses, fresh.cache.hits) == (1, 1)
                results.append(cached.predict_bound(w, p, form, EPS))
                results.append(
                    uncached.predict_bound_sweep(w, p, form, (EPS, 0.05))[:, 0]
                )
            # Every permuted or padded form hit the one canonical entry.
            assert (cached.cache.misses, len(cached.cache)) == (1, 1)
            # The conformal predictor, one call per padded width.
            widths = {0 if f is None else f.shape[1] for f in forms}
            for width in widths:
                group = [f for f in forms
                         if (0 if f is None else f.shape[1]) == width]
                results.append(calibrated.predict_bound(
                    np.full(len(group), workload),
                    np.full(len(group), platform),
                    _stacked(group, width), EPS,
                ))
            # Dataset rows (the dataset's fixed width of 3).
            rows = _stacked(
                [f for f in forms if f is None or f.shape[1] <= 3], 3
            )
            ds = dataclasses.replace(
                test.subset(np.zeros(len(rows), dtype=int)),
                w_idx=np.full(len(rows), workload),
                p_idx=np.full(len(rows), platform), interferers=rows,
            )
            results.append(uncached.predict_bound_dataset(ds, EPS))
            results.append(calibrated.predict_bound_dataset(ds, EPS))
            # Each form inside a larger mixed-degree batch.
            width = max(3, max(widths))
            mixed = np.full((len(context) + len(forms), width), -1)
            mixed[: len(context), :3] = test.interferers[context]
            mixed[len(context):] = _stacked(forms, width)
            order = np.roll(np.arange(len(mixed)), position)
            bw = np.append(test.w_idx[context], [workload] * len(forms))
            bp = np.append(test.p_idx[context], [platform] * len(forms))
            mine = order >= len(context)
            for predictor in (uncached, calibrated):
                bounds = predictor.predict_bound(
                    bw[order], bp[order], mixed[order], EPS
                )
                results.append(bounds[mine])
            assert len(_bits(results)) == 1, (workload, platform, co)

    def test_sharded_submit_and_batch_agree_with_in_process(
        self, calibrated, uncached
    ):
        rng = np.random.default_rng(5)
        n_w, n_p = uncached.n_workloads, uncached.n_platforms
        queries = []
        while len(queries) < 200:
            co = list(rng.integers(0, n_w, size=rng.integers(0, 4)))
            forms = _forms(co)
            form = forms[rng.integers(len(forms))]
            queries.append(
                (int(rng.integers(n_w)), int(rng.integers(n_p)), co, form)
            )
        expected = [
            uncached.predict_bound(
                np.array([w]), np.array([p]), np.array([co]) if co else None,
                EPS,
            )[0]
            for w, p, co, _ in queries
        ]
        with ShardedPredictionService.from_predictor(
            calibrated, n_shards=2, queue_depth=len(queries),
            start_method="fork",
        ) as sharded:
            tickets = [
                sharded.submit(
                    w, p, () if form is None else tuple(form[0]), EPS
                )
                for w, p, _, form in queries
            ]
            submitted = [sharded.gather(t).bound for t in tickets]
            batched = [
                sharded.predict_bound(np.array([w]), np.array([p]), form, EPS)[0]
                for w, p, _, form in queries
            ]
        for want, got_submit, got_batch in zip(expected, submitted, batched):
            assert _bits([want, got_submit, got_batch]) == _bits([want])


class TestCacheRule:
    def test_multi_row_call_skips_the_cache(self, calibrated, mini_split):
        service = PredictionService.from_predictor(calibrated)
        test = mini_split.test
        for _ in range(2):
            service.predict_bound(
                test.w_idx[:2], test.p_idx[:2], test.interferers[:2], EPS
            )
        assert (service.cache.hits, service.cache.misses) == (0, 0)
        assert len(service.cache) == 0

    def test_empty_call_computes_nothing(self, calibrated):
        service = PredictionService.from_predictor(calibrated)
        empty = np.array([], dtype=int)
        assert service.predict_bound(empty, empty, None, EPS).shape == (0,)
        assert (service.cache.hits, service.cache.misses) == (0, 0)

    def test_repeated_single_row_call_hits(self, calibrated, mini_split):
        service = PredictionService.from_predictor(calibrated)
        test = mini_split.test
        args = (test.w_idx[:1], test.p_idx[:1], test.interferers[:1], EPS)
        first = service.predict_bound(*args)
        second = service.predict_bound(*args)
        assert (service.cache.hits, service.cache.misses) == (1, 1)
        assert _bits([first, second]) == _bits(first)

    def test_permuted_single_row_hits_the_same_entry(self, calibrated):
        service = PredictionService.from_predictor(calibrated)
        w, p = np.array([3]), np.array([1])
        first = service.predict_bound(w, p, np.array([[7, 2, 9]]), EPS)
        second = service.predict_bound(w, p, np.array([[9, -1, 7, 2]]), EPS)
        assert (service.cache.hits, service.cache.misses) == (1, 1)
        assert len(service.cache) == 1
        assert _bits([first, second]) == _bits(first)


class TestBatchValidation:
    """Each batch path rejects what single submissions always rejected."""

    def test_negative_workload_rejected_by_service(self, uncached):
        with pytest.raises(ValueError, match="workload -1"):
            uncached.predict_bound(
                np.array([-1, 0]), np.array([0, 0]), None, EPS
            )

    def test_negative_workload_rejected_by_predictor(self, calibrated):
        with pytest.raises(ValueError, match="workload -1"):
            calibrated.predict_bound(
                np.array([-1, 0]), np.array([0, 0]), None, EPS
            )

    def test_negative_interferer_rejected_in_batch_row(self, uncached):
        with pytest.raises(ValueError, match="interferer -5"):
            uncached.predict_bound(
                np.array([0, 1]), np.array([0, 0]),
                np.array([[-5, -1, -1], [2, -1, -1]]), EPS,
            )

    def test_oracle_rejects_four_interferers(self, uncached):
        oracle = BudgetOracle(uncached, EPS)
        with pytest.raises(ValueError, match="interferers"):
            oracle.budgets([(0, 0, (1, 2, 3, 4))])
