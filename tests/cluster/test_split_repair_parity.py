"""Split repair (``_ensure_entity_coverage``) against its scan reference.

The production repair groups test rows by entity; the reference in
``tests/reference_paths.py`` scans the remaining test rows once per
missing entity. Both must promote the same rows, return them in the same
order and leave the generator in the same state, since every later draw
of a split reads that state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.splits as splits
from repro.cluster import RuntimeDataset, make_cold_workload_split, make_split
from repro.pipeline import collect_stage
from repro.scenarios import get_scenario
from reference_paths import scan_entity_coverage


def _dataset(w_idx, p_idx, n_workloads, n_platforms) -> RuntimeDataset:
    n = len(w_idx)
    return RuntimeDataset(
        w_idx=np.asarray(w_idx, dtype=np.int64),
        p_idx=np.asarray(p_idx, dtype=np.int64),
        interferers=np.full((n, 3), -1, dtype=np.int64),
        runtime=np.ones(n),
        workload_features=np.zeros((n_workloads, 1)),
        platform_features=np.zeros((n_platforms, 1)),
    )


def _repair(fn, dataset, train, test, seed, universe=None):
    rng = np.random.default_rng(seed)
    train_out, test_out = fn(dataset, train, test, rng, universe=universe)
    return train_out, test_out, rng.bit_generator.state


def _assert_same(production, reference):
    for got, want in zip(production[:2], reference[:2]):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert production[2] == reference[2]


@st.composite
def repair_cases(draw):
    """A small dataset, disjoint train/test rows drawn from a permutation
    (rows left over are in neither, so an entity can lack candidates),
    and optionally a cold-workload ``universe`` covering both."""
    n_workloads = draw(st.integers(1, 6))
    n_platforms = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    w_idx = draw(st.lists(st.integers(0, n_workloads - 1), min_size=n, max_size=n))
    p_idx = draw(st.lists(st.integers(0, n_platforms - 1), min_size=n, max_size=n))
    order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    n_train = draw(st.integers(0, n))
    n_test = draw(st.integers(0, n - n_train))
    train = order[:n_train]
    test = order[n_train : n_train + n_test]
    universe = None
    if draw(st.booleans()):
        extra = order[n_train + n_test :]
        keep = draw(st.lists(st.booleans(), min_size=len(extra), max_size=len(extra)))
        universe = np.sort(
            np.concatenate([train, test, extra[np.array(keep, dtype=bool)]])
        ).astype(np.int64)
    seed = draw(st.integers(0, 2**32 - 1))
    dataset = _dataset(w_idx, p_idx, n_workloads, n_platforms)
    return dataset, train, test, universe, seed


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=repair_cases())
def test_repair_matches_scan_reference(case):
    dataset, train, test, universe, seed = case
    _assert_same(
        _repair(splits._ensure_entity_coverage, dataset, train, test, seed, universe),
        _repair(scan_entity_coverage, dataset, train, test, seed, universe),
    )


class TestRepairCases:
    """Each case the property above must cover, pinned by hand."""

    def test_missing_entities_are_promoted(self):
        # w1 and p1 appear only in test; w2 (row 3) has no candidate.
        ds = _dataset([0, 1, 1, 2], [0, 1, 0, 0], 3, 2)
        train, test = np.array([0]), np.array([2, 1])
        production = _repair(splits._ensure_entity_coverage, ds, train, test, 5)
        _assert_same(production, _repair(scan_entity_coverage, ds, train, test, 5))
        repaired_train = production[0]
        assert set(ds.w_idx[repaired_train]) == {0, 1}
        assert set(ds.p_idx[repaired_train]) == {0, 1}

    def test_entity_without_candidates_draws_nothing(self):
        ds = _dataset([0, 1], [0, 0], 2, 1)
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        train, test = splits._ensure_entity_coverage(
            ds, np.array([0]), np.array([], dtype=int), rng
        )
        assert train.tolist() == [0] and test.tolist() == []
        assert rng.bit_generator.state == before

    def test_platform_pass_ignores_workload_promotions(self):
        """The platform pass checks coverage against the incoming train
        rows: row 1 (w1, p1) is promoted for w1, and p1 is still counted
        missing, so row 2 (w0, p1) is promoted as well."""
        ds = _dataset([0, 1, 0], [0, 1, 1], 2, 2)
        train, test = np.array([0]), np.array([1, 2])
        production = _repair(splits._ensure_entity_coverage, ds, train, test, 0)
        _assert_same(production, _repair(scan_entity_coverage, ds, train, test, 0))
        assert production[0].tolist() == [0, 1, 2]
        assert production[1].tolist() == []

    def test_universe_excludes_held_out_entities(self):
        # w2 is only referenced by row 3, outside the universe.
        ds = _dataset([0, 1, 1, 2], [0, 0, 0, 0], 3, 1)
        universe = np.array([0, 1, 2])
        train, test = np.array([0]), np.array([1, 2, 3])
        production = _repair(
            splits._ensure_entity_coverage, ds, train, test, 3, universe
        )
        _assert_same(
            production, _repair(scan_entity_coverage, ds, train, test, 3, universe)
        )
        assert 3 in production[1]


@pytest.fixture(scope="module")
def smoke_dataset():
    return collect_stage(get_scenario("smoke"))


def _rows(split):
    return (split.train_rows, split.calibration_rows, split.test_rows)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("cold", [False, True])
def test_splits_match_scan_reference(smoke_dataset, monkeypatch, seed, cold):
    """Whole splits of a ``smoke``-sized dataset return the reference's
    rows: every repair call, and every draw after it, agrees. A 5% train
    fraction leaves entities to promote at every seed here."""

    def draw():
        if cold:
            return make_cold_workload_split(smoke_dataset, 0.05, seed=seed)
        return make_split(smoke_dataset, 0.05, seed=seed)

    production = draw()
    monkeypatch.setattr(splits, "_ensure_entity_coverage", scan_entity_coverage)
    reference = draw()
    for got, want in zip(_rows(production), _rows(reference)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
