"""BoundQuery: one validation point and one canonical form for bound queries."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import MAX_INTERFERERS, BoundQuery

POPULATION = SimpleNamespace(n_workloads=10, n_platforms=4)


def _query(w, p, interferers):
    return BoundQuery.from_arrays(
        np.asarray(w), np.asarray(p), interferers, POPULATION
    )


class TestCanonicalForm:
    def test_sorted_ascending_with_trailing_padding(self):
        query = _query([1, 2], [0, 3], np.array([[7, -1, 2], [-1, -1, 5]]))
        assert query.interferers.tolist() == [[2, 7, -1], [5, -1, -1]]
        assert query.interferers.dtype == np.intp
        assert query.w_idx.dtype == query.p_idx.dtype == np.intp

    def test_any_width_becomes_max_interferers(self):
        narrow = _query([1], [0], np.array([[4]]))
        wide = _query([1], [0], np.array([[-1, 4, -1, -1, -1]]))
        assert narrow.interferers.shape == (1, MAX_INTERFERERS)
        assert narrow.interferers.tolist() == wide.interferers.tolist()
        assert narrow.interferers.tolist() == [[4, -1, -1]]

    def test_isolation_forms_agree(self):
        forms = [None, np.empty((2, 0), dtype=int), np.full((2, 3), -1)]
        rows = [_query([1, 2], [0, 1], f).interferers.tolist() for f in forms]
        assert rows == [[[-1, -1, -1], [-1, -1, -1]]] * 3

    def test_duplicates_are_kept(self):
        query = _query([0], [0], np.array([[3, -1, 3]]))
        assert query.interferers.tolist() == [[3, 3, -1]]

    def test_one_dimensional_row_is_one_query(self):
        query = _query([0], [0], np.array([6, 1]))
        assert query.interferers.tolist() == [[1, 6, -1]]

    def test_take_keeps_canonical_rows(self):
        query = _query([0, 1, 2], [0, 1, 2], np.array([[3], [2], [1]]))
        sub = query.take(np.array([2, 0]))
        assert sub.w_idx.tolist() == [2, 0]
        assert sub.interferers.tolist() == [[1, -1, -1], [3, -1, -1]]
        assert len(sub) == 2


class TestValidation:
    def test_length_mismatches_name_the_field(self):
        with pytest.raises(ValueError, match="p_idx has 1 rows for 2"):
            _query([0, 1], [0], None)
        with pytest.raises(ValueError, match="interferers has 1 rows for 2"):
            _query([0, 1], [0, 1], np.array([[2]]))

    @pytest.mark.parametrize(
        "w, p, co, message",
        [
            (-1, 0, None, "workload -1 out of range"),
            (10, 0, None, "workload 10 out of range"),
            (0, -1, None, "platform -1 out of range"),
            (0, 4, None, "platform 4 out of range"),
            (0, 0, [[-5]], "interferer -5 out of range"),
            (0, 0, [[10, -1]], "interferer 10 out of range"),
        ],
    )
    def test_out_of_range_rejected(self, w, p, co, message):
        interferers = None if co is None else np.array(co)
        with pytest.raises(ValueError, match=message):
            _query([w], [p], interferers)

    def test_at_most_max_interferers_after_stripping_padding(self):
        ok = _query([0], [0], np.array([[1, -1, 2, -1, 3]]))
        assert ok.interferers.tolist() == [[1, 2, 3]]
        with pytest.raises(ValueError, match="at most 3 interferers"):
            _query([0], [0], np.array([[1, 2, 3, 4]]))


class TestFromRows:
    def test_ragged_rows_strip_padding(self):
        query = BoundQuery.from_rows(
            [(3, 1, (7, -1)), (2, 0, ()), (1, 2, [5, 4, 6])], POPULATION
        )
        assert query.w_idx.tolist() == [3, 2, 1]
        assert query.p_idx.tolist() == [1, 0, 2]
        assert query.interferers.tolist() == [
            [7, -1, -1], [-1, -1, -1], [4, 5, 6],
        ]

    def test_rejects_four_interferers_and_empty_is_fine(self):
        with pytest.raises(ValueError, match="at most 3 interferers"):
            BoundQuery.from_rows([(0, 0, (1, 2, 3, 4))], POPULATION)
        assert len(BoundQuery.from_rows([], POPULATION)) == 0
