"""make_cluster subsampling and index consistency."""

from repro.cluster import make_cluster


class TestSubsampling:
    def test_full_inventory_by_default(self):
        model = make_cluster(seed=0)
        assert len(model.workloads) == 249
        assert len(model.platforms) == 220

    def test_workload_subsample_reindexes(self):
        model = make_cluster(seed=0, n_workloads=10)
        assert len(model.workloads) == 10
        assert [w.index for w in model.workloads] == list(range(10))

    def test_subsample_spans_suites(self):
        """Stride subsampling keeps suite diversity (first..last)."""
        model = make_cluster(seed=0, n_workloads=30)
        suites = {w.suite for w in model.workloads}
        assert len(suites) >= 4

    def test_device_and_runtime_limits(self):
        model = make_cluster(seed=0, n_devices=5, n_runtimes=3)
        devices = {p.device.name for p in model.platforms}
        runtimes = {p.runtime.name for p in model.platforms}
        assert len(devices) <= 5
        assert len(runtimes) <= 3

    def test_matrix_shape_matches_inventory(self):
        model = make_cluster(seed=0, n_workloads=12, n_devices=4, n_runtimes=3)
        assert model.log10_isolation.shape == (
            len(model.workloads), len(model.platforms)
        )

    def test_oversized_limits_are_noops(self):
        model = make_cluster(seed=0, n_workloads=10_000, n_devices=99,
                             n_runtimes=99)
        assert len(model.workloads) == 249
        assert len(model.platforms) == 220


class TestDatasetAlignment:
    def test_observation_indices_in_range(self, mini_dataset):
        assert mini_dataset.w_idx.max() < mini_dataset.n_workloads
        assert mini_dataset.p_idx.max() < mini_dataset.n_platforms
        valid = mini_dataset.interferers[mini_dataset.interferers >= 0]
        assert valid.max() < mini_dataset.n_workloads

    def test_metadata_rows_align_with_features(self, mini_dataset):
        assert len(mini_dataset.workloads) == mini_dataset.n_workloads
        assert len(mini_dataset.platforms) == mini_dataset.n_platforms
        assert [w.index for w in mini_dataset.workloads] == list(
            range(mini_dataset.n_workloads)
        )
        assert [p.index for p in mini_dataset.platforms] == list(
            range(mini_dataset.n_platforms)
        )
