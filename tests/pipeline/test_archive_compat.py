"""Archives written deflated still load, bit for bit.

Every writer stores its ``.npz`` members uncompressed. Stores written
before that hold deflated archives under the same schema versions and
stage keys, so each production loader must read the deflated form of its
payload unchanged: dataset, model, split, snapshot, lifecycle window and
drift trace.
"""

import zipfile

import numpy as np
import pytest

from repro.cluster import RuntimeDataset
from repro.core import load_model, save_model
from repro.lifecycle import DriftTrace
from repro.pipeline import run_pipeline
from repro.pipeline import stages


@pytest.fixture(scope="module")
def result():
    return run_pipeline("smoke")


@pytest.fixture
def deflated(monkeypatch):
    """Route every archive write through ``np.savez_compressed``."""
    monkeypatch.setattr(np, "savez", np.savez_compressed)

    def check(path):
        with zipfile.ZipFile(path) as archive:
            methods = {info.compress_type for info in archive.infolist()}
        assert methods == {zipfile.ZIP_DEFLATED}

    return check


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_stored_archives_are_not_deflated(result, tmp_path):
    path = tmp_path / "dataset.npz"
    result.dataset.save(path)
    with zipfile.ZipFile(path) as archive:
        methods = {info.compress_type for info in archive.infolist()}
    assert methods == {zipfile.ZIP_STORED}


def test_dataset(result, deflated, tmp_path):
    path = tmp_path / "dataset.npz"
    result.dataset.save(path)
    deflated(path)
    loaded = RuntimeDataset.load(path)
    for name in ("w_idx", "p_idx", "interferers", "runtime",
                 "workload_features", "platform_features"):
        assert _same(getattr(loaded, name), getattr(result.dataset, name))
    assert loaded.workload_feature_names == result.dataset.workload_feature_names
    assert loaded.platform_feature_names == result.dataset.platform_feature_names


def test_model(result, deflated, tmp_path):
    path = tmp_path / "model.npz"
    save_model(result.model, path)
    deflated(path)
    loaded = load_model(path)
    want = result.model.state_dict()
    got = loaded.state_dict()
    assert want.keys() == got.keys()
    assert all(_same(got[key], want[key]) for key in want)
    assert _same(loaded.baseline.w_bar, result.model.baseline.w_bar)
    assert _same(loaded.baseline.p_bar, result.model.baseline.p_bar)


def test_split(result, deflated, tmp_path):
    stages._save_scale(tmp_path, {"split": result.split, "baseline": result.baseline})
    deflated(tmp_path / "split.npz")
    out = {"dataset": result.dataset}
    stages._load_scale(tmp_path, result.spec, out)
    for name in ("train_rows", "calibration_rows", "test_rows"):
        assert _same(getattr(out["split"], name), getattr(result.split, name))
    assert _same(out["baseline"].w_bar, result.baseline.w_bar)
    assert _same(out["baseline"].p_bar, result.baseline.p_bar)


def test_snapshot(result, deflated, tmp_path):
    stages._save_snapshot(tmp_path, {"snapshot": result.snapshot})
    deflated(tmp_path / "snapshot.npz")
    out = {"training": result.training}
    stages._load_snapshot(tmp_path, result.spec, out)
    for name in ("W", "P", "VS", "VG", "baseline_w", "baseline_p"):
        want = getattr(result.snapshot, name)
        got = getattr(out["snapshot"], name)
        assert (want is None) == (got is None)
        if want is not None:
            assert _same(got, want)


def test_window(result, deflated, tmp_path):
    test = result.split.test
    window = (test.w_idx, test.p_idx, test.interferers, test.runtime)
    lifecycle = stages.LifecycleArtifact(
        model=result.model,
        ticks=[],
        update_loss_history=[],
        update_steps=0,
        window=window,
    )
    stages._save_update(tmp_path, {"lifecycle": lifecycle})
    deflated(tmp_path / "window.npz")
    deflated(tmp_path / "model.npz")
    out: dict = {}
    stages._load_update(tmp_path, result.spec, out)
    assert all(_same(got, want) for got, want in zip(out["lifecycle"].window, window))


def test_drift_trace(result, deflated, tmp_path):
    test = result.split.test
    trace = DriftTrace(
        w_idx=test.w_idx,
        p_idx=test.p_idx,
        interferers=test.interferers,
        runtime=test.runtime,
        phase=np.arange(test.n_observations) * 2 // test.n_observations,
        multipliers=(1.0, 1.5),
    )
    path = tmp_path / "trace.npz"
    trace.save(path)
    deflated(path)
    loaded = DriftTrace.load(path)
    for name in ("w_idx", "p_idx", "interferers", "runtime", "phase"):
        assert _same(getattr(loaded, name), getattr(trace, name))
    assert loaded.multipliers == trace.multipliers
