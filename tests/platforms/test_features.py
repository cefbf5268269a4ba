"""Platform feature encoding (App C.2)."""

import numpy as np
import pytest

from repro.platforms import (
    MICROARCHITECTURES,
    RUNTIMES,
    generate_platforms,
    platform_feature_matrix,
)


@pytest.fixture(scope="module")
def encoded():
    platforms = generate_platforms()
    feats, names = platform_feature_matrix(platforms)
    return platforms, feats, names


def test_shape_matches_names(encoded):
    platforms, feats, names = encoded
    assert feats.shape == (len(platforms), len(names))


def test_runtime_one_hot(encoded):
    platforms, feats, names = encoded
    cols = [i for i, n in enumerate(names) if n.startswith("runtime:")]
    assert len(cols) == len(RUNTIMES)
    assert np.allclose(feats[:, cols].sum(axis=1), 1.0)


def test_uarch_one_hot(encoded):
    platforms, feats, names = encoded
    cols = [i for i, n in enumerate(names) if n.startswith("uarch:")]
    assert len(cols) == len(MICROARCHITECTURES)
    assert np.allclose(feats[:, cols].sum(axis=1), 1.0)


def test_absent_cache_encodes_zero_with_indicator(encoded):
    platforms, feats, names = encoded
    l3_size = names.index("log_l3_size")
    l3_present = names.index("l3_present")
    for row, plat in enumerate(feats):
        platform = encoded[0][row]
        if platform.device.l3_kb is None:
            assert plat[l3_size] == 0.0 and plat[l3_present] == 0.0
        else:
            assert plat[l3_present] == 1.0
            assert plat[l3_size] == pytest.approx(np.log2(platform.device.l3_kb))


def test_same_device_differs_only_in_runtime_columns(encoded):
    platforms, feats, names = encoded
    runtime_cols = {i for i, n in enumerate(names) if n.startswith("runtime:")}
    # Find two platforms on the same device.
    by_device: dict[str, list[int]] = {}
    for idx, plat in enumerate(platforms):
        by_device.setdefault(plat.device.name, []).append(idx)
    pair = next(rows for rows in by_device.values() if len(rows) >= 2)
    a, b = feats[pair[0]], feats[pair[1]]
    for col in range(feats.shape[1]):
        if col in runtime_cols:
            continue
        assert a[col] == b[col]


def test_frequency_is_log_scaled(encoded):
    platforms, feats, names = encoded
    col = names.index("log_ghz")
    for row, plat in zip(feats, platforms):
        assert row[col] == pytest.approx(np.log2(plat.device.ghz))


def test_deterministic(encoded):
    platforms, feats, _ = encoded
    feats2, _ = platform_feature_matrix(platforms)
    assert np.array_equal(feats, feats2)
