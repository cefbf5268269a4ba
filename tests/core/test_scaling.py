"""Linear scaling baseline (App B.1): convergence, recovery, invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LinearScalingBaseline
from reference_paths import ScanFillBaseline


def _planted_data(rng, nw=12, np_=8, noise=0.0):
    w_true = rng.normal(0.0, 2.0, nw)
    p_true = rng.normal(0.0, 2.0, np_)
    w_idx, p_idx = np.meshgrid(np.arange(nw), np.arange(np_), indexing="ij")
    w_idx, p_idx = w_idx.ravel(), p_idx.ravel()
    y = w_true[w_idx] + p_true[p_idx] + rng.normal(0.0, noise, len(w_idx))
    return w_idx, p_idx, y, w_true, p_true


class TestFit:
    def test_recovers_planted_model(self, rng):
        w_idx, p_idx, y, w_true, p_true = _planted_data(rng)
        model = LinearScalingBaseline(12, 8).fit(w_idx, p_idx, y)
        assert np.allclose(model.predict(w_idx, p_idx), y, atol=1e-6)

    def test_loss_history_monotone_nonincreasing(self, rng):
        w_idx, p_idx, y, _, _ = _planted_data(rng, noise=0.3)
        model = LinearScalingBaseline(12, 8).fit(w_idx, p_idx, y)
        hist = np.array(model.loss_history)
        assert len(hist) >= 2
        assert (np.diff(hist) <= 1e-12).all()

    def test_sparse_observations(self, rng):
        w_idx, p_idx, y, _, _ = _planted_data(rng)
        keep = rng.random(len(y)) < 0.4
        model = LinearScalingBaseline(12, 8).fit(
            w_idx[keep], p_idx[keep], y[keep], n_iterations=300, tol=1e-14
        )
        # Still predicts held-out cells (the model is identifiable when
        # the observation graph is connected); convergence is linear, so
        # allow a small residual.
        assert np.allclose(model.predict(w_idx, p_idx), y, atol=1e-3)

    def test_platform_params_centered(self, rng):
        w_idx, p_idx, y, _, _ = _planted_data(rng, noise=0.1)
        model = LinearScalingBaseline(12, 8).fit(w_idx, p_idx, y)
        assert abs(model.p_bar.mean()) < 1e-8

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            LinearScalingBaseline(3, 3).predict(np.array([0]), np.array([0]))


class TestFallbacks:
    def test_unseen_workload_uses_fallback_rows(self, rng):
        w_idx, p_idx, y, _, _ = _planted_data(rng)
        seen = w_idx != 5
        model = LinearScalingBaseline(12, 8)
        model.fit(
            w_idx[seen], p_idx[seen], y[seen],
            fallback=(w_idx, p_idx, y),
        )
        rows = w_idx == 5
        pred = model.predict(w_idx[rows], p_idx[rows])
        assert np.allclose(pred, y[rows], atol=1e-5)

    def test_unseen_entity_without_fallback_gets_mean(self, rng):
        w_idx, p_idx, y, _, _ = _planted_data(rng)
        seen = w_idx != 5
        model = LinearScalingBaseline(12, 8).fit(w_idx[seen], p_idx[seen], y[seen])
        assert np.isfinite(model.w_bar[5])
        assert model.w_bar[5] == pytest.approx(
            model.w_bar[[i for i in range(12) if i != 5]].mean()
        )

    def test_empty_fit_is_finite(self):
        model = LinearScalingBaseline(3, 3).fit(
            np.array([], dtype=int), np.array([], dtype=int), np.array([])
        )
        assert np.isfinite(model.w_bar).all()
        assert np.isfinite(model.p_bar).all()


class TestFillParity:
    """The grouped fill of unseen entities against the per-entity scan."""

    @pytest.mark.parametrize("seed", range(4))
    def test_fill_matches_scan_reference(self, seed):
        rng = np.random.default_rng(seed)
        n_workloads, n_platforms, n = 40, 12, 3000
        # The last 4 workloads and last 2 platforms have no rows at all
        # (population mean); workloads divisible by 5 and platform 3 have
        # interference rows only (filled from the fallback rows).
        w_idx = rng.integers(0, n_workloads - 4, n)
        p_idx = rng.integers(0, n_platforms - 2, n)
        y = rng.normal(0.0, 1.0, n) + 0.1 * w_idx - 0.2 * p_idx
        iso = (rng.random(n) < 0.4) & (w_idx % 5 != 0) & (p_idx != 3)

        def fit(cls):
            return cls(n_workloads, n_platforms).fit(
                w_idx[iso], p_idx[iso], y[iso], fallback=(w_idx, p_idx, y)
            )

        production, reference = fit(LinearScalingBaseline), fit(ScanFillBaseline)
        assert production.w_bar.tobytes() == reference.w_bar.tobytes()
        assert production.p_bar.tobytes() == reference.p_bar.tobytes()
        # Both fill rules ran: fallback-filled entities differ from the
        # population mean, and row-less ones equal it.
        mean_w = production.w_bar[: n_workloads - 4].mean()
        mean_p = production.p_bar[: n_platforms - 2].mean()
        assert np.all(production.w_bar[np.arange(0, n_workloads - 4, 5)] != mean_w)
        assert np.all(production.w_bar[n_workloads - 4 :] == mean_w)
        assert production.p_bar[3] != mean_p
        assert np.all(production.p_bar[n_platforms - 2 :] == mean_p)


class TestResidual:
    def test_residual_definition(self, rng):
        w_idx, p_idx, y, _, _ = _planted_data(rng, noise=0.2)
        model = LinearScalingBaseline(12, 8).fit(w_idx, p_idx, y)
        resid = model.residual(w_idx, p_idx, y)
        assert np.allclose(resid, y - model.predict(w_idx, p_idx))


@settings(max_examples=20, deadline=None)
@given(gamma=st.floats(0.1, 100.0), seed=st.integers(0, 1000))
def test_property_residual_scale_invariance(gamma, seed):
    """Eq. 3: scaling a workload by γ leaves its residual unchanged.

    A job consisting of γ repetitions shifts its baseline difficulty by
    log γ and its runtimes by log γ — the residual is invariant.
    """
    rng = np.random.default_rng(seed)
    w_idx, p_idx, y, _, _ = _planted_data(rng, noise=0.1)
    model = LinearScalingBaseline(12, 8).fit(w_idx, p_idx, y)

    scaled = y + np.log(gamma) * (w_idx == 0)
    model_scaled = LinearScalingBaseline(12, 8).fit(w_idx, p_idx, scaled)
    rows = w_idx == 0
    r1 = model.residual(w_idx[rows], p_idx[rows], y[rows])
    r2 = model_scaled.residual(w_idx[rows], p_idx[rows], scaled[rows])
    assert np.allclose(r1, r2, atol=1e-6)
