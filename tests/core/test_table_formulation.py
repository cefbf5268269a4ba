"""The two Eq. 9 formulations a training step can run.

``PitotModel.forward`` gathers each batch row's embeddings and runs
batched per-row products; ``PitotModel.forward_table`` scores every
(workload, head) × platform-vector pair in one table and picks entries
from it. Each dot product sums its terms in a different order, so the
two agree to rounding, not bitwise: these tests pin the forward output
and the gradients reaching ``W``, ``P``, ``V_s`` and ``V_g`` to a
tolerance, over the shapes and ablations a step can meet.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PitotConfig, PitotModel
from repro.nn import Tensor, default_dtype

#: float64: relative to the largest magnitude compared; rounding of r-term
#: dot products sits near 1e-15 of it.
F64_TOL = 1e-10
#: float32 runs both formulations in single precision.
F32_TOL = 1e-4

RANK = 6


def _model(heads, types, activation, mode):
    rng = np.random.default_rng(0)
    quantiles = None if heads == 1 else tuple(np.linspace(0.1, 0.9, heads))
    config = PitotConfig(
        embedding_dim=RANK,
        interference_types=types,
        hidden=(4,),
        quantiles=quantiles,
        interference_activation=activation,
        interference_mode=mode,
    )
    return PitotModel(
        rng.normal(size=(9, 3)), rng.normal(size=(5, 2)), config, rng
    )


def _leaves(rng, model, n_w, n_p):
    cfg = model.config
    s = cfg.interference_types
    W = Tensor(rng.normal(size=(n_w, cfg.n_heads, RANK)), requires_grad=True)
    P = Tensor(rng.normal(size=(n_p, RANK)), requires_grad=True)
    if not cfg.models_interference:
        return W, P, None, None
    VS = Tensor(rng.normal(size=(n_p, s, RANK)), requires_grad=True)
    VG = Tensor(rng.normal(size=(n_p, s, RANK)), requires_grad=True)
    return W, P, VS, VG


def _run(model, formulation, seed, n_w, n_p, w, p, interferers, weights):
    rng = np.random.default_rng(seed)
    embeddings = _leaves(rng, model, n_w, n_p)
    if formulation == "table":
        out = model.forward_table(w, p, interferers, embeddings)
    else:
        out = model.forward(w, p, interferers, embeddings=embeddings)
    (out * Tensor(weights)).sum().backward()
    # A leaf the step does not reach (V_s and V_g without an interference
    # term) keeps no gradient.
    return out.data, [None if t is None else t.grad for t in embeddings]


def _assert_close(a, b, tol):
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    np.testing.assert_allclose(a, b, rtol=tol, atol=tol * scale)


@st.composite
def steps(draw, interference_only=False):
    """One step's shape; ``interference_only`` keeps to steps where the
    interference term applies."""
    heads = draw(st.sampled_from([1, 8]))
    types = draw(st.sampled_from([1, 2] if interference_only else [0, 1, 2]))
    width = draw(st.sampled_from([1, 2, 3]))
    batch_kind = draw(st.sampled_from(
        ["mixed"] if interference_only else ["mixed", "padding", "isolation"]
    ))
    activation = draw(st.sampled_from(["leaky_relu", "relu", "identity"]))
    mode = draw(st.sampled_from(
        ["aware"] if interference_only else ["aware", "ignore", "discard"]
    ))
    batch = draw(st.integers(1, 40))
    n_w = draw(st.integers(1, 12))
    n_p = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**16))
    return heads, types, width, batch_kind, activation, mode, batch, n_w, n_p, seed


def _check(draw, dtype, tol):
    (heads, types, width, batch_kind, activation, mode,
     batch, n_w, n_p, seed) = draw
    model = _model(heads, types, activation, mode)
    rng = np.random.default_rng(seed)
    w = rng.integers(0, n_w, batch)
    p = rng.integers(0, n_p, batch)
    interferers = None
    if batch_kind != "isolation":
        interferers = np.full((batch, width), -1)
        if batch_kind == "mixed":
            cells = rng.random((batch, width)) < 0.6
            interferers[cells] = rng.integers(0, n_w, int(cells.sum()))
    weights = rng.normal(size=(batch, heads))
    with default_dtype(dtype):
        table = _run(model, "table", seed + 1, n_w, n_p, w, p,
                     interferers, weights)
        gather = _run(model, "gather", seed + 1, n_w, n_p, w, p,
                      interferers, weights)
    assert table[0].dtype == np.dtype(dtype)
    _assert_close(table[0], gather[0], tol)
    for g_table, g_gather in zip(table[1], gather[1], strict=True):
        assert (g_table is None) == (g_gather is None)
        if g_table is not None:
            assert g_table.dtype == g_gather.dtype == np.dtype(dtype)
            _assert_close(g_table, g_gather, tol)


class TestTableMatchesGather:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(draw=steps())
    def test_float64(self, draw):
        _check(draw, "float64", F64_TOL)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(draw=steps(interference_only=True))
    def test_float32(self, draw):
        _check(draw, "float32", F32_TOL)

    def test_paper_step_shape(self):
        # One draw at a step's real shape: 8 heads, s = 2, K = 3.
        _check((8, 2, 3, "mixed", "leaky_relu", "aware", 512, 60, 35, 11),
               "float64", F64_TOL)
