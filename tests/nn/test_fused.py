"""Fused kernels vs their primitive compositions — bitwise, both passes.

Every kernel in :mod:`repro.nn.fused` claims *bitwise* identity with the
primitive op chain it replaces (same association order, same GEMMs, same
accumulation into shared parents). These tests hold each kernel to that
claim on forward values AND gradients, pin the :class:`ScratchArena`
buffer semantics the kernels allocate from, and check that dropped
graphs free by refcount alone.
"""

import gc

import numpy as np
import pytest

from repro.core import (
    PitotConfig,
    PitotModel,
    PitotTrainer,
    plan_sparse_batch,
)
from repro.nn import (
    MLP,
    ScratchArena,
    Tensor,
    fused_linear,
    fused_mlp,
    gelu,
    relu,
)


def _leaf(rng, shape):
    """Two independent grad-enabled Tensors over identical data."""
    data = rng.standard_normal(shape)
    return (
        Tensor(data.copy(), requires_grad=True),
        Tensor(data.copy(), requires_grad=True),
    )


def _grads(*tensors):
    return [t.grad for t in tensors]


class TestScratchArena:
    def test_same_tag_same_shape_reuses_buffer(self):
        arena = ScratchArena()
        a = arena.get("h", (4, 4), np.float64)
        b = arena.get("h", (4, 4), np.float64)
        assert a is b
        assert arena.reallocations == 0
        assert len(arena) == 1

    def test_shape_or_dtype_change_reallocates(self):
        arena = ScratchArena()
        a = arena.get("h", (4, 4), np.float64)
        b = arena.get("h", (8, 4), np.float64)
        c = arena.get("h", (8, 4), np.float32)
        assert b is not a and c is not b
        assert arena.reallocations == 2
        assert len(arena) == 1  # one live buffer per tag

    def test_clear(self):
        arena = ScratchArena()
        arena.get("h", (2,), np.float64)
        arena.clear()
        assert len(arena) == 0


class TestFusedLinear:
    @pytest.mark.parametrize("use_gelu", [False, True], ids=["linear", "gelu"])
    def test_bitwise_forward_and_backward(self, rng, use_gelu):
        x1, x2 = _leaf(rng, (9, 5))
        w1, w2 = _leaf(rng, (5, 7))
        b1, b2 = _leaf(rng, (7,))

        fused = fused_linear(x1, w1, b1, ScratchArena(), "t", gelu=use_gelu)
        ref = x2 @ w2 + b2
        if use_gelu:
            ref = gelu(ref)
        assert np.array_equal(fused.data, ref.data)

        fused.sum().backward()
        ref.sum().backward()
        for got, want in zip(_grads(x1, w1, b1), _grads(x2, w2, b2)):
            assert np.array_equal(got, want)

    def test_arena_buffers_are_reused(self, rng):
        arena = ScratchArena()
        x, _ = _leaf(rng, (4, 3))
        w, _ = _leaf(rng, (3, 3))
        b, _ = _leaf(rng, (3,))
        first = fused_linear(x, w, b, arena, "t", gelu=True)
        second = fused_linear(x, w, b, arena, "t", gelu=True)
        assert second.data is first.data  # same arena buffer, not a copy
        assert arena.reallocations == 0


class TestFusedMLP:
    def test_matches_module_forward_and_grads(self, rng):
        mlp = MLP(6, (16, 16), 3, rng)
        x_data = rng.standard_normal((11, 6))

        x_ref = Tensor(x_data.copy(), requires_grad=True)
        ref = mlp(x_ref)
        ref.sum().backward()
        want = [np.array(p.grad) for p in mlp.parameters()]
        for p in mlp.parameters():
            p.grad = None

        x_fused = Tensor(x_data.copy(), requires_grad=True)
        fused = fused_mlp(mlp, x_fused, ScratchArena(), "t")
        assert np.array_equal(fused.data, ref.data)
        fused.sum().backward()
        for p, g in zip(mlp.parameters(), want):
            assert np.array_equal(p.grad, g)
        assert np.array_equal(x_fused.grad, x_ref.grad)

    def test_falls_back_on_non_gelu_activation(self, rng):
        mlp = MLP(4, (8,), 2, rng, activation=relu)
        x = Tensor(rng.standard_normal((5, 4)))
        out = fused_mlp(mlp, x, ScratchArena(), "t")
        assert np.array_equal(out.data, mlp(x).data)


def _primitive_graph():
    x = Tensor(np.ones(6), requires_grad=True)
    y = (x * 2.0 + 1.0).tanh()
    (y / 3.0).sum().backward()


def _fused_step_graph():
    """One dense and one batch-sparse production step (fused towers,
    interference term, pinball loss), each built, backpropagated and
    dropped inside ``PitotTrainer._fused_step``."""
    rng = np.random.default_rng(0)
    model = PitotModel(
        rng.standard_normal((6, 3)),
        rng.standard_normal((4, 2)),
        PitotConfig(hidden=(8,), embedding_dim=4, quantiles=(0.5, 0.9)),
        rng,
    )
    trainer = PitotTrainer(model)
    w_idx, p_idx = np.array([0, 1, 2, 5]), np.array([0, 3, 1, 1])
    interferers = np.array([[1, -1], [4, 2], [-1, -1], [0, 3]])
    targets, coeff = rng.standard_normal(4), np.full(4, 0.25)
    for plan in (None, plan_sparse_batch(w_idx, p_idx, interferers)):
        trainer._fused_step(w_idx, p_idx, interferers, plan, targets, coeff)


class TestGraphLifetime:
    @pytest.mark.parametrize(
        "build", [_primitive_graph, _fused_step_graph],
        ids=["primitive", "fused_step"],
    )
    def test_dropped_graph_leaves_no_cyclic_garbage(self, build):
        """Backward closures must not make graphs cyclic garbage.

        A closure that captured its own output tensor would cycle
        tensor -> closure -> tensor, so every dropped step graph would
        wait for the cyclic GC instead of freeing by refcount -- at fleet
        scale that backlog slows later fits in the same process by
        several x. Pin the invariant: after a graph is built,
        backpropagated and dropped, the collector finds nothing.
        """
        gc.collect()  # clean slate so the count below is ours alone
        build()
        assert gc.collect() == 0
