"""Fused, allocation-free kernels for the training hot path.

Each function here collapses a chain of primitive autograd ops into one
graph node whose forward and backward run entirely in preallocated
:class:`ScratchArena` buffers, so a same-shape step allocates nothing
for its tower layers. Every kernel is **bitwise identical** to the
primitive composition it replaces (same elementwise association order,
same GEMM calls, same accumulation order into shared parents) — the
equivalence suite in ``tests/core/test_engine_equivalence.py`` pins this.
"""

from __future__ import annotations

from typing import Any, cast

import numpy as np

from .functional import gelu as _gelu_primitive
from .module import Module
from .tensor import Array, Tensor

__all__ = [
    "ScratchArena",
    "fused_linear",
    "fused_mlp",
    "gelu_forward",
    "gelu_grad_local",
]


class ScratchArena:
    """Named reusable buffers: ``get(tag, shape, dtype)`` with realloc-on-
    shape-change semantics.

    Each tag owns exactly one live buffer, so memory is bounded by the
    number of distinct tags (one per fused-kernel operand), not by the
    number of distinct batch shapes seen. A graph built on a buffer keeps
    its reference; reallocating the tag for a new shape orphans the old
    buffer without touching that graph.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self.reallocations = 0

    def get(self, tag: str, shape: tuple[int, ...], dtype: Any) -> np.ndarray:
        dt = np.dtype(dtype)
        buf = self._buffers.get(tag)
        if buf is None or buf.shape != shape or buf.dtype != dt:
            if buf is not None:
                self.reallocations += 1
            buf = np.empty(shape, dtype=dt)
            self._buffers[tag] = buf
        return buf

    def clear(self) -> None:
        self._buffers.clear()

    def __len__(self) -> int:
        return len(self._buffers)


_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715
_GELU_K3 = 3.0 * _GELU_A


def gelu_forward(v: Array, out: Array, t: Array, s: Array) -> None:
    """tanh-approximation GELU, in place: ``out = 0.5 v (1 + tanh(u))``.

    ``t`` receives ``tanh(u)`` (needed by the backward pass); ``s`` is
    scratch. Elementwise association matches :func:`repro.nn.gelu`
    exactly: ``u = C * (v + a * ((v*v)*v))``, ``out = (0.5*v) * (1+t)``.
    """
    np.multiply(v, v, out=s)
    s *= v
    s *= _GELU_A
    s += v
    s *= _GELU_C
    np.tanh(s, out=t)
    np.multiply(v, 0.5, out=out)
    np.add(t, 1.0, out=s)
    out *= s


def gelu_grad_local(
    g: Array, v: Array, t: Array, out: Array, s: Array, r: Array
) -> None:
    """``out = g * dGELU/dv`` in place, matching :func:`repro.nn.gelu`.

    Association mirrors the primitive backward exactly:
    ``du = C * (1 + 3a * (v*v))`` and
    ``local = 0.5*(1+t) + ((0.5*v) * (1 - t*t)) * du``.
    """
    np.multiply(v, v, out=s)
    s *= _GELU_K3
    s += 1.0
    s *= _GELU_C  # s = du
    np.multiply(t, t, out=r)
    np.subtract(1.0, r, out=r)  # r = 1 - t^2
    np.multiply(v, 0.5, out=out)
    out *= r
    out *= s  # out = ((0.5 v)(1 - t^2)) du
    np.add(t, 1.0, out=r)
    r *= 0.5  # r = 0.5 (1 + t)
    out += r  # out = local  (F + A == A + F bitwise)
    out *= g  # g * local (commutative pair)


def fused_linear(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    arena: ScratchArena,
    tag: str,
    gelu: bool = False,
) -> Tensor:
    """``x @ W + b`` (optionally GELU-activated) as one arena-backed node.

    Replaces the ``matmul -> add -> gelu`` primitive chain of a tower
    layer. All intermediates — pre-activation, tanh cache, gradient
    scratch, parameter gradients — live in ``arena`` buffers keyed by
    ``tag``, so repeated same-shape steps allocate nothing.
    """
    xd, Wd, bd = x.data, weight.data, bias.data
    n, dout = xd.shape[0], Wd.shape[1]
    dt = xd.dtype
    h = arena.get(f"{tag}.h", (n, dout), dt)
    np.matmul(xd, Wd, out=h)
    h += bd
    if gelu:
        t = arena.get(f"{tag}.t", (n, dout), dt)
        s = arena.get(f"{tag}.s", (n, dout), dt)
        out_data = arena.get(f"{tag}.out", (n, dout), dt)
        gelu_forward(h, out_data, t, s)
    else:
        out_data = h

    def backward(g: Array) -> None:
        if gelu:
            dh = arena.get(f"{tag}.dh", (n, dout), dt)
            r = arena.get(f"{tag}.r", (n, dout), dt)
            gelu_grad_local(g, h, t, dh, s, r)
        else:
            dh = np.asarray(g)
        if bias.requires_grad:
            gb = arena.get(f"{tag}.gb", (dout,), dt)
            np.sum(dh, axis=0, out=gb)
            bias._accumulate(gb, own=True)
        if x.requires_grad:
            gx = arena.get(f"{tag}.gx", xd.shape, dt)
            np.matmul(dh, Wd.T, out=gx)
            x._accumulate(gx, own=True)
        if weight.requires_grad:
            gw = arena.get(f"{tag}.gw", Wd.shape, dt)
            np.matmul(xd.T, dh, out=gw)
            weight._accumulate(gw, own=True)

    return Tensor._make(out_data, (x, weight, bias), backward)


def fused_mlp(mlp: Module, x: Tensor, arena: ScratchArena, tag: str) -> Tensor:
    """Run an :class:`~repro.nn.MLP` through fused layer kernels.

    Falls back to the module's own forward when the hidden activation is
    not GELU (ablation configs) — correctness first, fusion when it
    applies.
    """
    if getattr(mlp, "activation", None) is not _gelu_primitive:
        return cast(Tensor, mlp(x))
    n_layers = int(getattr(mlp, "n_layers"))
    for idx in range(n_layers):
        layer = getattr(mlp, f"layer{idx}")
        x = fused_linear(
            x,
            layer.weight,
            layer.bias,
            arena,
            f"{tag}{idx}",
            gelu=idx < n_layers - 1,
        )
    return x
