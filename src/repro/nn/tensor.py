"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the computational substrate for the whole reproduction: the
paper implements Pitot in JAX, which is unavailable offline, so we provide a
small but complete autograd engine in vectorized NumPy. The design follows
the usual tape-based approach: every operation records a closure that
propagates the upstream gradient to its inputs; :meth:`Tensor.backward` runs
the closures in reverse topological order.

All operations support full NumPy broadcasting. Gradients flowing into a
broadcast operand are summed over the broadcast axes (``_unbroadcast``), so
shapes of ``tensor.grad`` always match ``tensor.data``.

float64 is the default dtype: the models in this reproduction are ~1e5
parameters, so memory is not a concern and float64 keeps the
numerical-gradient tests tight. The :class:`default_dtype` context switches
new tensors (and therefore whole training runs) to another float dtype —
the trainer's optional float32 path uses it for the 2-2.5x BLAS/tanh
throughput win on CPU.

Two mechanisms keep the training hot loop lean:

* :class:`no_grad` disables graph construction entirely — ops executed
  inside the context produce plain value tensors with no tape, which is
  what validation/serving forwards want.
* Backward closures hand freshly-computed gradient arrays to
  ``_accumulate(..., own=True)``; the first accumulation into a tensor
  then *adopts* the array as its gradient buffer instead of copying it,
  and later accumulations add in place. Only closures that forward a view
  of the upstream gradient (pure shape ops, concatenate slices) still pay
  a defensive copy.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Sequence

import numpy as np

Array = np.ndarray

#: Anything `np.asarray` accepts: scalars, sequences, arrays, Tensors.
TensorLike = Any

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "where",
    "maximum",
    "minimum",
    "no_grad",
    "is_grad_enabled",
    "default_dtype",
    "get_default_dtype",
]

#: Global autograd switch; flipped by :class:`no_grad`.
_GRAD_ENABLED: bool = True

#: Dtype given to newly-created tensors; flipped by :class:`default_dtype`.
_DEFAULT_DTYPE: np.dtype = np.dtype(np.float64)

#: Monotone creation-sequence counter. Every tensor is stamped with the
#: next value; :meth:`Tensor.backward` runs closures in *descending* stamp
#: order (creation order is a valid topological order, parents always
#: precede children), which makes gradient-accumulation order a
#: deterministic function of graph construction — so two graphs built by
#: the same op sequence (a fused kernel and the primitive composition it
#: replaces) accumulate shared-parent gradients in the same order.
_SEQ: int = 0


def get_default_dtype() -> np.dtype:
    """Dtype assigned to tensors created outside a ``default_dtype``."""
    return _DEFAULT_DTYPE


class default_dtype:
    """Context manager that switches the dtype of newly-created tensors.

    Re-entrant and exception-safe, mirroring :class:`no_grad`. Only float
    dtypes make sense for autograd; the constructor rejects others.
    """

    def __init__(self, dtype: Any) -> None:
        dt = np.dtype(dtype)
        if dt.kind != "f":
            raise TypeError(f"default_dtype requires a float dtype, got {dt}")
        self._dtype = dt
        self._previous: list[np.dtype] = []

    def __enter__(self) -> "default_dtype":
        global _DEFAULT_DTYPE
        self._previous.append(_DEFAULT_DTYPE)
        _DEFAULT_DTYPE = self._dtype
        return self

    def __exit__(self, *exc: object) -> bool:
        global _DEFAULT_DTYPE
        _DEFAULT_DTYPE = self._previous.pop()
        return False


def is_grad_enabled() -> bool:
    """Whether operations currently record the autograd tape."""
    return _GRAD_ENABLED


class no_grad:
    """Context manager / decorator that disables gradient tracking.

    Inside the context every operation produces a constant tensor
    (``requires_grad=False``, no parents, no backward closure), so large
    inference forwards — validation sweeps, embedding snapshots, serving —
    skip tape construction and gradient-buffer allocation entirely.
    Re-entrant and exception-safe; the previous state is restored on exit
    (a stack, so one instance can be nested or reused).
    """

    def __init__(self) -> None:
        self._previous: list[bool] = []

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous.append(_GRAD_ENABLED)
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc: object) -> bool:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous.pop()
        return False

    def __call__(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with no_grad():
                return fn(*args, **kwargs)

        return wrapper


def _is_basic_index(index: Any) -> bool:
    """True when ``index`` uses only basic (non-fancy) indexing."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(
        isinstance(p, (int, np.integer, slice, type(None), type(Ellipsis)))
        for p in parts
    )


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` over axes that were broadcast from ``shape``.

    NumPy broadcasting aligns trailing dimensions; leading axes that do not
    exist in ``shape`` are summed away, and axes of size one in ``shape``
    that were stretched are summed with ``keepdims``.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched size-1 axes.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with reverse-mode gradient support.

    Parameters
    ----------
    data:
        Array-like payload; converted to an ``ndarray`` of the ambient
        default dtype (float64 unless inside :class:`default_dtype`).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_seq")

    def __init__(
        self,
        data: TensorLike,
        requires_grad: bool = False,
        _prev: tuple["Tensor", ...] = (),
    ) -> None:
        global _SEQ
        self.data: Array = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[Array], None] | None = None
        self._prev: tuple[Tensor, ...] = _prev
        _SEQ += 1
        self._seq: int = _SEQ

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def numpy(self) -> Array:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single element, got {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Graph bookkeeping
    # ------------------------------------------------------------------
    def _accumulate(self, grad: Array, own: bool = False) -> None:
        """Add ``grad`` into ``self.grad`` (in place after the first call).

        ``own=True`` is a promise from the caller that ``grad`` is a
        freshly-computed array (or a view of one) referenced nowhere else;
        the first accumulation then adopts it as the gradient buffer
        instead of copying. Without the flag the upstream array may be a
        shared view (reshape/transpose backward), so a copy is taken.
        """
        if self.grad is None:
            if grad.shape != self.data.shape:
                # Seeding with a broadcastable gradient (user-provided).
                self.grad = np.broadcast_to(grad, self.data.shape).astype(
                    self.data.dtype
                )
            elif own and grad.dtype == self.data.dtype:
                self.grad = grad
            else:
                self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    @staticmethod
    def _make(
        data: Array,
        parents: tuple["Tensor", ...],
        backward: Callable[[Array], None],
    ) -> "Tensor":
        """Build an op-output tensor."""
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _prev=parents if requires else ())
        if requires:
            out._backward = backward
        return out

    def backward(self, grad: Array | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (for scalar losses this is the usual
        seed). Gradients accumulate into ``.grad`` of every reachable
        tensor with ``requires_grad=True``.
        """
        if grad is None:
            grad, seed_owned = np.ones_like(self.data), True
        else:
            grad, seed_owned = np.asarray(grad, dtype=self.data.dtype), False

        # Collect the reachable subgraph (iterative, avoiding recursion
        # limits on deep MLP graphs), then run closures in *descending
        # creation order*. Creation order is a valid topological order —
        # parents always exist before children — and unlike DFS post-order
        # it does not depend on traversal tie-breaking, so the
        # gradient-accumulation order (bit-significant for nodes with 3+
        # consumers) is a function of graph construction alone.
        reachable: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tensor] = [self]
        while stack:
            node = stack.pop()
            if id(node) in visited:
                continue
            visited.add(id(node))
            reachable.append(node)
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append(parent)
        reachable.sort(key=lambda t: t._seq, reverse=True)

        self._accumulate(grad, own=seed_owned)
        for node in reachable:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data + other.data

        def backward(g: Array) -> None:
            if self.requires_grad:
                gs = _unbroadcast(g, self.shape)
                # `gs is g` when no broadcast happened: the upstream
                # buffer is shared, so only summed results are adopted.
                self._accumulate(gs, own=gs is not g)
            if other.requires_grad:
                go = _unbroadcast(g, other.shape)
                other._accumulate(go, own=go is not g)

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(-g, own=True)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: TensorLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data * other.data

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape), own=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape), own=True)

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data / other.data

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape), own=True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / other.data**2, other.shape),
                    own=True,
                )

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor ** only supports scalar exponents")
        data = self.data**exponent

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1), own=True)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix products
    # ------------------------------------------------------------------
    def __matmul__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data
        data = a @ b

        def backward(g: Array) -> None:
            # Promote 1-D operands to matrices so one pair of formulas
            # covers every case, then unbroadcast back down.
            a2 = a[None, :] if a.ndim == 1 else a
            b2 = b[:, None] if b.ndim == 1 else b
            g2 = np.asarray(g)
            if a.ndim == 1:
                g2 = np.expand_dims(g2, -2)
            if b.ndim == 1:
                g2 = np.expand_dims(g2, -1)
            if self.requires_grad:
                ga = g2 @ np.swapaxes(b2, -1, -2)
                self._accumulate(
                    _unbroadcast(ga, a2.shape).reshape(a.shape), own=True
                )
            if other.requires_grad:
                gb = np.swapaxes(a2, -1, -2) @ g2
                other._accumulate(
                    _unbroadcast(gb, b2.shape).reshape(b.shape), own=True
                )

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g * data, own=True)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g / self.data, own=True)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g * (1.0 - data**2), own=True)

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g * data * (1.0 - data), own=True)

        return Tensor._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g * np.sign(self.data), own=True)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(
        self,
        axis: int | tuple[int, ...] | None = None,
        keepdims: bool = False,
    ) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: Array) -> None:
            if not self.requires_grad:
                return
            grad = np.asarray(g)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.data.ndim for a in axes):
                    grad = np.expand_dims(grad, ax)
            self._accumulate(np.broadcast_to(grad, self.shape).copy(), own=True)

        return Tensor._make(data, (self,), backward)

    def mean(
        self,
        axis: int | tuple[int, ...] | None = None,
        keepdims: bool = False,
    ) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(
        self,
        axis: int | tuple[int, ...] | None = None,
        keepdims: bool = False,
    ) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: Array) -> None:
            if not self.requires_grad:
                return
            grad = np.asarray(g)
            expanded = data
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.data.ndim for a in axes):
                    grad = np.expand_dims(grad, ax)
                    expanded = np.expand_dims(expanded, ax)
            mask = self.data == expanded
            # Split gradient equally among ties (matches JAX behaviour).
            counts = mask.sum(
                axis=axis if axis is not None else None, keepdims=True
            )
            self._accumulate(np.where(mask, grad / counts, 0.0), own=True)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int | tuple[int, ...] | list[int]) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g.reshape(original))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes: int | tuple[int, ...] | list[int]) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g.transpose(inverse))

        return Tensor._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def squeeze(self, axis: int) -> "Tensor":
        data = self.data.squeeze(axis=axis)
        original = self.shape

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g.reshape(original))

        return Tensor._make(data, (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        data = np.expand_dims(self.data, axis)
        original = self.shape

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g.reshape(original))

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Indexing / gathers
    # ------------------------------------------------------------------
    def __getitem__(self, index: Any) -> "Tensor":
        data = self.data[index]
        basic = _is_basic_index(index)

        def backward(g: Array) -> None:
            if not self.requires_grad:
                return
            grad = np.zeros_like(self.data)
            if basic:
                # Basic indexing selects disjoint cells: plain += suffices
                # and is far faster than ufunc.at.
                grad[index] += g
            else:
                np.add.at(grad, index, g)
            self._accumulate(grad, own=True)

        return Tensor._make(data, (self,), backward)

    def take(self, indices: Array) -> "Tensor":
        """Gather rows along axis 0 (embedding lookup).

        The backward pass scatter-adds, so repeated indices accumulate —
        exactly what an embedding table needs. Accumulation uses a flat
        ``bincount`` instead of ``np.add.at``, which profiles ~10x faster
        for the (many small rows) gathers in Pitot's hot loop.
        """
        indices = np.asarray(indices, dtype=np.intp)
        data = self.data[indices]
        n_rows = self.data.shape[0]
        row_size = int(np.prod(self.data.shape[1:], dtype=np.intp)) if self.data.ndim > 1 else 1

        def backward(g: Array) -> None:
            if not self.requires_grad:
                return
            flat_idx = indices.ravel()
            g2 = np.ascontiguousarray(g).reshape(len(flat_idx), row_size)
            bins = flat_idx[:, None] * row_size + np.arange(row_size, dtype=np.intp)
            grad = np.bincount(
                bins.ravel(), weights=g2.ravel(), minlength=n_rows * row_size
            ).reshape(self.data.shape)
            if grad.dtype != self.data.dtype:  # bincount yields float64
                grad = grad.astype(self.data.dtype)
            self._accumulate(grad, own=True)

        return Tensor._make(data, (self,), backward)


def as_tensor(value: TensorLike) -> Tensor:
    """Coerce a value to :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.concatenate``."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: Array) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.stack``."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: Array) -> None:
        for k, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(g, k, axis=axis), own=True)

    return Tensor._make(data, tuple(tensors), backward)


def where(condition: TensorLike, a: TensorLike, b: TensorLike) -> Tensor:
    """Differentiable ``np.where``; ``condition`` is a constant mask."""
    cond = np.asarray(condition, dtype=bool)
    a, b = as_tensor(a), as_tensor(b)
    data = np.where(cond, a.data, b.data)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(np.where(cond, g, 0.0), a.shape), own=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.where(cond, 0.0, g), b.shape), own=True)

    return Tensor._make(data, (a, b), backward)


def maximum(a: TensorLike, b: TensorLike) -> Tensor:
    """Differentiable elementwise maximum; ties send gradient to ``a``."""
    a, b = as_tensor(a), as_tensor(b)
    mask = a.data >= b.data
    return where(mask, a, b)


def minimum(a: TensorLike, b: TensorLike) -> Tensor:
    """Differentiable elementwise minimum; ties send gradient to ``a``."""
    a, b = as_tensor(a), as_tensor(b)
    mask = a.data <= b.data
    return where(mask, a, b)
