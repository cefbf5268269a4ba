"""Vectorized NumPy autograd + neural-network substrate.

The paper implements Pitot in JAX; this subpackage provides the equivalent
machinery offline: a tape-based reverse-mode :class:`~repro.nn.tensor.Tensor`,
module containers, Pitot's layers (GELU MLP towers, embedding tables), the
paper's losses (log-space squared error, pinball), and the AdaMax optimizer
used for all experiments.
"""

from .functional import (
    ACTIVATIONS,
    absolute_error,
    gelu,
    identity,
    leaky_relu,
    logsumexp,
    pinball_loss,
    relu,
    softmax,
    softplus,
    squared_error,
)
from .fused import ScratchArena, fused_linear, fused_mlp
from .gradcheck import check_gradients, numerical_gradient
from .layers import MLP, EmbeddingTable, Linear
from .module import Module, Parameter
from .optim import Adam, AdaMax, Optimizer, SGD
from .tensor import (
    Tensor,
    as_tensor,
    concatenate,
    default_dtype,
    get_default_dtype,
    is_grad_enabled,
    maximum,
    minimum,
    no_grad,
    stack,
    where,
)

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
    "ScratchArena",
    "fused_linear",
    "fused_mlp",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "EmbeddingTable",
    "Optimizer",
    "SGD",
    "Adam",
    "AdaMax",
    "relu",
    "leaky_relu",
    "gelu",
    "identity",
    "softplus",
    "softmax",
    "logsumexp",
    "squared_error",
    "absolute_error",
    "pinball_loss",
    "ACTIVATIONS",
    "check_gradients",
    "numerical_gradient",
]
