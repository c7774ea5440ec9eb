"""Minimal float64 neural-network stack: tensors with reverse-mode
autodiff through hand-written nodes, MLP blocks over a flat parameter
store as plain array code, Adam, and bit-exact parameter serialization."""

from .mlp import (
    MlpSpec,
    ParameterStore,
    forward_mlp,
    init_mlp_params,
    mlp_activations,
    mlp_gradients,
)
from .optim import AdamState, init_adam, optimizer_step
from .serialize import load_params, save_params, tensor_table
from .tensor import (
    Segments,
    Tape,
    Tensor,
    backward,
    logistic,
    record,
)

__all__ = [
    "AdamState",
    "MlpSpec",
    "ParameterStore",
    "Segments",
    "Tape",
    "Tensor",
    "backward",
    "forward_mlp",
    "init_adam",
    "init_mlp_params",
    "load_params",
    "logistic",
    "mlp_activations",
    "mlp_gradients",
    "optimizer_step",
    "record",
    "save_params",
    "tensor_table",
]
