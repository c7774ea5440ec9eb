"""Minimal float64 neural-network stack: tensors with reverse-mode
autodiff through hand-written nodes, every parameter laid out in one
vector, MLP blocks as plain array code, Adam and bit-exact serialization."""

from .mlp import (
    MlpSpec,
    ParameterStore,
    init_glorot,
    mlp_activations,
    mlp_gradients,
    mlp_layout,
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
    "init_adam",
    "init_glorot",
    "load_params",
    "logistic",
    "mlp_activations",
    "mlp_gradients",
    "mlp_layout",
    "optimizer_step",
    "record",
    "save_params",
    "tensor_table",
]
