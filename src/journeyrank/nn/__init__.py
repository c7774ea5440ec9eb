"""Minimal float64 neural-network stack: tensors with reverse-mode
autodiff, MLP blocks over a flat parameter store, Adam, and bit-exact
parameter serialization."""

from .mlp import (
    MlpSpec,
    ParameterStore,
    forward_mlp,
    init_mlp_params,
)
from .optim import AdamState, init_adam, optimizer_step
from .serialize import load_params, save_params, tensor_table
from .tensor import (
    Segments,
    Tape,
    Tensor,
    add,
    backward,
    concat_cols,
    dense,
    gather_rows,
    logistic,
    matmul,
    record,
    relu,
    rows,
    segment_broadcast,
)

__all__ = [
    "AdamState",
    "MlpSpec",
    "ParameterStore",
    "Segments",
    "Tape",
    "Tensor",
    "add",
    "backward",
    "concat_cols",
    "dense",
    "forward_mlp",
    "gather_rows",
    "init_adam",
    "init_mlp_params",
    "load_params",
    "logistic",
    "matmul",
    "optimizer_step",
    "record",
    "relu",
    "rows",
    "save_params",
    "segment_broadcast",
    "tensor_table",
]
