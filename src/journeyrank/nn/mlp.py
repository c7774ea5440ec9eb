"""Multi-layer perceptron blocks over a flat parameter store, as plain
array code with a hand-written backward pass.

Parameters live in a flat, name-keyed :class:`ParameterStore` rather than in
layer objects. That keeps serialization, optimizer state, and parameter
accounting trivial: everything is a (name, array) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, ShapeError
from . import tensor as T


@dataclass(frozen=True)
class MlpSpec:
    """Shape of one feed-forward block, with ReLU between its layers.

    ``hidden_dims=()`` degenerates to a single affine map, which is how
    the linear scoring heads are expressed.
    """

    input_dim: int
    hidden_dims: tuple[int, ...] = ()
    output_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(int(d) <= 0 for d in dims):
            raise ConfigError(f"all layer widths must be positive, got {dims}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        return list(zip(dims[:-1], dims[1:]))

    @property
    def n_params(self) -> int:
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in self.layer_dims)


class ParameterStore:
    """Insertion-ordered mapping from parameter name to trainable tensor."""

    def __init__(self):
        self._params: dict[str, T.Tensor] = {}
        self._flat: np.ndarray | None = None

    def add(self, name: str, values: np.ndarray) -> T.Tensor:
        if name in self._params:
            raise ConfigError(f"parameter {name!r} already registered")
        t = T.Tensor(values, requires_grad=True)
        self._params[name] = t
        self._flat = None
        return t

    def flat_values(self) -> np.ndarray:
        """Every parameter's values as one float64 vector, in insertion order.

        Each parameter's ``values`` is a view of this vector, so updating
        the vector in place updates every parameter. The first call after a
        parameter is added moves the values into a new vector; write to
        ``values`` in place from then on, never rebind it.
        """
        if self._flat is None:
            flat = np.empty(self.n_values)
            offset = 0
            for t in self._params.values():
                view = flat[offset:offset + t.size].reshape(t.shape)
                view[...] = t.values
                t.values = view
                offset += t.size
            self._flat = flat
        return self._flat

    def __getitem__(self, name: str) -> T.Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise ConfigError(f"unknown parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    @property
    def n_values(self) -> int:
        return sum(t.size for t in self._params.values())


def init_mlp_params(store: ParameterStore, prefix: str, spec: MlpSpec,
                    rng: np.random.Generator) -> None:
    """Register Glorot-uniform weights and zero biases for one block.

    Names follow ``{prefix}.w{i}`` / ``{prefix}.b{i}`` with layer index i
    starting at 0. Draw order is fixed by layer order, so one seeded
    generator reproduces the whole model bit for bit.
    """
    for i, (fan_in, fan_out) in enumerate(spec.layer_dims):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        store.add(f"{prefix}.w{i}", rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        store.add(f"{prefix}.b{i}", np.zeros(fan_out))


def mlp_activations(store: ParameterStore, prefix: str, spec: MlpSpec,
                    x: np.ndarray) -> list[np.ndarray]:
    """Apply the block to a ``[rows, input_dim]`` matrix, as plain array
    code: each layer's input, ``x`` first, then the block's output.

    ReLU sits between layers only; the final layer is affine so the block
    can emit unbounded logits. Each layer is ``x @ w`` plus ``b``, and the
    inputs are kept because :func:`mlp_gradients` reads them.
    """
    if x.ndim != 2:
        raise ShapeError(f"{prefix}: expected a rank-2 input, got shape {x.shape}")
    acts = [x]
    for i, (fan_in, _) in enumerate(spec.layer_dims):
        h = acts[-1]
        if i > 0:
            np.maximum(h, 0.0, out=h)
        if h.shape[1] != fan_in:
            raise ShapeError(
                f"{prefix}: layer {i} expects width {fan_in}, got {h.shape[1]}")
        out = h @ store[f"{prefix}.w{i}"].values
        out += store[f"{prefix}.b{i}"].values
        acts.append(out)
    return acts


def forward_mlp(store: ParameterStore, prefix: str, spec: MlpSpec,
                x: np.ndarray) -> np.ndarray:
    """The block's output for a ``[rows, input_dim]`` matrix."""
    return mlp_activations(store, prefix, spec, x)[-1]


def mlp_gradients(store: ParameterStore, prefix: str, spec: MlpSpec,
                  acts: list[np.ndarray], g: np.ndarray, input_grad: bool,
                  ) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """The backward pass of :func:`mlp_activations`: given ``acts`` and
    the gradient ``g`` of the block's output, one new gradient array per
    parameter, by name, and the input's gradient when ``input_grad`` asks
    for it, else None.

    Each layer gives ``g @ w.T`` to its input, ``x.T @ g`` to its weights
    and the column sums of ``g`` to its bias; a ReLU passes ``g`` times
    its input's mask, read from its output (positive exactly where its
    input is).
    """
    grads: dict[str, np.ndarray] = {}
    for i in range(len(spec.layer_dims) - 1, -1, -1):
        x = acts[i]
        d_x = (g @ store[f"{prefix}.w{i}"].values.T
               if i > 0 or input_grad else None)
        grads[f"{prefix}.w{i}"] = x.T @ g
        grads[f"{prefix}.b{i}"] = g.sum(axis=0)
        if i > 0:
            g = d_x * (x > 0.0)
    return grads, d_x
