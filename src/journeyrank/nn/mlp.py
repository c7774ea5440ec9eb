"""Multi-layer perceptron blocks over one parameter vector, as plain
array code with a hand-written backward pass.

Parameters live in a :class:`ParameterStore` rather than in layer
objects: a layout of ``(name, shape)`` pairs over one float64 vector, each
name a view of its slice. A block's layout (:func:`mlp_layout`) names its
layers' weights and biases; its backward pass writes into the same slices
of one gradient vector, so Adam and serialization each handle one vector.
"""

from __future__ import annotations

import math
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


class ParameterStore:
    """Parameters laid out by ``layout``, ``(name, shape)`` pairs in
    order, over one float64 vector, zero without ``vector``: each
    ``store[name].values`` is a view of its slice. ``tensor`` is the
    vector as one tensor, which the training step's gradient, Adam and
    serialization read whole."""

    def __init__(self, layout, vector: np.ndarray | None = None):
        self.layout = [(name, tuple(shape)) for name, shape in layout]
        if any(d < 0 for _, shape in self.layout for d in shape):
            raise ConfigError(f"negative parameter shape in {self.layout}")
        self._spans, n = {}, 0
        for name, shape in self.layout:
            self._spans[name] = slice(n, n + math.prod(shape))
            n = self._spans[name].stop
        if n > np.iinfo(np.intp).max // 8:  # past what numpy can shape
            raise MemoryError(f"{n} parameters do not fit in 64-bit memory")
        self.tensor = T.Tensor(np.zeros(n) if vector is None else vector,
                               requires_grad=True)
        if self.tensor.shape != (n,):
            raise ConfigError(f"{n} parameter values, given a vector of "
                              f"shape {self.tensor.shape}")
        self._params = {name: T.Tensor(view, requires_grad=True) for name, view
                        in self.views(self.tensor.values).items()}
        if len(self._params) != len(self.layout):
            raise ConfigError("parameter names must be distinct")
        self._blocks: dict[str, tuple[MlpSpec, list[tuple]]] = {}

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's slice of ``vector``, a vector laid out as the
        store's (its values or its gradient), shaped and by name."""
        return {name: vector[self._spans[name]].reshape(shape)
                for name, shape in self.layout}

    def block(self, prefix: str, spec: MlpSpec) -> list[tuple]:
        """Each layer of the block ``prefix``: its weight and bias values,
        then their slices of the vector, looked up once per spec object."""
        found = self._blocks.get(prefix)
        if found is None or found[0] is not spec:
            names = [name for name, _ in mlp_layout(prefix, spec)]
            found = self._blocks[prefix] = (spec, [
                (self[w].values, self[b].values, self._spans[w],
                 self._spans[b]) for w, b in zip(names[::2], names[1::2])])
        return found[1]

    def __getitem__(self, name: str) -> T.Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise ConfigError(f"unknown parameter {name!r}") from None

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()


def mlp_layout(prefix: str, spec: MlpSpec) -> list[tuple[str, tuple]]:
    """One block's parameters, ``{prefix}.w{i}`` then ``{prefix}.b{i}``
    for each layer i from 0, as a :class:`ParameterStore` layout."""
    return [entry for i, (fan_in, fan_out) in enumerate(spec.layer_dims)
            for entry in ((f"{prefix}.w{i}", (fan_in, fan_out)),
                          (f"{prefix}.b{i}", (fan_out,)))]


def init_glorot(store: ParameterStore, rng: np.random.Generator) -> None:
    """Draw every weight matrix of ``store`` Glorot-uniform, in layout
    order, so one seeded generator reproduces the whole model bit for bit.
    The biases keep their values: zero in a new store."""
    for name, shape in store.layout:
        if len(shape) == 2:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            store[name].values[...] = rng.uniform(-limit, limit, size=shape)


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
    for i, (w, b, _, _) in enumerate(store.block(prefix, spec)):
        h = acts[-1]
        if i > 0:
            np.maximum(h, 0.0, out=h)
        if h.shape[1] != len(w):
            raise ShapeError(f"{prefix}: layer {i} expects width "
                             f"{len(w)}, got {h.shape[1]}")
        out = h @ w
        out += b
        acts.append(out)
    return acts


def mlp_gradients(store: ParameterStore, prefix: str, spec: MlpSpec,
                  acts: list[np.ndarray], g: np.ndarray, grad: np.ndarray,
                  input_grad: bool) -> np.ndarray | None:
    """The backward pass of :func:`mlp_activations`: given ``acts`` and
    the gradient ``g`` of the block's output, write each parameter's
    gradient into its slice of ``grad`` (laid out as the store) and return
    the input's gradient when ``input_grad`` asks for it, else None.

    Each layer gives ``g @ w.T`` to its input, ``x.T @ g`` to its weights
    and the column sums of ``g`` to its bias; a ReLU passes ``g`` times
    its input's mask, read from its output (positive exactly where its
    input is).
    """
    layers = store.block(prefix, spec)
    for i in range(len(layers) - 1, -1, -1):
        x = acts[i]
        w, _, w_at, b_at = layers[i]
        d_x = g @ w.T if i > 0 or input_grad else None
        np.matmul(x.T, g, out=grad[w_at].reshape(w.shape))
        g.sum(axis=0, out=grad[b_at])
        if i > 0:
            g = d_x * (x > 0.0)
    return d_x
