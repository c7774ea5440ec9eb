"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: rank-0/1/2 arrays, a flat operation tape
and one way to record an operation, :func:`record`, which records a
computation as one node that hands back its own gradients. The ranking
model's training step, from its parameters to the scalar loss, is one such
node (``model.total_loss``): plain array code with a hand-written backward
pass. ``logistic`` is the one sigmoid of the package, a plain array
function, and a :class:`Segments` lays rows out into contiguous segments
(impressions into searches). Recording happens only while a :class:`Tape`
is active and at least one input requires a gradient, so inference-mode
forward passes carry no bookkeeping cost.

Gradient buffers are owned, never shared. The first gradient a tensor
receives becomes its buffer without a zero fill, so a node hands back
arrays computed for that one call; later gradients are added into the
buffer in place, so no two tensors may ever hold the same buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ContractError, ShapeError

_ACTIVE_TAPE: "Tape | None" = None


class Tensor:
    """A dense float64 array plus an optional accumulated gradient. One
    that does not require a gradient is a constant: labels, masks, data."""

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"tensors are rank 0..2, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ShapeError("input tensor contains NaN or Inf")
        self.values = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @classmethod
    def _wrap(cls, values: np.ndarray) -> "Tensor":
        # Internal results skip the finiteness check; divergence is caught
        # where losses are consumed.
        out = cls.__new__(cls)
        out.values = values
        out.grad = None
        out.requires_grad = False
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def _accumulate(self, g: np.ndarray) -> None:
        """Add ``g``, an array computed for this call alone, into this
        tensor's gradient buffer; the first gradient becomes the buffer."""
        if self.grad is None:
            # np.asarray keeps a 0-d gradient an array, not a numpy scalar
            self.grad = np.asarray(g)
        else:
            self.grad += g

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class Tape:
    """Ordered record of operations for one backward pass.

    Use as a context manager; nesting is rejected because a training run
    owns exactly one live tape at a time.
    """

    __slots__ = ("_nodes",)

    def __init__(self):
        # one (output, inputs, backward_fn) per recorded operation
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def __len__(self) -> int:
        return len(self._nodes)


def _record(out: Tensor, inputs: tuple[Tensor, ...],
            backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    tape = _ACTIVE_TAPE
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._nodes.append((out, inputs, backward_fn))
    return out


def record(values: np.ndarray, inputs: tuple[Tensor, ...],
           gradients: Callable[[np.ndarray], tuple]) -> Tensor:
    """A tensor holding ``values``, recorded as one node whose backward
    pass is ``gradients``: given the output's gradient ``g``, it returns
    one gradient per input, in order, or None for an input it leaves
    alone. Each returned array must be new, computed for this call alone,
    since it may become the input's gradient buffer."""
    def backward_fn(g):
        for t, grad in zip(inputs, gradients(g)):
            if t.requires_grad and grad is not None:
                t._accumulate(grad)

    return _record(Tensor._wrap(values), inputs, backward_fn)


def backward(tape: Tape, loss: Tensor) -> None:
    """Propagate d(loss)/d(x) to every tensor on the tape.

    ``loss`` must be a scalar. Tensors that require a gradient but sit on
    no path to the loss end up with an exact-zero gradient rather than
    ``None``, so downstream consumers can treat them uniformly.
    """
    if loss.values.shape != ():
        raise ContractError(f"loss must be a scalar, got shape {loss.values.shape}")
    loss._accumulate(np.ones((), dtype=np.float64))
    for out, _, backward_fn in reversed(tape._nodes):
        if out.grad is not None:
            backward_fn(out.grad)
    for _, inputs, _ in tape._nodes:
        for t in inputs:
            if t.requires_grad and t.grad is None:
                t.grad = np.zeros_like(t.values)


# ---------------------------------------------------------------------------
# the sigmoid


def logistic(x) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-x)) of a float64 array, as
    ``exp(min(x, 0)) / (1 + exp(-|x|))``: both exponents are at most 0,
    so neither overflows, and no branch is picked per element."""
    x = np.asarray(x, dtype=np.float64)
    # out= keeps a 0-d input's results arrays, never numpy scalars
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    out = np.minimum(x, 0.0, out=np.empty_like(x))
    np.exp(out, out=out)
    out /= e
    return out


# ---------------------------------------------------------------------------
# segment layouts


@dataclass(frozen=True, eq=False, init=False)
class Segments:
    """A layout of rows into contiguous segments, such as impressions into
    searches, built once from the segment sizes: segment ``k`` owns rows
    ``starts[k]:starts[k + 1]`` and ``ids[i]`` is the segment of row ``i``.

    A size may be zero, since loaded data can hold an empty search or
    journey for validation to report; whatever reduces over every
    segment (the model's listwise loss) refuses a layout that is not
    ``all_nonempty``.
    """

    starts: np.ndarray                # [n + 1] int64 row offsets, read-only
    ids: np.ndarray                   # [n_rows] int64 ascending, read-only
    sizes: np.ndarray                 # [n] int64, read-only
    n: int
    all_nonempty: bool

    def __init__(self, sizes):
        sizes = np.asarray(sizes)
        if (sizes.ndim != 1 or (sizes.size and sizes.dtype.kind not in "iu")
                or (sizes < 0).any()):
            raise ContractError("segment sizes must be a vector of "
                                "non-negative integers")
        sizes = sizes.astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(sizes)))
        ids = np.repeat(np.arange(len(sizes)), sizes)
        starts.flags.writeable = ids.flags.writeable = False
        sizes.flags.writeable = False
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "n", len(sizes))
        object.__setattr__(self, "all_nonempty", bool((sizes > 0).all()))

    @property
    def n_rows(self) -> int:
        return int(self.starts[-1])
