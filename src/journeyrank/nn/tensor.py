"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: rank-0/1/2 arrays, a flat operation tape,
and exactly the operators the ranking model needs (dense layers, stable
logistic primitives, and reductions and broadcasts over a :class:`Segments`
layout of rows into searches, built once per batch or dataset).
Recording happens only while a :class:`Tape` is active and at least one
operand requires a gradient, so inference-mode forward passes carry no
bookkeeping cost.

Gradient buffers are owned, never shared. The first gradient a tensor
receives becomes its buffer without a zero fill: an array computed for that
one call is adopted as it is, and one that is also held elsewhere (an
output's gradient passed straight through, or a view into it) is copied
first. Later gradients are added into the buffer in place, so no two
tensors may ever hold the same buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ContractError, ShapeError

_ACTIVE_TAPE: "Tape | None" = None


class Tensor:
    """A dense float64 array plus an optional accumulated gradient."""

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

    def _accumulate(self, g: np.ndarray, shared: bool = False) -> None:
        """Add ``g`` into this tensor's gradient buffer.

        The first gradient becomes the buffer. Callers pass ``shared=True``
        when ``g`` is held elsewhere too (another tensor's buffer, or a view
        into one); it is then copied, because the buffer is added into in
        place later. An array the caller computed for this call alone is
        adopted as it is.
        """
        if self.grad is None:
            # np.asarray keeps a 0-d gradient an array, not a numpy scalar
            self.grad = np.array(g) if shared else np.asarray(g)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.values)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Arithmetic sugar. Python scalars are treated as constants.
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return shift(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return shift(self, -float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return total_sum(self)

    def mean(self):
        return total_mean(self)


class _Node:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output: Tensor, inputs: tuple[Tensor, ...],
                 backward_fn: Callable[[np.ndarray], None]):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of operations for one backward pass.

    Use as a context manager; nesting is rejected because a training run
    owns exactly one live tape at a time.
    """

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes: list[_Node] = []

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
        tape._nodes.append(_Node(out, inputs, backward_fn))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Propagate d(loss)/d(x) to every tensor on the tape.

    ``loss`` must be a scalar. Tensors that require a gradient but sit on
    no path to the loss end up with an exact-zero gradient rather than
    ``None``, so downstream consumers can treat them uniformly.
    """
    if loss.values.shape != ():
        raise ContractError(f"loss must be a scalar, got shape {loss.values.shape}")
    loss._accumulate(np.ones((), dtype=np.float64))
    for node in reversed(tape._nodes):
        g = node.output.grad
        if g is None:
            continue
        node.backward_fn(g)
    for node in tape._nodes:
        for t in node.inputs:
            if t.requires_grad and t.grad is None:
                t.grad = np.zeros_like(t.values)


def stop_gradient(t: Tensor) -> Tensor:
    """Identical values, but the backward pass treats it as a constant."""
    return Tensor._wrap(t.values)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.values.shape != b.values.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    out = Tensor._wrap(a.values + b.values)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g, shared=True)
        if b.requires_grad:
            b._accumulate(g, shared=True)

    return _record(out, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    out = Tensor._wrap(a.values - b.values)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g, shared=True)
        if b.requires_grad:
            b._accumulate(-g)

    return _record(out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    out = Tensor._wrap(a.values * b.values)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * b.values)
        if b.requires_grad:
            b._accumulate(g * a.values)

    return _record(out, (a, b), backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor._wrap(a.values * c)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * c)

    return _record(out, (a,), backward_fn)


def shift(a: Tensor, c: float) -> Tensor:
    out = Tensor._wrap(a.values + c)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g, shared=True)

    return _record(out, (a,), backward_fn)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError("matmul expects rank-2 operands")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out = Tensor._wrap(a.values @ b.values)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g @ b.values.T)
        if b.requires_grad:
            b._accumulate(a.values.T @ g)

    return _record(out, (a, b), backward_fn)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-broadcast bias: x[m, n] + b[n]."""
    if x.values.ndim != 2 or b.values.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias: {x.shape} + {b.shape}")
    out = Tensor._wrap(x.values + b.values)

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(g, shared=True)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return _record(out, (x, b), backward_fn)


def concat_cols(*xs: Tensor) -> Tensor:
    """Concatenation along the last axis: [m, ·] matrices side by side, or
    vectors end to end. Every operand has the same rank and, for
    matrices, the same row count."""
    if not xs or any(x.values.ndim == 0 or x.shape[:-1] != xs[0].shape[:-1]
                     for x in xs):
        raise ShapeError(f"concat_cols: {[x.shape for x in xs]}")
    ends = np.cumsum([x.shape[-1] for x in xs]).tolist()
    out = Tensor._wrap(np.concatenate([x.values for x in xs], axis=-1))

    def backward_fn(g):
        for x, lo, hi in zip(xs, [0] + ends, ends):
            if x.requires_grad:
                x._accumulate(g[..., lo:hi], shared=True)

    return _record(out, xs, backward_fn)


def column(x: Tensor, j: int | slice) -> Tensor:
    """Column j of a matrix as a vector, or, for a slice j, that block of
    columns as a matrix."""
    if x.values.ndim != 2:
        raise ShapeError("column expects a rank-2 tensor")
    n = x.shape[1]
    if isinstance(j, slice):
        if j.step is not None or not 0 <= j.start < j.stop <= n:
            raise ShapeError(f"columns {j} out of range for shape {x.shape}")
    elif not 0 <= j < n:
        raise ShapeError(f"column {j} out of range for shape {x.shape}")
    out = Tensor._wrap(x.values[:, j].copy())

    def backward_fn(g):
        if x.requires_grad:
            # Only columns j are touched: write them into the buffer in place.
            if x.grad is None:
                x.grad = np.zeros_like(x.values)
                x.grad[:, j] = g
            else:
                x.grad[:, j] += g

    return _record(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(x: Tensor) -> Tensor:
    out = Tensor._wrap(np.maximum(x.values, 0.0))

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(g * (x.values > 0.0))

    return _record(out, (x,), backward_fn)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.values)
    out = Tensor._wrap(t)

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(g * (1.0 - t * t))

    return _record(out, (x,), backward_fn)


def logistic(x) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-x)) of a float64 array.

    ``e = exp(-|x|)`` never overflows, and each element takes
    ``1 / (1 + e)`` for x >= 0 and ``e / (1 + e)`` otherwise. The exponent
    is picked with ``where`` rather than ``-abs`` so a NaN keeps its sign.
    """
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def log_sigmoid(x: Tensor) -> Tensor:
    """log(sigmoid(x)) = -log(1 + exp(-x)), stable for |x| up to 1e3 and beyond."""
    out = Tensor._wrap(-np.logaddexp(0.0, -x.values))

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(g * logistic(-x.values))

    return _record(out, (x,), backward_fn)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), the positive-constrained link used for coefficients."""
    out = Tensor._wrap(np.logaddexp(0.0, x.values))

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(g * logistic(x.values))

    return _record(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# gather / segment reductions (ranking losses operate per search segment)


def gather(x: Tensor, idx) -> Tensor:
    """Pick elements of a vector: out[i] = x[idx[i]], with 0 <= idx[i] < len(x)."""
    if x.values.ndim != 1:
        raise ShapeError("gather expects a rank-1 tensor")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("index arrays must be one-dimensional")
    if idx.size and idx.min() < 0:
        raise ShapeError("gather indices must be non-negative")
    out = Tensor._wrap(x.values[idx])

    def backward_fn(g):
        if x.requires_grad and idx.size:
            # bincount adds in index order, as np.add.at does
            x._accumulate(np.bincount(idx, weights=g, minlength=len(x.values)))

    return _record(out, (x,), backward_fn)


@dataclass(frozen=True, eq=False, init=False)
class Segments:
    """A layout of rows into contiguous segments, such as impressions into
    searches, built once from the segment sizes: segment ``k`` owns rows
    ``starts[k]:starts[k + 1]`` and ``ids[i]`` is the segment of row ``i``.

    A size may be zero, since loaded data can hold an empty search or
    journey for validation to report; the ops that reduce over every
    segment refuse a layout that is not ``all_nonempty``.
    """

    starts: np.ndarray                # [n + 1] int64 row offsets, read-only
    ids: np.ndarray                   # [n_rows] int64 ascending, read-only
    n: int
    all_nonempty: bool

    def __init__(self, sizes):
        sizes = np.asarray(sizes)
        if (sizes.ndim != 1 or (sizes.size and sizes.dtype.kind not in "iu")
                or np.any(sizes < 0)):
            raise ContractError("segment sizes must be a vector of "
                                "non-negative integers")
        sizes = sizes.astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(sizes)))
        ids = np.repeat(np.arange(len(sizes)), sizes)
        starts.flags.writeable = ids.flags.writeable = False
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "n", len(sizes))
        object.__setattr__(self, "all_nonempty", bool(np.all(sizes > 0)))

    @property
    def n_rows(self) -> int:
        return int(self.starts[-1])

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.starts)


def segment_logsumexp(x: Tensor, segments: Segments) -> Tensor:
    """Per-segment log-sum-exp of a vector laid out by ``segments``."""
    if x.values.ndim != 1 or len(x.values) != segments.n_rows:
        raise ShapeError(f"segment_logsumexp: shape {x.shape} for a layout "
                         f"of {segments.n_rows} rows")
    if segments.n == 0 or not segments.all_nonempty:
        raise ContractError("segment_logsumexp needs a segment, and a row "
                            "in every segment")
    seg = segments.ids
    starts = segments.starts[:-1]
    seg_max = np.maximum.reduceat(x.values, starts)
    shifted = np.exp(x.values - seg_max[seg])
    lse = np.log(np.add.reduceat(shifted, starts)) + seg_max
    out = Tensor._wrap(lse)

    def backward_fn(g):
        if x.requires_grad:
            # d lse_s / d x_i = softmax weight of i within its segment
            x._accumulate(g[seg] * np.exp(x.values - lse[seg]))

    return _record(out, (x,), backward_fn)


def segment_broadcast(x: Tensor, segments: Segments) -> Tensor:
    """Each segment's row of ``x``, a vector or a matrix with one row per
    segment, handed to the segment's rows: out[i] = x[segments.ids[i]].

    The backward pass sums each segment's gradient rows, so it refuses a
    layout with an empty segment."""
    if x.values.ndim == 0 or len(x.values) != segments.n:
        raise ShapeError(f"segment_broadcast: shape {x.shape} for "
                         f"{segments.n} segments")
    out = Tensor._wrap(x.values[segments.ids])

    def backward_fn(g):
        if x.requires_grad:
            if not segments.all_nonempty:
                raise ContractError("segment_broadcast backward: empty segment")
            x._accumulate(np.add.reduceat(g, segments.starts[:-1], axis=0))

    return _record(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# full reductions


def total_sum(x: Tensor) -> Tensor:
    out = Tensor._wrap(np.asarray(x.values.sum()))

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(np.full_like(x.values, float(g)))

    return _record(out, (x,), backward_fn)


def total_mean(x: Tensor) -> Tensor:
    n = x.values.size
    if n == 0:
        raise ContractError("mean of an empty tensor")
    out = Tensor._wrap(np.asarray(x.values.mean()))

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(np.full_like(x.values, float(g) / n))

    return _record(out, (x,), backward_fn)


def constant(values) -> Tensor:
    """A tensor that never requires a gradient (labels, masks, raw features)."""
    return Tensor(values, requires_grad=False)
