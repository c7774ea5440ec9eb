"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: rank-0/1/2 arrays, a flat operation tape,
and exactly the operators the ranking model needs: a dense layer
(``x @ w + b`` as one node, gradients for all three in one backward), a
bare matmul, ReLU, an elementwise add, side-by-side columns and a block of
rows of a matrix, a row gather (``gather_rows`` hands each impression the
row of the distinct listing it shows) and a broadcast over a
:class:`Segments` layout (rows into searches, built once per batch or
dataset). A computation the engine has no operator for records itself as
one node through :func:`record`, handing back its own gradients; the
model's loss, from the heads' logits to the scalar, is one such node.
``logistic`` is the one sigmoid of the package, a plain array function.
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
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.values.shape != b.values.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor._wrap(a.values + b.values)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g, shared=True)
        if b.requires_grad:
            b._accumulate(g, shared=True)

    return _record(out, (a, b), backward_fn)


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


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map of a matrix, x[m, k] @ w[k, n] + b[n], as one node."""
    if (x.values.ndim != 2 or w.values.ndim != 2 or b.values.ndim != 1
            or x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]):
        raise ShapeError(f"dense: {x.shape} @ {w.shape} + {b.shape}")
    out = x.values @ w.values
    out += b.values

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(g @ w.values.T)
        if w.requires_grad:
            w._accumulate(x.values.T @ g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return _record(Tensor._wrap(out), (x, w, b), backward_fn)


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


def rows(x: Tensor, block: slice) -> Tensor:
    """A block of a matrix's rows, ``x.values[block]``, as a new matrix."""
    if (not isinstance(block, slice) or x.values.ndim != 2
            or block.step is not None
            or not 0 <= block.start < block.stop <= x.shape[0]):
        raise ShapeError(f"rows {block!r} out of range for shape {x.shape}")
    out = Tensor._wrap(x.values[block].copy())

    def backward_fn(g):
        if x.requires_grad:
            # Only the block is touched: write it into the buffer in place.
            if x.grad is None:
                x.grad = np.zeros_like(x.values)
                x.grad[block] = g
            else:
                x.grad[block] += g

    return _record(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(x: Tensor) -> Tensor:
    mask = x.values > 0.0
    out = Tensor._wrap(np.maximum(x.values, 0.0))

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return _record(out, (x,), backward_fn)


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
# row gathers and segment broadcasts


def gather_rows(x: Tensor, index) -> Tensor:
    """Rows of a matrix by index: out[i] = x[index[i]]. An index may
    repeat a row or leave one out; the backward pass adds each output
    row's gradient back into the row it came from, in index order."""
    index = np.asarray(index, dtype=np.int64)
    if x.values.ndim != 2 or index.ndim != 1:
        raise ShapeError(f"gather_rows: rows {index.shape} of {x.shape}")
    if index.size and (index.min() < 0 or index.max() >= len(x.values)):
        raise ShapeError(f"gather_rows: index out of range for "
                         f"{len(x.values)} rows")
    out = Tensor._wrap(np.take(x.values, index, axis=0))

    def backward_fn(g):
        if x.requires_grad:
            n, k = x.shape
            flat = (index[:, None] * k + np.arange(k)).ravel()
            x._accumulate(np.bincount(flat, weights=g.ravel(),
                                      minlength=n * k).reshape(n, k))

    return _record(out, (x,), backward_fn)


@dataclass(frozen=True, eq=False, init=False)
class Segments:
    """A layout of rows into contiguous segments, such as impressions into
    searches, built once from the segment sizes: segment ``k`` owns rows
    ``starts[k]:starts[k + 1]`` and ``ids[i]`` is the segment of row ``i``.

    A size may be zero, since loaded data can hold an empty search or
    journey for validation to report; whatever reduces over every
    segment (the broadcast's backward pass, the model's listwise loss)
    refuses a layout that is not ``all_nonempty``.
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


def segment_broadcast(x: Tensor, segments: Segments) -> Tensor:
    """Each segment's row of ``x``, a vector or a matrix with one row per
    segment, handed to the segment's rows: out[i] = x[segments.ids[i]].

    The backward pass sums each segment's gradient rows, so it refuses a
    layout with an empty segment."""
    if x.values.ndim == 0 or len(x.values) != segments.n:
        raise ShapeError(f"segment_broadcast: shape {x.shape} for "
                         f"{segments.n} segments")
    out = Tensor._wrap(np.take(x.values, segments.ids, axis=0))

    def backward_fn(g):
        if x.requires_grad:
            if not segments.all_nonempty:
                raise ContractError("segment_broadcast backward: empty segment")
            x._accumulate(np.add.reduceat(g, segments.starts[:-1], axis=0))

    return _record(out, (x,), backward_fn)
