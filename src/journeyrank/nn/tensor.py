"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: rank-0/1/2 arrays, a flat operation tape,
and exactly the operators the ranking model needs: a dense layer
(``x @ w + b`` as one node, gradients for all three in one backward), a
bare matmul, stable logistic primitives, row and column blocks and
running sums of a matrix, and reductions and broadcasts over a
:class:`Segments` layout (rows into searches, built once per batch or
dataset).
The model keeps its per-task values as ``[rows, tasks]`` matrices, one
column per task, so each operator runs once for all the tasks; ``gather``
picks (row, task) entries by flat row-major index, and ``gather_rows``
hands each impression the row of the distinct listing it shows.
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


def _block(x: Tensor, index) -> Tensor:
    """``x.values[index]``, a block of rows or columns, as a new array."""
    out = Tensor._wrap(x.values[index].copy())

    def backward_fn(g):
        if x.requires_grad:
            # Only the block is touched: write it into the buffer in place.
            if x.grad is None:
                x.grad = np.zeros_like(x.values)
                x.grad[index] = g
            else:
                x.grad[index] += g

    return _record(out, (x,), backward_fn)


def _check_block(x: Tensor, j: int | slice, axis: int, what: str) -> None:
    lo, hi = (j.start, j.stop) if isinstance(j, slice) else (j, j + 1)
    if (x.values.ndim != 2 or getattr(j, "step", None) is not None
            or not 0 <= lo < hi <= x.shape[axis]):
        raise ShapeError(f"{what} {j} out of range for shape {x.shape}")


def column(x: Tensor, j: int | slice) -> Tensor:
    """Column j of a matrix as a vector, or, for a slice j, that block of
    columns as a matrix."""
    _check_block(x, j, 1, "columns")
    return _block(x, (slice(None), j))


def rows(x: Tensor, block: slice) -> Tensor:
    """A block of a matrix's rows as a matrix."""
    if not isinstance(block, slice):
        raise ShapeError(f"rows takes a slice, got {block!r}")
    _check_block(x, block, 0, "rows")
    return _block(x, block)


def cumsum(x: Tensor) -> Tensor:
    """Running sum along each row of a matrix, added left to right one
    column at a time: on a few columns that is faster than ``np.cumsum``
    along the rows, with the same bits."""
    if x.values.ndim != 2 or x.shape[1] == 0:
        raise ShapeError(f"cumsum expects a matrix with columns, got {x.shape}")
    out = x.values.copy()
    for j in range(1, out.shape[1]):
        out[:, j] += out[:, j - 1]

    def backward_fn(g):
        if x.requires_grad:
            # column j feeds every running sum from j on
            gx = g.copy()
            for j in range(gx.shape[1] - 2, -1, -1):
                gx[:, j] += gx[:, j + 1]
            x._accumulate(gx)

    return _record(Tensor._wrap(out), (x,), backward_fn)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(x: Tensor) -> Tensor:
    mask = x.values > 0.0
    out = Tensor._wrap(np.maximum(x.values, 0.0))

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return _record(out, (x,), backward_fn)


def _exp_neg_abs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``pos = x >= 0`` and ``e = exp(-|x|)``, which never overflows. The
    exponent is picked with ``where`` rather than ``-abs`` so a NaN keeps
    its sign."""
    pos = x >= 0
    return pos, np.exp(np.where(pos, -x, x))


def _logistic_of_parts(pos: np.ndarray, e: np.ndarray) -> np.ndarray:
    """logistic(x) from :func:`_exp_neg_abs` of x: ``1 / (1 + e)`` where
    x >= 0 and ``e / (1 + e)`` elsewhere, with one division."""
    out = np.where(pos, 1.0, e)
    out /= 1.0 + e
    return out


def logistic(x) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-x)) of a float64 array."""
    return _logistic_of_parts(*_exp_neg_abs(np.asarray(x, dtype=np.float64)))


def log_sigmoid(x: Tensor) -> Tensor:
    """log(sigmoid(x)) as ``min(x, 0) - log1p(exp(-|x|))``, stable for
    |x| up to 1e3 and beyond. The backward pass reuses the exponential:
    its slope is exactly ``logistic(-x)``."""
    # _exp_neg_abs(-x) without negating x twice
    neg = x.values <= 0
    e = np.exp(np.where(neg, x.values, -x.values))
    out = np.minimum(x.values, 0.0)
    out -= np.log1p(e)

    def backward_fn(g):
        if x.requires_grad:
            slope = _logistic_of_parts(neg, e)
            x._accumulate(np.multiply(g, slope, out=slope))

    return _record(Tensor._wrap(out), (x,), backward_fn)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) as ``max(x, 0) + log1p(exp(-|x|))``, the
    positive-constrained link used for coefficients. The backward pass
    reuses the exponential: its slope is exactly ``logistic(x)``."""
    pos, e = _exp_neg_abs(x.values)
    out = np.maximum(x.values, 0.0)
    out += np.log1p(e)

    def backward_fn(g):
        if x.requires_grad:
            slope = _logistic_of_parts(pos, e)
            x._accumulate(np.multiply(g, slope, out=slope))

    return _record(Tensor._wrap(out), (x,), backward_fn)


# ---------------------------------------------------------------------------
# gather / segment reductions (ranking losses operate per search segment)


def gather(x: Tensor, idx) -> Tensor:
    """Pick elements of a vector or matrix by flat row-major index (entry
    (r, c) is ``r * n_cols + c``): out[i] = x.ravel()[idx[i]]."""
    if x.values.ndim == 0:
        raise ShapeError("gather expects a vector or a matrix")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("index arrays must be one-dimensional")
    if idx.size and idx.min() < 0:
        raise ShapeError("gather indices must be non-negative")
    out = Tensor._wrap(x.values.reshape(-1)[idx])

    def backward_fn(g):
        if x.requires_grad and idx.size:
            # bincount adds in index order, as np.add.at does
            x._accumulate(np.bincount(idx, weights=g, minlength=x.size)
                          .reshape(x.shape))

    return _record(out, (x,), backward_fn)


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
    """Per-segment log-sum-exp of a vector, or of each column of a
    ``[rows, k]`` matrix, laid out by ``segments``: one row per segment."""
    if x.values.ndim == 0 or len(x.values) != segments.n_rows:
        raise ShapeError(f"segment_logsumexp: shape {x.shape} for a layout "
                         f"of {segments.n_rows} rows")
    if segments.n == 0 or not segments.all_nonempty:
        raise ContractError("segment_logsumexp needs a segment, and a row "
                            "in every segment")
    seg = segments.ids
    starts = segments.starts[:-1]
    seg_max = np.maximum.reduceat(x.values, starts)
    # np.take gathers matrix rows several times faster than seg_max[seg]
    shifted = np.exp(x.values - np.take(seg_max, seg, axis=0))
    lse = np.log(np.add.reduceat(shifted, starts)) + seg_max
    out = Tensor._wrap(lse)

    def backward_fn(g):
        if x.requires_grad:
            # d lse_s / d x_i = softmax weight of i within its segment
            x._accumulate(np.take(g, seg, axis=0)
                          * np.exp(x.values - np.take(lse, seg, axis=0)))

    return _record(out, (x,), backward_fn)


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
