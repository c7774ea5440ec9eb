"""The training step as a composition of one tape node per operation:
the form the model's one node per step (``model.total_loss``) replaced,
kept as the reference it is compared against bit for bit.

The operators here are the engine operators that node made redundant,
recorded through the engine's public hook (``nn.record``), with the same
arithmetic in the same order as when they lived in the engine; the tensor
tests still pin them against their oracles. ``rows`` alone records through
the engine's private ``_record``, because its backward pass writes its
block into the input's gradient in place, leaving the other rows as they
were. Below the operators sit the per-op model pieces: the MLP block and
the network up to its logits, the forward pass after the logits, with the
blend on every row and the scores behind a gradient stop, and one loss
function per module. The model has the same tail: its scoring and its
loss both read ``model.outputs_from_logits``, as ``forward`` and
``total_loss`` here both read ``forward_tail``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from journeyrank import model, nn
from journeyrank.domain import NEGATIVE_PARENT
from journeyrank.errors import ContractError, ShapeError
from journeyrank.nn.tensor import _record

# ---------------------------------------------------------------------------
# operators


def stop_gradient(t: nn.Tensor) -> nn.Tensor:
    """Identical values, but the backward pass treats it as a constant."""
    return nn.Tensor(t.values)


def _check_same_shape(a: nn.Tensor, b: nn.Tensor, op: str) -> None:
    if a.values.shape != b.values.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: nn.Tensor, b: nn.Tensor) -> nn.Tensor:
    _check_same_shape(a, b, "add")
    return nn.record(a.values + b.values, (a, b),
                     lambda g: (np.array(g), np.array(g)))


def matmul(a: nn.Tensor, b: nn.Tensor) -> nn.Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError("matmul expects rank-2 operands")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    return nn.record(a.values @ b.values, (a, b), lambda g: (
        g @ b.values.T if a.requires_grad else None,
        a.values.T @ g if b.requires_grad else None))


def dense(x: nn.Tensor, w: nn.Tensor, b: nn.Tensor) -> nn.Tensor:
    """Affine map of a matrix, x[m, k] @ w[k, n] + b[n], as one node."""
    if (x.values.ndim != 2 or w.values.ndim != 2 or b.values.ndim != 1
            or x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]):
        raise ShapeError(f"dense: {x.shape} @ {w.shape} + {b.shape}")
    out = x.values @ w.values
    out += b.values
    return nn.record(out, (x, w, b), lambda g: (
        g @ w.values.T if x.requires_grad else None,
        x.values.T @ g if w.requires_grad else None,
        g.sum(axis=0) if b.requires_grad else None))


def concat_cols(*xs: nn.Tensor) -> nn.Tensor:
    """Concatenation along the last axis: [m, ·] matrices side by side, or
    vectors end to end. Every operand has the same rank and, for
    matrices, the same row count."""
    if not xs or any(x.values.ndim == 0 or x.shape[:-1] != xs[0].shape[:-1]
                     for x in xs):
        raise ShapeError(f"concat_cols: {[x.shape for x in xs]}")
    ends = np.cumsum([x.shape[-1] for x in xs]).tolist()
    return nn.record(
        np.concatenate([x.values for x in xs], axis=-1), xs,
        lambda g: [np.array(g[..., lo:hi])
                   for lo, hi in zip([0] + ends, ends)])


def rows(x: nn.Tensor, block: slice) -> nn.Tensor:
    """A block of a matrix's rows, ``x.values[block]``, as a new matrix."""
    if (not isinstance(block, slice) or x.values.ndim != 2
            or block.step is not None
            or not 0 <= block.start < block.stop <= x.shape[0]):
        raise ShapeError(f"rows {block!r} out of range for shape {x.shape}")
    out = nn.Tensor._wrap(x.values[block].copy())

    def backward_fn(g):
        if x.requires_grad:
            # Only the block is touched: write it into the buffer in place.
            if x.grad is None:
                x.grad = np.zeros_like(x.values)
                x.grad[block] = g
            else:
                x.grad[block] += g

    return _record(out, (x,), backward_fn)


def relu(x: nn.Tensor) -> nn.Tensor:
    mask = x.values > 0.0
    return nn.record(np.maximum(x.values, 0.0), (x,),
                     lambda g: (g * mask,))


def gather_rows(x: nn.Tensor, index) -> nn.Tensor:
    """Rows of a matrix by index: out[i] = x[index[i]]. An index may
    repeat a row or leave one out; the backward pass adds each output
    row's gradient back into the row it came from, in index order."""
    index = np.asarray(index, dtype=np.int64)
    if x.values.ndim != 2 or index.ndim != 1:
        raise ShapeError(f"gather_rows: rows {index.shape} of {x.shape}")
    if index.size and (index.min() < 0 or index.max() >= len(x.values)):
        raise ShapeError(f"gather_rows: index out of range for "
                         f"{len(x.values)} rows")

    def gradients(g):
        n, k = x.shape
        flat = (index[:, None] * k + np.arange(k)).ravel()
        return (np.bincount(flat, weights=g.ravel(),
                            minlength=n * k).reshape(n, k),)

    return nn.record(np.take(x.values, index, axis=0), (x,), gradients)


def segment_broadcast(x: nn.Tensor, segments: nn.Segments) -> nn.Tensor:
    """Each segment's row of ``x``, a vector or a matrix with one row per
    segment, handed to the segment's rows: out[i] = x[segments.ids[i]].

    The backward pass sums each segment's gradient rows, so it refuses a
    layout with an empty segment."""
    if x.values.ndim == 0 or len(x.values) != segments.n:
        raise ShapeError(f"segment_broadcast: shape {x.shape} for "
                         f"{segments.n} segments")

    def gradients(g):
        if not segments.all_nonempty:
            raise ContractError("segment_broadcast backward: empty segment")
        return (np.add.reduceat(g, segments.starts[:-1], axis=0),)

    return nn.record(np.take(x.values, segments.ids, axis=0), (x,),
                     gradients)


def sub(a: nn.Tensor, b: nn.Tensor) -> nn.Tensor:
    _check_same_shape(a, b, "sub")
    return nn.record(a.values - b.values, (a, b),
                     lambda g: (np.array(g), -g))


def mul(a: nn.Tensor, b: nn.Tensor) -> nn.Tensor:
    _check_same_shape(a, b, "mul")
    return nn.record(a.values * b.values, (a, b),
                     lambda g: (g * b.values, g * a.values))


def column(x: nn.Tensor, j: int | slice) -> nn.Tensor:
    """Column j of a matrix as a vector, or, for a slice j, that block of
    columns as a matrix."""
    lo, hi = (j.start, j.stop) if isinstance(j, slice) else (j, j + 1)
    if (x.values.ndim != 2 or getattr(j, "step", None) is not None
            or not 0 <= lo < hi <= x.shape[1]):
        raise ShapeError(f"columns {j} out of range for shape {x.shape}")
    index = (slice(None), j)

    def gradients(g):
        full = np.zeros_like(x.values)
        full[index] = g
        return (full,)

    return nn.record(x.values[index].copy(), (x,), gradients)


def cumsum(x: nn.Tensor) -> nn.Tensor:
    """Running sum along each row of a matrix, added left to right one
    column at a time."""
    if x.values.ndim != 2 or x.shape[1] == 0:
        raise ShapeError(f"cumsum expects a matrix with columns, got {x.shape}")
    out = x.values.copy()
    for j in range(1, out.shape[1]):
        out[:, j] += out[:, j - 1]

    def gradients(g):
        # column j feeds every running sum from j on
        gx = g.copy()
        for j in range(gx.shape[1] - 2, -1, -1):
            gx[:, j] += gx[:, j + 1]
        return (gx,)

    return nn.record(out, (x,), gradients)


def _exp_neg_abs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``pos = x >= 0`` and ``e = exp(-|x|)``. The exponent is picked
    with ``where`` rather than ``-abs`` so a NaN keeps its sign."""
    pos = x >= 0
    return pos, np.exp(np.where(pos, -x, x))


def _logistic_of_parts(pos: np.ndarray, e: np.ndarray) -> np.ndarray:
    """logistic(x) from :func:`_exp_neg_abs` of x: ``1 / (1 + e)`` where
    x >= 0 and ``e / (1 + e)`` elsewhere, with one division."""
    out = np.where(pos, 1.0, e)
    out /= 1.0 + e
    return out


def log_sigmoid(x: nn.Tensor) -> nn.Tensor:
    """log(sigmoid(x)) as ``min(x, 0) - log1p(exp(-|x|))``; its slope is
    exactly ``logistic(-x)``."""
    neg = x.values <= 0
    e = np.exp(np.where(neg, x.values, -x.values))
    out = np.minimum(x.values, 0.0)
    out -= np.log1p(e)

    def gradients(g):
        slope = _logistic_of_parts(neg, e)
        return (np.multiply(g, slope, out=slope),)

    return nn.record(out, (x,), gradients)


def softplus(x: nn.Tensor) -> nn.Tensor:
    """log(1 + exp(x)) as ``max(x, 0) + log1p(exp(-|x|))``; its slope is
    exactly ``logistic(x)``."""
    pos, e = _exp_neg_abs(x.values)
    out = np.maximum(x.values, 0.0)
    out += np.log1p(e)

    def gradients(g):
        slope = _logistic_of_parts(pos, e)
        return (np.multiply(g, slope, out=slope),)

    return nn.record(out, (x,), gradients)


def gather(x: nn.Tensor, idx) -> nn.Tensor:
    """Pick elements of a vector or matrix by flat row-major index (entry
    (r, c) is ``r * n_cols + c``): out[i] = x.ravel()[idx[i]]."""
    if x.values.ndim == 0:
        raise ShapeError("gather expects a vector or a matrix")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("index arrays must be one-dimensional")
    if idx.size and idx.min() < 0:
        raise ShapeError("gather indices must be non-negative")

    def gradients(g):
        if not idx.size:
            return (None,)
        # bincount adds in index order, as np.add.at does
        return (np.bincount(idx, weights=g, minlength=x.size)
                .reshape(x.shape),)

    return nn.record(x.values.reshape(-1)[idx], (x,), gradients)


def segment_logsumexp(x: nn.Tensor, segments: nn.Segments) -> nn.Tensor:
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
    shifted = np.exp(x.values - np.take(seg_max, seg, axis=0))
    lse = np.log(np.add.reduceat(shifted, starts)) + seg_max

    def gradients(g):
        # d lse_s / d x_i = softmax weight of i within its segment
        return (np.take(g, seg, axis=0)
                * np.exp(x.values - np.take(lse, seg, axis=0)),)

    return nn.record(lse, (x,), gradients)


def total_sum(x: nn.Tensor) -> nn.Tensor:
    return nn.record(np.asarray(x.values.sum()), (x,),
                     lambda g: (np.full_like(x.values, float(g)),))


def total_mean(x: nn.Tensor) -> nn.Tensor:
    n = x.values.size
    if n == 0:
        raise ContractError("mean of an empty tensor")
    return nn.record(np.asarray(x.values.mean()), (x,),
                     lambda g: (np.full_like(x.values, float(g) / n),))


# ---------------------------------------------------------------------------
# the network up to its logits


def forward_mlp(store: nn.ParameterStore, prefix: str, spec: nn.MlpSpec,
                x: nn.Tensor) -> nn.Tensor:
    """The block over a taped ``[rows, input_dim]`` matrix: a dense node
    per layer and a ReLU node between layers."""
    if x.values.ndim != 2:
        raise ShapeError(f"{prefix}: expected a rank-2 input, got shape {x.shape}")
    h = x
    for i, (fan_in, _) in enumerate(spec.layer_dims):
        if i > 0:
            h = relu(h)
        if h.shape[1] != fan_in:
            raise ShapeError(
                f"{prefix}: layer {i} expects width {fan_in}, got {h.shape[1]}")
        h = dense(h, store[f"{prefix}.w{i}"], store[f"{prefix}.b{i}"])
    return h


def logits(config: model.ModelConfig, params: nn.ParameterStore,
           listing_rows: np.ndarray, listing_index: np.ndarray,
           context_rows: np.ndarray, segments: nn.Segments,
           ) -> tuple[nn.Tensor, nn.Tensor | None]:
    """``model.network``'s two logit outputs, taped: the heads' logits
    and the coefficient MLP's, None without a blend. The heads' weights
    are put side by side once, and the two halves read their blocks of
    rows from them."""
    emb_l = forward_mlp(params, "tower_listing", config.listing_tower,
                        nn.Tensor(listing_rows))
    emb_c = forward_mlp(params, "tower_context", config.context_tower,
                        nn.Tensor(context_rows))
    prefixes = [f"head_{task}" for task in config.all_tasks]
    d = config.embedding_dim
    weights = concat_cols(*(params[f"{p}.w0"] for p in prefixes))
    context_half = dense(emb_c, rows(weights, slice(d, 2 * d)),
                         concat_cols(*(params[f"{p}.b0"] for p in prefixes)))
    listing_half = matmul(emb_l, rows(weights, slice(0, d)))
    head = add(gather_rows(listing_half, listing_index),
               segment_broadcast(context_half, segments))
    if config.combination is None:
        return head, None
    return head, forward_mlp(params, "combination", config.combination,
                             emb_c)


# ---------------------------------------------------------------------------
# the model after its logits


@dataclass(frozen=True)
class Outputs:
    """``model.ModelOutputs`` as taped tensors."""

    cond_logits: nn.Tensor
    log_joint: nn.Tensor
    y_base: nn.Tensor
    y_twiddler: nn.Tensor | None = None
    alpha_base: nn.Tensor | None = None
    alpha_twiddler: nn.Tensor | None = None
    y_combination: nn.Tensor | None = None


def forward_tail(config: model.ModelConfig, head: nn.Tensor,
                 coef_logits: nn.Tensor | None,
                 segments: nn.Segments) -> Outputs:
    """Every score from the heads' ``[rows, tasks]`` logits and the
    per-search coefficient logits: the funnel as one log-sigmoid and one
    running sum, the blend on every row as the running sum of coefficient
    times score, the scores seen through a gradient stop. The base
    coefficient is ``[rows, 1]``."""
    n_base = len(config.base_tasks)
    cond_logits = column(head, slice(0, n_base))
    log_joint = cumsum(log_sigmoid(cond_logits))
    y_base = column(log_joint, n_base - 1)
    if coef_logits is None:
        return Outputs(cond_logits, log_joint, y_base)
    y_twiddler = column(head, slice(n_base, head.shape[1]))
    per_row = segment_broadcast(coef_logits, segments)
    alpha_base = softplus(column(per_row, slice(0, 1)))
    alpha_twiddler = column(per_row, slice(1, per_row.shape[1]))
    scores = concat_cols(
        column(stop_gradient(log_joint), slice(n_base - 1, n_base)),
        stop_gradient(y_twiddler))
    blend = cumsum(mul(concat_cols(alpha_base, alpha_twiddler), scores))
    return Outputs(cond_logits=cond_logits, log_joint=log_joint,
                   y_base=y_base, y_twiddler=y_twiddler,
                   alpha_base=alpha_base, alpha_twiddler=alpha_twiddler,
                   y_combination=column(blend, blend.shape[1] - 1))


def forward(config: model.ModelConfig, params: nn.ParameterStore,
            batch: model.SearchBatch) -> Outputs:
    """The whole forward pass over a batch, every value taped."""
    head, coef_logits = logits(config, params, batch.listing_rows,
                               batch.listing_index, batch.context_rows,
                               batch.segments)
    return forward_tail(config, head, coef_logits, batch.segments)


def _label_matrix(batch: model.SearchBatch, names) -> np.ndarray:
    return np.stack([batch.labels[name] for name in names])


def base_loss(log_joint: nn.Tensor, batch: model.SearchBatch,
              tasks: Sequence[str],
              weights: Mapping[str, float]) -> nn.Tensor:
    """Weighted listwise softmax loss summed over tasks and positives;
    ``log_joint`` holds one column per task of ``tasks``."""
    task, row = np.divmod(np.flatnonzero(_label_matrix(batch, tasks)),
                          batch.n_rows)
    n_tasks = len(tasks)
    lse = segment_logsumexp(log_joint, batch.segments)
    per_positive = sub(
        gather(lse, batch.segments.ids[row] * n_tasks + task),
        gather(log_joint, row * n_tasks + task))
    task_weight = np.array([float(weights[t]) for t in tasks])[task]
    return total_sum(mul(per_positive, nn.Tensor(task_weight)))


def twiddler_loss(y_twiddler: nn.Tensor, batch: model.SearchBatch,
                  tasks: Sequence[str]) -> nn.Tensor:
    """Masked binary cross-entropy summed over negative-outcome tasks,
    each a mean over its eligible rows."""
    eligible = _label_matrix(batch, [NEGATIVE_PARENT[t] for t in tasks])
    task, row = np.divmod(np.flatnonzero(eligible), batch.n_rows)
    z = gather(y_twiddler, row * len(tasks) + task)
    targets = _label_matrix(batch, tasks)[task, row].astype(np.float64)
    per_row = sub(softplus(z), mul(nn.Tensor(targets), z))
    counts = np.bincount(task, minlength=len(tasks))
    return total_sum(mul(per_row, nn.Tensor(1.0 / counts[task])))


def combination_loss(y_combination: nn.Tensor,
                     batch: model.SearchBatch) -> nn.Tensor:
    """The mean over the batch's pairs of softplus(y_j - y_i)."""
    if batch.pair_i.size == 0:
        return nn.Tensor(0.0)
    y_i = gather(y_combination, batch.pair_i)
    y_j = gather(y_combination, batch.pair_j)
    return total_mean(softplus(sub(y_j, y_i)))


def total_loss(config: model.ModelConfig, head: nn.Tensor,
               coef_logits: nn.Tensor | None, batch: model.SearchBatch,
               weights: Mapping[str, float],
               ) -> tuple[nn.Tensor, Outputs, dict[str, float]]:
    """Unweighted sum of the module losses present in the config, from
    the logits, and its parts."""
    outputs = forward_tail(config, head, coef_logits, batch.segments)
    parts: dict[str, float] = {}
    loss = base_loss(outputs.log_joint, batch, config.base_tasks, weights)
    parts["base"] = float(loss.values)
    if config.twiddler_tasks:
        term = twiddler_loss(outputs.y_twiddler, batch,
                             config.twiddler_tasks)
        parts["twiddler"] = float(term.values)
        loss = add(loss, term)
        term = combination_loss(outputs.y_combination, batch)
        parts["combination"] = float(term.values)
        loss = add(loss, term)
    parts["total"] = float(loss.values)
    return loss, outputs, parts


def step_loss(config: model.ModelConfig, params: nn.ParameterStore,
              batch: model.SearchBatch, weights: Mapping[str, float],
              ) -> tuple[nn.Tensor, dict[str, float]]:
    """``model.total_loss``'s loss and parts, one node per operation."""
    head, coef_logits = logits(config, params, batch.listing_rows,
                               batch.listing_index, batch.context_rows,
                               batch.segments)
    loss, _, parts = total_loss(config, head, coef_logits, batch, weights)
    return loss, parts
