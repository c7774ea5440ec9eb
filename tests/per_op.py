"""The training loss as a composition of one tape node per operation: the
form the model's fused loss node (``model.fused_loss``) replaced, kept as
the reference it is compared against bit for bit.

The operators here are the engine operators that node made redundant,
recorded through the engine's public hook (``nn.record``), with the same
arithmetic in the same order as when they lived in the engine; the tensor
tests still pin them against their oracles. Below them sit the per-op
model pieces: the forward pass after the logits, with the blend on every
row and the scores behind a gradient stop, and one loss function per
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from journeyrank import model, nn
from journeyrank.domain import NEGATIVE_PARENT
from journeyrank.errors import ContractError, ShapeError

# ---------------------------------------------------------------------------
# operators


def stop_gradient(t: nn.Tensor) -> nn.Tensor:
    """Identical values, but the backward pass treats it as a constant."""
    return nn.Tensor(t.values)


def _check_same_shape(a: nn.Tensor, b: nn.Tensor, op: str) -> None:
    if a.values.shape != b.values.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


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
    per_row = nn.segment_broadcast(coef_logits, segments)
    alpha_base = softplus(column(per_row, slice(0, 1)))
    alpha_twiddler = column(per_row, slice(1, per_row.shape[1]))
    scores = nn.concat_cols(
        column(stop_gradient(log_joint), slice(n_base - 1, n_base)),
        stop_gradient(y_twiddler))
    blend = cumsum(mul(nn.concat_cols(alpha_base, alpha_twiddler), scores))
    return Outputs(cond_logits=cond_logits, log_joint=log_joint,
                   y_base=y_base, y_twiddler=y_twiddler,
                   alpha_base=alpha_base, alpha_twiddler=alpha_twiddler,
                   y_combination=column(blend, blend.shape[1] - 1))


def forward(config: model.ModelConfig, params: nn.ParameterStore,
            batch: model.SearchBatch) -> Outputs:
    """The whole forward pass over a batch, every value taped."""
    head, coef_logits = model.logits(config, params, batch.listing_rows,
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
        loss = nn.add(loss, term)
        term = combination_loss(outputs.y_combination, batch)
        parts["combination"] = float(term.values)
        loss = nn.add(loss, term)
    parts["total"] = float(loss.values)
    return loss, outputs, parts
