"""Multi-task journey ranking model.

Two shared MLP towers embed listing features and search context. One head
per task turns the pair of embeddings into a logit, and the heads' logits
form one task-major ``[tasks, rows]`` array (one contiguous row per task),
as does every per-task array of scoring and training. The
positive funnel milestones' conditional logits chain into joint
log-probabilities (a log-sigmoid per task, then a running sum along the
tasks); the deepest (uncancelled booking) is the base ranking score.
Further heads score each negative outcome (rejection and the two
cancellation kinds) as binary classifiers over their eligible rows. A
small coefficient MLP, reading the context embedding alone, blends the
base score with the negative-outcome logits into the final score, as a
running sum of coefficient times score.

The same listing is shown over and over, so a batch holds its distinct
listing feature rows once each, with an index from each impression row
into them. The listing tower and the listing half of the heads' first
layer run once per distinct listing row, and a row gather hands their
output to the impression rows. The context tower, the context half of the
heads' first layer and the coefficient MLP run once per search, and a
segment broadcast over the batch's search layout (an ``nn.Segments``)
hands the heads' context half to the search's impression rows. No joint
``[listing | context]`` embedding is built.

The whole network is plain array code, shared by scoring and training:
:func:`network` up to the logits, then :func:`outputs_from_logits` (the
funnel and the blend of every row) for every score. Everything trains
jointly from whole-search minibatches on the sum of three losses, each
reading those scores: a listwise softmax loss per positive milestone, a
masked binary cross-entropy per negative milestone, and a pairwise
preference loss that ranks each uncancelled booking's blended score above
the rest of its search, so the blend serves the same final objective as
the base score. A training step, from the one parameter vector to the
summed loss, is one tape node (:func:`total_loss`) with a hand-written
backward pass that gives one gradient vector. The blend's loss sees the
scores as constants, so it tunes only the blend coefficients and the
context they are conditioned on, never the scoring heads.

The network reads one batch type, :class:`SearchBatch`. Scoring reads a
dataset's searches as one batch (:func:`batch_inputs`). Training builds
that batch once per run, each epoch puts it in its shuffled order once
(:func:`reorder`), and each step takes a slice of it (:func:`make_batch`),
whose preference pairs the blend's loss finds when it reads them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

# pack_dataset is not called here; the benchmark's tracer wraps it under
# this name (perfbench/layers.py).
from .dataio import pack_dataset  # noqa: F401
from .domain import (
    Dataset,
    DatasetSchema,
    LABELS,
    MAX_SIZE,
    NEGATIVE_MILESTONES,
    NEGATIVE_PARENT,
    POSITIVE_CHAIN,
    concat_ranges,
    number,
    task_weights,
)
from .errors import (
    ConfigError,
    ContractError,
    DataValidationError,
    NonFiniteScoreError,
    SchemaMismatchError,
    ShapeError,
    TrainingDivergenceError,
)
from . import nn
from .nn import MlpSpec, ParameterStore, Segments, Tape, Tensor


# ---------------------------------------------------------------------------
# configuration


def _check_int(name: str, value, minimum: int,
               maximum: float = MAX_SIZE) -> None:
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not minimum <= value <= maximum):
        raise ConfigError(f"{name} must be an integer from {minimum} to "
                          f"{maximum}, got {value!r}")


def _check_sequence(name: str, value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and loss layout for one ranking model.

    Every block's shape derives from these fields, with ReLU between the
    layers of every block:

    - ``listing_tower`` maps ``listing_dim`` features, and
      ``context_tower`` maps ``context_dim`` features, through
      ``tower_hidden`` to ``embedding_dim``.
    - ``head``, shared by every task, is one affine map from the listing
      and context embeddings side by side (``2 * embedding_dim``, listing
      first) to one logit.
    - ``combination`` maps the context embedding through
      ``combination_hidden`` to one coefficient for the base score plus
      one per twiddler; there is none without twiddlers.

    Each block's :class:`MlpSpec` is built on first read and kept.

    ``base_tasks`` lists the positive milestones to chain, in funnel order,
    always ending at the uncancelled-booking task whose joint probability
    is the base score; each is weighted by its inverse prevalence in the
    training data (``domain.task_weights``). ``twiddler_tasks`` lists the
    negative milestones given dedicated re-ranking heads, and ``seed``
    fixes initialization and batch order.
    """

    listing_dim: int
    context_dim: int
    embedding_dim: int = 12
    tower_hidden: tuple[int, ...] = (24,)
    combination_hidden: tuple[int, ...] = (8,)
    base_tasks: tuple[str, ...] = POSITIVE_CHAIN
    twiddler_tasks: tuple[str, ...] = NEGATIVE_MILESTONES
    seed: int = 0

    def __post_init__(self):
        for name in ("listing_dim", "context_dim", "embedding_dim"):
            _check_int(name, getattr(self, name), 1)
        _check_int("seed", self.seed, 0, math.inf)
        for name in ("tower_hidden", "combination_hidden",
                     "base_tasks", "twiddler_tasks"):
            object.__setattr__(self, name,
                               _check_sequence(name, getattr(self, name)))
        for name in ("tower_hidden", "combination_hidden"):
            for width in getattr(self, name):
                _check_int(name, width, 1)
        base, twiddlers = self.base_tasks, self.twiddler_tasks
        if not base:
            raise ConfigError("base_tasks must not be empty")
        unknown = [t for t in base if t not in POSITIVE_CHAIN]
        if unknown:
            raise ConfigError(f"unknown base tasks {unknown}; choose from "
                              f"{POSITIVE_CHAIN}")
        order = [POSITIVE_CHAIN.index(t) for t in base]
        if order != sorted(set(order)):
            raise ConfigError("base_tasks must follow funnel order without "
                              "repeats")
        if base[-1] != "unc":
            raise ConfigError("base_tasks must end at unc (the task whose "
                              "joint probability is the base score)")
        unknown = [t for t in twiddlers if t not in NEGATIVE_MILESTONES]
        if unknown:
            raise ConfigError(f"unknown twiddler tasks {unknown}; choose "
                              f"from {NEGATIVE_MILESTONES}")
        if len(set(twiddlers)) != len(twiddlers):
            raise ConfigError("twiddler_tasks must not repeat")

    @property
    def all_tasks(self) -> tuple[str, ...]:
        return self.base_tasks + self.twiddler_tasks

    @cached_property
    def listing_tower(self) -> MlpSpec:
        return MlpSpec(self.listing_dim, self.tower_hidden,
                       self.embedding_dim)

    @cached_property
    def context_tower(self) -> MlpSpec:
        return MlpSpec(self.context_dim, self.tower_hidden,
                       self.embedding_dim)

    @cached_property
    def head(self) -> MlpSpec:
        """The shape of every task head."""
        return MlpSpec(2 * self.embedding_dim, (), 1)

    @cached_property
    def combination(self) -> MlpSpec | None:
        if not self.twiddler_tasks:
            return None
        return MlpSpec(self.embedding_dim, self.combination_hidden,
                       1 + len(self.twiddler_tasks))

    @cached_property
    def head_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Where the heads sit in the parameter vector: every head's
        weights as one ``[2 * embedding_dim, tasks]`` block of offsets,
        head k in column k, then every head's bias offset."""
        store = ParameterStore(parameter_layout(self))
        at = store.views(np.arange(store.tensor.size))
        heads = [_head_prefix(task) for task in self.all_tasks]
        return (np.hstack([at[f"{h}.w0"] for h in heads]),
                np.hstack([at[f"{h}.b0"] for h in heads]))


# The full model: every positive milestone chained, every negative one
# given a twiddler head.
default_model_config = ModelConfig


def baseline_model_config(listing_dim: int, context_dim: int,
                          **overrides) -> ModelConfig:
    """Single-task configuration: one head predicting uncancelled bookings.

    This is the production-style reference the multi-task model is judged
    against; it shares the tower architecture but trains one listwise task
    and no blending layer.
    """
    return ModelConfig(listing_dim, context_dim, base_tasks=("unc",),
                       twiddler_tasks=(), **overrides)


def model_config_to_record(config: ModelConfig) -> dict:
    return asdict(config)


def model_config_from_record(rec: dict) -> ModelConfig:
    if not isinstance(rec, dict):
        raise ConfigError(f"model config must be an object, got {rec!r}")
    names = [f.name for f in fields(ModelConfig)]
    missing = [k for k in names if k not in rec]
    unknown = sorted(k for k in rec if k not in names)
    if missing or unknown:
        raise ConfigError(f"model config record has missing keys {missing} "
                          f"and unknown keys {unknown}")
    return ModelConfig(**rec)


# ---------------------------------------------------------------------------
# parameters


_TOWER_LISTING = "tower_listing"
_TOWER_CONTEXT = "tower_context"
_COMBINATION = "combination"


def _head_prefix(task: str) -> str:
    return f"head_{task}"


def parameter_layout(config: ModelConfig) -> list[tuple[str, tuple]]:
    """Every parameter's name and shape, in store order: the listing
    tower, the context tower, one head per task of ``all_tasks``, then
    the coefficient MLP, if any."""
    blocks = [(_TOWER_LISTING, config.listing_tower),
              (_TOWER_CONTEXT, config.context_tower)]
    blocks += [(_head_prefix(task), config.head) for task in config.all_tasks]
    if config.combination is not None:
        blocks.append((_COMBINATION, config.combination))
    return [entry for prefix, spec in blocks
            for entry in nn.mlp_layout(prefix, spec)]


def init_model_params(config: ModelConfig) -> ParameterStore:
    """Fresh parameters for every module, drawn from one seeded stream."""
    store = ParameterStore(parameter_layout(config))
    nn.init_glorot(store, np.random.default_rng(config.seed))
    return store


def parameter_count(config: ModelConfig) -> int:
    return sum(math.prod(shape) for _, shape in parameter_layout(config))


def module_parameter_names(config: ModelConfig) -> dict[str, list[str]]:
    """Parameter names grouped by module, for gradient bookkeeping."""
    groups: dict[str, list[str]] = {
        "listing_tower": [], "context_tower": [], "base_heads": [],
        "twiddler_heads": [], "combination": [],
    }
    for name, _ in parameter_layout(config):
        if name.startswith(_TOWER_LISTING):
            groups["listing_tower"].append(name)
        elif name.startswith(_TOWER_CONTEXT):
            groups["context_tower"].append(name)
        elif name.startswith(_COMBINATION):
            groups["combination"].append(name)
        else:
            task = name.split(".")[0][len("head_"):]
            key = "base_heads" if task in POSITIVE_CHAIN else "twiddler_heads"
            groups[key].append(name)
    return groups


# ---------------------------------------------------------------------------
# feature normalization


# impression rows the normalization fit gathers at a time
_FIT_ROWS = 4096
_MIN_SCALE = 1e-12  # the narrowest spread a fit keeps as a scale


@dataclass(frozen=True)
class NormalizationStats:
    """Per-column standardization fitted on the training rows.

    Columns with zero spread keep scale 1 so constant features pass
    through centered instead of dividing by zero.
    """

    listing_mean: np.ndarray
    listing_scale: np.ndarray
    context_mean: np.ndarray
    context_scale: np.ndarray

    def __post_init__(self):
        """Each mean finite and each scale finite and at least the fit's
        floor, or a :class:`SchemaMismatchError` naming the field."""
        for f in fields(self):
            column = getattr(self, f.name)
            floor = _MIN_SCALE if f.name.endswith("_scale") else -np.inf
            if not (np.isfinite(column) & (column >= floor)).all():
                rule = f" and positive, at least {floor}" if floor > 0 else ""
                raise SchemaMismatchError(
                    f"normalization {f.name} must be finite{rule}, "
                    f"got {column.tolist()}")

    @staticmethod
    def _nonzero(scale: np.ndarray) -> np.ndarray:
        return np.where(scale < _MIN_SCALE, 1.0, scale)

    @classmethod
    def fit(cls, listing_rows: np.ndarray, listing_index: np.ndarray,
            context_rows: np.ndarray) -> "NormalizationStats":
        """Fit on the listing table as the impressions show it, so each
        table row weighs as many times as it is shown, and on the context
        rows.

        The listing side streams the table: it gathers ``_FIT_ROWS``
        impression rows at a time and carries the column sums from chunk
        to chunk, first for the mean and then for the squared deviations.
        numpy sums a matrix's columns row after row, so carrying the sums
        as the first row of the next chunk's sum continues that sum, and
        mean and scale equal ``rows.mean(axis=0)`` and ``rows.std(axis=0)``
        of the whole gather ``listing_rows[listing_index]`` bit for bit.
        A lone column numpy sums pairwise instead, so a one-column table
        is gathered whole (as many floats as the index holds).
        """
        listing_rows = np.asarray(listing_rows, dtype=np.float64)
        listing_index = np.asarray(listing_index)
        n = len(listing_index)
        if n == 0:
            raise ContractError("cannot fit normalization on zero rows")
        step = _FIT_ROWS if listing_rows.shape[1] > 1 else n

        def column_sum(rows_of) -> np.ndarray:
            total = None
            for lo in range(0, n, step):
                rows = rows_of(listing_rows[listing_index[lo:lo + step]])
                if total is not None:
                    rows = np.vstack((total, rows))
                total = np.add.reduce(rows, axis=0, keepdims=True)
            return total[0]

        mean = column_sum(lambda rows: rows) / n
        scale = np.sqrt(column_sum(lambda rows: np.square(rows - mean)) / n)
        context_rows = np.asarray(context_rows, dtype=np.float64)
        return cls(listing_mean=mean, listing_scale=cls._nonzero(scale),
                   context_mean=context_rows.mean(axis=0),
                   context_scale=cls._nonzero(context_rows.std(axis=0)))

    def apply_listing(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        return (rows - self.listing_mean) / self.listing_scale

    def apply_context(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        return (rows - self.context_mean) / self.context_scale

    def to_record(self) -> dict:
        return {f.name: [float(v) for v in getattr(self, f.name)]
                for f in fields(self)}

    @classmethod
    def from_record(cls, rec) -> "NormalizationStats":
        """A saved record, read strictly: each value a number (never a
        bool or a string) and no other key, or a
        :class:`SchemaMismatchError` naming the field."""
        if not isinstance(rec, dict):
            raise SchemaMismatchError(f"normalization record must be an "
                                      f"object, got {rec!r}")
        unknown = sorted(rec.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise SchemaMismatchError(
                f"normalization record has unknown keys {unknown}")
        columns = {}
        for f in fields(cls):
            if f.name not in rec:
                raise SchemaMismatchError(
                    f"normalization record missing key {f.name!r}")
            try:
                columns[f.name] = np.array([number(v) for v in rec[f.name]],
                                           dtype=np.float64)
            except (OverflowError, TypeError):
                raise SchemaMismatchError(
                    f"normalization {f.name} must be a list of numbers, "
                    f"got {rec[f.name]!r}") from None
        return cls(**columns)


# ---------------------------------------------------------------------------
# forward passes


@dataclass(frozen=True)
class ModelOutputs:
    """Every intermediate score for a batch of impressions, as arrays:
    per impression, ``cond_logits`` and ``log_joint`` (one row per base
    task) and ``y_twiddler`` (one per twiddler), each ``[tasks, rows]`` in
    config order, and the vectors ``y_base`` and ``y_combination``; per
    search, the blend coefficients ``alpha_base`` (``[searches]``) and
    ``alpha_twiddler`` (``[twiddlers, searches]``). A config without
    twiddlers has no blend, and leaves the twiddler and blend fields None."""

    cond_logits: np.ndarray
    log_joint: np.ndarray
    y_base: np.ndarray
    y_twiddler: np.ndarray | None = None
    alpha_base: np.ndarray | None = None
    alpha_twiddler: np.ndarray | None = None
    y_combination: np.ndarray | None = None

    @property
    def ranking_score(self) -> np.ndarray:
        return self.y_combination if self.y_combination is not None \
            else self.y_base


def _require_finite(*rows: np.ndarray) -> None:
    """Refuse normalized feature rows that hold a NaN or an infinity."""
    if not all(np.isfinite(r).all() for r in rows):
        raise ShapeError("input tensor contains NaN or Inf")


@dataclass(frozen=True)
class Network:
    """The network's forward pass over a batch, up to its logits, and
    what its backward pass reads. ``listing``, ``context`` and
    ``combination`` hold each MLP block's layer inputs, then its output
    (:func:`nn.mlp_activations`): the towers' last entries are the listing
    and context embeddings, and the coefficient MLP, None without a blend,
    starts from the context embedding. ``head_weights`` holds every
    head's weights side by side, head k in column k, and ``head`` every
    head's logit per impression row, ``[tasks, rows]`` (one row per task
    of ``all_tasks``)."""

    listing: list[np.ndarray]
    context: list[np.ndarray]
    combination: list[np.ndarray] | None
    head_weights: np.ndarray
    head: np.ndarray

    @property
    def coef_logits(self) -> np.ndarray | None:
        """The coefficient MLP's ``[searches, 1 + twiddlers]`` logits."""
        return None if self.combination is None else self.combination[-1]


def network(config: ModelConfig, params: ParameterStore,
            batch: "SearchBatch") -> Network:
    """The network up to its logits (see :class:`Network`) over a batch's
    normalized rows, as plain array code.

    The heads are affine, so they run as one layer over their weights
    (gathered by ``config.head_index``), head k giving task row k. That
    layer reads the listing embedding through the weights' first
    ``embedding_dim`` rows and the context embedding through the rest, so
    it runs in two halves and no joint embedding is built: the listing
    half once per distinct listing row, handed to the impression rows by
    ``batch.listing_index``, and the context half, bias included, once
    per search, handed to the search's rows by ``batch.segments``.
    """
    listing = nn.mlp_activations(params, _TOWER_LISTING,
                                 config.listing_tower, batch.listing_rows)
    context = nn.mlp_activations(params, _TOWER_CONTEXT,
                                 config.context_tower, batch.context_rows)
    d, (w_index, b_index) = config.embedding_dim, config.head_index
    weights = params.tensor.values.take(w_index)
    context_half = context[-1] @ weights[d:]
    context_half += params.tensor.values.take(b_index)
    head = (listing[-1] @ weights[:d]).T.take(batch.listing_index, axis=1)
    head += context_half.T.repeat(batch.segments.sizes, axis=1)
    combination = None if config.combination is None else \
        nn.mlp_activations(params, _COMBINATION, config.combination,
                           context[-1])
    return Network(listing, context, combination, weights, head)


def _network_gradients(config: ModelConfig, params: ParameterStore,
                       net: Network, d_head: np.ndarray,
                       d_coef: np.ndarray | None,
                       batch: "SearchBatch") -> np.ndarray:
    """The backward pass of :func:`network` over ``batch``, from the
    gradients of the ``[tasks, rows]`` head logits and the coefficient
    logits: one new vector laid out as the store, the heads written
    through ``config.head_index``.

    Each impression row's head gradient goes back to its distinct listing
    row, added in index order (a ``bincount``), and to its search, summed
    per search, so every search must have a row, as the listwise loss
    already demands. The context embedding takes the coefficient MLP's
    gradient first, then the heads' context half's; the heads' weight
    gradient is one ``[2 * embedding_dim, tasks]`` block that holds the
    listing half's rows, then the context half's added to zeros.
    """
    grad = np.empty_like(params.tensor.values)
    d_emb_c = None
    if net.combination is not None:
        d_emb_c = nn.mlp_gradients(params, _COMBINATION, config.combination,
                                   net.combination, d_coef, grad,
                                   input_grad=True)
    emb_l, emb_c = net.listing[-1], net.context[-1]
    # d_head is task-major, so each bin's terms come in row order
    n, k = len(emb_l), len(d_head)
    flat = (batch.listing_index * k + np.arange(k)[:, None]).ravel()
    d_listing_half = np.bincount(flat, weights=d_head.ravel(),
                                 minlength=n * k).reshape(n, k)
    # [searches, tasks] in C order, so that the bias sums run row by row
    d_context_half = np.ascontiguousarray(np.add.reduceat(
        d_head, batch.segments.starts[:-1], axis=1).T)
    d, weights = config.embedding_dim, net.head_weights
    d_weights = np.zeros(weights.shape)
    d_weights[:d] = emb_l.T @ d_listing_half
    d_weights[d:] += emb_c.T @ d_context_half
    grad[config.head_index[0]] = d_weights
    grad[config.head_index[1]] = d_context_half.sum(axis=0)
    d_context = d_context_half @ weights[d:].T
    if d_emb_c is None:
        d_emb_c = d_context
    else:
        d_emb_c += d_context
    for prefix, spec, acts, g in (
            (_TOWER_LISTING, config.listing_tower, net.listing,
             d_listing_half @ weights[:d].T),
            (_TOWER_CONTEXT, config.context_tower, net.context, d_emb_c)):
        nn.mlp_gradients(params, prefix, spec, acts, g, grad,
                         input_grad=False)
    return grad


# Everything after the logits, over task-major arrays, written once here
# for scoring and for the training step. The slopes the step's backward
# pass needs are logistics: of x for softplus(x), of -x for log_sigmoid(x).


def _exp_neg_abs(x: np.ndarray) -> np.ndarray:
    """exp(-|x|), which never overflows: log_sigmoid(x) is ``min(x, 0)``
    less its log1p, and softplus(x) ``max(x, 0)`` plus it."""
    out = np.abs(x)
    np.negative(out, out=out)
    return np.exp(out, out=out)


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)). The blend's base coefficient is the softplus of
    its logit, so it stays positive; twiddler coefficients are their
    logits as they are and may change sign."""
    out = np.maximum(x, 0.0)
    out += np.log1p(_exp_neg_abs(x))
    return out


def funnel(cond_logits: np.ndarray) -> np.ndarray:
    """Joint log-probabilities down the funnel, ``[base tasks, rows]``:
    each task row is its conditional logit's log-sigmoid added to the row
    before it, so each stage can only lower the joint; the last is the
    base score."""
    log_joint = np.minimum(cond_logits, 0.0)
    log_joint -= np.log1p(_exp_neg_abs(cond_logits))
    for j in range(1, len(log_joint)):
        log_joint[j] += log_joint[j - 1]
    return log_joint


def blend(alpha_base: np.ndarray, alpha_twiddler: np.ndarray,
          y_base: np.ndarray, y_twiddler: np.ndarray) -> np.ndarray:
    """The blended score of each row: coefficient times score, summed
    from the base score on, one twiddler (task row) at a time."""
    y = alpha_base * y_base
    for alpha, score in zip(alpha_twiddler, y_twiddler):
        y += alpha * score
    return y


def outputs_from_logits(config: ModelConfig, head: np.ndarray,
                        coef_logits: np.ndarray | None,
                        segments: Segments) -> ModelOutputs:
    """Every score of every impression from the heads' ``[tasks, rows]``
    logits, and each search's blend coefficients from its coefficient
    logits (see :class:`Network`).

    The head logits' task rows split into two blocks, base tasks then
    twiddlers; the base block runs down the :func:`funnel`, and the
    :func:`blend` runs on every row, with its search's coefficients.
    """
    n_base = len(config.base_tasks)
    cond_logits = head[:n_base]
    log_joint = funnel(cond_logits)
    y_base = log_joint[-1]
    if coef_logits is None:
        return ModelOutputs(cond_logits, log_joint, y_base)
    alpha_base = softplus(coef_logits[:, 0])
    alpha_twiddler = coef_logits[:, 1:].T
    y_twiddler = head[n_base:]
    y_combination = blend(alpha_base.repeat(segments.sizes),
                          alpha_twiddler.repeat(segments.sizes, axis=1),
                          y_base, y_twiddler)
    return ModelOutputs(cond_logits, log_joint, y_base, y_twiddler,
                        alpha_base, alpha_twiddler, y_combination)


def forward(config: ModelConfig, params: ParameterStore,
            batch: "SearchBatch") -> ModelOutputs:
    """Every score of every impression of a batch, for scoring (no
    gradients): the :func:`network`, then :func:`outputs_from_logits`,
    whose scores the training loss reads too (:func:`loss_from_logits`)."""
    net = network(config, params, batch)
    return outputs_from_logits(config, net.head, net.coef_logits,
                               batch.segments)


# ---------------------------------------------------------------------------
# batches


def preference_pairs(unc: np.ndarray,
                     segments: Segments) -> tuple[np.ndarray, np.ndarray]:
    """Every within-search row pair (i, j) of an uncancelled booking i and
    a row j that is not one.

    Pairs run by i in row order and, for each i, by j in row order, so
    they come search by search.
    """
    unc = np.asarray(unc, dtype=bool)
    i = unc.nonzero()[0]
    j = (~unc).nonzero()[0]
    j_counts = np.bincount(segments.ids[j], minlength=segments.n)
    first_j = np.cumsum(j_counts) - j_counts
    search = segments.ids[i]
    counts = j_counts[search]
    return np.repeat(i, counts), j[concat_ranges(first_j[search], counts)]


@dataclass(frozen=True)
class SearchBatch:
    """Whole searches, ready for the network: a training minibatch
    (:func:`make_batch`), or every search of a dataset (:func:`batch_inputs`),
    which scoring reads as it is and training cuts its minibatches from.

    ``segments`` lays the impression rows out into the searches, in batch
    order. ``listing_rows`` holds normalized listing table rows (a
    minibatch's, those it shows, each once; a dataset's, its whole table),
    and ``listing_index`` gives each impression row its row of them.
    ``context_rows`` holds one normalized row per search, and
    ``label_rows`` one row per milestone of ``LABELS`` (the dataset's own
    block in :func:`batch_inputs`), read by name through ``labels``. The
    blend's preference pairs (:func:`preference_pairs` of the ``unc``
    labels) are found on first read, only by a loss that reads them.
    """

    listing_rows: np.ndarray          # [n_listings, listing_dim] normalized
    listing_index: np.ndarray         # [n_rows] int64
    context_rows: np.ndarray          # [segments.n, context_dim] normalized
    segments: Segments
    label_rows: np.ndarray            # [len(LABELS), n_rows] bool

    @property
    def n_rows(self) -> int:
        return self.segments.n_rows

    @property
    def labels(self) -> dict[str, np.ndarray]:  # milestone -> [n_rows] bool
        return dict(zip(LABELS, self.label_rows))

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The blend's preference pairs, ``(pair_i, pair_j)``."""
        return preference_pairs(self.label_rows[LABELS.index("unc")],
                                self.segments)

    @property
    def pair_i(self) -> np.ndarray:   # [n_pairs] int64
        return self.pairs[0]

    @property
    def pair_j(self) -> np.ndarray:   # [n_pairs] int64
        return self.pairs[1]


def batch_inputs(dataset: Dataset, norm: NormalizationStats) -> SearchBatch:
    """Every search of the dataset as one batch: its listing table and
    context rows normalized, and its label block ``dataset.label_rows``
    itself, not a copy. Every row a training batch or a score reads is one
    of these rows, so a row that is not finite after normalization is
    refused here, with a :class:`ShapeError`."""
    listing_rows = norm.apply_listing(dataset.listing_rows)
    context_rows = norm.apply_context(dataset.context_features)
    _require_finite(listing_rows, context_rows)
    return SearchBatch(
        listing_rows=listing_rows,
        listing_index=dataset.listing_index,
        context_rows=context_rows,
        segments=dataset.searches,
        label_rows=dataset.label_rows,
    )


def reorder(batch: SearchBatch, search_indices) -> SearchBatch:
    """The given searches of ``batch``, in the given order, every per-row
    column gathered once, so that minibatches of consecutive searches are
    cut from it as views (:func:`make_batch`). The listing table is
    shared."""
    search_indices = np.asarray(search_indices, dtype=np.int64)
    first = batch.segments.starts[search_indices]
    sizes = batch.segments.sizes[search_indices]
    rows = concat_ranges(first, sizes)
    return SearchBatch(
        listing_rows=batch.listing_rows,
        listing_index=batch.listing_index[rows],
        context_rows=batch.context_rows[search_indices],
        segments=Segments(sizes),
        label_rows=batch.label_rows.take(rows, axis=1),
    )


def make_batch(inputs: SearchBatch, lo: int, hi: int) -> SearchBatch:
    """Searches ``lo`` up to ``hi`` of ``inputs`` (clipped to its end),
    whose rows and labels are cut as views. The batch's listing rows are
    those its impressions show, in the order of ``inputs.listing_rows``."""
    starts = inputs.segments.starts[lo:hi + 1]
    rows = slice(starts[0], starts[-1])
    shown = inputs.listing_index[rows]
    n_listings = len(inputs.listing_rows)
    # a few times faster than np.unique(shown, return_inverse=True)
    listings = np.bincount(shown, minlength=n_listings).nonzero()[0]
    slot = np.empty(n_listings, dtype=np.int64)
    slot[listings] = np.arange(len(listings))
    return SearchBatch(
        listing_rows=inputs.listing_rows[listings],
        listing_index=slot[shown],
        context_rows=inputs.context_rows[lo:hi],
        segments=Segments(starts[1:] - starts[:-1]),
        label_rows=inputs.label_rows[:, rows],
    )


# ---------------------------------------------------------------------------
# losses


def _label_matrix(batch: SearchBatch, names) -> np.ndarray:
    """[len(names), rows]: the batch's labels ``names``, one row each. Its
    set entries, read from it raveled (a 2-d ``np.nonzero`` is slower),
    run name by name and by row within a name."""
    return batch.label_rows[[LABELS.index(n) for n in names]]


def _base_term(cond_logits: np.ndarray, log_joint: np.ndarray,
               batch: SearchBatch, tasks: Sequence[str],
               weights: Mapping[str, float]):
    """The base module's listwise softmax loss over the joint
    log-probabilities ``log_joint`` (the :func:`funnel` of
    ``cond_logits``; both task-major), summed over tasks and positives,
    and its backward pass, which writes d loss/d cond_logits into a
    zeroed block.

    For each task, every positively labeled impression contributes the
    negative log-softmax of its joint log-probability against all
    impressions of its search, weighted by the task's weight. The
    positives run task by task, by row within a task.
    """
    segments = batch.segments
    if segments.n == 0 or not segments.all_nonempty:
        raise ContractError("the listwise loss needs a search, and a row in "
                            "every search")
    task, row = np.divmod(_label_matrix(batch, tasks).ravel().nonzero()[0],
                          batch.n_rows)
    starts, sizes = segments.starts[:-1], segments.sizes
    search = segments.ids[row]
    at_search = task * segments.n + search
    at_row = task * batch.n_rows + row
    seg_max = np.maximum.reduceat(log_joint, starts, axis=1)
    shifted = np.exp(log_joint - seg_max.repeat(sizes, axis=1))
    lse = np.log(np.add.reduceat(shifted, starts, axis=1)) + seg_max
    task_weight = np.array([float(weights[t]) for t in tasks])[task]
    value = ((lse[task, search] - log_joint[task, row]) * task_weight).sum()

    def backward(g: float, out: np.ndarray) -> None:
        if not row.size:
            return
        w = g * task_weight
        d_joint = np.bincount(at_row, weights=-w, minlength=log_joint.size
                              ).reshape(log_joint.shape)
        d_lse = np.bincount(at_search, weights=w, minlength=lse.size
                            ).reshape(lse.shape)
        # d lse_s / d x_i is the softmax weight of i within its search
        d_joint += (d_lse.repeat(sizes, axis=1)
                    * np.exp(log_joint - lse.repeat(sizes, axis=1)))
        # task row j of the funnel feeds every joint from j on
        for j in range(len(d_joint) - 2, -1, -1):
            d_joint[j] += d_joint[j + 1]
        np.multiply(d_joint, nn.logistic(-cond_logits), out=out)

    return value, backward


def _twiddler_term(y_twiddler: np.ndarray, batch: SearchBatch,
                   tasks: Sequence[str]):
    """Masked binary cross-entropy summed over negative-outcome tasks,
    and its backward pass, which writes d loss/d y_twiddler (both
    ``[tasks, rows]``) into a zeroed block.

    Each task is scored only on its eligible rows, as a mean over them:
    rejection on requested impressions, either cancellation kind on
    booked impressions. A task with no eligible rows contributes exactly
    zero.
    """
    eligible = _label_matrix(batch, [NEGATIVE_PARENT[t] for t in tasks])
    task, row = np.divmod(eligible.ravel().nonzero()[0], batch.n_rows)
    z = y_twiddler[task, row]
    targets = _label_matrix(batch, tasks)[task, row].astype(np.float64)
    inverse_count = 1.0 / np.bincount(task, minlength=len(tasks))[task]
    value = ((softplus(z) - targets * z) * inverse_count).sum()

    def backward(g: float, out: np.ndarray) -> None:
        c = g * inverse_count
        d_z = -c * targets
        d_z += c * nn.logistic(z)
        out[task, row] = d_z

    return value, backward


def _combination_term(out: ModelOutputs, coef_logits: np.ndarray,
                      batch: SearchBatch):
    """Pairwise logistic loss that ranks each uncancelled booking's
    blended score (``out.y_combination``) above every other row of its
    search, the mean over the batch's pairs of softplus(y_j - y_i), and
    its backward pass, which writes d loss/d coef_logits into a zeroed
    array. The scores are constants here.
    """
    pair_i, pair_j = batch.pairs
    if pair_i.size == 0:
        return 0.0, lambda g, d_coef: None
    y = out.y_combination
    diff = y[pair_j] - y[pair_i]
    value = softplus(diff).mean()

    def backward(g: float, d_coef: np.ndarray) -> None:
        segments = batch.segments
        d_diff = np.full(diff.size, g / diff.size)
        d_diff *= nn.logistic(diff)
        d_y = np.bincount(pair_j, weights=d_diff, minlength=batch.n_rows)
        d_y += np.bincount(pair_i, weights=-d_diff, minlength=batch.n_rows)
        # [1 + twiddlers, rows]: each coefficient's score times d_y
        d_rows = np.vstack((out.y_base, out.y_twiddler))
        d_rows *= d_y
        d_rows[0] *= nn.logistic(coef_logits[:, 0]).repeat(segments.sizes)
        # One sum per search, in row order. A search no pair reads sums
        # 0 * score, -0.0 where a score is negative: adding 0.0 makes that
        # +0.0 and leaves every other sum as it is.
        np.add(np.add.reduceat(d_rows, segments.starts[:-1], axis=1).T, 0.0,
               out=d_coef)

    return value, backward


def loss_from_logits(config: ModelConfig, head: np.ndarray,
                     coef_logits: np.ndarray | None, batch: SearchBatch,
                     weights: Mapping[str, float]):
    """The training loss from the heads' ``[tasks, rows]`` logits and the
    per-search coefficient logits (see :class:`Network`), its parts by
    module, and its backward pass: given the loss's gradient, new arrays
    d loss/d head (``[tasks, rows]``) and d loss/d coef_logits (None
    without a blend).

    The loss is the unweighted sum of the module losses the config has,
    each reading the scores :func:`outputs_from_logits` gives, as scoring
    does: the base module's listwise loss over the funnel, the twiddlers'
    masked cross-entropy and the blend's pairwise loss.
    """
    shapes = [a.shape for a in (head, coef_logits) if a is not None]
    want = [(len(config.all_tasks), batch.n_rows)]
    if config.combination is not None:
        want.append((batch.segments.n, config.combination.output_dim))
    if shapes != want:
        raise ShapeError(f"loss_from_logits: logits of shapes {shapes}, "
                         f"need {want}")
    n_base = len(config.base_tasks)
    out = outputs_from_logits(config, head, coef_logits, batch.segments)
    base, base_backward = _base_term(out.cond_logits, out.log_joint, batch,
                                     config.base_tasks, weights)
    parts = {"base": float(base)}
    total = base
    if config.twiddler_tasks:
        twiddler, twiddler_backward = _twiddler_term(
            out.y_twiddler, batch, config.twiddler_tasks)
        combination, combination_backward = _combination_term(
            out, coef_logits, batch)
        parts["twiddler"] = float(twiddler)
        parts["combination"] = float(combination)
        total = total + twiddler + combination
    parts["total"] = float(total)

    def backward(g: float) -> tuple[np.ndarray, np.ndarray | None]:
        d_head = np.zeros(head.shape)
        base_backward(g, d_head[:n_base])
        if coef_logits is None:
            return d_head, None
        twiddler_backward(g, d_head[n_base:])
        d_coef = np.zeros(coef_logits.shape)
        combination_backward(g, d_coef)
        return d_head, d_coef

    return total, parts, backward


def total_loss(config: ModelConfig, params: ParameterStore,
               batch: SearchBatch, weights: Mapping[str, float],
               ) -> tuple[Tensor, np.ndarray, dict[str, float]]:
    """The training loss of a batch, recorded as one tape node over every
    parameter (``params.tensor``), the heads' ``[tasks, rows]`` logits it
    was computed from, and its parts (:func:`loss_from_logits`).

    The node runs the :func:`network` and the loss as plain array code,
    through the same scores as :func:`forward`; its backward pass runs
    the loss's backward and then the network's
    (:func:`_network_gradients`), which gives one gradient vector laid
    out as the store."""
    net = network(config, params, batch)
    total, parts, loss_backward = loss_from_logits(
        config, net.head, net.coef_logits, batch, weights)

    def gradients(g: np.ndarray) -> tuple[np.ndarray]:
        d_head, d_coef = loss_backward(float(g))
        return (_network_gradients(config, params, net, d_head, d_coef,
                                   batch),)

    return (nn.record(np.asarray(total), (params.tensor,), gradients),
            net.head, parts)


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    losses: dict[str, float]


@dataclass(frozen=True)
class TrainedModel:
    """Immutable bundle of everything needed to score new searches."""

    config: ModelConfig
    params: ParameterStore
    normalization: NormalizationStats
    schema_hash: str

    def require_schema(self, schema: DatasetSchema) -> None:
        if schema.hash() != self.schema_hash:
            raise SchemaMismatchError(
                "dataset schema does not match the schema this model was "
                f"trained on ({schema.hash()[:12]} != "
                f"{self.schema_hash[:12]})")

    def outputs(self, dataset: Dataset) -> ModelOutputs:
        """Score every impression of a dataset of the model's schema (no
        gradients), from one :func:`batch_inputs` batch over its searches.

        The towers and heads run once per listing table row, as in
        training, and the blend on every impression; scores are per
        impression, coefficients per search. A dataset's impressions score
        bit for bit as training saw them. The context tower and the
        coefficient MLP run as one matrix product over all the dataset's
        searches, so a search's coefficients, and so its scores, can
        differ in the last bits with how many searches share the call.
        Weights whose scores or coefficients overflow raise
        :class:`NonFiniteScoreError`, and no warning.
        """
        self.require_schema(dataset.schema)
        with np.errstate(over="ignore", invalid="ignore"):
            out = forward(self.config, self.params,
                          batch_inputs(dataset, self.normalization))
        if not all(np.isfinite(v).all() for v in vars(out).values()
                   if v is not None):
            raise NonFiniteScoreError(
                "the model's weights give scores or coefficients that are "
                "not finite")
        return out


def check_training_settings(epochs: int, batch_size: int,
                            learning_rate: float, min_epochs: int = 0) -> None:
    """Refuse epochs below ``min_epochs``, a batch size below 1 or a
    learning rate that is not finite and positive."""
    _check_int("epochs", epochs, min_epochs)
    _check_int("batch_size", batch_size, 1)
    if not 0.0 < learning_rate < np.inf:
        raise ConfigError(f"learning_rate must be finite and positive, "
                          f"got {learning_rate!r}")


def train(config: ModelConfig, dataset: Dataset, epochs: int, *,
          batch_size: int = 64, learning_rate: float = 1e-3,
          ) -> tuple[TrainedModel, list[EpochStats]]:
    """Fit the model with Adam over whole-search minibatches.

    The dataset is expected to be validated and training-filtered
    already. Runs are deterministic per config seed: initialization,
    shuffling, and batching all derive from it.
    """
    check_training_settings(epochs, batch_size, learning_rate)
    if dataset.n_searches == 0:
        raise DataValidationError("training dataset has no searches")
    # streamed over the table, each listing row weighed by its impressions
    norm = NormalizationStats.fit(dataset.listing_rows, dataset.listing_index,
                                  dataset.context_features)
    weights = task_weights(dataset, config.base_tasks)
    params = init_model_params(config)
    state = nn.init_adam(params, learning_rate)
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(1,)))
    inputs = batch_inputs(dataset, norm)
    history: list[EpochStats] = []
    for epoch in range(epochs):
        shuffled = reorder(inputs,
                           shuffle_rng.permutation(dataset.n_searches))
        sums: dict[str, float] = {}
        for batch_index, lo in enumerate(range(0, dataset.n_searches,
                                               batch_size)):
            batch = make_batch(shuffled, lo, lo + batch_size)
            with Tape() as tape:
                loss, _, parts = total_loss(config, params, batch, weights)
                if not np.isfinite(loss.values):
                    # parts ends with "total", which is non-finite here
                    term = next(k for k, v in parts.items()
                                if not np.isfinite(v))
                    raise TrainingDivergenceError(epoch, batch_index, term)
                nn.backward(tape, loss)
            nn.optimizer_step(params, state)
            for key, value in parts.items():
                sums[key] = sums.get(key, 0.0) + value
        history.append(EpochStats(epoch=epoch, losses=sums))
    model = TrainedModel(config=config, params=params, normalization=norm,
                         schema_hash=dataset.schema.hash())
    return model, history


# ---------------------------------------------------------------------------
# persistence


def save_model(model: TrainedModel, directory: str | Path) -> None:
    extra = {
        "model_config": model_config_to_record(model.config),
        "normalization": model.normalization.to_record(),
        "schema_hash": model.schema_hash,
    }
    nn.save_params(model.params, directory, extra=extra)


def load_model(directory: str | Path) -> TrainedModel:
    """The model saved in ``directory``: any manifest ``save_model`` could
    not have written raises a :class:`SchemaMismatchError` naming it."""
    try:
        params, manifest = nn.load_params(directory)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise ConfigError(f"no saved model in {directory}: {exc.filename} "
                          f"not found or not a file") from None
    try:
        for key in ("model_config", "normalization", "schema_hash"):
            if key not in manifest:
                raise SchemaMismatchError(f"model manifest missing {key}")
        schema_hash = manifest["schema_hash"]
        if not (isinstance(schema_hash, str) and len(schema_hash) == 64
                and set(schema_hash) <= set("0123456789abcdef")):
            raise SchemaMismatchError(
                f"model manifest schema_hash must be a 64-character "
                f"lowercase hex digest, got {schema_hash!r}")
        config = model_config_from_record(manifest["model_config"])
        norm = NormalizationStats.from_record(manifest["normalization"])
        for name, width, vectors in (
                ("listing", config.listing_dim,
                 (norm.listing_mean, norm.listing_scale)),
                ("context", config.context_dim,
                 (norm.context_mean, norm.context_scale))):
            if any(v.shape != (width,) for v in vectors):
                raise SchemaMismatchError(
                    f"{name} normalization widths {[v.shape for v in vectors]}"
                    f" do not match the {name} tower input width {width}")
        # The weights must be exactly the config's tensors: a head or
        # blend output the config lacks would otherwise be ignored.
        implied = nn.tensor_table(parameter_layout(config))
        if manifest["tensors"] != implied:
            saved = {e["name"]: e["shape"] for e in manifest["tensors"]}
            wanted = {e["name"]: e["shape"] for e in implied}
            differ = sorted(name for name in saved.keys() | wanted.keys()
                            if saved.get(name) != wanted.get(name))
            raise SchemaMismatchError(
                f"saved weights do not match model_config "
                f"({', '.join(differ) or 'tensor order'})")
    except (ConfigError, SchemaMismatchError) as exc:
        raise SchemaMismatchError(
            f"{Path(directory) / 'params.json'}: {exc}") from None
    return TrainedModel(config=config, params=params, normalization=norm,
                        schema_hash=schema_hash)
