"""Multi-task journey ranking model.

Two shared MLP towers embed listing features and search context. A stack
of per-task heads turns the pair of embeddings into conditional logits for
each positive funnel milestone; chaining their log-sigmoids yields joint
log-probabilities, and the deepest one (uncancelled booking) is the base
ranking score. Further heads score each negative outcome (rejection and
the two cancellation kinds) as binary classifiers over their eligible
rows. A small coefficient MLP, reading the context embedding alone, blends
the base score with the negative-outcome logits into the final score; the
blend sees all scores through a gradient stop, so its loss tunes only the
blend coefficients and the context they are conditioned on, never the
scoring heads themselves.

The context tower and the coefficient MLP run once per search, and a
segment broadcast hands their outputs to the search's impression rows;
every other value, and every score, is per impression row.

Everything trains jointly from whole-search minibatches by summing three
losses: a listwise softmax loss per positive milestone, a masked binary
cross-entropy per negative milestone, and a pairwise preference loss on
the blended score.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Mapping

import numpy as np

# pack_dataset is not called here; the benchmark's tracer wraps it under
# this name (perfbench/layers.py).
from .dataio import pack_dataset  # noqa: F401
from .domain import (
    Dataset,
    DatasetSchema,
    NEGATIVE_MILESTONES,
    NEGATIVE_PARENT,
    POSITIVE_CHAIN,
    PackedSearches,
    concat_ranges,
    relevance_grades,
    task_weights,
)
from .errors import (
    ConfigError,
    ContractError,
    DataValidationError,
    SchemaMismatchError,
    TrainingDivergenceError,
)
from . import nn
from .nn import MlpSpec, ParameterStore, Tape, Tensor
from .nn.mlp import ACTIVATIONS


# ---------------------------------------------------------------------------
# configuration


def _check_int(name: str, value, minimum: int) -> None:
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ConfigError(f"{name} must be an integer >= {minimum}, "
                          f"got {value!r}")


def _check_sequence(name: str, value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and loss layout for one ranking model.

    Every block's shape derives from these fields:

    - ``listing_tower`` maps ``listing_dim`` features, and
      ``context_tower`` maps ``context_dim`` features, through
      ``tower_hidden`` to ``embedding_dim``.
    - ``head``, shared by every task, maps the joint embedding
      (``2 * embedding_dim``) through ``head_hidden`` to one logit.
    - ``combination`` maps the context embedding through
      ``combination_hidden`` to one coefficient for the base score plus
      one per twiddler; there is none without twiddlers.
    - ``activation`` sits between the layers of every block.

    ``base_tasks`` lists the positive milestones to chain, in funnel order,
    always ending at the uncancelled-booking task whose joint probability
    is the base score. ``twiddler_tasks`` lists the negative milestones
    given dedicated re-ranking heads. ``task_loss_weights``, one positive
    weight per base task, replaces the inverse-prevalence weights, and
    ``seed`` fixes initialization and batch order.
    """

    listing_dim: int
    context_dim: int
    embedding_dim: int = 12
    tower_hidden: tuple[int, ...] = (24,)
    head_hidden: tuple[int, ...] = ()
    combination_hidden: tuple[int, ...] = (8,)
    activation: str = "relu"
    base_tasks: tuple[str, ...] = POSITIVE_CHAIN
    twiddler_tasks: tuple[str, ...] = NEGATIVE_MILESTONES
    task_loss_weights: Mapping[str, float] | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("listing_dim", "context_dim", "embedding_dim"):
            _check_int(name, getattr(self, name), 1)
        _check_int("seed", self.seed, 0)
        for name in ("tower_hidden", "head_hidden", "combination_hidden",
                     "base_tasks", "twiddler_tasks"):
            object.__setattr__(self, name,
                               _check_sequence(name, getattr(self, name)))
        for name in ("tower_hidden", "head_hidden", "combination_hidden"):
            for width in getattr(self, name):
                _check_int(name, width, 1)
        if (not isinstance(self.activation, str)
                or self.activation not in ACTIVATIONS):
            raise ConfigError(f"activation must be one of "
                              f"{sorted(ACTIVATIONS)}, got {self.activation!r}")
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
        if self.task_loss_weights is not None:
            if (not isinstance(self.task_loss_weights, Mapping)
                    or set(self.task_loss_weights) != set(base)):
                raise ConfigError("task_loss_weights keys must match "
                                  "base_tasks")
            try:
                weights = {t: float(w)
                           for t, w in self.task_loss_weights.items()}
            except (TypeError, ValueError):
                raise ConfigError("task_loss_weights values must be numbers, "
                                  f"got {self.task_loss_weights!r}") from None
            for task, w in weights.items():
                if not np.isfinite(w) or w <= 0:
                    raise ConfigError(f"weight for {task} must be positive")
            object.__setattr__(self, "task_loss_weights", weights)

    @property
    def all_tasks(self) -> tuple[str, ...]:
        return self.base_tasks + self.twiddler_tasks

    @property
    def listing_tower(self) -> MlpSpec:
        return MlpSpec(self.listing_dim, self.tower_hidden,
                       self.embedding_dim, self.activation)

    @property
    def context_tower(self) -> MlpSpec:
        return MlpSpec(self.context_dim, self.tower_hidden,
                       self.embedding_dim, self.activation)

    @property
    def head(self) -> MlpSpec:
        """The shape of every task head."""
        return MlpSpec(2 * self.embedding_dim, self.head_hidden, 1,
                       self.activation)

    @property
    def combination(self) -> MlpSpec | None:
        if not self.twiddler_tasks:
            return None
        return MlpSpec(self.embedding_dim, self.combination_hidden,
                       1 + len(self.twiddler_tasks), self.activation)


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


def init_model_params(config: ModelConfig) -> ParameterStore:
    """Fresh parameters for every module, drawn from one seeded stream."""
    rng = np.random.default_rng(config.seed)
    store = ParameterStore()
    nn.init_mlp_params(store, _TOWER_LISTING, config.listing_tower, rng)
    nn.init_mlp_params(store, _TOWER_CONTEXT, config.context_tower, rng)
    head = config.head
    for task in config.all_tasks:
        nn.init_mlp_params(store, _head_prefix(task), head, rng)
    if config.combination is not None:
        nn.init_mlp_params(store, _COMBINATION, config.combination, rng)
    return store


def parameter_count(config: ModelConfig) -> int:
    total = config.listing_tower.n_params + config.context_tower.n_params
    total += len(config.all_tasks) * config.head.n_params
    if config.combination is not None:
        total += config.combination.n_params
    return total


def module_parameter_names(config: ModelConfig) -> dict[str, list[str]]:
    """Parameter names grouped by module, for gradient bookkeeping."""
    store = init_model_params(config)
    groups: dict[str, list[str]] = {
        "listing_tower": [], "context_tower": [], "base_heads": [],
        "twiddler_heads": [], "combination": [],
    }
    for name in store.names():
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

    @staticmethod
    def _fit_columns(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = rows.mean(axis=0)
        scale = rows.std(axis=0)
        scale = np.where(scale < 1e-12, 1.0, scale)
        return mean, scale

    @classmethod
    def fit(cls, listing_rows: np.ndarray,
            context_rows: np.ndarray) -> "NormalizationStats":
        if len(listing_rows) == 0:
            raise ContractError("cannot fit normalization on zero rows")
        lm, ls = cls._fit_columns(np.asarray(listing_rows, dtype=np.float64))
        cm, cs = cls._fit_columns(np.asarray(context_rows, dtype=np.float64))
        return cls(listing_mean=lm, listing_scale=ls,
                   context_mean=cm, context_scale=cs)

    def apply_listing(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        return (rows - self.listing_mean) / self.listing_scale

    def apply_context(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        return (rows - self.context_mean) / self.context_scale

    def to_record(self) -> dict:
        return {
            "listing_mean": [float(v) for v in self.listing_mean],
            "listing_scale": [float(v) for v in self.listing_scale],
            "context_mean": [float(v) for v in self.context_mean],
            "context_scale": [float(v) for v in self.context_scale],
        }

    @classmethod
    def from_record(cls, rec: dict) -> "NormalizationStats":
        try:
            return cls(
                listing_mean=np.asarray(rec["listing_mean"], dtype=np.float64),
                listing_scale=np.asarray(rec["listing_scale"],
                                         dtype=np.float64),
                context_mean=np.asarray(rec["context_mean"], dtype=np.float64),
                context_scale=np.asarray(rec["context_scale"],
                                         dtype=np.float64),
            )
        except KeyError as exc:
            raise ConfigError(
                f"normalization record missing key {exc}") from None


# ---------------------------------------------------------------------------
# forward passes


@dataclass(frozen=True)
class Embeddings:
    listing: Tensor
    context: Tensor


@dataclass(frozen=True)
class ModelOutputs:
    """Every intermediate score for a batch of impressions, one value per
    impression row in every field."""

    cond_logits: dict[str, Tensor]
    log_joint: dict[str, Tensor]
    y_base: Tensor
    y_twiddler: dict[str, Tensor]
    alpha_base: Tensor | None
    alpha_twiddler: dict[str, Tensor]
    y_combination: Tensor | None

    @property
    def ranking_score(self) -> Tensor:
        return self.y_combination if self.y_combination is not None \
            else self.y_base


def shared_forward(config: ModelConfig, params: ParameterStore,
                   listing_rows: np.ndarray,
                   context_rows: np.ndarray) -> Embeddings:
    """Embed pre-normalized listing rows (one per impression) and context
    rows (one per search) with the two towers."""
    listing = nn.constant(np.asarray(listing_rows, dtype=np.float64))
    context = nn.constant(np.asarray(context_rows, dtype=np.float64))
    emb_l = nn.forward_mlp(params, _TOWER_LISTING, config.listing_tower,
                           listing)
    emb_c = nn.forward_mlp(params, _TOWER_CONTEXT, config.context_tower,
                           context)
    return Embeddings(listing=emb_l, context=emb_c)


def _head_logits(config: ModelConfig, params: ParameterStore,
                 joint_emb: Tensor) -> dict[str, Tensor]:
    """Every head's logit, per row of the joint embedding.

    The heads' first layers run as one matmul over their column-stacked
    weights, so head k's first layer outputs columns ``k*w:(k+1)*w``. A
    linear head's logit is its column of that output; a head with hidden
    layers goes on from its block of columns.
    """
    spec = config.head
    width = spec.layer_dims[0][1]
    prefixes = [_head_prefix(task) for task in config.all_tasks]
    first = nn.add_bias(
        nn.matmul(joint_emb,
                  nn.concat_cols(*(params[f"{p}.w0"] for p in prefixes))),
        nn.concat_cols(*(params[f"{p}.b0"] for p in prefixes)))
    logits: dict[str, Tensor] = {}
    for k, (task, prefix) in enumerate(zip(config.all_tasks, prefixes)):
        if spec.hidden_dims:
            block = nn.column(first, slice(k * width, (k + 1) * width))
            out = nn.forward_mlp(params, prefix, spec, block, start=1)
            logits[task] = nn.column(out, 0)
        else:
            logits[task] = nn.column(first, k)
    return logits


def _coefficients(config: ModelConfig, coef_logits: Tensor,
                  ) -> tuple[Tensor, dict[str, Tensor]]:
    """The positive base coefficient and one signed coefficient per
    twiddler task, from the combination MLP's output columns."""
    alpha_base = nn.softplus(nn.column(coef_logits, 0))
    alpha_twiddler = {task: nn.column(coef_logits, 1 + k)
                      for k, task in enumerate(config.twiddler_tasks)}
    return alpha_base, alpha_twiddler


def forward(config: ModelConfig, params: ParameterStore,
            listing_rows: np.ndarray, context_rows: np.ndarray,
            seg: np.ndarray) -> ModelOutputs:
    """Full forward pass over pre-normalized feature rows.

    ``listing_rows`` holds one row per impression, ``context_rows`` one
    row per search, and ``seg[i]`` is the search of impression i. The
    context tower and the combination MLP run once per search; every
    output is per impression.

    The joint log-probability of base task k is the running sum of
    log-sigmoid conditional logits down the funnel, so each stage can
    only lower it. The base coefficient passes through softplus so it
    stays positive; twiddler coefficients may change sign. The blend
    sees the scores through a gradient stop, so the blending loss shapes
    coefficients, not scores.
    """
    emb = shared_forward(config, params, listing_rows, context_rows)
    joint_emb = nn.concat_cols(emb.listing,
                               nn.segment_broadcast(emb.context, seg))
    logits = _head_logits(config, params, joint_emb)
    cond_logits = {task: logits[task] for task in config.base_tasks}
    y_twiddler = {task: logits[task] for task in config.twiddler_tasks}
    log_joint: dict[str, Tensor] = {}
    running: Tensor | None = None
    for task, logit in cond_logits.items():
        step = nn.log_sigmoid(logit)
        running = step if running is None else nn.add(running, step)
        log_joint[task] = running
    y_base = running
    alpha_base = None
    alpha_twiddler: dict[str, Tensor] = {}
    y_combination = None
    if config.combination is not None:
        coef_logits = nn.forward_mlp(params, _COMBINATION, config.combination,
                                     emb.context)
        alpha_base, alpha_twiddler = _coefficients(
            config, nn.segment_broadcast(coef_logits, seg))
        y_combination = nn.mul(alpha_base, nn.stop_gradient(y_base))
        for task, alpha in alpha_twiddler.items():
            y_combination = nn.add(y_combination, nn.mul(
                alpha, nn.stop_gradient(y_twiddler[task])))
    return ModelOutputs(cond_logits=cond_logits, log_joint=log_joint,
                        y_base=y_base, y_twiddler=y_twiddler,
                        alpha_base=alpha_base,
                        alpha_twiddler=alpha_twiddler,
                        y_combination=y_combination)


# ---------------------------------------------------------------------------
# batches


def preference_pairs(grades: np.ndarray,
                     seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All within-search index pairs (i, j) with grade[i] > grade[j].

    Pairs come search by search and, within a search, in row-major order
    of its (i, j) grid.
    """
    starts = np.flatnonzero(np.r_[True, np.diff(seg) != 0])
    sizes = np.diff(np.r_[starts, len(seg)])
    cells = sizes * sizes
    cell_search = np.repeat(np.arange(len(sizes)), cells)
    cell = np.arange(cells.sum()) - np.repeat(np.cumsum(cells) - cells, cells)
    width = sizes[cell_search]
    pair_i = starts[cell_search] + cell // width
    pair_j = starts[cell_search] + cell % width
    keep = grades[pair_i] > grades[pair_j]
    return pair_i[keep], pair_j[keep]


# Upper bound on the (i, j) grid cells one preference_pairs call builds, so
# the grid's index temporaries stay a few MB however large the dataset.
_PAIR_GRID_CELLS = 1 << 16


@dataclass(frozen=True)
class BatchInputs:
    """Everything a training batch is cut from, built once per train().

    Rows are the dataset's impression rows and ``search_starts`` its
    search offsets. ``labels`` holds one row per name in ``label_names``.
    Search k's preference pairs are ``pair_i``/``pair_j`` at
    ``pair_starts[k]:pair_starts[k + 1]``, as row offsets within the
    search, in the order :func:`preference_pairs` gives them.
    """

    search_starts: np.ndarray         # [n_searches + 1] int64
    listing_rows: np.ndarray          # [n_impressions, listing_dim] normalized
    context_rows: np.ndarray          # [n_searches, context_dim] normalized
    label_names: tuple[str, ...]
    labels: np.ndarray                # [len(label_names), n_impressions] bool
    pair_starts: np.ndarray           # [n_searches + 1] int64
    pair_i: np.ndarray                # [n_pairs] int64
    pair_j: np.ndarray                # [n_pairs] int64


def batch_inputs(packed: PackedSearches,
                 norm: NormalizationStats) -> BatchInputs:
    """Normalize the features and find every search's preference pairs."""
    starts = packed.search_starts
    seg = packed.search_of_imp
    grades = relevance_grades(packed.labels)
    sizes = np.diff(starts)
    grid_ends = np.cumsum(sizes * sizes)
    pair_i, pair_j = [], []
    lo = 0
    while lo < packed.n_searches:
        limit = _PAIR_GRID_CELLS + (grid_ends[lo - 1] if lo else 0)
        hi = max(lo + 1, int(np.searchsorted(grid_ends, limit, side="right")))
        rows = slice(starts[lo], starts[hi])
        i, j = preference_pairs(grades[rows], seg[rows])
        pair_i.append(i + starts[lo])
        pair_j.append(j + starts[lo])
        lo = hi
    pair_i = np.concatenate(pair_i)
    pair_j = np.concatenate(pair_j)
    pair_search = seg[pair_i]
    pair_counts = np.bincount(pair_search, minlength=packed.n_searches)
    return BatchInputs(
        search_starts=starts,
        listing_rows=norm.apply_listing(packed.listing_features),
        context_rows=norm.apply_context(packed.context_features),
        label_names=tuple(packed.labels),
        labels=np.stack(list(packed.labels.values())),
        pair_starts=np.r_[0, np.cumsum(pair_counts)],
        pair_i=pair_i - starts[pair_search],
        pair_j=pair_j - starts[pair_search],
    )


@dataclass(frozen=True)
class SearchBatch:
    """A minibatch of whole searches, ready for the forward pass.

    ``context_rows`` holds one row per search; every other array holds one
    entry per impression row, except the preference pairs, which index
    rows. ``seg[i]`` is the batch's search of row i, sorted ascending.
    """

    listing_rows: np.ndarray          # [n_rows, listing_dim] normalized
    context_rows: np.ndarray          # [n_searches, context_dim] normalized
    seg: np.ndarray                   # [n_rows] int64
    n_searches: int
    labels: dict[str, np.ndarray]     # milestone -> [n_rows] bool
    pair_i: np.ndarray                # [n_pairs] int64
    pair_j: np.ndarray                # [n_pairs] int64

    @property
    def n_rows(self) -> int:
        return len(self.seg)


def make_batch(inputs: BatchInputs,
               search_indices: np.ndarray) -> SearchBatch:
    """The given searches, in the given order, cut from ``inputs``."""
    search_indices = np.asarray(search_indices, dtype=np.int64)
    starts = inputs.search_starts[search_indices]
    counts = inputs.search_starts[search_indices + 1] - starts
    rows = concat_ranges(starts, counts)
    pair_starts = inputs.pair_starts[search_indices]
    pair_counts = inputs.pair_starts[search_indices + 1] - pair_starts
    pairs = concat_ranges(pair_starts, pair_counts)
    # each pair moves from its search's offsets to the batch's
    shift = np.repeat(np.cumsum(counts) - counts, pair_counts)
    return SearchBatch(
        listing_rows=inputs.listing_rows[rows],
        context_rows=inputs.context_rows[search_indices],
        seg=np.repeat(np.arange(len(search_indices)), counts),
        n_searches=len(search_indices),
        labels=dict(zip(inputs.label_names, inputs.labels[:, rows])),
        pair_i=inputs.pair_i[pairs] + shift,
        pair_j=inputs.pair_j[pairs] + shift,
    )


# ---------------------------------------------------------------------------
# losses


def base_loss(log_joint: Mapping[str, Tensor], batch: SearchBatch,
              weights: Mapping[str, float]) -> Tensor:
    """Weighted listwise softmax loss summed over tasks and positives.

    For each task, every positively labeled impression contributes the
    negative log-softmax of its joint log-probability against all
    impressions of its search.
    """
    total: Tensor | None = None
    starts = None
    for task, scores in log_joint.items():
        positive_rows = np.flatnonzero(batch.labels[task])
        if positive_rows.size == 0:
            continue
        if starts is None:
            starts = nn.segment_starts(batch.seg, batch.n_searches)
        lse = nn.segment_logsumexp(scores, batch.seg, batch.n_searches,
                                   starts=starts)
        per_positive = nn.sub(nn.gather(lse, batch.seg[positive_rows]),
                              nn.gather(scores, positive_rows))
        term = nn.scale(nn.total_sum(per_positive), float(weights[task]))
        total = term if total is None else nn.add(total, term)
    if total is None:
        return nn.constant(0.0)
    return total


def twiddler_loss(y_twiddler: Mapping[str, Tensor],
                  batch: SearchBatch) -> Tensor:
    """Masked binary cross-entropy summed over negative-outcome tasks.

    Each task is scored only on its eligible rows: rejection on requested
    impressions, either cancellation kind on booked impressions. A task
    with no eligible rows contributes exactly zero.
    """
    total: Tensor | None = None
    for task, logits in y_twiddler.items():
        eligible = np.flatnonzero(batch.labels[NEGATIVE_PARENT[task]])
        if eligible.size == 0:
            continue
        z = nn.gather(logits, eligible)
        targets = batch.labels[task][eligible].astype(np.float64)
        per_row = nn.sub(nn.softplus(z), nn.mul(nn.constant(targets), z))
        term = nn.total_mean(per_row)
        total = term if total is None else nn.add(total, term)
    if total is None:
        return nn.constant(0.0)
    return total


def combination_loss(y_combination: Tensor, batch: SearchBatch) -> Tensor:
    """Pairwise logistic loss over within-search grade violations."""
    if batch.pair_i.size == 0:
        return nn.constant(0.0)
    diff = nn.sub(nn.gather(y_combination, batch.pair_i),
                  nn.gather(y_combination, batch.pair_j))
    return nn.scale(nn.total_mean(nn.log_sigmoid(diff)), -1.0)


def total_loss(config: ModelConfig, params: ParameterStore,
               batch: SearchBatch, weights: Mapping[str, float],
               ) -> tuple[Tensor, ModelOutputs, dict[str, float]]:
    """Unweighted sum of the module losses present in the config."""
    outputs = forward(config, params, batch.listing_rows, batch.context_rows,
                      batch.seg)
    parts: dict[str, float] = {}
    loss = base_loss(outputs.log_joint, batch, weights)
    parts["base"] = float(loss.values)
    if config.twiddler_tasks:
        term = twiddler_loss(outputs.y_twiddler, batch)
        parts["twiddler"] = float(term.values)
        loss = nn.add(loss, term)
    if outputs.y_combination is not None:
        term = combination_loss(outputs.y_combination, batch)
        parts["combination"] = float(term.values)
        loss = nn.add(loss, term)
    parts["total"] = float(loss.values)
    return loss, outputs, parts


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

    def outputs(self, listing_rows: np.ndarray, context_rows: np.ndarray,
                seg: np.ndarray) -> ModelOutputs:
        """Score impressions from raw feature rows (no gradients).

        ``listing_rows`` holds one row per impression and ``context_rows``
        one row per search; listing row i belongs to the search whose
        context is ``context_rows[seg[i]]``. Every output is per
        impression.
        """
        listing_rows = np.asarray(listing_rows, dtype=np.float64)
        context_rows = np.asarray(context_rows, dtype=np.float64)
        if (listing_rows.ndim != 2 or context_rows.ndim != 2
                or np.shape(seg) != (len(listing_rows),)):
            raise ContractError("listing and context rows must be 2-d "
                                "batches, with one seg entry per listing")
        return forward(self.config, self.params,
                       self.normalization.apply_listing(listing_rows),
                       self.normalization.apply_context(context_rows), seg)


def resolve_task_weights(config: ModelConfig,
                         dataset: Dataset) -> dict[str, float]:
    """Configured weights when given, else inverse-prevalence weights
    anchored so the deepest task weighs 1."""
    if config.task_loss_weights is not None:
        return {t: float(w) for t, w in config.task_loss_weights.items()}
    return task_weights(dataset, config.base_tasks)


def train(config: ModelConfig, dataset: Dataset, epochs: int, *,
          batch_size: int = 64, learning_rate: float = 1e-3,
          ) -> tuple[TrainedModel, list[EpochStats]]:
    """Fit the model with Adam over whole-search minibatches.

    The dataset is expected to be validated and training-filtered
    already. Runs are deterministic per config seed: initialization,
    shuffling, and batching all derive from it.
    """
    if epochs < 0:
        raise ConfigError("epochs must be non-negative")
    if batch_size < 1:
        raise ConfigError("batch_size must be positive")
    packed = dataset.searches
    if packed.n_searches == 0:
        raise DataValidationError("training dataset has no searches")
    norm = NormalizationStats.fit(packed.listing_features,
                                  packed.context_features)
    weights = resolve_task_weights(config, dataset)
    params = init_model_params(config)
    state = nn.init_adam(params, learning_rate)
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(1,)))
    inputs = batch_inputs(packed, norm)
    history: list[EpochStats] = []
    for epoch in range(epochs):
        order = shuffle_rng.permutation(packed.n_searches)
        sums: dict[str, float] = {}
        for batch_index, lo in enumerate(range(0, len(order), batch_size)):
            batch = make_batch(inputs, order[lo:lo + batch_size])
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
# interpretability


def blend_coefficients(model: TrainedModel, context_rows: np.ndarray,
                       ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Blend coefficients for raw context rows, for interpretability.

    Returns the positive base coefficient and the signed coefficient per
    twiddler task, one value per input row.
    """
    config = model.config
    if config.combination is None:
        raise ConfigError("model has no combination layer")
    context_rows = np.asarray(context_rows, dtype=np.float64)
    if context_rows.ndim != 2:
        raise ContractError("context rows must be a 2-d batch")
    normalized = model.normalization.apply_context(context_rows)
    emb_c = nn.forward_mlp(model.params, _TOWER_CONTEXT,
                           config.context_tower, nn.constant(normalized))
    alpha_base, alpha_twiddler = _coefficients(config, nn.forward_mlp(
        model.params, _COMBINATION, config.combination, emb_c))
    return alpha_base.values, {task: alpha.values
                               for task, alpha in alpha_twiddler.items()}


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
    try:
        params, manifest = nn.load_params(directory)
    except FileNotFoundError as exc:
        raise ConfigError(f"no saved model in {directory}: "
                          f"{exc.filename} not found") from None
    for key in ("model_config", "normalization", "schema_hash"):
        if key not in manifest:
            raise SchemaMismatchError(
                f"{directory}: model manifest missing {key}")
    config = model_config_from_record(manifest["model_config"])
    norm = NormalizationStats.from_record(manifest["normalization"])
    for name, width, vectors in (
            ("listing", config.listing_dim,
             (norm.listing_mean, norm.listing_scale)),
            ("context", config.context_dim,
             (norm.context_mean, norm.context_scale))):
        if any(v.shape != (width,) for v in vectors):
            raise SchemaMismatchError(
                f"{directory}: {name} normalization widths "
                f"{[v.shape for v in vectors]} do not match the "
                f"{name} tower input width {width}")
    # The weights must be exactly the tensors the config would initialize:
    # a head or blend output the config lacks would otherwise be ignored.
    implied = nn.tensor_table(init_model_params(config))
    if manifest["tensors"] != implied:
        saved = {e["name"]: e["shape"] for e in manifest["tensors"]}
        wanted = {e["name"]: e["shape"] for e in implied}
        differ = sorted(name for name in saved.keys() | wanted.keys()
                        if saved.get(name) != wanted.get(name))
        raise SchemaMismatchError(
            f"{directory}: saved weights do not match model_config "
            f"({', '.join(differ) or 'tensor order'})")
    return TrainedModel(config=config, params=params, normalization=norm,
                        schema_hash=manifest["schema_hash"])
