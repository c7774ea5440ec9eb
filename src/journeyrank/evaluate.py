"""Offline evaluation harness for journey ranking models.

Measures ranking quality as binary-relevance NDCG per positive milestone
and extracts how the blend coefficients move across context buckets (the
interpretability curves for the negative-outcome heads). The curves read
the coefficients that scoring computes, from the same model pass.

Evaluation reads only the dataset's columns: a scorer scores every
impression of every search in one call, one sort ranks all searches at
once, and NDCG is a per-search reduction over the ranked positive flags.

Model comparisons share one paired multi-seed protocol, ``paired_runs``.
It refuses fewer than two seeds or a repeated one, splits the dataset once
by guest hash, trains every configuration once per seed on the training
side and scores each run's unc NDCG on the eval side. Its one
``PairedReport`` reads every configuration against the first, seed by
seed, with a paired t-interval: ``compare`` lists config B first,
``run_ablation`` the single-task cell. Runs differ only in configuration
and seed, so every number is exactly reproducible, whether the runs go
serially or through forked worker processes.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataio import split_by_guest
from .domain import (
    Dataset,
    POSITIVE_CHAIN,
    filter_training_searches,
)
from .errors import (
    ConfigError,
    ContractError,
    DataValidationError,
    NonFiniteScoreError,
)
from .nn import Segments
from .model import (
    ModelConfig,
    TrainedModel,
    check_training_settings,
    parameter_count,
    train,
)

Scorer = Callable[[Dataset], np.ndarray]
"""Scores every impression of a dataset in one call.

It receives the dataset and returns one float score per impression row,
aligned with ``listing_index``. Higher ranks first; ties break by listing
id.
"""


# ---------------------------------------------------------------------------
# NDCG


def ndcg_binary(positive: np.ndarray, segments: Segments,
                ) -> tuple[np.ndarray, np.ndarray]:
    """Per-search NDCG with unit gain on positives and log2 rank discount.

    ``positive`` flags each impression in ranked order, search after
    search, laid out into searches by ``segments``. Returns the NDCG of
    each search and whether it has a positive at all; a search without
    one reads 0 and is for the caller to skip.
    """
    positive = np.asarray(positive, dtype=bool)
    if positive.shape != (segments.n_rows,):
        raise ContractError("ndcg_binary needs one flag per segment row")
    discount = np.array([1.0 / math.log2(rank + 1) for rank in
                         range(1, int(segments.sizes.max(initial=0)) + 1)])
    rows = np.flatnonzero(positive)
    search = segments.ids[rows]
    # bincount and cumsum add in order, so each search's DCG and its ideal
    # DCG are summed rank by rank from the same discount table.
    dcg = np.bincount(search, weights=discount[rows - segments.starts[search]],
                      minlength=segments.n)
    n_positive = np.bincount(search, minlength=segments.n)
    ideal = np.cumsum(np.r_[0.0, discount])[n_positive]
    has_positive = n_positive > 0
    ndcg = np.divide(dcg, ideal, out=np.zeros(segments.n), where=has_positive)
    return ndcg, has_positive


@dataclass(frozen=True)
class NdcgReport:
    """Mean NDCG of one evaluation over the searches it scored.

    Searches without a positive for the milestone are skipped, not scored;
    with none scored, the record and the table show no mean (``mean`` is
    0.0). The multi-seed protocol keeps each run's mean in a ``PairedReport``.
    """

    mean: float
    n_searches: int
    n_skipped: int

    def __post_init__(self):
        if not 0.0 <= self.mean <= 1.0:
            raise ContractError(f"mean NDCG {self.mean} outside [0, 1]")

    def to_record(self) -> dict:
        return {**asdict(self), "mean": self.mean if self.n_searches else None}


# The 0.975 quantile of Student's t for 1 to 30 degrees of freedom, each
# the exact repr of scipy.special.stdtrit(df, 0.975), as the tests check.
_T_975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454, 2.045229642132703, 2.0422724563012378,
)


def t_interval_half_width(values: np.ndarray) -> float:
    """Half-width of the 95 percent Student-t interval for the mean.

    Up to 31 values the quantile comes from ``_T_975``, a table of
    ``scipy.special.stdtrit(df, 0.975)`` that the tests compare with it
    bit for bit, because importing ``scipy.special`` for that one number
    costs a comparison run about 0.25 s and 17 MB of peak memory. Larger
    samples import it.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2:
        raise ConfigError("a confidence interval needs at least 2 values")
    df = len(values) - 1
    if df <= len(_T_975):
        t_975 = _T_975[df - 1]
    else:
        # scipy.stats takes about a second to import; scipy.special's
        # inverse t CDF gives the same quantile.
        from scipy.special import stdtrit
        t_975 = stdtrit(df, 0.975)
    sem = values.std(ddof=1) / math.sqrt(len(values))
    return float(t_975 * sem)


# ---------------------------------------------------------------------------
# scoring a dataset


def model_scorer(model: TrainedModel) -> Scorer:
    """Scores every impression of a dataset of the model's schema, one
    model pass over its listing table (:meth:`TrainedModel.outputs`)."""
    def scorer(dataset: Dataset) -> np.ndarray:
        return model.outputs(dataset).ranking_score
    return scorer


def oracle_scorer(world) -> Scorer:
    """Scores candidates by their true conversion probability, with the
    world's features of each listing table row's id.

    ``world.true_unc_probability`` takes searches of one size at a time,
    since a search's listing part is a mat-vec whose rounding depends on
    its size; generated data has a single size, so that is one call.
    """
    def scorer(dataset: Dataset) -> np.ndarray:
        scores = np.empty(dataset.n_impressions)
        rows = world.rows_for_ids(dataset.listing_ids)[dataset.listing_index]
        sizes = dataset.searches.sizes
        for size in np.unique(sizes):
            which = np.flatnonzero(sizes == size)
            imps = dataset.searches.starts[which, None] + np.arange(size)
            scores[imps] = world.true_unc_probability(
                dataset.context_features[which], rows[imps])
        return scores
    return scorer


def evaluate_with_scorer(dataset: Dataset,
                         scorer: Scorer) -> dict[str, NdcgReport]:
    """Mean NDCG per positive milestone for an arbitrary scorer."""
    scores = np.asarray(scorer(dataset), dtype=np.float64)
    if scores.shape != (dataset.n_impressions,):
        raise ContractError("scorer must return one score per impression")
    # segment ids are sorted, so every search keeps its rows in place
    searches = dataset.searches
    order = np.lexsort((dataset.listing_codes(), -scores, searches.ids))
    reports = {}
    for task in POSITIVE_CHAIN:
        ndcg, has_positive = ndcg_binary(dataset.labels[task][order],
                                         searches)
        scored = ndcg[has_positive]
        count = len(scored)
        # cumsum adds in search order; np.sum would add pairwise
        mean = float(np.cumsum(scored)[-1]) / count if count else 0.0
        reports[task] = NdcgReport(mean=mean, n_searches=count,
                                   n_skipped=dataset.n_searches - count)
    return reports


def evaluate(model: TrainedModel,
             dataset: Dataset) -> dict[str, NdcgReport]:
    """Mean NDCG per positive milestone; the model's scorer refuses
    foreign schemas."""
    return evaluate_with_scorer(dataset, model_scorer(model))


# ---------------------------------------------------------------------------
# paired multi-seed protocol


# The protocol pairs NDCG on uncancelled bookings, the milestone the
# ranking score is trained to order.
PROTOCOL_MILESTONE = "unc"


@dataclass(frozen=True)
class TrainEvalSettings:
    """Shared knobs for every seeded training run in a protocol."""

    epochs: int = 8
    batch_size: int = 128
    learning_rate: float = 1e-3

    def __post_init__(self):
        check_training_settings(self.epochs, self.batch_size,
                                self.learning_rate, min_epochs=1)


def prepare_split(dataset: Dataset) -> tuple[Dataset, Dataset]:
    """Guest-hash split, then training-side journey filtering."""
    train_ds, eval_ds = split_by_guest(dataset)
    return filter_training_searches(train_ds).training_dataset(), eval_ds


@dataclass(frozen=True)
class PairedReport:
    """Every config's eval NDCG per seed, all from one split, each read
    against the first config, the reference.

    The per-label tuples follow ``labels``, which may repeat. One rule
    gives every delta: a label's NDCG minus the reference's on the same
    seed, with the 95 percent t half-width of those per-seed deltas, so
    the reference's own deltas and half-width are 0.0.
    """

    labels: tuple[str, ...]
    seeds: tuple[int, ...]
    ndcg: tuple[tuple[float, ...], ...]
    n_eval_searches: int
    tasks: tuple[tuple[str, ...], ...]
    n_params: tuple[int, ...]
    n_searches_with_positives: tuple[int, ...]

    def deltas(self, i: int) -> np.ndarray:
        """Label ``i``'s NDCG minus the reference's, seed by seed."""
        return np.array(self.ndcg[i]) - np.array(self.ndcg[0])

    def rows(self) -> list[dict]:
        """Each label's means, deltas and training-side counts, in order;
        ``ablation.json`` is these rows."""
        rows = []
        for i, label in enumerate(self.labels):
            deltas = self.deltas(i)
            rows.append({
                "name": label,
                "tasks": self.tasks[i],
                "seeds": self.seeds,
                "per_seed_ndcg": self.ndcg[i],
                "mean_ndcg": float(np.mean(self.ndcg[i])),
                "mean_delta": float(deltas.mean()),
                "ci_half_width": t_interval_half_width(deltas),
                "parameter_delta": self.n_params[i] - self.n_params[0],
                "search_delta": (self.n_searches_with_positives[i]
                                 - self.n_searches_with_positives[0]),
                "n_searches_with_positives": self.n_searches_with_positives[i],
            })
        return rows


# Forked workers inherit the split instead of unpickling it per job.
_JOB_DATA: dict = {}


def _paired_job(config: ModelConfig) -> NdcgReport:
    settings = _JOB_DATA["settings"]
    model, _ = train(config, _JOB_DATA["train"], settings.epochs,
                     batch_size=settings.batch_size,
                     learning_rate=settings.learning_rate)
    return evaluate(model, _JOB_DATA["eval"])[PROTOCOL_MILESTONE]


def _process_pool(workers: int):
    """A pool of ``workers`` forked processes. The pool modules are
    imported here, since only a run with more than one worker uses them."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context("fork"))


def check_protocol(seeds: Sequence[int], jobs: int) -> tuple[int, ...]:
    """The seeds as a tuple, once they are at least 2 and distinct and
    ``jobs`` is at least 1."""
    seeds = tuple(int(s) for s in seeds)
    if len(seeds) < 2 or len(set(seeds)) != len(seeds):
        raise ConfigError(f"a paired protocol needs at least 2 distinct "
                          f"seeds, got {list(seeds)}")
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    return seeds


def _searches_with_positives(dataset: Dataset,
                             tasks: tuple[str, ...]) -> int:
    positive = np.logical_or.reduce([dataset.labels[t] for t in tasks])
    return int(np.unique(dataset.searches.ids[positive]).size)


def paired_runs(configs: Sequence[tuple[str, ModelConfig]],
                dataset: Dataset, seeds: Sequence[int],
                settings: TrainEvalSettings, jobs: int) -> PairedReport:
    """Train every (label, config) once per seed on one split and score
    each run; the first config is the reference.

    Runs differ only in config and seed, so any two configs' NDCGs pair
    seed by seed. ``jobs`` worker processes, never more than there are
    runs, share the runs out; the result does not depend on it. An eval
    split with no search to score is refused first (DataValidationError).
    """
    seeds = check_protocol(seeds, jobs)
    train_ds, eval_ds = prepare_split(dataset)
    if not _searches_with_positives(eval_ds, (PROTOCOL_MILESTONE,)):
        raise DataValidationError(
            f"none of the eval split's {eval_ds.n_searches} searches holds "
            f"a {PROTOCOL_MILESTONE!r} positive, so no run could be scored")
    runs = [replace(config, seed=seed)
            for seed in seeds for _, config in configs]
    workers = min(jobs, len(runs))
    _JOB_DATA.update(train=train_ds, eval=eval_ds, settings=settings)
    try:
        if workers > 1 and hasattr(os, "fork"):
            with _process_pool(workers) as pool:
                reports = list(pool.map(_paired_job, runs))
        else:
            reports = [_paired_job(config) for config in runs]
    finally:
        _JOB_DATA.clear()
    means = [report.mean for report in reports]
    return PairedReport(
        labels=tuple(label for label, _ in configs), seeds=seeds,
        ndcg=tuple(tuple(means[i::len(configs)])
                   for i in range(len(configs))),
        n_eval_searches=reports[0].n_searches,
        tasks=tuple(config.base_tasks for _, config in configs),
        n_params=tuple(parameter_count(config) for _, config in configs),
        n_searches_with_positives=tuple(
            _searches_with_positives(train_ds, config.base_tasks)
            for _, config in configs))


def compare(config_a: ModelConfig, config_b: ModelConfig, dataset: Dataset,
            seeds: Sequence[int] = (0, 1, 2, 3, 4), *,
            settings: TrainEvalSettings | None = None,
            label_a: str = "A", label_b: str = "B",
            jobs: int = 1) -> PairedReport:
    """Train both configs per seed on identical data; B is the reference."""
    return paired_runs([(label_b, config_b), (label_a, config_a)], dataset,
                       seeds, settings or TrainEvalSettings(), jobs)


def compare_record(report: PairedReport) -> dict:
    """``compare.json``: config A, the second label, against B."""
    b, a = report.rows()
    return {"label_a": a["name"], "label_b": b["name"],
            "seeds": report.seeds,
            "per_seed_a": a["per_seed_ndcg"],
            "per_seed_b": b["per_seed_ndcg"],
            "mean_a": a["mean_ndcg"], "mean_b": b["mean_ndcg"],
            "mean_delta": a["mean_delta"],
            "ci_half_width": a["ci_half_width"],
            "n_eval_searches": report.n_eval_searches,
            "deltas": report.deltas(1).tolist()}


# ---------------------------------------------------------------------------
# ablation over funnel task subsets


# The first cell, the single-task model, is the reference of the others.
ABLATION_CELLS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("unc", ("unc",)),
    ("req+book+unc", ("req", "book", "unc")),
    ("c+unc", ("c", "unc")),
    ("all6", POSITIVE_CHAIN),
)


def run_ablation(dataset: Dataset, seeds: Sequence[int] = (0, 1, 2, 3, 4),
                 *, settings: TrainEvalSettings | None = None,
                 embedding_dim: int = 12, jobs: int = 1) -> PairedReport:
    """Train each cell of ``ABLATION_CELLS`` per seed against the first.

    Cells share split, seeds, and architecture except for their task
    heads, so the only moving part is which milestones supervise the
    shared representation.
    """
    configs = [(name, ModelConfig(dataset.schema.listing_dim,
                                  dataset.schema.context_dim,
                                  embedding_dim=embedding_dim,
                                  base_tasks=tasks, twiddler_tasks=()))
               for name, tasks in ABLATION_CELLS]
    return paired_runs(configs, dataset, seeds,
                       settings or TrainEvalSettings(), jobs)


# ---------------------------------------------------------------------------
# blend-coefficient curves


@dataclass(frozen=True)
class NtcCurve:
    """Blend coefficients across buckets of one context feature.

    The coefficients are the ones scoring blends with (``ModelOutputs``).
    For each negative-outcome task the signed curve is the mean ratio of
    its coefficient to the (positive) base coefficient per bucket; the
    magnitude curve applies the absolute value per search before
    averaging.
    """

    feature: str
    edges: tuple[float, ...]
    counts: tuple[int, ...]
    signed: dict[str, tuple[float, ...]]
    magnitude: dict[str, tuple[float, ...]]

    def __post_init__(self):
        edges = np.asarray(self.edges)
        if len(edges) < 2 or not np.all(np.diff(edges) > 0):
            raise ContractError("bucket edges must strictly increase")

    @property
    def n_buckets(self) -> int:
        return len(self.edges) - 1

    def to_record(self) -> dict:
        return asdict(self)


def check_buckets(n_buckets: int) -> None:
    """Refuse a bucket count below 1."""
    if n_buckets < 1:
        raise ConfigError("n_buckets must be positive")


def ntc_curves(model: TrainedModel, dataset: Dataset, feature: str,
               n_buckets: int = 5, *,
               normalize_by_first: bool = False) -> NtcCurve:
    """Bucket search contexts by one feature and average the coefficient
    ratios per bucket, each search's from one :meth:`TrainedModel.outputs`
    pass over the dataset."""
    if model.config.combination is None:
        raise ConfigError("coefficient curves need a combination layer")
    model.require_schema(dataset.schema)
    check_buckets(n_buckets)
    col = dataset.schema.context_index(feature)
    if dataset.n_searches == 0:
        raise DataValidationError("curves need searches")
    values = dataset.context_features[:, col]
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        warnings.warn(f"context feature {feature} is constant; using a "
                      "single bucket", RuntimeWarning, stacklevel=2)
        edges = np.array([lo, lo + 1.0])
    else:
        # quantiles 0 and 1 are lo and hi: at least two distinct edges
        quantiles = np.linspace(0.0, 1.0, n_buckets + 1)
        edges = np.unique(np.quantile(values, quantiles))
    buckets = np.clip(np.searchsorted(edges, values, side="right") - 1,
                      0, len(edges) - 2)
    outputs = model.outputs(dataset)
    masks = [buckets == b for b in range(len(edges) - 1)]
    # per task, the signed and the magnitude curve: each bucket's mean
    # ratio to the base coefficient, 0.0 where the bucket is empty
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = outputs.alpha_twiddler / outputs.alpha_base
    if not np.isfinite(ratios).all():
        raise NonFiniteScoreError("a base coefficient of 0 gives "
                                  "coefficient ratios that are not finite")
    curves = {task: [[float(v[mask].mean()) if mask.any() else 0.0
                      for mask in masks]
                     for v in (r, np.abs(r))]
              for task, r in zip(model.config.twiddler_tasks, ratios)}
    if normalize_by_first:
        if any(abs(curve[0]) < 1e-12
               for pair in curves.values() for curve in pair):
            raise ContractError(
                "cannot normalize by a zero first-bucket coefficient")
        curves = {task: [[v / abs(curve[0]) for v in curve]
                         for curve in pair]
                  for task, pair in curves.items()}
    signed = {task: tuple(pair[0]) for task, pair in curves.items()}
    magnitude = {task: tuple(pair[1]) for task, pair in curves.items()}
    counts = tuple(int(mask.sum()) for mask in masks)
    return NtcCurve(feature=feature, edges=tuple(float(e) for e in edges),
                    counts=counts, signed=signed, magnitude=magnitude)


def write_ntc_csv(curve: NtcCurve, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["bucket", "low", "high", "count", "task",
                         "ntc_signed", "ntc_magnitude"])
        for task in sorted(curve.signed):
            for b in range(curve.n_buckets):
                writer.writerow([
                    b, curve.edges[b], curve.edges[b + 1], curve.counts[b],
                    task, curve.signed[task][b], curve.magnitude[task][b],
                ])


# ---------------------------------------------------------------------------
# plain-text tables


def format_ndcg_table(reports: Mapping[str, NdcgReport]) -> str:
    lines = [f"{'milestone':<10} {'ndcg':>8} {'searches':>9} {'skipped':>8}"]
    for task, report in reports.items():
        mean = f"{report.mean:.4f}" if report.n_searches else "-"
        lines.append(f"{task:<10} {mean:>8} "
                     f"{report.n_searches:>9d} {report.n_skipped:>8d}")
    return "\n".join(lines)


def format_paired_table(report: PairedReport) -> str:
    """One row per label, the reference first: NDCG per seed and its
    mean, then the mean delta against the reference with its 95 percent
    t half-width, and the parameter and training-search deltas."""
    width = max(map(len, ("label", *report.labels)))
    lines = [f"{'label':<{width}}"
             + "".join(f" {f'seed {seed}':>9}" for seed in report.seeds)
             + f" {'mean':>9} {'delta':>9} {'ci95':>8} {'params':>8}"
             f" {'searches':>9}"]
    for row in report.rows():
        lines.append(
            f"{row['name']:<{width}}"
            + "".join(f" {v:>9.5f}" for v in row["per_seed_ndcg"])
            + f" {row['mean_ndcg']:>9.5f} {row['mean_delta']:>+9.5f}"
            f" {row['ci_half_width']:>8.5f} {row['parameter_delta']:>+8d}"
            f" {row['search_delta']:>+9d}")
    return "\n".join(lines)


def format_ntc_table(curve: NtcCurve) -> str:
    tasks = sorted(curve.signed)
    lines = [f"{'bucket':<22} {'count':>6}"
             + "".join(f" {task:>10}" for task in tasks)]
    for b in range(curve.n_buckets):
        span = f"[{curve.edges[b]:.2f}, {curve.edges[b + 1]:.2f})"
        lines.append(f"{span:<22} {curve.counts[b]:>6d}"
                     + "".join(f" {curve.signed[task][b]:>+10.4f}"
                               for task in tasks))
    return "\n".join(lines)
