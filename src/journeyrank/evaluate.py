"""Offline evaluation harness for journey ranking models.

Measures ranking quality as binary-relevance NDCG per positive milestone
and extracts how the blend coefficients move across context buckets (the
interpretability curves for the negative-outcome heads).

Evaluation reads only the dataset's columns: a scorer scores every
impression of every search in one call, one sort ranks all searches at
once, and NDCG is a per-search reduction over the ranked positive flags.

Model comparisons share one paired multi-seed protocol, ``paired_runs``.
It refuses fewer than two seeds or a repeated one, splits the dataset once
by guest hash, trains every configuration once per seed on the training
side and scores each run's unc NDCG on the eval side. ``compare`` turns two
configurations' per-seed NDCGs into a paired t-interval of their
difference; ``run_ablation`` differences every funnel task subset against
the single-task baseline the same way. Runs differ only in configuration
and seed, so every number is exactly reproducible, whether the runs go
serially or through forked worker processes.
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataio import split_by_guest
from .domain import (
    Dataset,
    POSITIVE_CHAIN,
    PackedSearches,
    filter_training_searches,
)
from .errors import ConfigError, ContractError
from .model import (
    ModelConfig,
    TrainedModel,
    blend_coefficients,
    parameter_count,
    train,
)

Scorer = Callable[[PackedSearches], np.ndarray]
"""Scores every impression of a dataset's searches in one call.

It receives the dataset's columns and returns one float score per
impression row, aligned with ``listing_ids``. Higher ranks first; ties
break by listing id.
"""


# ---------------------------------------------------------------------------
# NDCG


def ndcg_binary(positive: np.ndarray, search_starts: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray]:
    """Per-search NDCG with unit gain on positives and log2 rank discount.

    ``positive`` flags each impression in ranked order, search after
    search; search ``k`` owns entries ``search_starts[k]:search_starts[k + 1]``.
    Returns the NDCG of each search and whether it has a positive at all;
    a search without one reads 0 and is for the caller to skip.
    """
    positive = np.asarray(positive, dtype=bool)
    search_starts = np.asarray(search_starts, dtype=np.int64)
    sizes = np.diff(search_starts)
    n_searches = len(sizes)
    discount = np.array([1.0 / math.log2(rank + 1)
                         for rank in range(1, int(sizes.max(initial=0)) + 1)])
    rows = np.flatnonzero(positive)
    search = np.repeat(np.arange(n_searches), sizes)[rows]
    # bincount and cumsum add in order, so each search's DCG and its ideal
    # DCG are summed rank by rank from the same discount table.
    dcg = np.bincount(search, weights=discount[rows - search_starts[search]],
                      minlength=n_searches)
    n_positive = np.bincount(search, minlength=n_searches)
    ideal = np.cumsum(np.r_[0.0, discount])[n_positive]
    has_positive = n_positive > 0
    ndcg = np.divide(dcg, ideal, out=np.zeros(n_searches), where=has_positive)
    return ndcg, has_positive


@dataclass(frozen=True)
class NdcgReport:
    """Mean NDCG with its provenance.

    ``per_seed`` holds the one evaluation's mean; the multi-seed protocol
    keeps its per-seed values in ``CompareReport`` and ``AblationCell``.
    Searches without a positive for the milestone are skipped, not scored.
    """

    mean: float
    per_seed: tuple[float, ...]
    ci_half_width: float
    n_searches: int
    n_skipped: int

    def __post_init__(self):
        if not 0.0 <= self.mean <= 1.0:
            raise ContractError(f"mean NDCG {self.mean} outside [0, 1]")
        if self.ci_half_width < 0.0:
            raise ContractError("CI half-width must be non-negative")

    def to_record(self) -> dict:
        return {
            "mean": self.mean,
            "per_seed": list(self.per_seed),
            "ci_half_width": self.ci_half_width,
            "n_searches": self.n_searches,
            "n_skipped": self.n_skipped,
        }


def t_interval_half_width(values: np.ndarray) -> float:
    """Half-width of the 95 percent Student-t interval for the mean."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2:
        raise ConfigError("a confidence interval needs at least 2 values")
    # scipy.stats takes about a second to import, which every command
    # would pay; scipy.special's inverse t CDF gives the same quantile.
    from scipy.special import stdtrit
    sem = values.std(ddof=1) / math.sqrt(len(values))
    return float(stdtrit(len(values) - 1, 0.975) * sem)


# ---------------------------------------------------------------------------
# scoring a dataset


def model_scorer(model: TrainedModel) -> Scorer:
    """Scores every impression with one forward pass of the model."""
    def scorer(searches: PackedSearches) -> np.ndarray:
        outputs = model.outputs(searches.listing_features,
                                searches.context_features,
                                searches.search_of_imp)
        return outputs.ranking_score.values
    return scorer


def oracle_scorer(world) -> Scorer:
    """Scores candidates by their true conversion probability.

    The world scores one context at a time, so this reference scorer for
    tests walks the searches.
    """
    def scorer(searches: PackedSearches) -> np.ndarray:
        scores = np.empty(searches.n_impressions)
        for k in range(searches.n_searches):
            lo, hi = searches.search_starts[k], searches.search_starts[k + 1]
            scores[lo:hi] = world.true_unc_probability(
                searches.context_features[k],
                world.rows_for_ids(searches.listing_ids[lo:hi]))
        return scores
    return scorer


def evaluate_with_scorer(dataset: Dataset,
                         scorer: Scorer) -> dict[str, NdcgReport]:
    """Mean NDCG per positive milestone for an arbitrary scorer."""
    s = dataset.searches
    scores = np.asarray(scorer(s), dtype=np.float64)
    if scores.shape != (s.n_impressions,):
        raise ContractError("scorer must return one score per impression")
    # search_of_imp is sorted, so every search keeps its rows in place
    order = np.lexsort((s.listing_ids, -scores, s.search_of_imp))
    reports = {}
    for task in POSITIVE_CHAIN:
        ndcg, has_positive = ndcg_binary(s.labels[task][order],
                                         s.search_starts)
        scored = ndcg[has_positive]
        count = len(scored)
        # cumsum adds in search order; np.sum would add pairwise
        mean = float(np.cumsum(scored)[-1]) / count if count else 0.0
        reports[task] = NdcgReport(mean=mean, per_seed=(mean,),
                                   ci_half_width=0.0, n_searches=count,
                                   n_skipped=s.n_searches - count)
    return reports


def evaluate(model: TrainedModel,
             dataset: Dataset) -> dict[str, NdcgReport]:
    """Mean NDCG per positive milestone; refuses foreign schemas."""
    model.require_schema(dataset.schema)
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
        if self.epochs < 1:
            raise ConfigError("protocol training needs at least 1 epoch")


def prepare_split(dataset: Dataset, eval_percent: int = 20,
                  ) -> tuple[Dataset, Dataset]:
    """Guest-hash split, then training-side journey filtering."""
    train_ds, eval_ds = split_by_guest(dataset, eval_percent=eval_percent)
    return filter_training_searches(train_ds).training_dataset(), eval_ds


@dataclass(frozen=True)
class PairedRuns:
    """Every config's eval NDCG per seed, all from one split."""

    seeds: tuple[int, ...]
    ndcg: dict[str, tuple[float, ...]]
    n_eval_searches: int
    train_ds: Dataset


# Forked workers inherit the split instead of unpickling it per job.
_JOB_DATA: dict = {}


def _paired_job(config: ModelConfig) -> NdcgReport:
    settings = _JOB_DATA["settings"]
    model, _ = train(config, _JOB_DATA["train"], settings.epochs,
                     batch_size=settings.batch_size,
                     learning_rate=settings.learning_rate)
    return evaluate(model, _JOB_DATA["eval"])[PROTOCOL_MILESTONE]


def paired_runs(configs: Mapping[str, ModelConfig], dataset: Dataset,
                seeds: Sequence[int], settings: TrainEvalSettings,
                jobs: int) -> PairedRuns:
    """Train every config once per seed on one split and score each run.

    Runs differ only in config and seed, so any two configs' NDCGs pair
    seed by seed. ``jobs`` worker processes, never more than there are
    runs, share the runs out; the result does not depend on it.
    """
    seeds = tuple(int(s) for s in seeds)
    if len(seeds) < 2 or len(set(seeds)) != len(seeds):
        raise ConfigError(f"a paired protocol needs at least 2 distinct "
                          f"seeds, got {list(seeds)}")
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    train_ds, eval_ds = prepare_split(dataset)
    labels = list(configs)
    runs = [replace(configs[label], seed=seed)
            for seed in seeds for label in labels]
    workers = min(jobs, len(runs))
    _JOB_DATA.update(train=train_ds, eval=eval_ds, settings=settings)
    try:
        if workers > 1 and hasattr(os, "fork"):
            with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("fork")) as pool:
                reports = list(pool.map(_paired_job, runs))
        else:
            reports = [_paired_job(config) for config in runs]
    finally:
        _JOB_DATA.clear()
    means = [report.mean for report in reports]
    return PairedRuns(
        seeds=seeds,
        ndcg={label: tuple(means[i::len(labels)])
              for i, label in enumerate(labels)},
        n_eval_searches=reports[0].n_searches, train_ds=train_ds)


@dataclass(frozen=True)
class CompareReport:
    """Paired multi-seed comparison of two configurations."""

    label_a: str
    label_b: str
    seeds: tuple[int, ...]
    per_seed_a: tuple[float, ...]
    per_seed_b: tuple[float, ...]
    mean_a: float
    mean_b: float
    mean_delta: float
    ci_half_width: float
    n_eval_searches: int

    @property
    def deltas(self) -> tuple[float, ...]:
        return tuple(a - b for a, b in zip(self.per_seed_a, self.per_seed_b))

    def to_record(self) -> dict:
        return {**asdict(self), "deltas": list(self.deltas)}


def compare(config_a: ModelConfig, config_b: ModelConfig, dataset: Dataset,
            seeds: Sequence[int] = (0, 1, 2, 3, 4), *,
            settings: TrainEvalSettings | None = None,
            label_a: str = "A", label_b: str = "B",
            jobs: int = 1) -> CompareReport:
    """Train both configs per seed on identical data and pair the NDCGs."""
    runs = paired_runs({"a": config_a, "b": config_b}, dataset, seeds,
                       settings or TrainEvalSettings(), jobs)
    per_a, per_b = runs.ndcg["a"], runs.ndcg["b"]
    deltas = np.array(per_a) - np.array(per_b)
    return CompareReport(
        label_a=label_a, label_b=label_b, seeds=runs.seeds,
        per_seed_a=per_a, per_seed_b=per_b,
        mean_a=float(np.mean(per_a)), mean_b=float(np.mean(per_b)),
        mean_delta=float(np.mean(deltas)),
        ci_half_width=t_interval_half_width(deltas),
        n_eval_searches=runs.n_eval_searches,
    )


# ---------------------------------------------------------------------------
# ablation over funnel task subsets


ABLATION_CELLS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("unc", ("unc",)),
    ("req+book+unc", ("req", "book", "unc")),
    ("c+unc", ("c", "unc")),
    ("all6", POSITIVE_CHAIN),
)


@dataclass(frozen=True)
class AblationCell:
    """One task subset's outcome relative to the single-task baseline."""

    name: str
    tasks: tuple[str, ...]
    seeds: tuple[int, ...]
    per_seed_ndcg: tuple[float, ...]
    mean_ndcg: float
    mean_delta: float
    ci_half_width: float
    parameter_delta: int
    search_delta: int
    n_searches_with_positives: int

    def to_record(self) -> dict:
        return asdict(self)


def _searches_with_positives(dataset: Dataset,
                             tasks: tuple[str, ...]) -> int:
    s = dataset.searches
    positive = np.logical_or.reduce([s.labels[t] for t in tasks])
    return int(np.unique(s.search_of_imp[positive]).size)


def run_ablation(dataset: Dataset, seeds: Sequence[int] = (0, 1, 2, 3, 4),
                 *, cells: Sequence[tuple[str, tuple[str, ...]]] | None = None,
                 settings: TrainEvalSettings | None = None,
                 embedding_dim: int = 12,
                 jobs: int = 1) -> list[AblationCell]:
    """Train each funnel subset per seed and report paired deltas.

    Cells share split, seeds, and architecture except for their task
    heads, so the only moving part is which milestones supervise the
    shared representation. The single-task cell is the baseline every
    other cell is differenced against, so it must be present.
    """
    cell_list = [(name, tuple(tasks)) for name, tasks in
                 (cells if cells is not None else ABLATION_CELLS)]
    if not cell_list:
        raise ConfigError("ablation needs at least one cell")
    configs = {name: ModelConfig(dataset.schema.listing_dim,
                                 dataset.schema.context_dim,
                                 embedding_dim=embedding_dim,
                                 base_tasks=tasks, twiddler_tasks=())
               for name, tasks in cell_list}
    if len(configs) != len(cell_list):
        raise ConfigError("ablation cell names must be distinct")
    baseline_name = next((name for name, tasks in cell_list
                          if tasks == ("unc",)), None)
    if baseline_name is None:
        raise ConfigError("ablation cells must include the single-task "
                          "baseline ('unc',)")
    runs = paired_runs(configs, dataset, seeds,
                       settings or TrainEvalSettings(), jobs)
    baseline_scores = np.array(runs.ndcg[baseline_name])
    baseline_params = parameter_count(configs[baseline_name])
    baseline_searches = _searches_with_positives(runs.train_ds, ("unc",))
    cells_out = []
    for name, tasks in cell_list:
        scores = np.array(runs.ndcg[name])
        deltas = scores - baseline_scores
        n_searches = _searches_with_positives(runs.train_ds, tasks)
        cells_out.append(AblationCell(
            name=name, tasks=tasks, seeds=runs.seeds,
            per_seed_ndcg=runs.ndcg[name],
            mean_ndcg=float(scores.mean()),
            mean_delta=float(deltas.mean()),
            ci_half_width=(0.0 if name == baseline_name
                           else t_interval_half_width(deltas)),
            parameter_delta=parameter_count(configs[name]) - baseline_params,
            search_delta=n_searches - baseline_searches,
            n_searches_with_positives=n_searches,
        ))
    return cells_out


# ---------------------------------------------------------------------------
# blend-coefficient curves


@dataclass(frozen=True)
class NtcCurve:
    """Blend coefficients across buckets of one context feature.

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
        return {
            "feature": self.feature,
            "edges": list(self.edges),
            "counts": list(self.counts),
            "signed": {t: list(v) for t, v in self.signed.items()},
            "magnitude": {t: list(v) for t, v in self.magnitude.items()},
        }


def ntc_curves(model: TrainedModel, dataset: Dataset, feature: str,
               n_buckets: int = 5, *,
               normalize_by_first: bool = False) -> NtcCurve:
    """Bucket search contexts by one feature and average the coefficient
    ratios per bucket."""
    if model.config.combination is None:
        raise ConfigError("coefficient curves need a combination layer")
    model.require_schema(dataset.schema)
    if n_buckets < 1:
        raise ConfigError("n_buckets must be positive")
    col = dataset.schema.context_index(feature)
    contexts = dataset.searches.context_features
    if len(contexts) == 0:
        raise ContractError("dataset has no searches to bucket")
    values = contexts[:, col]
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        warnings.warn(f"context feature {feature} is constant; using a "
                      "single bucket", RuntimeWarning, stacklevel=2)
        edges = np.array([lo, lo + 1.0])
    else:
        quantiles = np.linspace(0.0, 1.0, n_buckets + 1)
        edges = np.unique(np.quantile(values, quantiles))
        if len(edges) < 2:
            edges = np.array([lo, hi])
    buckets = np.clip(np.searchsorted(edges, values, side="right") - 1,
                      0, len(edges) - 2)
    alpha_base, alpha_twiddler = blend_coefficients(model, contexts)
    ratio = {task: alpha / alpha_base
             for task, alpha in alpha_twiddler.items()}
    signed: dict[str, tuple[float, ...]] = {}
    magnitude: dict[str, tuple[float, ...]] = {}
    counts = tuple(int(np.sum(buckets == b))
                   for b in range(len(edges) - 1))
    for task, r in ratio.items():
        s_curve = []
        m_curve = []
        for b in range(len(edges) - 1):
            mask = buckets == b
            if not mask.any():
                s_curve.append(0.0)
                m_curve.append(0.0)
                continue
            s_curve.append(float(r[mask].mean()))
            m_curve.append(float(np.abs(r[mask]).mean()))
        if normalize_by_first:
            anchor = abs(s_curve[0])
            if anchor < 1e-12:
                raise ContractError(
                    "cannot normalize by a zero first-bucket coefficient")
            s_curve = [v / anchor for v in s_curve]
            m_anchor = m_curve[0]
            if m_anchor < 1e-12:
                raise ContractError(
                    "cannot normalize by a zero first-bucket coefficient")
            m_curve = [v / m_anchor for v in m_curve]
        signed[task] = tuple(s_curve)
        magnitude[task] = tuple(m_curve)
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
        lines.append(f"{task:<10} {report.mean:>8.4f} "
                     f"{report.n_searches:>9d} {report.n_skipped:>8d}")
    return "\n".join(lines)


def format_compare_table(report: CompareReport) -> str:
    lines = [
        f"{'seed':<6} {report.label_a:>10} {report.label_b:>10} "
        f"{'delta':>10}",
    ]
    for seed, a, b, d in zip(report.seeds, report.per_seed_a,
                             report.per_seed_b, report.deltas):
        lines.append(f"{seed:<6d} {a:>10.5f} {b:>10.5f} {d:>+10.5f}")
    lines.append(f"{'mean':<6} {report.mean_a:>10.5f} "
                 f"{report.mean_b:>10.5f} {report.mean_delta:>+10.5f}")
    lines.append(f"95% CI half-width of delta: {report.ci_half_width:.5f}")
    return "\n".join(lines)


def format_ablation_table(cells: Sequence[AblationCell]) -> str:
    lines = [f"{'cell':<14} {'ndcg':>8} {'delta':>9} {'ci':>8} "
             f"{'params':>8} {'searches':>9}"]
    for cell in cells:
        lines.append(
            f"{cell.name:<14} {cell.mean_ndcg:>8.4f} "
            f"{cell.mean_delta:>+9.4f} {cell.ci_half_width:>8.4f} "
            f"{cell.parameter_delta:>+8d} {cell.search_delta:>+9d}")
    return "\n".join(lines)


def format_ntc_table(curve: NtcCurve) -> str:
    header = f"{'bucket':<22} {'count':>6}"
    tasks = sorted(curve.signed)
    for task in tasks:
        header += f" {task:>10}"
    lines = [header]
    for b in range(curve.n_buckets):
        span = f"[{curve.edges[b]:.2f}, {curve.edges[b + 1]:.2f})"
        row = f"{span:<22} {curve.counts[b]:>6d}"
        for task in tasks:
            row += f" {curve.signed[task][b]:>+10.4f}"
        lines.append(row)
    return "\n".join(lines)
