"""Synthetic guest-journey generator with a known ground-truth world model.

Each listing carries a fixed feature vector; each positive funnel stage and
each negative outcome is a logistic model over listing features plus a
normalized context map. Impressions sample the funnel stage by stage
(click, long click, payment page, request, booking, uncancelled), negatives
are drawn among the eligible rows (rejections among unbooked requests,
cancellations among bookings), and journeys end at the first booking.
Listings leave a journey's candidate pool after any terminal event, so the
attributed multi-label view always satisfies every label invariant.

Three structural couplings shape where negatives concentrate:

* ``ctr_negative_coupling`` adds the listing's click-propensity logit to
  every negative logit (popular listings attract more failed outcomes).
* ``days_ahead_ushape_strength`` raises rejection risk for very near and
  very far check-in dates relative to mid-range ones.
* ``late_journey_negative_coupling`` raises all negative risks as the guest
  accumulates searches within the journey.

Two further couplings make the conversion stage context-dependent: with
``conversion_days_modulation`` or ``conversion_late_modulation`` above
zero, the listing-quality slope of the final uncancelled-booking stage is
amplified for extreme check-in horizons and for late-journey searches.
Which listing survives to an uncancelled stay then depends on the search
context, not just on a fixed listing ordering, so rankers that can adapt
per context have structural headroom over rankers that cannot.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import json

import numpy as np

from .domain import (
    LABELS,
    Dataset,
    DatasetSchema,
    NEGATIVE_MILESTONES,
    POSITIVE_CHAIN,
    attribute_labels,
    filter_training_searches,
    milestone_counts,
)
from .errors import ConfigError, SchemaMismatchError
from .nn import logistic

# context layout: the first two features are semantic, the rest are
# per-journey guest taste draws
CONTEXT_FEATURE_PREFIX = ("days_ahead_of_checkin", "num_previous_searches")

# fixed affine rescalings applied to raw context before the linear models;
# part of the world definition, not fitted to data
_DAYS_CENTER, _DAYS_SCALE = 90.0, 90.0
_PREV_CENTER_FRACTION = 0.5

_POOL_SPAWN_KEY = 999999937  # distinct from any guest index


@dataclass(frozen=True)
class StageModel:
    """One logistic conversion model: weights over [listing | context] map."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or not np.all(np.isfinite(w)) or not np.isfinite(self.bias):
            raise ConfigError("stage model needs a finite 1-d weight vector and bias")


@dataclass(frozen=True)
class GeneratorConfig:
    n_guests: int
    listings_per_search: int
    max_searches_per_journey: int
    listing_feature_dim: int
    context_feature_dim: int
    stage_coefficients: dict[str, StageModel]
    negative_coefficients: dict[str, StageModel]
    ctr_negative_coupling: float
    days_ahead_ushape_strength: float
    seed: int
    n_listings: int = 400
    journey_window_days: float = 30.0
    late_journey_negative_coupling: float = 0.0
    conversion_days_modulation: float = 0.0
    conversion_late_modulation: float = 0.0

    def __post_init__(self):
        if self.listings_per_search < 2:
            raise ConfigError("listings_per_search must be at least 2 "
                              "(a ranking needs a comparison)")
        if min(self.n_guests, self.max_searches_per_journey,
               self.listing_feature_dim, self.n_listings) < 1:
            raise ConfigError("counts and dims must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.context_feature_dim < len(CONTEXT_FEATURE_PREFIX):
            raise ConfigError("context width must cover "
                              f"{CONTEXT_FEATURE_PREFIX}")
        if self.n_listings < self.listings_per_search:
            raise ConfigError("listing pool smaller than one result page")
        for knob in ("ctr_negative_coupling", "days_ahead_ushape_strength",
                     "late_journey_negative_coupling",
                     "conversion_days_modulation",
                     "conversion_late_modulation"):
            value = getattr(self, knob)
            if not np.isfinite(value) or value < 0:
                raise ConfigError(f"{knob} must be finite and non-negative")
        if self.journey_window_days <= 0:
            raise ConfigError("journey_window_days must be positive")
        width = self.listing_feature_dim + self.context_feature_dim
        if set(self.stage_coefficients) != set(POSITIVE_CHAIN):
            raise ConfigError("stage_coefficients must cover exactly "
                              f"{POSITIVE_CHAIN}")
        if set(self.negative_coefficients) != set(NEGATIVE_MILESTONES):
            raise ConfigError("negative_coefficients must cover exactly "
                              f"{NEGATIVE_MILESTONES}")
        for name, model in {**self.stage_coefficients,
                            **self.negative_coefficients}.items():
            if model.weights.size != width:
                raise ConfigError(
                    f"{name} weights have length {model.weights.size}, "
                    f"expected listing+context width {width}")

    @property
    def context_feature_names(self) -> tuple[str, ...]:
        n_taste = self.context_feature_dim - len(CONTEXT_FEATURE_PREFIX)
        return CONTEXT_FEATURE_PREFIX + tuple(f"taste_{k}" for k in range(n_taste))

    def schema(self) -> DatasetSchema:
        return DatasetSchema(
            listing_dim=self.listing_feature_dim,
            context_dim=self.context_feature_dim,
            context_features=self.context_feature_names,
            window_days=self.journey_window_days,
        )


@dataclass(frozen=True)
class WorldTruth:
    """Ground truth the generator sampled from; the oracle for evaluation."""

    config: GeneratorConfig
    listing_ids: tuple[str, ...]
    listing_features: np.ndarray  # [n_listings, listing_dim]
    id_to_row: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.id_to_row:
            object.__setattr__(self, "id_to_row",
                               {lid: k for k, lid in enumerate(self.listing_ids)})

    def normalized_context(self, context: np.ndarray) -> np.ndarray:
        context = np.asarray(context, dtype=np.float64)
        if context.shape != (self.config.context_feature_dim,):
            raise ConfigError(
                f"context width {context.shape} does not match config "
                f"({self.config.context_feature_dim},)")
        out = context.copy()
        out[0] = (context[0] - _DAYS_CENTER) / _DAYS_SCALE
        denom = max(self.config.max_searches_per_journey - 1, 1)
        out[1] = context[1] / denom - _PREV_CENTER_FRACTION
        return out

    def _logits(self, models: dict[str, StageModel], names, context,
                rows: np.ndarray) -> np.ndarray:
        ctx = self.normalized_context(context)
        x = self.listing_features[rows]
        d_l = self.config.listing_feature_dim
        out = np.empty((len(rows), len(names)))
        for j, name in enumerate(names):
            m = models[name]
            out[:, j] = x @ m.weights[:d_l] + ctx @ m.weights[d_l:] + m.bias
        return out

    def ctr_logit(self, rows: np.ndarray) -> np.ndarray:
        """Listing-only part of the click logit (the CTR proxy negatives
        couple to)."""
        m = self.config.stage_coefficients["c"]
        d_l = self.config.listing_feature_dim
        return self.listing_features[rows] @ m.weights[:d_l] + m.bias

    def conversion_slope_multiplier(self, context) -> float:
        """Context-dependent gain on the conversion stage's listing slope.

        1.0 when both modulation knobs are zero; above 1.0 for extreme
        check-in horizons and late-journey searches when they are not.
        """
        cfg = self.config
        ctx = self.normalized_context(context)
        gain = (cfg.conversion_days_modulation * (ctx[0] ** 2 - 0.5)
                + cfg.conversion_late_modulation * ctx[1])
        return float(1.0 + gain)

    def stage_logits(self, context, rows: np.ndarray | None = None) -> np.ndarray:
        if rows is None:
            rows = np.arange(len(self.listing_ids))
        out = self._logits(self.config.stage_coefficients, POSITIVE_CHAIN,
                           context, rows)
        multiplier = self.conversion_slope_multiplier(context)
        if multiplier != 1.0:
            cfg = self.config
            unc_col = POSITIVE_CHAIN.index("unc")
            w_listing = cfg.stage_coefficients["unc"].weights[
                :cfg.listing_feature_dim]
            listing_part = self.listing_features[rows] @ w_listing
            out[:, unc_col] += (multiplier - 1.0) * listing_part
        return out

    def negative_logits(self, context, rows: np.ndarray | None = None) -> np.ndarray:
        if rows is None:
            rows = np.arange(len(self.listing_ids))
        cfg = self.config
        out = self._logits(cfg.negative_coefficients, NEGATIVE_MILESTONES,
                           context, rows)
        out += cfg.ctr_negative_coupling * self.ctr_logit(rows)[:, None]
        ctx = self.normalized_context(context)
        rej_col = NEGATIVE_MILESTONES.index("rej")
        out[:, rej_col] += cfg.days_ahead_ushape_strength * (ctx[0] ** 2 - 0.5)
        out += cfg.late_journey_negative_coupling * ctx[1]
        return out

    def stage_probabilities(self, context, rows: np.ndarray | None = None) -> np.ndarray:
        return logistic(self.stage_logits(context, rows))

    def negative_probabilities(self, context, rows: np.ndarray | None = None) -> np.ndarray:
        return logistic(self.negative_logits(context, rows))

    def true_unc_probability(self, context, rows: np.ndarray | None = None) -> np.ndarray:
        """Joint conversion probability: product of all stage conditionals."""
        return self.stage_probabilities(context, rows).prod(axis=1)

    def rows_for_ids(self, listing_ids) -> np.ndarray:
        try:
            return np.array([self.id_to_row[lid] for lid in listing_ids],
                            dtype=np.int64)
        except KeyError as exc:
            raise ConfigError(f"unknown listing id {exc}") from None


# ---------------------------------------------------------------------------
# default world coefficients

# two orthogonal listing-quality directions: "appeal" drives early funnel
# stages (and defines CTR), "reliability" drives late stages and, inverted,
# the negative outcomes. Orthogonality keeps CTR and rejection independent
# until ctr_negative_coupling ties them together.
_APPEAL = np.array([0.9, 0.5, 0.4, 0.0, 0.0, 0.0])
_RELIABILITY = np.array([0.0, 0.0, 0.0, 0.8, 0.6, 0.4])

_STAGE_MIX = {
    # milestone: (appeal share, reliability share, bias)
    "c": (1.00, 0.00, -1.85),
    "lc": (0.80, 0.15, 0.45),
    "pp": (0.50, 0.40, -0.70),
    "req": (0.30, 0.60, -0.15),
    "book": (0.15, 0.80, 0.00),
    "unc": (0.05, 0.90, 1.05),
}

_NEGATIVE_MIX = {
    # milestone: (reliability share, own-direction vector, bias)
    "rej": (-0.80, np.array([0.0, 0.0, 0.0, 0.45, -0.35, 0.25]), -2.30),
    "cbh": (-0.70, np.array([0.0, 0.0, 0.0, -0.20, 0.50, -0.35]), -1.30),
    "cbg": (-0.50, np.array([0.0, 0.0, 0.0, 0.20, -0.30, 0.50]), -0.90),
}

# small context effects on positive stages: closer check-ins convert a bit
# better, taste dimensions shift click propensity per journey
_STAGE_CONTEXT = {
    "c": np.array([-0.06, 0.05, 0.30, 0.20]),
    "lc": np.array([-0.03, 0.05, 0.15, 0.10]),
    "pp": np.array([-0.05, 0.10, 0.10, 0.05]),
    "req": np.array([-0.06, 0.10, 0.05, 0.05]),
    "book": np.array([-0.04, 0.05, 0.00, 0.00]),
    "unc": np.array([0.06, 0.00, 0.00, 0.00]),
}

DEFAULT_LISTING_DIM = 6
DEFAULT_CONTEXT_DIM = 4


def default_generator_config(n_guests: int = 2000, seed: int = 0,
                             **overrides) -> GeneratorConfig:
    """The calibrated desk-scale world.

    Conditional stage rates land near click 0.22, long-click 0.60,
    payment-page 0.40, request 0.50, booking 0.60, uncancelled 0.80, giving
    roughly 1 percent uncancelled bookings per impression; negatives sit in
    the 5-15 percent band of their eligible rows.
    """
    d_l, d_c = DEFAULT_LISTING_DIM, DEFAULT_CONTEXT_DIM
    stage = {}
    for name, (a, r, bias) in _STAGE_MIX.items():
        w = np.concatenate([a * _APPEAL + r * _RELIABILITY, _STAGE_CONTEXT[name]])
        stage[name] = StageModel(weights=w, bias=bias)
    negative = {}
    for name, (r, own, bias) in _NEGATIVE_MIX.items():
        w = np.concatenate([r * _RELIABILITY + own, np.zeros(d_c)])
        negative[name] = StageModel(weights=w, bias=bias)
    base = dict(
        n_guests=n_guests,
        listings_per_search=8,
        max_searches_per_journey=8,
        listing_feature_dim=d_l,
        context_feature_dim=d_c,
        stage_coefficients=stage,
        negative_coefficients=negative,
        ctr_negative_coupling=0.0,
        days_ahead_ushape_strength=0.0,
        late_journey_negative_coupling=0.0,
        seed=seed,
        n_listings=400,
        journey_window_days=30.0,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


_BENCHMARK_LISTING_DIM = 20
_BENCHMARK_BLOCKS = {
    "appeal": {0: 0.55, 1: 0.45, 2: 0.40, 3: 0.30, 4: 0.25, 5: 0.20},
    "merch": {6: 0.90, 7: 0.72, 8: 0.56},
    "respond": {9: 0.60, 10: 0.50, 11: 0.40},
    "keep": {12: 0.60, 13: 0.50, 14: 0.40},
}
_BENCHMARK_STAGE_MIX = {
    "c": (2.00, 0.00, 0.00, 0.00, -3.30),
    "lc": (0.80, 0.70, 0.00, 0.00, 0.90),
    "pp": (0.65, 0.85, 0.00, 0.00, 0.35),
    "req": (0.60, 0.55, 0.00, 0.00, 0.90),
    "book": (0.50, 0.45, 0.28, 0.28, -2.00),
    "unc": (0.00, 0.00, 2.60, 3.40, -3.60),
}
_BENCHMARK_NEGATIVE_MIX = {
    "rej": ({"respond": -1.60}, 0.30),
    "cbh": ({"keep": -1.40}, -0.85),
    "cbg": ({"keep": -1.40}, -0.50),
}


def benchmark_generator_config(n_guests: int = 8500, seed: int = 505,
                               **overrides) -> GeneratorConfig:
    """The study-scale world used for head-to-head model comparisons.

    Listing features carry four disjoint trait blocks plus five pure
    noise dimensions. Early funnel stages rank candidates by the appeal
    and merchandising blocks; the final uncancelled stage depends only
    on the responsiveness and retention blocks, which upstream stages
    echo faintly through the booking step. Uncancelled outcomes are made
    deliberately scarce (a few hundred per ten thousand journeys) so a
    model that learns the retention axes only from its own labels is
    label-starved while milestone co-training can still reach them.
    Negative events load with opposite sign on those same blocks, and
    every context coupling is switched on, so rejection pressure varies
    with the booking horizon and journey position and the conversion
    slope itself is context-modulated.
    """
    d_l, d_c = _BENCHMARK_LISTING_DIM, DEFAULT_CONTEXT_DIM
    blocks = _BENCHMARK_BLOCKS
    stage = {}
    for name, (a, m, r, k, bias) in _BENCHMARK_STAGE_MIX.items():
        w = np.zeros(d_l)
        scales = zip((blocks["appeal"], blocks["merch"],
                      blocks["respond"], blocks["keep"]), (a, m, r, k))
        for dims, scale in scales:
            for dim, load in dims.items():
                w[dim] += scale * load
        stage[name] = StageModel(
            weights=np.concatenate([w, _STAGE_CONTEXT[name]]), bias=bias)
    negative = {}
    for name, (loads, bias) in _BENCHMARK_NEGATIVE_MIX.items():
        w = np.zeros(d_l)
        for block_name, scale in loads.items():
            for dim, load in blocks[block_name].items():
                w[dim] += scale * load
        negative[name] = StageModel(
            weights=np.concatenate([w, np.zeros(d_c)]), bias=bias)
    base = dict(
        n_guests=n_guests,
        listings_per_search=16,
        max_searches_per_journey=8,
        listing_feature_dim=d_l,
        context_feature_dim=d_c,
        stage_coefficients=stage,
        negative_coefficients=negative,
        ctr_negative_coupling=0.40,
        days_ahead_ushape_strength=1.5,
        late_journey_negative_coupling=1.2,
        conversion_days_modulation=1.2,
        conversion_late_modulation=0.8,
        seed=seed,
        n_listings=600,
        journey_window_days=30.0,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


# ---------------------------------------------------------------------------
# generation


def _sample_journey(rng: np.random.Generator, world: WorldTruth) -> list[tuple]:
    """One guest's searches before attribution, each as (context, t_days,
    listing rows, raw flags [rows, len(LABELS)])."""
    cfg = world.config
    n_taste = cfg.context_feature_dim - 2
    taste = np.round(rng.normal(size=n_taste), 6)
    days_ahead_start = rng.uniform(1.0, 180.0)
    start_day = rng.uniform(0.0, 365.0)
    n_planned = int(rng.integers(1, cfg.max_searches_per_journey + 1))

    open_listings = np.ones(cfg.n_listings, dtype=bool)
    searches = []
    elapsed = 0.0
    for s_idx in range(n_planned):
        if s_idx > 0:
            elapsed += rng.uniform(0.25, 1.75)
        if elapsed >= min(cfg.journey_window_days, days_ahead_start):
            break
        context = np.empty(cfg.context_feature_dim)
        context[0] = round(days_ahead_start - elapsed, 6)
        context[1] = float(s_idx)
        context[2:] = taste

        available = np.flatnonzero(open_listings)
        if len(available) < cfg.listings_per_search:
            break
        rows = rng.choice(available, size=cfg.listings_per_search, replace=False)

        p_stage = world.stage_probabilities(context, rows)
        p_neg = world.negative_probabilities(context, rows)
        n = len(rows)
        draws = rng.random((n, len(POSITIVE_CHAIN)))
        reached = np.ones(n, dtype=bool)
        flags = {}
        for j, name in enumerate(POSITIVE_CHAIN):
            reached = reached & (draws[:, j] < p_stage[:, j])
            flags[name] = reached.copy()

        # one booking per search: the best-positioned booking wins, the
        # rest fall back to unbooked requests
        book = flags["book"]
        if book.any():
            first = int(np.flatnonzero(book)[0])
            keep = np.zeros(n, dtype=bool)
            keep[first] = True
            flags["book"] = book & keep
            flags["unc"] = flags["unc"] & keep

        booked = flags["book"]
        cancelled = booked & ~flags["unc"]
        cbh = np.zeros(n, dtype=bool)
        cbg = np.zeros(n, dtype=bool)
        if cancelled.any():
            idx = np.flatnonzero(cancelled)
            p_h = p_neg[idx, NEGATIVE_MILESTONES.index("cbh")]
            p_g = p_neg[idx, NEGATIVE_MILESTONES.index("cbg")]
            host_share = p_h / (p_h + p_g)
            is_host = rng.random(len(idx)) < host_share
            cbh[idx[is_host]] = True
            cbg[idx[~is_host]] = True

        rejectable = flags["req"] & ~flags["book"]
        rej = rejectable & (rng.random(n) < p_neg[:, NEGATIVE_MILESTONES.index("rej")])

        flags.update(rej=rej, cbh=cbh, cbg=cbg)
        searches.append((context, round(start_day + elapsed, 6), rows,
                         np.column_stack([flags[m] for m in LABELS])))

        open_listings[rows[rej | cbh | cbg | booked]] = False
        if booked.any():
            break

    return searches


def build_world(config: GeneratorConfig) -> WorldTruth:
    pool_rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(_POOL_SPAWN_KEY,)))
    features = np.round(pool_rng.normal(size=(config.n_listings,
                                              config.listing_feature_dim)), 6)
    ids = tuple(f"L{k:04d}" for k in range(config.n_listings))
    return WorldTruth(config=config, listing_ids=ids, listing_features=features)


def generate(config: GeneratorConfig,
             guest_range: tuple[int, int] | None = None) -> tuple[Dataset, WorldTruth]:
    """Sample journeys, attribute labels, and return the labeled dataset.

    ``guest_range`` generates only guests [lo, hi) for sharded runs; every
    guest owns an independent seeded stream, so shards concatenate into
    exactly the full-run output.
    """
    world = build_world(config)
    lo, hi = guest_range if guest_range is not None else (0, config.n_guests)
    if not 0 <= lo <= hi <= config.n_guests:
        raise ConfigError(f"guest range [{lo}, {hi}) outside [0, {config.n_guests})")
    guest_ids, searches_per_journey, search_ids = [], [], []
    t_days, contexts, rows, flags = [], [], [], []
    for guest_idx in range(lo, hi):
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(guest_idx,)))
        searches = _sample_journey(rng, world)
        if not searches:
            continue
        guest_ids.append(f"g{guest_idx:06d}")
        searches_per_journey.append(len(searches))
        for s_idx, (context, t, search_rows, search_flags) in enumerate(searches):
            search_ids.append(f"g{guest_idx:06d}-s{s_idx}")
            t_days.append(t)
            contexts.append(context)
            rows.append(search_rows)
            flags.append(search_flags)
    n = config.listings_per_search
    rows = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    flags = (np.concatenate(flags) if flags
             else np.zeros((0, len(LABELS)), dtype=bool))
    raw = Dataset.from_columns(
        config.schema(),
        guest_ids=guest_ids,
        searches_per_journey=searches_per_journey,
        search_ids=search_ids,
        t_days=t_days,
        context_features=contexts,
        imps_per_search=[n] * len(search_ids),
        listing_ids=np.asarray(world.listing_ids)[rows],
        positions=np.tile(np.arange(1, n + 1), len(search_ids)),
        listing_features=world.listing_features[rows],
        labels={m: flags[:, k] for k, m in enumerate(LABELS)},
    )
    return attribute_labels(raw), world


# ---------------------------------------------------------------------------
# funnel summary


@dataclass(frozen=True)
class FunnelReport:
    milestone_counts: dict[str, int]
    searches_per_journey: dict[int, int]
    n_journeys: int
    n_searches: int
    n_impressions: int
    pp_retained_fraction: float

    def to_record(self) -> dict:
        return {
            "milestone_counts": dict(self.milestone_counts),
            "searches_per_journey": {str(k): v for k, v in
                                     sorted(self.searches_per_journey.items())},
            "n_journeys": self.n_journeys,
            "n_searches": self.n_searches,
            "n_impressions": self.n_impressions,
            "pp_retained_fraction": self.pp_retained_fraction,
        }


def summarize(dataset: Dataset) -> FunnelReport:
    counts = milestone_counts(dataset)
    lengths, n_journeys = np.unique(np.diff(dataset.journey_starts),
                                    return_counts=True)
    hist = {int(k): int(v) for k, v in zip(lengths, n_journeys)}
    filtered = filter_training_searches(dataset)
    return FunnelReport(
        milestone_counts=counts,
        searches_per_journey=hist,
        n_journeys=dataset.n_journeys,
        n_searches=dataset.n_searches,
        n_impressions=dataset.n_impressions,
        pp_retained_fraction=filtered.retained_fraction,
    )


# ---------------------------------------------------------------------------
# config and world (de)serialization


def _stage_models_to_record(models: dict[str, StageModel]) -> dict:
    return {name: {"weights": [float(v) for v in m.weights], "bias": float(m.bias)}
            for name, m in models.items()}


def _stage_models_from_record(rec: dict) -> dict[str, StageModel]:
    return {name: StageModel(weights=np.asarray(entry["weights"], dtype=np.float64),
                             bias=float(entry["bias"]))
            for name, entry in rec.items()}


def generator_config_to_record(config: GeneratorConfig) -> dict:
    return {
        "n_guests": config.n_guests,
        "listings_per_search": config.listings_per_search,
        "max_searches_per_journey": config.max_searches_per_journey,
        "listing_feature_dim": config.listing_feature_dim,
        "context_feature_dim": config.context_feature_dim,
        "stage_coefficients": _stage_models_to_record(config.stage_coefficients),
        "negative_coefficients": _stage_models_to_record(config.negative_coefficients),
        "ctr_negative_coupling": config.ctr_negative_coupling,
        "days_ahead_ushape_strength": config.days_ahead_ushape_strength,
        "seed": config.seed,
        "n_listings": config.n_listings,
        "journey_window_days": config.journey_window_days,
        "late_journey_negative_coupling": config.late_journey_negative_coupling,
        "conversion_days_modulation": config.conversion_days_modulation,
        "conversion_late_modulation": config.conversion_late_modulation,
    }


def _exact_int(value) -> int:
    """An integer setting must be read as given, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"not an integer: {value!r}")
    return value


# Record values convert by their field's annotation; the two
# coefficient fields hold StageModels.
_RECORD_CONVERTERS = {"int": _exact_int, "float": float}


def generator_config_from_record(rec: dict) -> GeneratorConfig:
    values = {}
    for f in fields(GeneratorConfig):
        if f.name not in rec:
            if f.default is MISSING:
                raise ConfigError(f"generator config missing key '{f.name}'")
            continue
        convert = _RECORD_CONVERTERS.get(f.type, _stage_models_from_record)
        try:
            values[f.name] = convert(rec[f.name])
        except (AttributeError, KeyError, OverflowError, TypeError,
                ValueError):
            raise ConfigError(f"generator config key '{f.name}' has a "
                              f"malformed value {rec[f.name]!r}") from None
    return GeneratorConfig(**values)


def save_world(world: WorldTruth, path: str | Path) -> None:
    record = {
        "record": "world",
        "config": generator_config_to_record(world.config),
        "listing_ids": list(world.listing_ids),
        "listing_features": [[float(v) for v in row]
                             for row in world.listing_features],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(record, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def load_world(path: str | Path) -> WorldTruth:
    with open(path) as f:
        record = json.load(f)
    if record.get("record") != "world":
        raise SchemaMismatchError(f"{path}: not a world-truth file")
    return WorldTruth(
        config=generator_config_from_record(record["config"]),
        listing_ids=tuple(record["listing_ids"]),
        listing_features=np.asarray(record["listing_features"], dtype=np.float64),
    )
