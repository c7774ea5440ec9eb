"""Synthetic guest-journey generator with a known ground-truth world model.

Each listing carries a fixed feature vector; each positive funnel stage and
each negative outcome is a logistic model over listing features plus a
normalized context map, its weights read from a world recipe (see "world
recipes": ``default_generator_config`` and ``benchmark_generator_config``
each build one). Impressions sample the funnel stage by stage
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

Randomness is per guest: guest ``g`` draws only from the stream of
``SeedSequence(seed, spawn_key=(g,))``, always in the same order, so its
journey does not depend on which other guests are generated with it.
``generate`` steps all guests together by search index, making each
guest's draws for that search in turn and scoring every page in array
passes, and shards of the guest range concatenate into the full run
byte for byte.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import json

import numpy as np

from .domain import (
    LABELS,
    MAX_SIZE,
    Dataset,
    DatasetSchema,
    NEGATIVE_MILESTONES,
    POSITIVE_CHAIN,
    attribute_labels,
    exact_int,
    filter_training_searches,
    milestone_counts,
    number,
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

_REQ, _BOOK, _UNC, _REJ, _CBH, _CBG = (
    LABELS.index(m) for m in ("req", "book", "unc", "rej", "cbh", "cbg"))


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
        for key in ("n_guests", "listings_per_search",
                    "max_searches_per_journey", "listing_feature_dim",
                    "context_feature_dim", "n_listings"):
            if not 1 <= getattr(self, key) <= MAX_SIZE:
                raise ConfigError(f"{key} must be from 1 to {MAX_SIZE}, "
                                  f"got {getattr(self, key)}")
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
    id_to_row: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cfg = self.config
        features = np.asarray(self.listing_features, dtype=np.float64)
        want = (cfg.n_listings, cfg.listing_feature_dim)
        if features.shape != want or len(self.listing_ids) != cfg.n_listings:
            raise SchemaMismatchError(
                f"world holds {len(self.listing_ids)} listing ids and "
                f"features of shape {features.shape}; its config expects "
                f"{cfg.n_listings} ids and features of shape {want}")
        if not np.all(np.isfinite(features)):
            raise SchemaMismatchError("world listing features must be finite")
        # each id must name one row: rows_for_ids and the oracle look
        # rows up by id
        ids = self.listing_ids
        if not (all(isinstance(lid, str) for lid in ids)
                and len(set(ids)) == len(ids)):
            raise SchemaMismatchError("world listing ids must be distinct "
                                      "strings")
        object.__setattr__(self, "listing_features", features)
        object.__setattr__(self, "id_to_row",
                           {lid: k for k, lid in enumerate(ids)})

    def normalized_context(self, contexts) -> np.ndarray:
        """Raw contexts [..., context_dim] rescaled as the linear models
        read them."""
        contexts = np.asarray(contexts, dtype=np.float64)
        if contexts.shape[-1:] != (self.config.context_feature_dim,):
            raise ConfigError(
                f"context width {contexts.shape} does not match config "
                f"(..., {self.config.context_feature_dim})")
        out = contexts.copy()
        out[..., 0] = (contexts[..., 0] - _DAYS_CENTER) / _DAYS_SCALE
        denom = max(self.config.max_searches_per_journey - 1, 1)
        out[..., 1] = contexts[..., 1] / denom - _PREV_CENTER_FRACTION
        return out

    def logits(self, contexts, rows) -> np.ndarray:
        """Logits [k, n, len(LABELS)] of every label, columns in ``LABELS``
        order, for k searches: contexts [k, context_dim] and listing rows
        [k, n].

        Each element is (listing part + context part) + bias, and then the
        couplings: the context-dependent conversion slope on ``unc``, and
        on the negatives the click propensity, the days-ahead U-shape on
        ``rej`` and the late-journey lift. The listing part is one mat-vec
        per search over its own rows and the context part one dot per
        context: a mat-vec's rounding of a row depends on the row's place
        in the matrix, so a pool-wide table gathered by row, or one stacked
        matrix product, would not give these values bit for bit.
        """
        cfg = self.config
        ctx = self.normalized_context(contexts)
        rows = np.asarray(rows)
        if ctx.ndim != 2 or rows.ndim != 2 or len(rows) != len(ctx):
            raise ConfigError(f"logits need contexts [k, d] and rows [k, n], "
                              f"got {ctx.shape} and {rows.shape}")
        # matmul makes one mat-vec per search, and one dot per context of
        # the [k, 1, d] stack
        x, ctx_rows = self.listing_features[rows], ctx[:, None, :]
        d_l = cfg.listing_feature_dim
        models = {**cfg.stage_coefficients, **cfg.negative_coefficients}
        out = np.empty(rows.shape + (len(LABELS),))
        listing = {}
        for j, name in enumerate(LABELS):
            w, bias = models[name].weights, models[name].bias
            listing[name] = x @ w[:d_l]
            out[..., j] = (listing[name] + ctx_rows @ w[d_l:]) + bias
        # float_power rounds as a float64 scalar's ** 2 does; x * x and an
        # array's ** 2 do not always
        u_shape = np.float_power(ctx[:, 0], 2) - 0.5
        late = ctx[:, 1]
        multiplier = 1.0 + (cfg.conversion_days_modulation * u_shape
                            + cfg.conversion_late_modulation * late)
        bent = multiplier != 1.0
        out[bent, :, _UNC] += ((multiplier[bent] - 1.0)[:, None]
                               * listing["unc"][bent])
        negative = slice(len(POSITIVE_CHAIN), None)
        click = listing["c"] + cfg.stage_coefficients["c"].bias
        out[..., negative] += (cfg.ctr_negative_coupling * click)[..., None]
        out[..., _REJ] += (cfg.days_ahead_ushape_strength * u_shape)[:, None]
        out[..., negative] += (cfg.late_journey_negative_coupling
                               * late)[:, None, None]
        return out

    def true_unc_probability(self, contexts, rows) -> np.ndarray:
        """Joint conversion probability [k, n] of k searches (contexts
        [k, context_dim], listing rows [k, n]): the product of every
        positive stage's conditional."""
        stages = self.logits(contexts, rows)[..., :len(POSITIVE_CHAIN)]
        return logistic(stages).prod(axis=-1)

    def rows_for_ids(self, listing_ids) -> np.ndarray:
        try:
            return np.array([self.id_to_row[lid] for lid in listing_ids],
                            dtype=np.int64)
        except KeyError as exc:
            raise ConfigError(f"unknown listing id {exc}") from None


# ---------------------------------------------------------------------------
# world recipes: a recipe is two tables. Blocks map a name to listing
# dimensions and their loads; models map each of the nine milestones to
# ({block: scale}, bias), a listing weight summing scale * load over the
# blocks in the order listed. Positive stages take their _STAGE_CONTEXT row
# as context weights, negatives none.

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

# two orthogonal listing-quality directions: "appeal" drives early funnel
# stages (and defines CTR), "reliability" drives late stages and, inverted,
# the negative outcomes, each of which adds a direction of its own.
# Orthogonality keeps CTR and rejection independent until
# ctr_negative_coupling ties them together.
_DEFAULT_BLOCKS = {
    "appeal": {0: 0.9, 1: 0.5, 2: 0.4},
    "reliability": {3: 0.8, 4: 0.6, 5: 0.4},
    "rej": {3: 0.45, 4: -0.35, 5: 0.25},
    "cbh": {3: -0.20, 4: 0.50, 5: -0.35},
    "cbg": {3: 0.20, 4: -0.30, 5: 0.50},
}
_DEFAULT_MODELS = {
    "c": ({"appeal": 1.00}, -1.85),
    "lc": ({"appeal": 0.80, "reliability": 0.15}, 0.45),
    "pp": ({"appeal": 0.50, "reliability": 0.40}, -0.70),
    "req": ({"appeal": 0.30, "reliability": 0.60}, -0.15),
    "book": ({"appeal": 0.15, "reliability": 0.80}, 0.00),
    "unc": ({"appeal": 0.05, "reliability": 0.90}, 1.05),
    "rej": ({"reliability": -0.80, "rej": 1.0}, -2.30),
    "cbh": ({"reliability": -0.70, "cbh": 1.0}, -1.30),
    "cbg": ({"reliability": -0.50, "cbg": 1.0}, -0.90),
}

_BENCHMARK_BLOCKS = {
    "appeal": {0: 0.55, 1: 0.45, 2: 0.40, 3: 0.30, 4: 0.25, 5: 0.20},
    "merch": {6: 0.90, 7: 0.72, 8: 0.56},
    "respond": {9: 0.60, 10: 0.50, 11: 0.40},
    "keep": {12: 0.60, 13: 0.50, 14: 0.40},
}
_BENCHMARK_MODELS = {
    "c": ({"appeal": 2.00}, -3.30),
    "lc": ({"appeal": 0.80, "merch": 0.70}, 0.90),
    "pp": ({"appeal": 0.65, "merch": 0.85}, 0.35),
    "req": ({"appeal": 0.60, "merch": 0.55}, 0.90),
    "book": ({"appeal": 0.50, "merch": 0.45, "respond": 0.28,
              "keep": 0.28}, -2.00),
    "unc": ({"respond": 2.60, "keep": 3.40}, -3.60),
    "rej": ({"respond": -1.60}, 0.30),
    "cbh": ({"keep": -1.40}, -0.85),
    "cbg": ({"keep": -1.40}, -0.50),
}


def _recipe_config(blocks, models, listing_dim, **fields) -> GeneratorConfig:
    """The world a recipe's tables define, with ``fields`` set last."""
    stage, negative = {}, {}
    for name, (scales, bias) in models.items():
        w = np.zeros(listing_dim + 4)
        for block, scale in scales.items():
            for dim, load in blocks[block].items():
                w[dim] += scale * load
        w[listing_dim:] = _STAGE_CONTEXT.get(name, 0.0)
        group = stage if name in POSITIVE_CHAIN else negative
        group[name] = StageModel(weights=w, bias=bias)
    return GeneratorConfig(**{
        "listing_feature_dim": listing_dim, "context_feature_dim": 4,
        "max_searches_per_journey": 8, "stage_coefficients": stage,
        "negative_coefficients": negative, **fields})


def default_generator_config(n_guests: int = 2000, seed: int = 0,
                             **overrides) -> GeneratorConfig:
    """The calibrated desk-scale world.

    Attributed label counts at 2,000 guests and seed 0, each over its
    parent's: click 0.19, long-click 0.73, payment-page 0.46, request 0.59,
    booking 0.58, uncancelled 0.86, so 1.8 percent of impressions carry
    ``unc``; rejections 0.11 of unbooked requests, host and guest
    cancellations 0.05 and 0.09 of bookings.
    """
    return _recipe_config(
        _DEFAULT_BLOCKS, _DEFAULT_MODELS, 6, n_guests=n_guests, seed=seed,
        **{"listings_per_search": 8, "ctr_negative_coupling": 0.0,
           "days_ahead_ushape_strength": 0.0, **overrides})


def benchmark_generator_config(n_guests: int = 8500, seed: int = 505,
                               **overrides) -> GeneratorConfig:
    """The study-scale world used for head-to-head model comparisons.

    Listing features carry four disjoint trait blocks plus five pure
    noise dimensions. Early funnel stages rank candidates by the appeal
    and merchandising blocks; the final uncancelled stage depends only
    on the responsiveness and retention blocks, which upstream stages
    echo faintly through the booking step. Uncancelled outcomes are made
    deliberately scarce (674 of the 8,500 journeys at seed 505 hold an
    ``unc`` label, about 8 percent) so a model that learns the retention
    axes only from its own labels is label-starved while milestone
    co-training can still reach them.
    Negative events load with opposite sign on those same blocks, and
    every context coupling is switched on, so rejection pressure varies
    with the booking horizon and journey position and the conversion
    slope itself is context-modulated.
    """
    return _recipe_config(
        _BENCHMARK_BLOCKS, _BENCHMARK_MODELS, 20, n_guests=n_guests,
        seed=seed, **{"listings_per_search": 16, "n_listings": 600,
                      "ctr_negative_coupling": 0.40,
                      "days_ahead_ushape_strength": 1.5,
                      "late_journey_negative_coupling": 1.2,
                      "conversion_days_modulation": 1.2,
                      "conversion_late_modulation": 0.8, **overrides})


# ---------------------------------------------------------------------------
# generation


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

    Guest ``g`` draws only from its own stream,
    ``SeedSequence(config.seed, spawn_key=(g,))``, in a fixed order: the
    journey draws (taste, check-in horizon, start day, planned searches),
    then per search the gap since the last search (from the second on),
    the page, the funnel draws, the host-or-guest draw if the booking is
    cancelled, and the rejection draws. All guests advance together one
    search index at a time: a loop over the guests still searching makes
    each one's draws for that search, and array passes score and label
    every page at once. ``guest_range`` generates only guests [lo, hi) for
    sharded runs; since no guest's draws depend on another's, shards
    concatenate into exactly the full-run output.
    """
    world = build_world(config)
    lo, hi = guest_range if guest_range is not None else (0, config.n_guests)
    if not 0 <= lo <= hi <= config.n_guests:
        raise ConfigError(f"guest range [{lo}, {hi}) outside [0, {config.n_guests})")
    n, n_stages = config.listings_per_search, len(POSITIVE_CHAIN)
    n_taste = config.context_feature_dim - len(CONTEXT_FEATURE_PREFIX)
    rngs = [np.random.default_rng(np.random.SeedSequence(config.seed,
                                                         spawn_key=(g,)))
            for g in range(lo, hi)]
    taste, days_ahead, start_day, n_planned = [], [], [], []
    most = config.max_searches_per_journey
    for rng in rngs:
        taste.append(rng.normal(size=n_taste))
        # lo + (hi - lo) * rng.random() is rng.uniform(lo, hi), bit for
        # bit, without its argument checks
        days_ahead.append(1.0 + (180.0 - 1.0) * rng.random())
        start_day.append(0.0 + (365.0 - 0.0) * rng.random())
        n_planned.append(int(rng.integers(1, most + 1)))
    taste = np.round(np.reshape(taste, (len(rngs), n_taste)), 6)
    limit = [min(config.journey_window_days, d) for d in days_ahead]
    elapsed = [0.0] * len(rngs)
    open_listings = np.ones((len(rngs), config.n_listings), dtype=bool)

    # per search: guest, search index, context, t_days, rows, raw flags
    steps = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
              np.zeros((0, config.context_feature_dim)), np.zeros(0),
              np.zeros((0, n), dtype=np.int64),
              np.zeros((0, n, len(LABELS)), dtype=bool))]
    live = range(len(rngs))
    for s_idx in range(most):
        searching, pages, draws, days, t_days = [], [], [], [], []
        for g in live:
            if s_idx >= n_planned[g]:
                continue
            rng = rngs[g]
            if s_idx > 0:
                elapsed[g] += 0.25 + (1.75 - 0.25) * rng.random()
            if elapsed[g] >= limit[g]:
                continue
            available = open_listings[g].nonzero()[0]
            if len(available) < n:
                continue
            searching.append(g)
            pages.append(rng.choice(available, size=n, replace=False))
            draws.append(rng.random((n, n_stages)))
            # Python's round, which np.round does not always match
            days.append(round(days_ahead[g] - elapsed[g], 6))
            t_days.append(round(start_day[g] + elapsed[g], 6))
        if not searching:
            break
        guests, rows = np.array(searching), np.array(pages)
        k = len(guests)
        contexts = np.empty((k, config.context_feature_dim))
        contexts[:, 0] = days
        contexts[:, 1] = s_idx
        contexts[:, 2:] = taste[guests]
        p = logistic(world.logits(contexts, rows))

        flags = np.zeros((k, n, len(LABELS)), dtype=bool)
        flags[..., :n_stages] = np.logical_and.accumulate(
            np.array(draws) < p[..., :n_stages], axis=-1)
        # one booking per search: the best-positioned booking wins, the
        # rest fall back to unbooked requests
        first = np.argmax(flags[..., _BOOK], axis=1)
        won = np.zeros((k, n), dtype=bool)
        won[np.arange(k), first] = True
        flags[..., _BOOK] &= won
        flags[..., _UNC] &= won
        booked = flags[..., _BOOK]
        cancelled = booked & ~flags[..., _UNC]
        due = cancelled.any(axis=1)

        host_draw, rej_draw = np.zeros(k), np.empty((k, n))
        for j, g in enumerate(searching):
            if due[j]:
                host_draw[j] = rngs[g].random()
            rej_draw[j] = rngs[g].random(n)
        # a cancellation falls to the host by the outcomes' relative risk
        p_h, p_g = p[due, first[due], _CBH], p[due, first[due], _CBG]
        is_host = np.zeros(k, dtype=bool)
        is_host[due] = host_draw[due] < p_h / (p_h + p_g)
        flags[..., _CBH] = cancelled & is_host[:, None]
        flags[..., _CBG] = cancelled & ~is_host[:, None]
        flags[..., _REJ] = (flags[..., _REQ] & ~booked
                            & (rej_draw < p[..., _REJ]))

        # a booking or a negative outcome takes the listing out of the pool
        closed = booked | flags[..., n_stages:].any(axis=-1)
        hit, slot = np.nonzero(closed)
        open_listings[guests[hit], rows[hit, slot]] = False
        steps.append((guests, np.full(k, s_idx), contexts, np.array(t_days),
                      rows, flags))
        live = guests[~booked.any(axis=1)].tolist()

    guest_of, search_of, contexts, t_days, rows, flags = (
        np.concatenate(column) for column in zip(*steps))
    # steps hold search s of every guest; a stable sort by guest restores
    # journey order
    order = np.argsort(guest_of, kind="stable")
    guest_of = (guest_of[order] + lo).tolist()
    search_of = search_of[order].tolist()
    rows, flags = rows[order].ravel(), flags[order].reshape(-1, len(LABELS))
    guests, searches_per_journey = np.unique(guest_of, return_counts=True)
    raw = Dataset.from_columns(
        config.schema(),
        guest_ids=[f"g{g:06d}" for g in guests],
        searches_per_journey=searches_per_journey,
        search_ids=[f"g{g:06d}-s{s}" for g, s in zip(guest_of, search_of)],
        t_days=t_days[order],
        context_features=contexts[order],
        imps_per_search=np.full(len(order), n),
        positions=np.tile(np.arange(1, n + 1), len(order)),
        listing_ids=world.listing_ids,
        listing_rows=world.listing_features,
        listing_index=rows,
        label_rows=flags.T,
    )
    del flags  # raw holds its own C-contiguous copy
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
    lengths, n_journeys = np.unique(dataset.journeys.sizes,
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


def _refuse_unknown_keys(what: str, rec: dict, names) -> None:
    unknown = sorted(rec.keys() - set(names))
    if unknown:
        raise ConfigError(f"{what} has unknown keys {unknown}")


def _stage_models_from_record(rec: dict) -> dict[str, StageModel]:
    for name, entry in rec.items():
        _refuse_unknown_keys(f"stage {name!r}", entry, ("weights", "bias"))
    return {name: StageModel(
                weights=np.array([number(v) for v in entry["weights"]]),
                bias=number(entry["bias"]))
            for name, entry in rec.items()}


# Record values convert by their field's annotation; the two
# coefficient fields hold StageModels.
_RECORD_CONVERTERS = {"int": exact_int, "float": number}


def generator_config_to_record(config: GeneratorConfig) -> dict:
    return {f.name: (getattr(config, f.name) if f.type in _RECORD_CONVERTERS
                     else _stage_models_to_record(getattr(config, f.name)))
            for f in fields(GeneratorConfig)}


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
    _refuse_unknown_keys("generator config", rec, values)
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
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def load_world(path: str | Path) -> WorldTruth:
    """A world file; refuses anything but a UTF-8 world record of
    numbers."""
    try:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
    except UnicodeDecodeError as exc:
        raise SchemaMismatchError(
            f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
            f"({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise SchemaMismatchError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(record, dict) or record.get("record") != "world":
        raise SchemaMismatchError(f"{path}: not a world-truth file")
    try:
        features = np.array([[number(v) for v in row]
                             for row in record["listing_features"]])
        return WorldTruth(
            config=generator_config_from_record(record["config"]),
            listing_ids=tuple(record["listing_ids"]),
            listing_features=features)
    except KeyError as exc:
        raise SchemaMismatchError(
            f"{path}: world record missing {exc}") from None
    except (OverflowError, TypeError, ValueError):
        raise SchemaMismatchError(f"{path}: listing ids and features must be "
                                  "a list and a numeric matrix") from None
