"""Milestone taxonomy, the columnar dataset, label attribution, and dataset
rules.

A guest journey is a time-ordered list of searches; each search shows a
ranked list of listings (impressions). Outcomes are milestones: the nested
positive chain click -> long click -> payment page -> request -> booking ->
uncancelled booking, plus three negative outcomes (host rejection, host
cancellation, guest cancellation). Raw journeys record each milestone only
on the impression where the action happened; :func:`attribute_labels`
propagates them into the multi-label training view.

A :class:`Dataset` is one set of flat columns: one row per impression,
one per search, and each journey a run of consecutive searches, with the
listings as one table of distinct (id, feature row) pairs that each
impression indexes. Two :class:`~journeyrank.nn.Segments` layouts, built
once when the dataset is assembled, group them: ``searches`` (impressions
into searches) and ``journeys`` (searches into journeys). Attribution,
filtering, validation and the task statistics below are array and segment
operations over those columns and layouts; they tell listings apart by
one integer code per impression, :meth:`Dataset.listing_codes`.
The per-journey record that datasets are written in and built from lives
in :mod:`journeyrank.dataio`.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .errors import (ConfigError, ContractError, DataValidationError,
                     UndefinedTaskWeightError)
from .nn import Segments

# funnel order: each later milestone implies all earlier ones
POSITIVE_CHAIN: tuple[str, ...] = ("c", "lc", "pp", "req", "book", "unc")
NEGATIVE_MILESTONES: tuple[str, ...] = ("rej", "cbh", "cbg")
# the flags stored per impression; "imp" holds on every impression
LABELS: tuple[str, ...] = POSITIVE_CHAIN + NEGATIVE_MILESTONES
ALL_MILESTONES: tuple[str, ...] = ("imp",) + LABELS

# eligibility parent for each negative outcome: rejections happen to
# requests, cancellations happen to bookings
NEGATIVE_PARENT: dict[str, str] = {"rej": "req", "cbh": "book", "cbg": "book"}


def exact_int(value) -> int:
    """An integer setting must be read as given, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"not an integer: {value!r}")
    return value


def number(value) -> float:
    """A float setting takes a float or an integer, never a bool or a string."""
    return value if isinstance(value, float) else float(exact_int(value))


# the largest count or width a config or a dataset header may give: float64
# arrays shaped by two such sizes still fit numpy's 64-bit byte count, so a
# size too large for memory fails as a MemoryError, not as a shape error
MAX_SIZE = 1 << 28


def label_violations(labels: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One mask per label rule, set on the impressions that break it."""
    chain = [labels[m] for m in POSITIVE_CHAIN]
    funnel = np.zeros(len(chain[0]), dtype=bool)
    for earlier, later in zip(chain, chain[1:]):
        funnel |= later & ~earlier
    negative = labels["rej"] | labels["cbh"] | labels["cbg"]
    return {
        "funnel consistency": funnel,
        "rej implies req": labels["rej"] & ~labels["req"],
        "rej excludes book": labels["rej"] & labels["book"],
        "cbh implies book": labels["cbh"] & ~labels["book"],
        "cbg implies book": labels["cbg"] & ~labels["book"],
        "unc excludes cancellations": labels["unc"] & negative,
    }


REQUIRED_CONTEXT_FEATURES = ("days_ahead_of_checkin", "num_previous_searches")


@dataclass(frozen=True)
class DatasetSchema:
    """Feature widths, context feature names and the journey window. The
    milestones are always ``ALL_MILESTONES``."""

    listing_dim: int
    context_dim: int
    context_features: tuple[str, ...]
    window_days: float = 30.0

    def __post_init__(self):
        object.__setattr__(self, "context_features", tuple(self.context_features))
        for key in ("listing_dim", "context_dim"):
            if not 1 <= getattr(self, key) <= MAX_SIZE:
                raise ConfigError(f"feature widths must be from 1 to "
                                  f"{MAX_SIZE}: {key} is {getattr(self, key)}")
        if len(self.context_features) != self.context_dim:
            raise ConfigError("context feature name count must equal context_dim")
        for name in REQUIRED_CONTEXT_FEATURES:
            if name not in self.context_features:
                raise ConfigError(f"context schema must include {name!r}")
        if not self.window_days > 0:
            raise ConfigError("journey window must be positive")

    def context_index(self, feature_name: str) -> int:
        try:
            return self.context_features.index(feature_name)
        except ValueError:
            raise ConfigError(f"unknown context feature {feature_name!r}") from None

    def to_record(self) -> dict:
        return {
            "record": "schema",
            "listing_dim": self.listing_dim,
            "context_dim": self.context_dim,
            "context_features": list(self.context_features),
            "milestones": list(ALL_MILESTONES),
            "window_days": self.window_days,
        }

    def hash(self) -> str:
        blob = json.dumps(self.to_record(), sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()


def concat_ranges(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The runs first[k] .. first[k] + lengths[k] - 1, one after another."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(first - (ends - lengths), lengths) + np.arange(total)


# rows of sorted keys compared at once by _canonical_listings
_COMPARE_ROWS = 1 << 12


def _canonical_listings(ids: np.ndarray, rows: np.ndarray, index: np.ndarray,
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ids[index]`` and ``rows[index]``, bit for bit, as a table and an
    index in the canonical form of :meth:`Dataset.from_columns`."""
    if ids.shape != (len(rows),):
        raise ContractError("listing ids must name the listing table's rows")
    if index.size and not 0 <= index.min() <= index.max() < len(rows):
        raise ContractError("listing index outside the listing table")
    # each row's key is its id's code and its feature bits, one void value
    # that is equal only for rows of equal id and bytes; a stable sort puts
    # each key's rows together, its first row first
    keys = np.empty((len(rows), 1 + rows.shape[1]), dtype=np.uint64)
    keys[:, 0] = np.unique(ids, return_inverse=True)[1]
    keys[:, 1:] = np.ascontiguousarray(rows).view(np.uint64)
    void = np.dtype((np.void, keys.itemsize * keys.shape[1]))
    order = np.argsort(keys.view(void).ravel(), kind="stable")
    # a key unlike the one before it in the sort starts a new key; compared
    # a block at a time, so no sorted copy of the keys is made
    new = np.ones(len(rows), dtype=bool)
    for lo in range(1, len(rows), _COMPARE_ROWS):
        run = order[lo - 1:lo + _COMPARE_ROWS]
        new[lo:lo + _COMPARE_ROWS] = (keys[run[1:]] != keys[run[:-1]]
                                      ).any(axis=1)
    # each row maps to the first row of its key
    first = np.empty(len(rows), dtype=np.int64)
    first[order] = order[new][np.cumsum(new) - 1]
    return _shown_in_order(ids, rows, first[index])


def _shown_in_order(ids: np.ndarray, rows: np.ndarray, index: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of a table distinct by (id, bytes) that ``index`` shows,
    in order of first appearance, and the index into them."""
    # each row's first impression; the rows none shows sort last
    seen = np.full(len(rows), len(index))
    np.minimum.at(seen, index, np.arange(len(index)))
    order = np.argsort(seen)[:np.count_nonzero(seen < len(index))]
    if np.array_equal(order, np.arange(len(rows))):
        return ids, rows, index  # already canonical: no second copy
    slot = np.empty(len(rows), dtype=np.int64)
    slot[order] = np.arange(len(order))
    return ids[order], rows[order], slot[index]


@dataclass(frozen=True)
class Dataset:
    """Labelled journeys as flat columns.

    Searches are stored journey by journey, in time order within each, and
    impressions search by search. Journey ``j`` belongs to guest
    ``guest_ids[j]`` and owns the searches ``journeys`` gives it, and search
    ``k`` owns the impression rows ``searches`` gives it. Either layout may
    hold an empty segment, which validation reports.

    Listings are one table, ``listing_ids`` and ``listing_rows`` row by
    row, in the canonical form of :meth:`from_columns`: impression ``i``
    shows table row ``listing_index[i]``. A listing is its id, so two rows
    of one id (a price change) are one listing to every rule. The labels
    are one C-contiguous block, a row per milestone of ``LABELS``, which
    the model's batches share; ``labels`` reads it by name.
    """

    schema: DatasetSchema
    guest_ids: np.ndarray             # [n_journeys] str
    journeys: Segments                # searches into journeys
    search_ids: np.ndarray            # [n_searches] str
    t_days: np.ndarray                # [n_searches] float64
    context_features: np.ndarray      # [n_searches, context_dim] float64
    searches: Segments                # impression rows into searches
    positions: np.ndarray             # [n_impressions] int64
    listing_ids: np.ndarray           # [n_listings] str
    listing_rows: np.ndarray          # [n_listings, listing_dim] float64
    listing_index: np.ndarray         # [n_impressions] int64
    label_rows: np.ndarray            # [len(LABELS), n_impressions] bool

    @classmethod
    def from_columns(cls, schema: DatasetSchema, *, guest_ids,
                     searches_per_journey, search_ids, t_days,
                     context_features, imps_per_search, positions,
                     listing_ids, listing_rows, listing_index,
                     label_rows) -> "Dataset":
        """Assemble a dataset from per-journey, per-search and
        per-impression columns, the listing table and the row counts that
        group them.

        Impression ``i`` shows row ``listing_index[i]`` of the listing
        table, whose row ``k`` is id ``listing_ids[k]`` with features
        ``listing_rows[k]`` (ids not aligned with the rows raise
        :class:`ContractError`); it may hold a row twice or a row no
        impression shows. The dataset holds it in canonical form: rows
        distinct by id and feature bytes (``-0.0`` and ``0.0`` stay apart,
        and so do two NaN payloads, equal bytes under two ids and two rows
        of one id), in order of first appearance in the impressions, and
        every row shown. ``label_rows`` is kept, not copied, if C-contiguous.
        """
        listing_ids, listing_rows, listing_index = _canonical_listings(
            np.asarray(listing_ids, dtype=str),
            np.asarray(listing_rows, dtype=np.float64
                       ).reshape(-1, schema.listing_dim),
            np.asarray(listing_index, dtype=np.int64))
        return cls(
            schema=schema,
            guest_ids=np.asarray(guest_ids, dtype=str),
            journeys=Segments(searches_per_journey),
            search_ids=np.asarray(search_ids, dtype=str),
            t_days=np.asarray(t_days, dtype=np.float64),
            context_features=np.asarray(context_features, dtype=np.float64
                                        ).reshape(-1, schema.context_dim),
            searches=Segments(imps_per_search),
            positions=np.asarray(positions, dtype=np.int64),
            listing_ids=listing_ids,
            listing_rows=listing_rows,
            listing_index=listing_index,
            label_rows=np.ascontiguousarray(label_rows, dtype=bool),
        )

    @property
    def n_journeys(self) -> int:
        return len(self.guest_ids)

    @property
    def n_searches(self) -> int:
        return len(self.search_ids)

    @property
    def n_impressions(self) -> int:
        return len(self.listing_index)

    @property
    def labels(self) -> dict[str, np.ndarray]:  # milestone -> [n_impressions]
        return dict(zip(LABELS, self.label_rows))

    def journey_of_impression(self) -> np.ndarray:
        return self.journeys.ids[self.searches.ids]

    def listing_codes(self) -> np.ndarray:
        """Each impression's listing id as its rank among the table's ids:
        equal and ordered exactly as the ids are."""
        return np.unique(self.listing_ids,
                         return_inverse=True)[1][self.listing_index]


def select_impressions(dataset: Dataset, keep: np.ndarray,
                       min_impressions: int = 1) -> Dataset:
    """The impression rows marked in ``keep``, in their original order.

    Searches left with fewer than ``min_impressions`` rows are dropped, and
    so are journeys left without a search.
    """
    counts = np.bincount(dataset.searches.ids[keep],
                         minlength=dataset.n_searches)
    keep_search = counts >= min_impressions
    keep = keep & keep_search[dataset.searches.ids]
    per_journey = np.bincount(dataset.journeys.ids[keep_search],
                              minlength=dataset.n_journeys)
    keep_journey = per_journey > 0
    # the parent's table is canonical, so the rows it shows need no keys
    listing_ids, listing_rows, listing_index = _shown_in_order(
        dataset.listing_ids, dataset.listing_rows,
        dataset.listing_index[keep])
    return Dataset(
        schema=dataset.schema,
        guest_ids=dataset.guest_ids[keep_journey],
        journeys=Segments(per_journey[keep_journey]),
        search_ids=dataset.search_ids[keep_search],
        t_days=dataset.t_days[keep_search],
        context_features=dataset.context_features[keep_search],
        searches=Segments(counts[keep_search]),
        positions=dataset.positions[keep],
        listing_ids=listing_ids,
        listing_rows=listing_rows,
        listing_index=listing_index,
        label_rows=dataset.label_rows.compress(keep, axis=1),
    )


def _segment_any(mask: np.ndarray, group: np.ndarray, n: int) -> np.ndarray:
    """Per group 0..n-1 of the rows: is ``mask`` set on any of its rows?"""
    return np.bincount(group[mask], minlength=n) > 0


def _journey_listing_groups(dataset: Dataset) -> tuple[np.ndarray, int]:
    """A group id per impression, shared by the impressions of one listing
    within one journey; returns (ids, number of groups)."""
    codes = dataset.listing_codes()
    key = dataset.journey_of_impression() * (int(codes.max(initial=0)) + 1)
    _, groups = np.unique(key + codes, return_inverse=True)
    return groups, int(groups.max(initial=-1)) + 1


def _last_search_with(dataset: Dataset, groups: np.ndarray, n_groups: int,
                      flag: np.ndarray) -> np.ndarray:
    """Per group, the last search index where ``flag`` is set (-1: none)."""
    last = np.full(n_groups, -1, dtype=np.int64)
    np.maximum.at(last, groups[flag], dataset.searches.ids[flag])
    return last


def _where_journey(dataset: Dataset, j: int) -> str:
    return f"guest={dataset.guest_ids[j]}"


def _where_search(dataset: Dataset, k: int) -> str:
    j = int(dataset.journeys.ids[k])
    return f"{_where_journey(dataset, j)} search={dataset.search_ids[k]}"


def _where_impression(dataset: Dataset, i: int) -> str:
    return (f"{_where_search(dataset, int(dataset.searches.ids[i]))} "
            f"listing={dataset.listing_ids[dataset.listing_index[i]]}")


# ---------------------------------------------------------------------------
# label attribution


def attribute_labels(dataset: Dataset) -> Dataset:
    """Propagate raw milestone events into the multi-label training view.

    Raw journeys carry each milestone only on the impression where the
    action occurred. After attribution, a positive milestone achieved on a
    listing marks every impression of that listing in searches at or before
    the occurrence; a negative milestone marks every impression of the
    listing anywhere in the journey. Idempotent: attributed journeys pass
    through unchanged.
    """
    violations = label_violations(dataset.labels)
    broken = np.flatnonzero(np.logical_or.reduce(list(violations.values())))
    if broken.size:
        row = int(broken[0])
        kinds = "; ".join(k for k, mask in violations.items() if mask[row])
        raise DataValidationError(
            f"{_where_impression(dataset, row)}: inconsistent raw labels "
            f"({kinds})")

    groups, n_groups = _journey_listing_groups(dataset)
    label_rows = np.empty_like(dataset.label_rows)
    for m, row, raw in zip(LABELS, label_rows, dataset.label_rows):
        if m in POSITIVE_CHAIN:
            last = _last_search_with(dataset, groups, n_groups, raw)
            row[:] = dataset.searches.ids <= last[groups]
        else:
            row[:] = _segment_any(raw, groups, n_groups)[groups]
    return replace(dataset, label_rows=label_rows)


# ---------------------------------------------------------------------------
# training-data filtering


@dataclass(frozen=True)
class FilterResult:
    """Outcome of restricting a dataset to payment-page journeys."""

    dataset: Dataset
    n_journeys_before: int
    n_journeys_after: int
    n_searches_before: int
    n_searches_after: int
    warning: str | None = None

    @property
    def retained_fraction(self) -> float:
        if self.n_searches_before == 0:
            return 0.0
        return self.n_searches_after / self.n_searches_before

    def training_dataset(self) -> Dataset:
        """The kept dataset; refuses an empty one, which nothing can be
        trained on."""
        if self.warning is not None:
            raise DataValidationError(self.warning)
        return self.dataset


def filter_training_searches(dataset: Dataset) -> FilterResult:
    """Keep only searches from journeys that reached a payment-page view.

    Within kept journeys, impressions of a booked listing that occur after
    its booking search are dropped (they carry no booking label and would
    contradict the journey's outcome), and searches left with fewer than two
    impressions are removed.
    """
    journey = dataset.journey_of_impression()
    reached_pp = _segment_any(dataset.labels["pp"], journey,
                              dataset.n_journeys)
    groups, n_groups = _journey_listing_groups(dataset)
    book = dataset.labels["book"]
    last_book = _last_search_with(dataset, groups, n_groups, book)[groups]
    stale = (last_book >= 0) & ~book & (dataset.searches.ids > last_book)
    kept = select_impressions(dataset, reached_pp[journey] & ~stale,
                              min_impressions=2)
    warning = None
    if kept.n_journeys == 0:
        warning = "no payment-page views found; the filtered training set is empty"
    return FilterResult(
        dataset=kept,
        n_journeys_before=dataset.n_journeys,
        n_journeys_after=kept.n_journeys,
        n_searches_before=dataset.n_searches,
        n_searches_after=kept.n_searches,
        warning=warning,
    )


# ---------------------------------------------------------------------------
# dataset validation


@dataclass
class ValidationReport:
    """Violation counts by type; zero violations means the dataset is accepted."""

    violations: Counter = field(default_factory=Counter)
    examples: list[str] = field(default_factory=list)
    n_journeys: int = 0
    n_searches: int = 0
    n_impressions: int = 0

    MAX_EXAMPLES = 20

    @property
    def accepted(self) -> bool:
        return not self.violations

    def check(self, kind: str, mask: np.ndarray,
              where: Callable[[int], str]) -> None:
        """Count the rows set in ``mask`` as violations of ``kind``;
        ``where(i)`` names row ``i`` in the examples."""
        rows = np.flatnonzero(mask)
        if rows.size == 0:
            return
        self.violations[kind] += int(rows.size)
        for i in rows[:self.MAX_EXAMPLES - len(self.examples)]:
            self.examples.append(f"{where(int(i))}: {kind}")

    def to_record(self) -> dict:
        return {
            "accepted": self.accepted,
            "violations": dict(sorted(self.violations.items())),
            "examples": list(self.examples),
            "n_journeys": self.n_journeys,
            "n_searches": self.n_searches,
            "n_impressions": self.n_impressions,
        }


def _has_duplicates(values: np.ndarray, segments: Segments) -> np.ndarray:
    """Per segment: do two of its rows hold the same value?"""
    order = np.lexsort((values, segments.ids))
    v, g = values[order], segments.ids[order]
    repeated = (v[1:] == v[:-1]) & (g[1:] == g[:-1])
    return np.bincount(g[1:][repeated], minlength=segments.n) > 0


def validate_dataset(dataset: Dataset) -> ValidationReport:
    """Check every label, structural and numeric invariant; never raises.

    Feature widths need no check here: the columns have the schema's
    widths, and :func:`journeyrank.dataio.load_dataset` refuses records
    of any other width.
    """
    n_j, n_s = dataset.n_journeys, dataset.n_searches
    report = ValidationReport(n_journeys=n_j, n_searches=n_s,
                              n_impressions=dataset.n_impressions)
    at_journey = partial(_where_journey, dataset)
    at_search = partial(_where_search, dataset)
    at_impression = partial(_where_impression, dataset)

    journey, t_days = dataset.journeys.ids, dataset.t_days
    backwards = (journey[1:] == journey[:-1]) & (t_days[1:] < t_days[:-1])
    report.check("searches out of order",
                 _segment_any(backwards, journey[1:], n_j), at_journey)
    first = np.full(n_j, np.inf)
    last = np.full(n_j, -np.inf)
    with np.errstate(invalid="ignore"):  # non-finite times: their own rule
        np.minimum.at(first, journey, t_days)
        np.maximum.at(last, journey, t_days)
        span = last - first
    report.check("journey window",
                 span > dataset.schema.window_days + 1e-9, at_journey)

    searches = dataset.searches
    report.check("too few impressions", searches.sizes < 2, at_search)
    report.check("duplicate position",
                 _has_duplicates(dataset.positions, searches), at_search)
    report.check("position not 1-based",
                 _segment_any(dataset.positions < 1, searches.ids, n_s),
                 at_search)
    # two impressions of one search share a group exactly when they show
    # one listing
    groups, n_groups = _journey_listing_groups(dataset)
    report.check("duplicate listing", _has_duplicates(groups, searches),
                 at_search)

    report.check("non-finite time", ~np.isfinite(t_days), at_search)
    # a normalization fit over n rows stays finite if no value passes
    # sqrt(max / 8n); a listing table row counts once per impression
    for kind, rows, n, shown, where in (
            ("context", dataset.context_features, n_s, slice(None),
             at_search),
            ("listing features", dataset.listing_rows, dataset.n_impressions,
             dataset.listing_index, at_impression)):
        finite = np.isfinite(rows)
        bound = np.sqrt(np.finfo(np.float64).max / (8 * max(n, 1)))
        big = finite & (np.abs(rows) > bound)
        report.check(f"non-finite {kind}", ~finite.all(axis=1)[shown], where)
        report.check(f"{kind} too large to normalize",
                     big.any(axis=1)[shown], where)
    for kind, mask in label_violations(dataset.labels).items():
        report.check(kind, mask, at_impression)

    unc_groups = np.unique(groups[dataset.labels["unc"]])
    journey_of_group = np.zeros(n_groups, dtype=np.int64)
    journey_of_group[groups] = dataset.journey_of_impression()
    report.check("multiple unc listings",
                 np.bincount(journey_of_group[unc_groups], minlength=n_j) > 1,
                 at_journey)
    return report


# ---------------------------------------------------------------------------
# task statistics


def milestone_counts(dataset: Dataset) -> dict[str, int]:
    counts = np.count_nonzero(dataset.label_rows, axis=1).tolist()
    return {"imp": dataset.n_impressions, **dict(zip(LABELS, counts))}


def empirical_task_weight(dataset: Dataset, task: str) -> float:
    """Fraction of task-positive impressions that end in an uncancelled
    booking. Equals 1.0 for the final task by construction."""
    if task not in POSITIVE_CHAIN:
        raise ConfigError(f"task weight is defined for positive-chain "
                          f"milestones, not {task!r}")
    labels = dataset.labels
    n_task = int(np.count_nonzero(labels[task]))
    if n_task == 0:
        raise UndefinedTaskWeightError(
            f"no impression carries the {task!r} label; weight undefined")
    return int(np.count_nonzero(labels[task] & labels["unc"])) / n_task


def task_weights(dataset: Dataset, tasks) -> dict[str, float]:
    return {t: empirical_task_weight(dataset, t) for t in tasks}
