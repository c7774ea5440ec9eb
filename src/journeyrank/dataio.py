"""Dataset persistence and the journey record.

The on-disk format is line-delimited JSON: a schema header record followed
by one journey record per line::

    {"guest_id": "g000001",
     "searches": [{"search_id": "g000001-s0", "t_days": 12.5,
                   "context": [41.2, 0.0, ...],
                   "impressions": [{"listing_id": "L0042", "position": 1,
                                    "features": [0.31, ...],
                                    "labels": {"c": true, "lc": true}},
                                   ...]},
                  ...]}

``labels`` lists the milestones that hold on the impression; absent or
false flags are unset. The same record is how a dataset is built by hand:
:func:`dataset_from_records` turns records into the columns of a
:class:`~journeyrank.domain.Dataset`, one journey at a time, and
:func:`dataset_to_records` yields them back. Those columns are the only
form a dataset takes: the split below, the model and the evaluation read
them as they are. Feature values are emitted exactly as stored, so a
load/save round trip is byte-identical for datasets produced by this
package (the simulator rounds features at generation time for
compactness).

Each line of the file is the record in canonical JSON (sorted keys, no
spaces). :func:`save_dataset` writes those bytes without building the
records: it encodes each distinct feature row (told apart by its exact
bytes, so ``-0.0`` and ``0.0`` keep their own text), each distinct label
set and each distinct listing id once, and assembles one journey's line at
a time from those pieces. The bytes are the same as encoding each record
of :func:`dataset_to_records`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .domain import (
    ALL_MILESTONES,
    LABELS,
    Dataset,
    DatasetSchema,
    exact_int,
    number,
    select_impressions,
)
from .errors import ConfigError, DataValidationError, SchemaMismatchError

_SCHEMA_KEYS = {"record", "listing_dim", "context_dim", "context_features",
                "milestones", "window_days"}


# one encoder for every call: json.dumps with these arguments builds a new
# encoder each time, which the writer's per-search calls would pay for
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dataset_to_records(dataset: Dataset) -> Iterator[dict]:
    """One journey record per journey, in dataset order."""
    label_rows = np.column_stack([dataset.labels[m] for m in LABELS])
    imp_starts = dataset.searches.starts
    for j, guest_id in enumerate(dataset.guest_ids.tolist()):
        lo, hi = dataset.journeys.starts[j], dataset.journeys.starts[j + 1]
        searches = []
        for k in range(lo, hi):
            a, b = imp_starts[k], imp_starts[k + 1]
            impressions = [
                {"listing_id": lid, "position": pos, "features": feats,
                 "labels": {m: True for m, on in zip(LABELS, flags) if on}}
                for lid, pos, feats, flags in zip(
                    dataset.listing_ids[a:b].tolist(),
                    dataset.positions[a:b].tolist(),
                    dataset.listing_features[a:b].tolist(),
                    label_rows[a:b].tolist())
            ]
            searches.append({
                "search_id": str(dataset.search_ids[k]),
                "t_days": float(dataset.t_days[k]),
                "context": dataset.context_features[k].tolist(),
                "impressions": impressions,
            })
        yield {"guest_id": guest_id, "searches": searches}


_KNOWN_MILESTONES = frozenset(ALL_MILESTONES)


def _label_code(labels, known: dict) -> int | None:
    """The flags a label dict sets, as bit k for ``LABELS[k]``, or None
    when it sets an unknown milestone.

    ``known`` remembers the code of each distinct dict by its items, so
    the set logic runs once per distinct label set (a dict whose values
    cannot be hashed is mapped every time).
    """
    items = tuple(labels.items())
    try:
        return known[items]
    except KeyError:
        hashable = True
    except TypeError:
        hashable = False
    on = {m for m, v in items if v}
    if not on <= _KNOWN_MILESTONES:
        return None
    code = sum(1 << k for k, m in enumerate(LABELS) if m in on)
    if hashable:
        known[items] = code
    return code


def _raise_first_fault(where: str, listing_dim: int, impressions,
                       known: dict) -> None:
    """Raise what the first faulty impression of a search raises, checking
    one impression's fields at a time in the order the record lists them."""
    for i in impressions:
        if len(i["features"]) != listing_dim:
            raise DataValidationError(
                f"{where} listing={i['listing_id']}: feature width "
                f"{len(i['features'])}, schema says {listing_dim}")
        labels = i.get("labels", {})
        if _label_code(labels, known) is None:
            on = {m for m, v in labels.items() if v}
            raise DataValidationError(
                f"{where}: unknown milestone labels "
                f"{sorted(on - _KNOWN_MILESTONES)}")
        # the conversions the columns make
        str(i["listing_id"])
        int(i["position"])


def dataset_from_records(schema: DatasetSchema,
                         records: Iterable[dict]) -> Dataset:
    """Build a dataset from journey records.

    Each record's features and context are turned into arrays before the
    next record is read, so a stream of records never holds more than one
    journey's feature values as Python floats. A search's impressions are
    read field by field; only a search with a fault is walked again one
    impression at a time, so the first fault in record order is the one
    reported. A record whose widths differ from the schema, that lacks a
    field, holds a value of the wrong type, or names an unknown milestone
    raises :class:`DataValidationError`.
    """
    listing_dim = schema.listing_dim
    known_labels: dict = {}
    guest_ids, searches_per_journey = [], []
    search_ids, t_days, contexts, imps_per_search = [], [], [], []
    listing_ids, positions, features, label_codes = [], [], [], []
    for rec in records:
        try:
            guest_id = str(rec["guest_id"])
            j_contexts, j_features = [], []
            for s in rec["searches"]:
                search_id = str(s["search_id"])
                where = f"guest={guest_id} search={search_id}"
                if len(s["context"]) != schema.context_dim:
                    raise DataValidationError(
                        f"{where}: context width {len(s['context'])}, "
                        f"schema says {schema.context_dim}")
                search_ids.append(search_id)
                t_days.append(float(s["t_days"]))
                j_contexts.append(s["context"])
                impressions = s["impressions"]
                imps_per_search.append(len(impressions))
                try:
                    feats = [i["features"] for i in impressions]
                    codes = [_label_code(i.get("labels", {}), known_labels)
                             for i in impressions]
                    ids = [str(i["listing_id"]) for i in impressions]
                    pos = [int(i["position"]) for i in impressions]
                    ok = (None not in codes
                          and set(map(len, feats)) <= {listing_dim})
                except Exception:
                    # whatever failed is raised again, in record order,
                    # by the walk below
                    ok = False
                if not ok:
                    _raise_first_fault(where, listing_dim, impressions,
                                       known_labels)
                j_features += feats
                label_codes += codes
                listing_ids += ids
                positions += pos
            contexts.append(np.array(j_contexts, dtype=np.float64
                                     ).reshape(-1, schema.context_dim))
            features.append(np.array(j_features, dtype=np.float64
                                     ).reshape(-1, listing_dim))
        except KeyError as exc:
            raise DataValidationError(
                f"journey record missing field {exc}") from None
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise DataValidationError(
                f"malformed journey record: {exc}") from None
        guest_ids.append(guest_id)
        searches_per_journey.append(len(rec["searches"]))
    codes = np.array(label_codes, dtype=np.int64)
    return Dataset.from_columns(
        schema,
        guest_ids=guest_ids,
        searches_per_journey=searches_per_journey,
        search_ids=search_ids,
        t_days=t_days,
        context_features=np.concatenate(contexts) if contexts else [],
        imps_per_search=imps_per_search,
        listing_ids=listing_ids,
        positions=positions,
        listing_features=np.concatenate(features) if features else [],
        labels={m: ((codes >> k) & 1).astype(bool)
                for k, m in enumerate(LABELS)},
    )


class _RowTexts:
    """The JSON text of each row of an array, each distinct row encoded
    once.

    Rows are told apart by their exact bytes, so ``-0.0`` and ``0.0`` are
    encoded apart, and so are two NaN payloads (to the same text). Only
    the distinct rows' keys and texts are kept.
    """

    def __init__(self, values: np.ndarray, encode):
        self.rows = np.ascontiguousarray(values)
        n_cols = int(np.prod(self.rows.shape[1:]))
        self.keys = self.rows.reshape(len(self.rows), n_cols).view(
            np.dtype((np.void, self.rows.itemsize * n_cols))).ravel()
        self.encode = encode
        self.texts: dict[bytes, str] = {}

    def __call__(self, a: int, b: int) -> list[str]:
        """The texts of rows ``a`` to ``b - 1``."""
        keys = self.keys[a:b].tolist()
        for k, key in enumerate(keys, a):
            if key not in self.texts:
                self.texts[key] = self.encode(self.rows[k].tolist())
        return [self.texts[key] for key in keys]


def _label_text(flags: list[bool]) -> str:
    return _canonical({m: True for m, on in zip(LABELS, flags) if on})


def _journey_lines(dataset: Dataset) -> Iterator[str]:
    """The canonical JSON of each record of :func:`dataset_to_records`,
    built one journey at a time from the texts of the distinct feature
    rows, label sets and listing ids. The templates list each object's
    keys in sorted order."""
    features = _RowTexts(dataset.listing_features, _canonical)
    labels = _RowTexts(np.column_stack([dataset.labels[m] for m in LABELS]),
                       _label_text)
    listing_ids = _RowTexts(dataset.listing_ids, _canonical)
    imp_starts = dataset.searches.starts.tolist()
    bounds = dataset.journeys.starts.tolist()
    for j, guest_id in enumerate(dataset.guest_ids.tolist()):
        lo, hi = bounds[j], bounds[j + 1]
        first, last = imp_starts[lo], imp_starts[hi]
        impressions = [
            '{"features":%s,"labels":%s,"listing_id":%s,"position":%d}' % row
            for row in zip(features(first, last), labels(first, last),
                           listing_ids(first, last),
                           dataset.positions[first:last].tolist())]
        searches = [
            '{"context":%s,"impressions":[%s],"search_id":%s,"t_days":%s}'
            % (_canonical(context),
               ",".join(impressions[a - first:b - first]),
               _canonical(search_id), _canonical(t_days))
            for a, b, search_id, t_days, context in zip(
                imp_starts[lo:hi], imp_starts[lo + 1:hi + 1],
                dataset.search_ids[lo:hi].tolist(),
                dataset.t_days[lo:hi].tolist(),
                dataset.context_features[lo:hi].tolist())]
        yield '{"guest_id":%s,"searches":[%s]}' % (_canonical(guest_id),
                                                   ",".join(searches))


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the schema header and one canonical JSON line per journey,
    streamed a journey at a time."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(_canonical(dataset.schema.to_record()) + "\n")
        for line in _journey_lines(dataset):
            f.write(line + "\n")


def _read_records(f, path: Path) -> Iterator[dict]:
    for line_no, line in enumerate(f, start=2):
        if not line.strip():
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataValidationError(f"{path}:{line_no}: bad JSON: {exc}") from None


def load_dataset(path: str | Path) -> Dataset:
    path = Path(path)
    with open(path) as f:
        header = f.readline()
        if not header:
            raise SchemaMismatchError(f"{path}: empty dataset file")
        try:
            schema_rec = json.loads(header)
        except json.JSONDecodeError as exc:
            raise SchemaMismatchError(f"{path}: malformed schema header: {exc}") from None
        schema = _schema_from_record(schema_rec, path)
        return dataset_from_records(schema, _read_records(f, path))


def _schema_from_record(rec, path: Path) -> DatasetSchema:
    """The header's schema, read as strictly as every other record: a
    fractional, boolean or string width or window, a feature name that is
    not a string or a milestone list other than the package's is a data
    fault that names its field."""
    if not isinstance(rec, dict) or rec.get("record") != "schema":
        raise SchemaMismatchError(f"{path}: first line must be the schema record")
    if set(rec) != _SCHEMA_KEYS:
        raise SchemaMismatchError(
            f"{path}: schema fields {sorted(set(rec) ^ _SCHEMA_KEYS)} "
            "unexpected or missing")
    names = rec["context_features"]
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise SchemaMismatchError(
            f"{path}: context_features must be a list of names, got {names!r}")
    if rec["milestones"] != list(ALL_MILESTONES):
        raise SchemaMismatchError(f"{path}: milestones must be "
                                  f"{list(ALL_MILESTONES)}, got {rec['milestones']!r}")
    values = {}
    for key, convert in (("listing_dim", exact_int),
                         ("context_dim", exact_int), ("window_days", number)):
        try:
            values[key] = convert(rec[key])
        except (OverflowError, TypeError):
            raise SchemaMismatchError(f"{path}: schema {key} has a malformed "
                                      f"value {rec[key]!r}") from None
    try:
        return DatasetSchema(context_features=tuple(names), **values)
    except ConfigError as exc:
        raise SchemaMismatchError(f"{path}: schema header: {exc}") from None


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# train/eval split


def guest_bucket(guest_id: str) -> int:
    """Stable hash bucket in [0, 100) used for the train/eval split."""
    digest = hashlib.sha256(guest_id.encode()).digest()
    return int.from_bytes(digest[:8], "big") % 100


def split_by_guest(dataset: Dataset, eval_percent: int = 20) -> tuple[Dataset, Dataset]:
    """Deterministic guest-level split; no journey straddles the boundary."""
    if not 0 < eval_percent < 100:
        raise DataValidationError("eval_percent must be in (0, 100)")
    in_eval = np.array([guest_bucket(g) < eval_percent
                        for g in dataset.guest_ids.tolist()], dtype=bool)
    in_eval = in_eval[dataset.journey_of_impression()]
    return (select_impressions(dataset, ~in_eval),
            select_impressions(dataset, in_eval))


def pack_dataset(dataset: Dataset) -> Dataset:
    """The dataset itself, whose columns the model reads directly."""
    return dataset
