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
:func:`dataset_from_records` turns records into the columns of
:class:`~journeyrank.domain.Dataset`, one journey at a time, and
:func:`dataset_to_records` yields them back. Feature values are emitted
exactly as stored, so a load/save round trip is byte-identical for
datasets produced by this package (the simulator rounds features at
generation time for compactness).
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
    PackedSearches,
    select_impressions,
)
from .errors import DataValidationError, SchemaMismatchError

_SCHEMA_KEYS = {"record", "listing_dim", "context_dim", "context_features",
                "milestones", "window_days"}


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dataset_to_records(dataset: Dataset) -> Iterator[dict]:
    """One journey record per journey, in dataset order."""
    s = dataset.searches
    label_rows = np.column_stack([s.labels[m] for m in LABELS])
    for j, guest_id in enumerate(dataset.guest_ids.tolist()):
        lo, hi = dataset.journey_starts[j], dataset.journey_starts[j + 1]
        searches = []
        for k in range(lo, hi):
            a, b = s.search_starts[k], s.search_starts[k + 1]
            impressions = [
                {"listing_id": lid, "position": pos, "features": feats,
                 "labels": {m: True for m, on in zip(LABELS, flags) if on}}
                for lid, pos, feats, flags in zip(
                    s.listing_ids[a:b].tolist(), s.positions[a:b].tolist(),
                    s.listing_features[a:b].tolist(),
                    label_rows[a:b].tolist())
            ]
            searches.append({
                "search_id": str(s.search_ids[k]),
                "t_days": float(s.t_days[k]),
                "context": s.context_features[k].tolist(),
                "impressions": impressions,
            })
        yield {"guest_id": guest_id, "searches": searches}


def dataset_from_records(schema: DatasetSchema,
                         records: Iterable[dict]) -> Dataset:
    """Build a dataset from journey records.

    Each record's features, context and labels are turned into arrays
    before the next record is read, so a stream of records never holds
    more than one journey's feature values as Python floats. A record
    whose widths differ from the schema, that lacks a field, holds a value
    of the wrong type, or names an unknown milestone raises
    :class:`DataValidationError`.
    """
    guest_ids, searches_per_journey = [], []
    search_ids, t_days, contexts, imps_per_search = [], [], [], []
    listing_ids, positions, features, label_rows = [], [], [], []
    for rec in records:
        try:
            guest_id = str(rec["guest_id"])
            j_contexts, j_features, j_labels = [], [], []
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
                imps_per_search.append(len(s["impressions"]))
                for i in s["impressions"]:
                    if len(i["features"]) != schema.listing_dim:
                        raise DataValidationError(
                            f"{where} listing={i['listing_id']}: feature "
                            f"width {len(i['features'])}, schema says "
                            f"{schema.listing_dim}")
                    on = {m for m, v in i.get("labels", {}).items() if v}
                    unknown = on - set(ALL_MILESTONES)
                    if unknown:
                        raise DataValidationError(
                            f"{where}: unknown milestone labels "
                            f"{sorted(unknown)}")
                    listing_ids.append(str(i["listing_id"]))
                    positions.append(int(i["position"]))
                    j_features.append(i["features"])
                    j_labels.append([m in on for m in LABELS])
            contexts.append(np.array(j_contexts, dtype=np.float64
                                     ).reshape(-1, schema.context_dim))
            features.append(np.array(j_features, dtype=np.float64
                                     ).reshape(-1, schema.listing_dim))
        except KeyError as exc:
            raise DataValidationError(
                f"journey record missing field {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise DataValidationError(
                f"malformed journey record: {exc}") from None
        guest_ids.append(guest_id)
        searches_per_journey.append(len(rec["searches"]))
        label_rows.append(np.array(j_labels, dtype=bool).reshape(-1, len(LABELS)))
    label_matrix = (np.concatenate(label_rows) if label_rows
                    else np.zeros((0, len(LABELS)), dtype=bool))
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
        labels={m: label_matrix[:, k] for k, m in enumerate(LABELS)},
    )


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(_canonical(dataset.schema.to_record()) + "\n")
        for record in dataset_to_records(dataset):
            f.write(_canonical(record) + "\n")


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
        if schema_rec.get("record") != "schema":
            raise SchemaMismatchError(f"{path}: first line must be the schema record")
        if set(schema_rec) != _SCHEMA_KEYS:
            raise SchemaMismatchError(
                f"{path}: schema fields {sorted(set(schema_rec) ^ _SCHEMA_KEYS)} "
                "unexpected or missing")
        schema = DatasetSchema(
            listing_dim=int(schema_rec["listing_dim"]),
            context_dim=int(schema_rec["context_dim"]),
            context_features=tuple(schema_rec["context_features"]),
            window_days=float(schema_rec["window_days"]),
            milestones=tuple(schema_rec["milestones"]),
        )
        return dataset_from_records(schema, _read_records(f, path))


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


def pack_dataset(dataset: Dataset) -> PackedSearches:
    """The dataset's search columns, which the model reads directly."""
    return dataset.searches
