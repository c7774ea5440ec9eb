"""Shared numeric oracles and fixtures for the test suite.

The finite-difference gradient checker here is the independent reference
for every autodiff assertion: the engine is never used to validate itself.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
import pytest

from journeyrank import dataio, nn
from journeyrank.domain import LABELS, Dataset, concat_ranges


def fd_gradcheck(make_loss: Callable[[], "nn.Tensor"],
                 params: dict[str, "nn.Tensor"],
                 h: float = 1e-5,
                 rtol: float = 1e-4,
                 atol: float = 1e-7) -> float:
    """Compare autodiff gradients against central finite differences.

    ``make_loss`` must be a deterministic function of the current values of
    ``params`` and return a scalar tensor. Returns the worst relative error
    seen, and raises AssertionError if any coordinate violates
    |autodiff - fd| <= rtol * max(|autodiff|, |fd|) + atol.
    """
    with nn.Tape() as tape:
        loss = make_loss()
    for t in params.values():
        t.grad = np.zeros_like(t.values)
    nn.backward(tape, loss)
    grads = {name: t.grad.copy() for name, t in params.items()}

    worst = 0.0
    for name, t in params.items():
        flat = t.values.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(make_loss().values)
            flat[i] = orig - h
            dn = float(make_loss().values)
            flat[i] = orig
            fd = (up - dn) / (2.0 * h)
            a = gflat[i]
            err = abs(a - fd)
            bound = rtol * max(abs(a), abs(fd)) + atol
            rel = err / max(abs(a), abs(fd), 1e-12)
            worst = max(worst, rel)
            assert err <= bound, (
                f"{name}[{i}]: autodiff {a!r} vs fd {fd!r} "
                f"(err {err:.3e} > bound {bound:.3e})")
    return worst


def impression_features(dataset: Dataset) -> np.ndarray:
    """Each impression's listing feature row, gathered from the table."""
    return dataset.listing_rows[dataset.listing_index]


def impression_ids(dataset: Dataset) -> np.ndarray:
    """Each impression's listing id, gathered from the table."""
    return dataset.listing_ids[dataset.listing_index]


def with_listing_table(dataset: Dataset, ids, rows: np.ndarray,
                       index: np.ndarray) -> Dataset:
    """``dataset`` with the listing table of ids ``ids`` and feature rows
    ``rows``, impression ``i`` showing row ``index[i]``, rebuilt by
    ``Dataset.from_columns``."""
    return Dataset.from_columns(
        dataset.schema, guest_ids=dataset.guest_ids,
        searches_per_journey=dataset.journeys.sizes,
        search_ids=dataset.search_ids, t_days=dataset.t_days,
        context_features=dataset.context_features,
        imps_per_search=dataset.searches.sizes, positions=dataset.positions,
        listing_ids=ids, listing_rows=rows, listing_index=index,
        label_rows=dataset.label_rows)


def with_impression_features(dataset: Dataset,
                             features: np.ndarray) -> Dataset:
    """``dataset`` with one listing feature row given per impression,
    under the impression's listing id."""
    return with_listing_table(dataset, impression_ids(dataset), features,
                              np.arange(len(features)))


def imp_rows_for_searches(dataset: Dataset,
                          search_idx: np.ndarray) -> np.ndarray:
    """Impression row indices of the given searches, in search order."""
    starts = dataset.searches.starts[search_idx]
    return concat_ranges(starts,
                         dataset.searches.starts[search_idx + 1] - starts)


def dataset_to_records(dataset: Dataset) -> Iterator[dict]:
    """One journey record per journey, in dataset order: the reference the
    writer's lines are checked against."""
    label_rows = dataset.label_rows.T
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
                    dataset.listing_ids[dataset.listing_index[a:b]].tolist(),
                    dataset.positions[a:b].tolist(),
                    dataset.listing_rows[dataset.listing_index[a:b]].tolist(),
                    label_rows[a:b].tolist())
            ]
            searches.append({
                "search_id": str(dataset.search_ids[k]),
                "t_days": float(dataset.t_days[k]),
                "context": dataset.context_features[k].tolist(),
                "impressions": impressions,
            })
        yield {"guest_id": guest_id, "searches": searches}


def column_arrays(ds: Dataset) -> dict[str, np.ndarray]:
    """Every column and layout array of a dataset, by name."""
    columns = {name: getattr(ds, name) for name in (
        "listing_rows", "listing_index", "context_features", "listing_ids",
        "positions", "search_ids", "t_days")}
    columns.update(search_of_imp=ds.searches.ids,
                   search_starts=ds.searches.starts, guest_ids=ds.guest_ids,
                   journey_of_search=ds.journeys.ids,
                   journey_starts=ds.journeys.starts)
    columns.update({f"label:{m}": ds.labels[m] for m in LABELS})
    return columns


def load_outcome(path):
    """The columns ``load_dataset`` reads from ``path``, or the type and
    message of what it raises."""
    try:
        return column_arrays(dataio.load_dataset(path))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def assert_same_load(path) -> str:
    """Assert that the block decoder and the record path (the decoder
    declining every block) read ``path`` to the same columns, bit for
    bit, or raise the same error with the same message; returns "ok" or
    "error"."""
    got = load_outcome(path)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dataio._BlockDecoder, "decode", lambda self, lines: False)
        want = load_outcome(path)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return "error"
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name
    return "ok"


def tiny_manual_dataset(constant_prev: float = 2.0):
    """Three hand-built single-search journeys with a constant context
    column, small enough to reason about by eye."""
    from journeyrank.dataio import dataset_from_records
    from journeyrank.domain import (
        DatasetSchema,
        POSITIVE_CHAIN,
        REQUIRED_CONTEXT_FEATURES,
    )
    schema = DatasetSchema(listing_dim=2, context_dim=2,
                           context_features=REQUIRED_CONTEXT_FEATURES)
    full = {m: True for m in POSITIVE_CHAIN}
    records = []
    for g, days in enumerate([30.0, 90.0, 150.0]):
        impressions = [
            {"listing_id": f"L{g}a", "position": 1,
             "features": [0.2 * g, 1.0], "labels": full},
            {"listing_id": f"L{g}b", "position": 2,
             "features": [-0.1 * g, 0.5], "labels": {}},
        ]
        records.append({"guest_id": f"G{g}", "searches": [
            {"search_id": f"G{g}-S0", "t_days": 0.0,
             "context": [days, constant_prev], "impressions": impressions},
        ]})
    return dataset_from_records(schema, records)
