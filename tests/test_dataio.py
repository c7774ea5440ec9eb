"""Dataset file format, journey records, guest split, and search columns."""

import copy
import json
import re
import tracemalloc
from operator import attrgetter

import numpy as np
import pytest

from conftest import (
    assert_same_load,
    column_arrays,
    dataset_to_records,
    imp_rows_for_searches,
    impression_features,
    with_impression_features,
    with_listing_table,
)
from journeyrank import dataio, simulate
from journeyrank.dataio import (
    dataset_from_records,
    file_sha256,
    guest_bucket,
    load_dataset,
    pack_dataset,
    save_dataset,
    split_by_guest,
)
from journeyrank.domain import (
    ALL_MILESTONES,
    LABELS,
    Dataset,
    DatasetSchema,
    exact_int,
    number,
)
from journeyrank.errors import DataValidationError, SchemaMismatchError

SCHEMA = DatasetSchema(
    listing_dim=3,
    context_dim=2,
    context_features=("days_ahead_of_checkin", "num_previous_searches"),
)


def random_records(rng, n_journeys=6):
    records = []
    for g in range(n_journeys):
        searches = []
        for s in range(int(rng.integers(1, 4))):
            imps = []
            for pos in range(1, int(rng.integers(2, 5)) + 1):
                labels = {"c": True} if rng.random() < 0.4 else {}
                imps.append({"listing_id": f"L{g}-{s}-{pos}", "position": pos,
                             "features": np.round(rng.normal(size=3), 6).tolist(),
                             "labels": labels})
            context = [round(rng.uniform(0, 180), 6), float(s)]
            searches.append({"search_id": f"g{g}-s{s}",
                             "t_days": round(float(s) * 1.5, 6),
                             "context": context, "impressions": imps})
        records.append({"guest_id": f"g{g}", "searches": searches})
    return records


def random_dataset(rng, n_journeys=6):
    return dataset_from_records(SCHEMA, random_records(rng, n_journeys))


def flat_impressions(records):
    return [(s, imp) for rec in records for s in rec["searches"]
            for imp in s["impressions"]]


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        ds = random_dataset(np.random.default_rng(0))
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_fields_match(self, tmp_path):
        ds = random_dataset(np.random.default_rng(1))
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.schema == ds.schema
        assert back.n_journeys == ds.n_journeys
        np.testing.assert_array_equal(back.guest_ids, ds.guest_ids)
        for layout in ("journeys", "searches"):
            for name in ("starts", "ids"):
                np.testing.assert_array_equal(
                    attrgetter(f"{layout}.{name}")(back),
                    attrgetter(f"{layout}.{name}")(ds))
        for name in ("listing_rows", "listing_index", "context_features",
                     "listing_ids", "positions", "search_ids", "t_days"):
            np.testing.assert_array_equal(getattr(ds, name),
                                          getattr(back, name))
        for m in LABELS:
            np.testing.assert_array_equal(ds.labels[m], back.labels[m])

    def test_records_round_trip(self):
        records = random_records(np.random.default_rng(11))
        ds = dataset_from_records(SCHEMA, records)
        assert list(dataset_to_records(ds)) == records

    def test_empty_dataset(self, tmp_path):
        ds = dataset_from_records(SCHEMA, [])
        assert (ds.n_journeys, ds.n_searches, ds.n_impressions) == (0, 0, 0)
        assert ds.listing_rows.shape == (0, SCHEMA.listing_dim)
        assert ds.listing_index.shape == (0,)
        path = tmp_path / "empty.jsonl"
        save_dataset(ds, path)
        assert path.read_text() == canonical(SCHEMA.to_record()) + "\n"
        assert load_dataset(path).n_journeys == 0

    def test_schema_hash_survives_round_trip(self, tmp_path):
        ds = random_dataset(np.random.default_rng(2))
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        assert load_dataset(path).schema.hash() == ds.schema.hash()

    def test_file_hash_helper(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"abc")
        assert file_sha256(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


class TestLoadErrors:
    def test_missing_schema_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"guest_id": "g0", "searches": []}\n')
        with pytest.raises(SchemaMismatchError):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SchemaMismatchError):
            load_dataset(path)

    def test_unknown_label_rejected(self, tmp_path):
        ds = random_dataset(np.random.default_rng(3), n_journeys=1)
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"labels":{}', '"labels":{"zap":true}', 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataValidationError, match="zap"):
            load_dataset(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        save_dataset(random_dataset(np.random.default_rng(4), n_journeys=1), path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"guest_id"', '"guest"', 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataValidationError, match="guest_id"):
            load_dataset(path)

    @pytest.mark.parametrize("field,value", [("position", "first"),
                                             ("features", None),
                                             ("features", ["a", "b", "c"]),
                                             ("labels", ["c"]),
                                             ("position", float("inf"))])
    def test_malformed_value_rejected(self, field, value):
        records = random_records(np.random.default_rng(13), n_journeys=2)
        records[1]["searches"][0]["impressions"][0][field] = value
        with pytest.raises(DataValidationError, match="malformed"):
            dataset_from_records(SCHEMA, records)

    @pytest.mark.parametrize("field,level", [("context", "search"),
                                             ("features", "impression")])
    def test_width_mismatch_names_guest_and_search(self, tmp_path, field,
                                                    level):
        records = random_records(np.random.default_rng(12), n_journeys=3)
        search = records[1]["searches"][0]
        target = search if level == "search" else search["impressions"][1]
        target[field] = target[field] + [0.5]
        with pytest.raises(DataValidationError,
                           match=f"guest=g1 search={search['search_id']}"):
            dataset_from_records(SCHEMA, records)
        path = tmp_path / "wide.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in
                                  [SCHEMA.to_record(), *records]) + "\n")
        with pytest.raises(DataValidationError, match="width"):
            load_dataset(path)


class TestGuestSplit:
    def test_partition_is_disjoint_and_complete(self):
        ds = random_dataset(np.random.default_rng(5), n_journeys=50)
        train, evaluation = split_by_guest(ds)
        train_ids = set(train.guest_ids)
        eval_ids = set(evaluation.guest_ids)
        assert train_ids.isdisjoint(eval_ids)
        assert train_ids | eval_ids == set(ds.guest_ids)
        by_guest = {rec["guest_id"]: rec for rec in dataset_to_records(ds)}
        for part in (train, evaluation):
            for rec in dataset_to_records(part):
                assert rec == by_guest[rec["guest_id"]]
        assert all(guest_bucket(g) < 20 for g in evaluation.guest_ids)

    def test_parts_keep_only_the_listing_rows_they_show(self):
        dataset, _ = simulate.generate(
            simulate.default_generator_config(n_guests=150, seed=2))
        train, evaluation = split_by_guest(dataset)
        for part in (train, evaluation):
            np.testing.assert_array_equal(np.unique(part.listing_index),
                                          np.arange(len(part.listing_rows)))
        assert len(evaluation.listing_rows) < len(dataset.listing_rows)

    def test_deterministic(self):
        ds = random_dataset(np.random.default_rng(6), n_journeys=30)
        a = split_by_guest(ds)
        b = split_by_guest(ds)
        assert a[1].guest_ids.tolist() == b[1].guest_ids.tolist()

    def test_eval_fraction_near_target(self):
        buckets = [guest_bucket(f"guest-{k}") for k in range(20000)]
        frac = sum(b < 20 for b in buckets) / len(buckets)
        assert 0.18 < frac < 0.22

    def test_bucket_range(self):
        assert all(0 <= guest_bucket(f"g{k}") < 100 for k in range(500))


class TestPacking:
    def test_pack_matches_records(self):
        records = random_records(np.random.default_rng(7))
        ds = dataset_from_records(SCHEMA, records)
        flat = flat_impressions(records)
        assert ds.n_impressions == len(flat)
        assert ds.n_searches == sum(len(r["searches"]) for r in records)
        features = impression_features(ds)
        for row, (search, imp) in enumerate(flat):
            np.testing.assert_array_equal(features[row],
                                          imp["features"])
            assert ds.listing_ids[row] == imp["listing_id"]
            assert ds.positions[row] == imp["position"]
            assert ds.labels["c"][row] == ("c" in imp["labels"])
            seg = ds.searches.ids[row]
            assert ds.search_ids[seg] == search["search_id"]
            np.testing.assert_array_equal(ds.context_features[seg],
                                          search["context"])

    def test_segment_ids_are_contiguous(self):
        ds = random_dataset(np.random.default_rng(8))
        seg = ds.searches.ids
        assert seg[0] == 0
        assert np.all(np.diff(seg) >= 0)
        assert seg[-1] == ds.n_searches - 1 == ds.searches.n - 1
        np.testing.assert_array_equal(
            ds.searches.starts,
            np.r_[0, np.cumsum(np.bincount(seg, minlength=ds.n_searches))])

    def test_imp_rows_lookup(self):
        ds = random_dataset(np.random.default_rng(9))
        pick = np.array([2, 0, 3])
        rows = imp_rows_for_searches(ds, pick)
        want = np.concatenate([
            np.arange(ds.searches.starts[s], ds.searches.starts[s + 1])
            for s in pick])
        np.testing.assert_array_equal(rows, want)

    def test_pack_dataset_returns_the_dataset(self):
        ds = random_dataset(np.random.default_rng(10), n_journeys=2)
        assert pack_dataset(ds) is ds


# ---------------------------------------------------------------------------
# the writer against the records it encodes


def canonical(obj) -> str:
    """The journey record's line format: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def varied_records(rng, n_journeys=8, pool_rows=None):
    """Journey records with empty searches and journeys mixed in, random
    label sets and full-precision values. Feature rows are drawn from a
    pool of ``pool_rows`` rows, or all fresh when it is None."""
    pool = rng.normal(size=(pool_rows or 1, 3))
    records = []
    for g in range(n_journeys):
        searches = []
        for s in range(int(rng.integers(0, 4))):
            imps = []
            for pos in range(1, int(rng.integers(0, 5)) + 1):
                row = (pool[rng.integers(len(pool))] if pool_rows
                       else rng.normal(size=3))
                flags = rng.random(len(LABELS)) < 0.3
                imps.append({
                    "listing_id": f"L{int(rng.integers(6))}",
                    "position": pos,
                    "features": row.tolist(),
                    "labels": {m: True for m, on in zip(LABELS, flags) if on}})
            searches.append({"search_id": f"g{g}-s{s}",
                             "t_days": float(rng.uniform(0.0, 30.0)),
                             "context": [float(rng.uniform(0.0, 180.0)),
                                         float(s)],
                             "impressions": imps})
        records.append({"guest_id": f"g{g}", "searches": searches})
    return records


def odd_values_records():
    """Signed zeros in one column, NaN and infinities in every float
    field, the largest finite floats and subnormals, positions past 2**53
    and at the ends of int64, and ids that JSON has to escape."""
    nan_neg = float(np.array(0xFFF8000000000001, dtype=np.uint64
                             ).view(np.float64))
    imps = [
        {"listing_id": 'q"uote', "position": 1,
         "features": [0.0, 1.0, -0.0], "labels": {"c": True}},
        {"listing_id": "back\\slash", "position": 2,
         "features": [-0.0, 1.0, 0.0], "labels": {}},
        {"listing_id": "caf\u00e9 \u65e5\u672c \U0001F600", "position": 3,
         "features": [float("nan"), float("inf"), float("-inf")],
         "labels": {"c": True, "lc": True, "rej": True}},
        {"listing_id": 'q"uote', "position": 4,
         "features": [nan_neg, -0.0, 0.0], "labels": {"c": True}},
        {"listing_id": "tab\tnew\nline", "position": 5,
         "features": [0.0, 1.0, -0.0], "labels": {}},
        {"listing_id": 'x"},{"context":[', "position": 6,
         "features": [1e-310, -1e308, 5e-324], "labels": {}},
        {"listing_id": '","position":1}', "position": -7,
         "features": [0.0, 1.0, -0.0], "labels": {"c": True}},
        {"listing_id": "edge", "position": 2 ** 53 + 1,
         "features": [1.7e308, -1.7e308, 1e-320], "labels": {}},
        {"listing_id": "edge", "position": 2 ** 63 - 1,
         "features": [5e-324, -5e-324, -1e-320], "labels": {"c": True}},
        {"listing_id": "edge", "position": -(2 ** 63 - 1),
         "features": [1.7e308, -1.7e308, 1e-320], "labels": {}},
    ]
    return [
        {"guest_id": "g\"1\\\u00fc", "searches": [
            {"search_id": "s\u00e9\"0", "t_days": float("nan"),
             "context": [float("inf"), -0.0], "impressions": imps},
            {"search_id": "s1", "t_days": float("-inf"),
             "context": [float("nan"), 0.0], "impressions": []},
            {"search_id": "s2", "t_days": -0.0,
             "context": [float("-inf"), 1e-310], "impressions": imps[:2]},
            {"search_id": '"],"search_id":', "t_days": 1e300,
             "context": [0.0, 1.0], "impressions": imps[5:]},
            {"search_id": "s4", "t_days": -1.7e308,
             "context": [1.7e308, 5e-324], "impressions": imps[7:8]},
            {"search_id": "s5", "t_days": 5e-324,
             "context": [-1.7e308, -1e-320], "impressions": []}]},
        {"guest_id": 'g",\"searches":[]}', "searches": []},
    ]


def assert_same_columns(got: Dataset, want: Dataset) -> None:
    """Bit-identical columns: same dtypes, shapes and bytes."""
    assert got.schema == want.schema
    got, want = column_arrays(got), column_arrays(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name


class TestWriterMatchesRecords:
    """Each line :func:`save_dataset` writes is the canonical JSON of the
    matching :func:`dataset_to_records` record, at the writer's chunk size
    and at sizes that put a chunk boundary after every journey or every
    few journeys."""

    def assert_lines_match(self, ds, path):
        save_dataset(ds, path)
        want = [canonical(ds.schema.to_record())]
        want += [canonical(rec) for rec in dataset_to_records(ds)]
        got = path.read_text(encoding="ascii").split("\n")
        assert got[-1] == ""
        assert got[:-1] == want
        chunks = list(dataio._chunk_texts(ds))
        assert all(chunk.endswith("\n") for chunk in chunks)
        if dataio._CHUNK_IMPRESSIONS == 0:
            assert chunks == [line + "\n" for line in want[1:]]
        loaded = load_dataset(path)
        assert_same_columns(
            loaded, dataset_from_records(ds.schema, map(json.loads, want[1:])))
        again = path.with_suffix(".again")
        save_dataset(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @staticmethod
    def seeded_dataset(seed, pool_rows):
        rng = np.random.default_rng(100 + seed)
        ds = dataset_from_records(SCHEMA, varied_records(rng, pool_rows=pool_rows))
        if pool_rows is None:
            rows = impression_features(ds)
            assert len(np.unique(rows, axis=0)) == len(rows)
        return ds

    @pytest.mark.parametrize("pool_rows", [1, 4, None],
                             ids=["one-row", "repeated-rows", "all-distinct"])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_random_datasets(self, tmp_path, seed, pool_rows):
        self.assert_lines_match(self.seeded_dataset(seed, pool_rows),
                                tmp_path / "d.jsonl")

    @pytest.mark.parametrize("chunk_impressions", [0, 3],
                             ids=["journey-chunks", "3-impression-chunks"])
    @pytest.mark.parametrize("seed, pool_rows", [
        *(pytest.param(seed, rows, id=f"{seed}-{name}") for seed in range(4)
          for rows, name in ((1, "one-row"), (4, "repeated-rows"),
                             (None, "all-distinct"))),
        pytest.param(None, None, id="odd-values")])
    def test_chunk_boundaries(self, tmp_path, monkeypatch, seed, pool_rows,
                              chunk_impressions):
        """At 0, the smallest chunk size, each journey is a chunk, so every
        journey boundary is a chunk boundary, an empty journey's and one
        after an empty search included; at 3 a chunk holds a few
        journeys."""
        monkeypatch.setattr(dataio, "_CHUNK_IMPRESSIONS", chunk_impressions)
        ds = (dataset_from_records(SCHEMA, odd_values_records())
              if seed is None else self.seeded_dataset(seed, pool_rows))
        self.assert_lines_match(ds, tmp_path / "d.jsonl")

    def test_odd_values_and_empty_search_and_journey(self, tmp_path):
        ds = dataset_from_records(SCHEMA, odd_values_records())
        assert ds.searches.sizes[1] == 0
        assert ds.journeys.sizes[1] == 0
        assert not ds.searches.all_nonempty
        path = tmp_path / "odd.jsonl"
        self.assert_lines_match(ds, path)
        text = path.read_text()
        assert '"features":[0.0,1.0,-0.0]' in text
        assert '"features":[-0.0,1.0,0.0]' in text
        assert '"features":[NaN,Infinity,-Infinity]' in text
        assert '"features":[NaN,-0.0,0.0]' in text
        assert '"listing_id":"caf\\u00e9 ' in text
        assert '"listing_id":"x\\"},{\\"context\\":[' in text
        assert '"features":[1.7e+308,-1.7e+308,1e-320]' in text
        assert '"features":[5e-324,-5e-324,-1e-320]' in text
        assert '{"context":[1.7e+308,5e-324],' in text
        assert '"t_days":-1.7e+308}' in text
        for position in (2 ** 53 + 1, 2 ** 63 - 1, -(2 ** 63 - 1)):
            assert f'"position":{position}}}' in text

    def test_empty_dataset(self, tmp_path):
        self.assert_lines_match(dataset_from_records(SCHEMA, []),
                                tmp_path / "empty.jsonl")


def test_save_holds_a_chunk_not_the_file(tmp_path):
    """The writer's peak traced allocation on the 300-guest benchmark
    world stays under 1.5 MB, far below the 3.6 MB file that a join of
    the whole file would hold at once."""
    dataset, _ = simulate.generate(
        simulate.benchmark_generator_config(n_guests=300, seed=0))
    path = tmp_path / "world.jsonl"
    tracemalloc.start()
    try:
        save_dataset(dataset, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 3_500_000
    assert peak < 1_500_000


def test_load_holds_a_block_not_the_file(tmp_path):
    """The reader's peak traced allocation on the 300-guest benchmark world
    stays under 2.0 MB, below the 3.6 MB file: it holds one block of lines,
    its memos and the columns, never the file's text."""
    dataset, _ = simulate.generate(
        simulate.benchmark_generator_config(n_guests=300, seed=0))
    path = tmp_path / "world.jsonl"
    save_dataset(dataset, path)
    tracemalloc.start()
    try:
        loaded = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 3_500_000
    assert_same_columns(loaded, dataset)
    assert peak < 2_000_000


# ---------------------------------------------------------------------------
# the reader against a per-impression loop


def loop_position(value) -> int:
    position = exact_int(value)
    if not -(2 ** 63) <= position < 2 ** 63:
        raise OverflowError(f"position {position} does not fit in 64 bits")
    return position


def loop_string(value, field) -> str:
    if type(value) is not str:
        raise TypeError(f"{field} must be a string, got {value!r}")
    return value


def loop_numbers(rows, width) -> np.ndarray:
    return np.array([[number(v) for v in row] for row in rows],
                    dtype=np.float64).reshape(-1, width)


def loop_dataset_from_records(schema, records) -> Dataset:
    """Reference: every impression read and checked one at a time, each
    label dict mapped to its flags on its own, and every number read by
    ``domain.number`` one value at a time."""
    guest_ids, searches_per_journey = [], []
    search_ids, t_days, contexts, imps_per_search = [], [], [], []
    listing_ids, positions, features, label_rows = [], [], [], []
    for rec in records:
        try:
            guest_id = loop_string(rec["guest_id"], "guest_id")
            j_contexts, j_features, j_labels = [], [], []
            for s in rec["searches"]:
                search_id = loop_string(s["search_id"], "search_id")
                where = f"guest={guest_id} search={search_id}"
                if len(s["context"]) != schema.context_dim:
                    raise DataValidationError(
                        f"{where}: context width {len(s['context'])}, "
                        f"schema says {schema.context_dim}")
                search_ids.append(search_id)
                t_days.append(number(s["t_days"]))
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
                    listing_ids.append(loop_string(i["listing_id"],
                                                   "listing_id"))
                    positions.append(loop_position(i["position"]))
                    j_features.append(i["features"])
                    j_labels.append([m in on for m in LABELS])
            contexts.append(loop_numbers(j_contexts, schema.context_dim))
            features.append(loop_numbers(j_features, schema.listing_dim))
        except KeyError as exc:
            raise DataValidationError(
                f"journey record missing field {exc}") from None
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
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
        listing_rows=np.concatenate(features) if features else [],
        listing_index=np.arange(len(positions)),
        label_rows=label_matrix.T,
    )


def outcome(build, records):
    """The columns a builder makes of ``records``, or its error message."""
    try:
        ds = build(SCHEMA, copy.deepcopy(records))
    except DataValidationError as exc:
        return "error", str(exc)
    return "ok", column_arrays(ds)


def assert_same_outcome(records):
    got_kind, got = outcome(dataset_from_records, records)
    want_kind, want = outcome(loop_dataset_from_records, records)
    assert got_kind == want_kind, (got, want)
    if got_kind == "error":
        assert got == want
        return
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


# (field, value) faults set on one impression; None deletes the field
IMPRESSION_FAULTS = [
    ("features", None), ("features", "drop"), ("features", [0.5, 0.5]),
    ("features", ["a", "b", "c"]), ("features", 3.0),
    ("labels", ["c"]), ("labels", "c"), ("labels", {"zap": True}),
    ("labels", {"c": True, "imp": True, "zzz": 1}),
    ("listing_id", "drop"), ("position", "first"), ("position", None),
    ("position", "drop"), ("position", [1]),
    ("features", ["1.5", 0.5, 0.5]), ("features", [0.5, True, 0.5]),
    ("features", [0.0, 1.0, False]), ("features", [0.5, 0.5, None]),
    ("features", [0.5, [0.5], 0.5]), ("features", [[0.5], [0.5], [0.5]]),
    ("features", [0.5, np.float32(0.5), 0.5]),
    ("features", [np.int64(1), 0.5, 0.5]),
    ("features", [0.5, 0.5, np.bool_(True)]),
    ("position", 2.7), ("position", True), ("position", 2.0),
    ("position", 10 ** 20), ("position", -(2 ** 63) - 1),
    ("position", 2 ** 63), ("features", [10 ** 400, 0.5, 0.5]),
    ("listing_id", None), ("listing_id", 7), ("listing_id", 1.5),
    ("listing_id", ["L1"]),
]
# label dicts every builder accepts
ACCEPTED_LABELS = [
    {}, {"c": True}, {"c": True, "lc": False}, {"lc": False, "c": True},
    {"c": 1}, {"c": 2.5}, {"c": "no"}, {"c": 0}, {"c": None},
    {"c": [1]}, {"c": []}, {"imp": True, "c": True}, {"zap": False},
    {"c": True, "lc": True, "pp": True, "req": True, "rej": True},
]


def set_field(imp, field, value):
    if value == "drop":
        imp.pop(field, None)
    else:
        imp[field] = value


class TestReaderMatchesLoop:
    def test_repeated_label_dict(self):
        records = random_records(np.random.default_rng(20), n_journeys=4)
        for _, imp in flat_impressions(records):
            imp["labels"] = {"c": True, "lc": True}
        assert_same_outcome(records)

    def test_false_flags(self):
        records = random_records(np.random.default_rng(21), n_journeys=4)
        for k, (_, imp) in enumerate(flat_impressions(records)):
            imp["labels"] = ({"c": True, "lc": False, "book": False}
                             if k % 2 else {"c": False})
        assert_same_outcome(records)

    @pytest.mark.parametrize("value", [1, 2.5, "no", [1], {"x": 0}])
    def test_truthy_non_bool_flag(self, value):
        records = random_records(np.random.default_rng(22), n_journeys=4)
        for k, (_, imp) in enumerate(flat_impressions(records)):
            imp["labels"] = {"c": value} if k % 2 else {"c": True}
        assert_same_outcome(records)

    def test_unknown_milestone_after_cached_dicts(self):
        records = random_records(np.random.default_rng(23), n_journeys=4)
        flat = flat_impressions(records)
        for _, imp in flat:
            imp["labels"] = {"c": True}
        flat[-1][1]["labels"] = {"c": True, "zap": True}
        assert_same_outcome(records)
        with pytest.raises(DataValidationError, match="zap"):
            dataset_from_records(SCHEMA, records)

    @pytest.mark.parametrize("field,value", [
        ("features", [1, 2, -3]), ("features", [0.0, 1.0, 1]),
        ("features", [2 ** 53 + 1, 0.5, 1e308]),
        ("features", [np.float64(0.1), 0.5, 1.0]),
        ("position", 2 ** 63 - 1), ("position", -(2 ** 63)),
        ("position", 0),
    ])
    def test_accepted_value(self, field, value):
        records = random_records(np.random.default_rng(28), n_journeys=3)
        set_field(records[1]["searches"][0]["impressions"][1], field, value)
        assert_same_outcome(records)
        assert outcome(dataset_from_records, records)[0] == "ok"

    @pytest.mark.parametrize("field,value", [
        ("t_days", "2.5"), ("t_days", True), ("t_days", None), ("t_days", 3),
        ("context", ["1.5", 1.0]), ("context", [1.0, True]),
        ("context", [None, 1.0]), ("context", [1, 2]),
        ("context", [np.float32(1.5), 1.0]), ("context", [1.0, np.int64(2)]),
        ("context", [10 ** 400, 1.0]),
    ])
    def test_one_search_value(self, field, value):
        """A search's own value alone, with no other fault in its journey
        to be reported first: the walk meets it at the search or when it
        converts the journey's contexts."""
        records = random_records(np.random.default_rng(29), n_journeys=3)
        records[1]["searches"][0][field] = value
        assert_same_outcome(records)

    def test_accepted_label_dicts(self):
        records = random_records(np.random.default_rng(24), n_journeys=8)
        for k, (_, imp) in enumerate(flat_impressions(records)):
            imp["labels"] = dict(ACCEPTED_LABELS[k % len(ACCEPTED_LABELS)])
        assert_same_outcome(records)

    @pytest.mark.parametrize("field,value", IMPRESSION_FAULTS)
    def test_one_fault(self, field, value):
        records = random_records(np.random.default_rng(25), n_journeys=3)
        set_field(records[1]["searches"][0]["impressions"][1], field, value)
        assert_same_outcome(records)

    def test_faults_in_one_search_report_the_first(self):
        rng = np.random.default_rng(26)
        for _ in range(150):
            records = random_records(rng, n_journeys=3)
            search = records[int(rng.integers(3))]["searches"][0]
            imps = search["impressions"]
            for _ in range(int(rng.integers(1, 4))):
                field, value = IMPRESSION_FAULTS[
                    int(rng.integers(len(IMPRESSION_FAULTS)))]
                set_field(imps[int(rng.integers(len(imps)))], field,
                          copy.deepcopy(value))
            if rng.random() < 0.3:
                imps[int(rng.integers(len(imps)))] = ["not", "a", "dict"]
            assert_same_outcome(records)

    @pytest.mark.parametrize("mutate", [
        lambda rec: rec.pop("guest_id"),
        lambda rec: rec.update(searches=None),
        lambda rec: rec["searches"][0].update(t_days="soon"),
        lambda rec: rec["searches"][0].update(context=[1.0]),
        lambda rec: rec["searches"][0].update(context=["x", 1.0]),
        lambda rec: rec["searches"][0].pop("impressions"),
        lambda rec: rec["searches"][0].update(impressions=None),
        lambda rec: rec["searches"][-1]["impressions"].append(
            {"features": [0.0, 0.0, 0.0, 0.0], "listing_id": "Lx"}),
        lambda rec: rec["searches"][0].update(t_days="2.5"),
        lambda rec: rec["searches"][0].update(t_days=True),
        lambda rec: rec["searches"][0].update(t_days=None),
        lambda rec: rec["searches"][0].update(context=["1.5", 1.0]),
        lambda rec: rec["searches"][0].update(context=[1.0, True]),
        lambda rec: rec["searches"][0].update(context=[None, 1.0]),
        lambda rec: rec["searches"][-1].update(context=[0.0, False]),
        lambda rec: rec.update(guest_id=None),
        lambda rec: rec.update(guest_id=7),
        lambda rec: rec["searches"][0].update(search_id=None),
        lambda rec: rec["searches"][-1].update(search_id=7),
    ], ids=["guest_id", "searches", "t_days", "context-width",
            "context-value", "no-impressions", "impressions-none",
            "wide-last-impression", "t_days-string", "t_days-bool",
            "t_days-null", "context-string", "context-bool",
            "context-null", "last-context-bool", "guest_id-null",
            "guest_id-int", "search_id-null", "search_id-int"])
    def test_search_and_journey_faults(self, mutate):
        records = random_records(np.random.default_rng(27), n_journeys=3)
        # a second fault in the journey, so the order faults are found in shows
        records[2]["searches"][0]["impressions"][0]["position"] = "first"
        mutate(records[2])
        assert_same_outcome(records)


# ---------------------------------------------------------------------------
# the block decoder against the record path (conftest.assert_same_load)


KEYS = ['"features"', '"labels"', '"listing_id"', '"position"', '"context"',
        '"impressions"', '"search_id"', '"t_days"', '"guest_id"',
        '"searches"']
FUZZ_CHARS = list('{}[],:"\\ 0123456789.-+eEtrufalsnNIy') + ["\t", "é"]


# numbers, flags and label dicts in a saved line
LEAF = re.compile(r"-?[0-9][0-9.e+-]*|NaN|-?Infinity|true|\{[^{}\[\]]*\}")
OTHER_KIND = ["true", "false", "null", '"1.5"', "1", "-0", "[1.0]", "{}",
              "0.5,0.5"]


def mutate(line: str, rng) -> str:
    """One seeded edit of a saved line: a character, a key swap, added
    whitespace, a non-canonical position, delimiter text in an id, or a
    number, flag or empty label set replaced by a value of another kind."""
    kind = int(rng.integers(8))
    if kind == 7:
        leaves = list(LEAF.finditer(line))
        m = leaves[int(rng.integers(len(leaves)))]
        new = OTHER_KIND[int(rng.integers(len(OTHER_KIND)))]
        return line[:m.start()] + new + line[m.end():]
    at = int(rng.integers(len(line)))
    if kind == 0:
        return line[:at] + FUZZ_CHARS[int(rng.integers(len(FUZZ_CHARS)))] \
            + line[at + 1:]
    if kind == 1:
        return line[:at] + line[at + 1:]
    if kind == 2:
        return line[:at] + " " * int(rng.integers(1, 3)) + line[at:]
    if kind == 3:
        a, b = rng.choice(KEYS, size=2, replace=False)
        if a not in line or b not in line:
            return line
        return line.replace(a, "\0").replace(b, a).replace("\0", b)
    if kind == 4:
        key = KEYS[int(rng.integers(len(KEYS)))]
        starts = [k for k in range(len(line)) if line.startswith(key, k)]
        if not starts:
            return line
        k = starts[int(rng.integers(len(starts)))] + len(key) + 1
        return line[:k] + " " + line[k:]
    if kind == 5:
        starts = [k for k in range(len(line))
                  if line.startswith('"position":', k)]
        k = starts[int(rng.integers(len(starts)))] + len('"position":')
        digits = len(line[k:]) - len(line[k:].lstrip("-0123456789"))
        new = ["0", "1.0", "1e0", "-0", "true", "01", str(2 ** 63),
               str(-(2 ** 63))][int(rng.integers(8))]
        if new == "0" or new == "01":
            return line[:k] + new + line[k:]
        return line[:k] + new + line[k + digits:]
    starts = [k for k in range(len(line)) if line.startswith('"listing_id":"', k)]
    k = starts[int(rng.integers(len(starts)))] + len('"listing_id":"')
    inside = ['},{"context":', '","position":', '},{"features":', '\\"}']
    return line[:k] + inside[int(rng.integers(len(inside)))] + line[k:]


# a journey line of one search, around its impressions
HEAD = '{"guest_id":"g","searches":[{"context":[1.0,2.0],"impressions":['
IMPRESSION = ('{"features":%s,"labels":{},"listing_id":%s,'
              '"position":%d}')
TAIL = '],"search_id":"s","t_days":1.0}]}'


def never_a_record(self, rec):
    raise AssertionError(f"{rec['guest_id']} read as a record")


def blocks_of(path) -> list[list[str]]:
    """The file's journey lines, grouped into the reader's blocks."""
    with open(path, encoding="utf-8") as f:
        f.readline()
        return list(iter(lambda: f.readlines(dataio._BLOCK_CHARS), []))


class TestLineDecoder:
    def test_mutated_lines_load_as_records_do(self, tmp_path):
        rng = np.random.default_rng(40)
        ds = dataset_from_records(SCHEMA, varied_records(rng, pool_rows=4))
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        mutated = tmp_path / "m.jsonl"
        with_impressions = [j for j, line in enumerate(lines)
                            if '"position":' in line]
        kinds = []
        for _ in range(400):
            edited = list(lines)
            j = with_impressions[int(rng.integers(len(with_impressions)))]
            edited[j] = mutate(edited[j], rng)
            mutated.write_text("\n".join(edited) + "\n", encoding="utf-8")
            kinds.append(assert_same_load(mutated))
        assert 80 < kinds.count("error") < 320

    def test_feature_texts_that_parse_only_together_are_declined(
            self, tmp_path):
        """Two feature texts that are not arrays alone but join into two
        rows: the decoder must not read them as the line's rows."""
        path = tmp_path / "d.jsonl"
        save_dataset(dataset_from_records(SCHEMA, []), path)
        head = '{"guest_id":"g","searches":[{"context":[1.0,2.0],"impressions":['
        tail = '],"search_id":"s","t_days":1.0}]}'
        imps = ('{"features":[1.0,2.0,3.0],[4.0,"labels":{},'
                '"listing_id":"a","position":1},'
                '{"features":5.0,6.0],"labels":{},'
                '"listing_id":"b","position":2}')
        with open(path, "a") as f:
            f.write(head + imps + tail + "\n")
        assert assert_same_load(path) == "error"

    @pytest.mark.parametrize("line", [
        HEAD + IMPRESSION % ("[1.0,2.0,3.0]", '"a"', 1) + ","
        + IMPRESSION % ("4.0,[5.0,6.0,7.0]", '"b"', 2) + TAIL,
        HEAD + IMPRESSION % ("[1.0,2.0,3.0],4.0", '"a"', 1) + ","
        + IMPRESSION % ("[5.0,6.0,7.0]", '"b"', 2) + TAIL,
        HEAD + IMPRESSION % ("[1.0,2.0,3.0]", '"a","b"', 1) + TAIL,
        HEAD + IMPRESSION % ("[1.0,2.0,3.0]", '"a"', 1)
        + TAIL.replace('"s"', '"s","x"'),
        HEAD.replace('"g"', '"g","h"')
        + IMPRESSION % ("[1.0,2.0,3.0]", '"a"', 1) + TAIL,
        HEAD + IMPRESSION % ("[1.0,2.0,3.0]", '"a"', 1)
        + TAIL.replace("1.0}", "1.0,true}"),
        HEAD + IMPRESSION % ("[1.0,2.0,3.0]", '"a"', 1)
        + TAIL.replace("1.0}", "1.0\n}"),
        HEAD.replace("1.0,2.0", "1.0,\n2.0")
        + IMPRESSION % ("[1.0,2.0,3.0]", '"a"', 1) + TAIL,
    ], ids=["row-without-opening-bracket", "row-without-closing-bracket",
            "listing-id-of-two-strings", "search-id-of-two-strings",
            "guest-id-of-two-strings", "time-of-two-values",
            "newline-in-time", "newline-in-context"])
    def test_leaves_that_are_not_one_value_are_declined(self, tmp_path,
                                                         line):
        """A leaf that is not one JSON value alone, but that a block's
        one-call decode of its kind, or a leaf spanning two lines, would
        read: the decoder must decline the block, as ``json.loads`` of the
        line refuses it."""
        path = tmp_path / "d.jsonl"
        save_dataset(dataset_from_records(SCHEMA, []), path)
        with open(path, "a") as f:
            f.write(HEAD + IMPRESSION % ("[1.0,2.0,3.0]", '"a"', 1) + TAIL
                    + "\n" + line + "\n")
        assert assert_same_load(path) == "error"

    @pytest.mark.parametrize("config", [
        simulate.benchmark_generator_config(n_guests=300, seed=0),
        simulate.default_generator_config(n_guests=1000, seed=0),
    ], ids=["benchmark-world", "default-world"])
    def test_generated_files_never_reach_the_record_path(
            self, tmp_path, monkeypatch, config):
        dataset, _ = simulate.generate(config)
        path = tmp_path / "gen.jsonl"
        save_dataset(dataset, path)
        lines = path.read_text().splitlines()
        want = dataset_from_records(dataset.schema, map(json.loads, lines[1:]))
        monkeypatch.setattr(dataio._Columns, "add_record", never_a_record)
        assert_same_columns(load_dataset(path), want)
        assert dataset.n_impressions > dataio._DECODER_TRIAL

    def test_all_distinct_rows_switch_to_the_record_path(self, tmp_path,
                                                         monkeypatch):
        dataset, _ = simulate.generate(
            simulate.default_generator_config(n_guests=150, seed=2))
        rng = np.random.default_rng(41)
        dataset = with_impression_features(dataset, np.round(rng.normal(
            size=(dataset.n_impressions, dataset.schema.listing_dim)), 6))
        assert len(np.unique(dataset.listing_rows, axis=0)) == \
            dataset.n_impressions
        path = tmp_path / "distinct.jsonl"
        save_dataset(dataset, path)
        read_as_records = []
        add_record = dataio._Columns.add_record

        def record_step(self, rec):
            read_as_records.append(rec["guest_id"])
            add_record(self, rec)

        monkeypatch.setattr(dataio._Columns, "add_record", record_step)
        assert_same_columns(load_dataset(path), dataset)
        # the decoder reads whole blocks until its trial is over, then none
        blocks = blocks_of(path)
        assert len(blocks) > 3
        impressions = np.cumsum([sum(line.count('"position":') for line in b)
                                 for b in blocks])
        decoded = int(np.searchsorted(impressions, dataio._DECODER_TRIAL)) + 1
        assert 0 < decoded < len(blocks)
        first = sum(map(len, blocks[:decoded]))
        assert read_as_records == dataset.guest_ids[first:].tolist()

    @pytest.mark.parametrize("reader", ["decoder", "records", "memo-cleared"])
    def test_every_reader_loads_the_saved_table(self, tmp_path, monkeypatch,
                                                reader):
        """The block decoder, the record path and the decoder with its
        memo cleared every few texts (a block a line, so the memos clear
        between blocks) each load the listing table and index of the saved
        dataset, bit for bit, the last two merging a table that holds rows
        twice."""
        rng = np.random.default_rng(43)
        ds = dataset_from_records(
            SCHEMA, varied_records(rng, n_journeys=60, pool_rows=4))
        table = np.array([[0.0, 1.0, -0.0], [-0.0, 1.0, 0.0],
                          [0.0, 1.0, 0.0], [0.5, -2.0, 3.25],
                          [1e-310, 2.0, -1.5]])
        ds = with_listing_table(ds, [f"T{k}" for k in range(len(table))],
                                table, rng.integers(0, len(table),
                                                    size=ds.n_impressions))
        assert len(ds.listing_rows) == len(table)
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        table_rows = []
        dataset_of = dataio._Columns.dataset

        def dataset(self):
            table_rows.append(len(self.listing_ids))
            return dataset_of(self)

        monkeypatch.setattr(dataio._Columns, "dataset", dataset)
        if reader == "records":
            monkeypatch.setattr(dataio._BlockDecoder, "decode",
                                lambda self, lines: False)
        else:
            monkeypatch.setattr(dataio._Columns, "add_record", never_a_record)
        if reader == "memo-cleared":
            # a block a line, so the memos are cleared between blocks
            monkeypatch.setattr(dataio, "_MEMO_TEXTS", 4)
            monkeypatch.setattr(dataio, "_BLOCK_CHARS", 1)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.listing_rows.view(np.uint64),
                                      ds.listing_rows.view(np.uint64))
        np.testing.assert_array_equal(loaded.listing_index, ds.listing_index)
        assert (table_rows[0] == len(table)) == (reader == "decoder")

    def test_memo_cap_clears_without_changing_columns(self, tmp_path,
                                                      monkeypatch):
        rng = np.random.default_rng(42)
        ds = dataset_from_records(
            SCHEMA, varied_records(rng, n_journeys=40, pool_rows=9))
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        monkeypatch.setattr(dataio, "_MEMO_TEXTS", 4)
        assert_same_columns(load_dataset(path), ds)


class TestBlockBoundaries:
    """The reader at block sizes that put block boundaries everywhere: a
    block a line (a hint of one character) and odd character counts,
    which end blocks after lines of every length, as
    ``test_chunk_boundaries`` does for the writer."""

    @staticmethod
    def saved(tmp_path, source) -> tuple:
        if source == "generated":
            ds, _ = simulate.generate(
                simulate.default_generator_config(n_guests=60, seed=3))
        else:
            rng = np.random.default_rng(44)
            ds = dataset_from_records(SCHEMA, [
                *varied_records(rng, n_journeys=30, pool_rows=4),
                *odd_values_records()])
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        return ds, path

    @pytest.mark.parametrize("block_chars", [1, 7, 333, 4099])
    @pytest.mark.parametrize("source", ["generated", "varied"])
    def test_files_load_as_records_at_any_block_size(
            self, tmp_path, monkeypatch, source, block_chars):
        ds, path = self.saved(tmp_path, source)
        monkeypatch.setattr(dataio, "_BLOCK_CHARS", block_chars)
        if block_chars == 1:
            assert all(len(b) == 1 for b in blocks_of(path))
        assert assert_same_load(path) == "ok"
        want = dataset_from_records(
            ds.schema, map(json.loads, path.read_text().splitlines()[1:]))
        monkeypatch.setattr(dataio._Columns, "add_record", never_a_record)
        assert_same_columns(load_dataset(path), want)

    def test_a_mutated_line_in_a_middle_block_loads_as_records_do(
            self, tmp_path, monkeypatch):
        _, path = self.saved(tmp_path, "varied")
        monkeypatch.setattr(dataio, "_BLOCK_CHARS", 700)
        blocks = blocks_of(path)
        assert len(blocks) >= 5
        lines = path.read_text().splitlines()
        # file lines of the middle blocks that show impressions
        first = 1 + sum(map(len, blocks[:2]))
        middle = [j for j in range(first, first + len(blocks[2]))
                  if '"position":' in lines[j]]
        assert middle
        rng = np.random.default_rng(45)
        mutated = tmp_path / "m.jsonl"
        kinds = []
        for _ in range(60):
            edited = list(lines)
            j = middle[int(rng.integers(len(middle)))]
            edited[j] = mutate(edited[j], rng)
            mutated.write_text("\n".join(edited) + "\n", encoding="utf-8")
            kinds.append(assert_same_load(mutated))
        assert "ok" in kinds and "error" in kinds

    @pytest.mark.parametrize("first_fault", ["bad-json", "unknown-label"])
    def test_the_first_of_two_faults_in_two_blocks_is_raised(
            self, tmp_path, monkeypatch, first_fault):
        _, path = self.saved(tmp_path, "varied")
        monkeypatch.setattr(dataio, "_BLOCK_CHARS", 700)
        blocks = blocks_of(path)
        lines = path.read_text().splitlines()
        # the last line of the second block and the first of the fourth
        a = sum(map(len, blocks[:2]))
        b = a + len(blocks[2]) + 1
        assert len(blocks) > 3 and '"position":' in lines[a]
        lines[b] = lines[b][:-1]
        if first_fault == "bad-json":
            lines[a] = lines[a][:-1]
            want = rf"{re.escape(str(path))}:{a + 1}: bad JSON"
        else:
            lines[a] = re.sub(r'"labels":\{[^{}]*\}', '"labels":{"zz":true}',
                              lines[a], count=1)
            want = r"unknown milestone labels \['zz'\]"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match=want):
            load_dataset(path)
        assert assert_same_load(path) == "error"
