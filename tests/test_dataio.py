"""Dataset file format, journey records, guest split, and search columns."""

import json

import numpy as np
import pytest

from journeyrank.dataio import (
    dataset_from_records,
    dataset_to_records,
    file_sha256,
    guest_bucket,
    load_dataset,
    pack_dataset,
    save_dataset,
    split_by_guest,
)
from journeyrank.domain import LABELS, DatasetSchema
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
        np.testing.assert_array_equal(back.journey_starts, ds.journey_starts)
        a, b = ds.searches, back.searches
        for name in ("listing_features", "context_features", "search_of_imp",
                     "search_starts", "listing_ids", "positions",
                     "search_ids", "t_days"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        for m in LABELS:
            np.testing.assert_array_equal(a.labels[m], b.labels[m])

    def test_records_round_trip(self):
        records = random_records(np.random.default_rng(11))
        ds = dataset_from_records(SCHEMA, records)
        assert list(dataset_to_records(ds)) == records

    def test_empty_dataset(self, tmp_path):
        ds = dataset_from_records(SCHEMA, [])
        assert (ds.n_journeys, ds.n_searches, ds.n_impressions) == (0, 0, 0)
        assert ds.searches.listing_features.shape == (0, SCHEMA.listing_dim)
        path = tmp_path / "empty.jsonl"
        save_dataset(ds, path)
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
                                             ("labels", ["c"])])
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
        packed = dataset_from_records(SCHEMA, records).searches
        flat = flat_impressions(records)
        assert packed.n_impressions == len(flat)
        assert packed.n_searches == sum(len(r["searches"]) for r in records)
        for row, (search, imp) in enumerate(flat):
            np.testing.assert_array_equal(packed.listing_features[row],
                                          imp["features"])
            assert packed.listing_ids[row] == imp["listing_id"]
            assert packed.positions[row] == imp["position"]
            assert packed.labels["c"][row] == ("c" in imp["labels"])
            seg = packed.search_of_imp[row]
            assert packed.search_ids[seg] == search["search_id"]
            np.testing.assert_array_equal(packed.context_features[seg],
                                          search["context"])

    def test_segment_ids_are_contiguous(self):
        packed = pack_dataset(random_dataset(np.random.default_rng(8)))
        seg = packed.search_of_imp
        assert seg[0] == 0
        assert np.all(np.diff(seg) >= 0)
        assert seg[-1] == packed.n_searches - 1
        np.testing.assert_array_equal(
            packed.search_starts,
            np.r_[0, np.cumsum(np.bincount(seg, minlength=packed.n_searches))])

    def test_imp_rows_lookup(self):
        packed = pack_dataset(random_dataset(np.random.default_rng(9)))
        pick = np.array([2, 0, 3])
        rows = packed.imp_rows_for_searches(pick)
        want = np.concatenate([
            np.arange(packed.search_starts[s], packed.search_starts[s + 1])
            for s in pick])
        np.testing.assert_array_equal(rows, want)

    def test_pack_dataset_returns_searches(self):
        ds = random_dataset(np.random.default_rng(10), n_journeys=2)
        assert pack_dataset(ds) is ds.searches
