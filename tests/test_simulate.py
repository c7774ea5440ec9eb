"""Tests for the synthetic journey generator.

The generator is the evidence base for every downstream ranking experiment,
so these tests pin its behavior hard: byte-level determinism, shard
merging, label validity, the ground-truth ranking oracle, and the
calibrated statistical couplings (CTR vs rejection, the days-ahead U-shape,
late-journey negative inflation). Golden numbers were computed once from
the frozen world coefficients and are asserted exactly; any drift in the
sampling path shows up here first.
"""

import numpy as np
import pytest
from scipy.special import expit

from journeyrank.dataio import (
    dataset_from_records,
    dataset_to_records,
    file_sha256,
    save_dataset,
)
from journeyrank.domain import (
    NEGATIVE_MILESTONES,
    POSITIVE_CHAIN,
    validate_dataset,
)
from journeyrank.errors import ConfigError, SchemaMismatchError
from journeyrank.simulate import (
    GeneratorConfig,
    StageModel,
    WorldTruth,
    benchmark_generator_config,
    build_world,
    default_generator_config,
    generate,
    generator_config_from_record,
    generator_config_to_record,
    load_world,
    save_world,
    summarize,
)


def click_rate(dataset):
    return np.count_nonzero(dataset.searches.labels["c"]) / dataset.n_impressions


def rejection_by_days(dataset):
    s = dataset.searches
    eligible = s.labels["req"] & ~s.labels["book"]
    days = s.context_features[s.search_of_imp[eligible], 0]
    return days, s.labels["rej"][eligible].astype(np.float64)


class TestConfigValidation:
    def test_single_listing_pages_rejected(self):
        with pytest.raises(ConfigError):
            default_generator_config(n_guests=10, listings_per_search=1)

    def test_pool_smaller_than_page_rejected(self):
        with pytest.raises(ConfigError):
            default_generator_config(n_guests=10, n_listings=4,
                                     listings_per_search=8)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ConfigError):
            default_generator_config(n_guests=10, ctr_negative_coupling=-0.5)
        with pytest.raises(ConfigError):
            default_generator_config(n_guests=10,
                                     days_ahead_ushape_strength=-1.0)

    def test_missing_stage_model_rejected(self):
        cfg = default_generator_config(n_guests=10)
        stage = dict(cfg.stage_coefficients)
        del stage["book"]
        with pytest.raises(ConfigError):
            default_generator_config(n_guests=10, stage_coefficients=stage)

    def test_wrong_weight_width_rejected(self):
        cfg = default_generator_config(n_guests=10)
        bad = StageModel(weights=np.zeros(3), bias=0.0)
        neg = {**cfg.negative_coefficients, "rej": bad}
        with pytest.raises(ConfigError, match="rej"):
            default_generator_config(n_guests=10, negative_coefficients=neg)

    def test_record_roundtrip(self):
        cfg = default_generator_config(n_guests=17, seed=5,
                                       ctr_negative_coupling=0.75)
        back = generator_config_from_record(generator_config_to_record(cfg))
        assert back.n_guests == cfg.n_guests
        assert back.seed == cfg.seed
        assert back.ctr_negative_coupling == cfg.ctr_negative_coupling
        assert set(back.stage_coefficients) == set(POSITIVE_CHAIN)
        for name in POSITIVE_CHAIN:
            np.testing.assert_array_equal(
                back.stage_coefficients[name].weights,
                cfg.stage_coefficients[name].weights)
            assert back.stage_coefficients[name].bias == \
                cfg.stage_coefficients[name].bias

    @pytest.mark.parametrize("key, value", [
        ("n_guests", 3.7), ("listings_per_search", 8.9), ("n_listings", 400.0),
        ("seed", True), ("max_searches_per_journey", "3"),
    ])
    def test_record_integer_setting_must_be_an_int(self, key, value):
        rec = generator_config_to_record(default_generator_config(n_guests=5))
        rec[key] = value
        with pytest.raises(ConfigError, match=key):
            generator_config_from_record(rec)

    def test_record_missing_key_rejected(self):
        rec = generator_config_to_record(default_generator_config(n_guests=5))
        del rec["stage_coefficients"]
        with pytest.raises(ConfigError):
            generator_config_from_record(rec)


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        digests = []
        for run in range(2):
            cfg = default_generator_config(n_guests=40, seed=9)
            dataset, _ = generate(cfg)
            path = tmp_path / f"run{run}.jsonl"
            save_dataset(dataset, path)
            digests.append(file_sha256(path))
        assert digests[0] == digests[1]

    def test_different_seeds_differ(self, tmp_path):
        digests = []
        for seed in (9, 10):
            dataset, _ = generate(default_generator_config(n_guests=40,
                                                           seed=seed))
            path = tmp_path / f"seed{seed}.jsonl"
            save_dataset(dataset, path)
            digests.append(file_sha256(path))
        assert digests[0] != digests[1]

    @pytest.mark.parametrize("make_config,sha256", [
        (lambda: default_generator_config(n_guests=120, seed=9),
         "2ad87cea0ce30462a43ed175448fa18d600bf33a7060ca6711d42288e97e4396"),
        (lambda: benchmark_generator_config(n_guests=60, seed=0),
         "38b7194bf09944d75153cf4687959f73c113ec216a10cdfdd07c10d2adcedb02"),
    ], ids=["default", "benchmark"])
    def test_generated_bytes_pinned(self, tmp_path, make_config, sha256):
        dataset, _ = generate(make_config())
        path = tmp_path / "dataset.jsonl"
        save_dataset(dataset, path)
        assert file_sha256(path) == sha256

    def test_shards_concatenate_to_full_run(self):
        cfg = default_generator_config(n_guests=120, seed=21)
        full, _ = generate(cfg)
        left, _ = generate(cfg, guest_range=(0, 60))
        right, _ = generate(cfg, guest_range=(60, 120))
        merged = list(dataset_to_records(left)) + list(dataset_to_records(right))
        assert merged == list(dataset_to_records(full))

    def test_guest_range_validated(self):
        cfg = default_generator_config(n_guests=10)
        with pytest.raises(ConfigError):
            generate(cfg, guest_range=(5, 12))
        with pytest.raises(ConfigError):
            generate(cfg, guest_range=(-1, 5))


class TestGeneratedDataValidity:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_zero_violations(self, seed):
        cfg = default_generator_config(n_guests=300, seed=seed,
                                       ctr_negative_coupling=0.8,
                                       days_ahead_ushape_strength=1.0,
                                       late_journey_negative_coupling=0.6)
        dataset, _ = generate(cfg)
        report = validate_dataset(dataset)
        assert report.accepted
        assert not report.violations

    def test_funnel_counts_nested(self):
        dataset, _ = generate(default_generator_config(n_guests=300, seed=4))
        counts = summarize(dataset).milestone_counts
        chain = ["imp"] + list(POSITIVE_CHAIN)
        for earlier, later in zip(chain, chain[1:]):
            assert counts[earlier] >= counts[later]

    def test_single_booking_per_search(self):
        dataset, _ = generate(default_generator_config(n_guests=400, seed=6))
        for rec in dataset_to_records(dataset):
            for search in rec["searches"]:
                booked = sum("book" in imp["labels"]
                             for imp in search["impressions"])
                assert booked <= 1

    def test_one_booked_listing_per_journey(self):
        dataset, _ = generate(default_generator_config(n_guests=400, seed=8))
        for rec in dataset_to_records(dataset):
            booked = {imp["listing_id"]
                      for search in rec["searches"]
                      for imp in search["impressions"]
                      if "book" in imp["labels"]}
            assert len(booked) <= 1
            if booked:
                final = rec["searches"][-1]
                assert booked == {imp["listing_id"]
                                  for imp in final["impressions"]
                                  if "book" in imp["labels"]}

    def test_schema_matches_config(self):
        cfg = default_generator_config(n_guests=20, seed=0)
        dataset, _ = generate(cfg)
        assert dataset.schema.listing_dim == cfg.listing_feature_dim
        assert dataset.schema.context_dim == cfg.context_feature_dim
        assert dataset.schema.context_features[:2] == (
            "days_ahead_of_checkin", "num_previous_searches")


class TestWorldTruth:
    def setup_method(self):
        self.cfg = default_generator_config(n_guests=5, seed=13,
                                            ctr_negative_coupling=0.7,
                                            days_ahead_ushape_strength=1.1,
                                            late_journey_negative_coupling=0.4)
        self.world = build_world(self.cfg)

    def oracle_context(self, context):
        out = np.array(context, dtype=np.float64)
        out[0] = (out[0] - 90.0) / 90.0
        out[1] = out[1] / (self.cfg.max_searches_per_journey - 1) - 0.5
        return out

    def test_normalized_context(self):
        raw = np.array([135.0, 7.0, 0.3, -0.2])
        np.testing.assert_allclose(self.world.normalized_context(raw),
                                   [0.5, 0.5, 0.3, -0.2], rtol=0, atol=1e-15)

    def test_stage_logits_match_hand_computation(self):
        context = np.array([45.0, 2.0, 0.5, -1.0])
        rows = np.array([0, 3, 7])
        got = self.world.stage_logits(context, rows)
        ctx = self.oracle_context(context)
        d_l = self.cfg.listing_feature_dim
        for j, name in enumerate(POSITIVE_CHAIN):
            model = self.cfg.stage_coefficients[name]
            for i, row in enumerate(rows):
                x = self.world.listing_features[row]
                want = (x @ model.weights[:d_l] + ctx @ model.weights[d_l:]
                        + model.bias)
                np.testing.assert_allclose(got[i, j], want, rtol=1e-14)

    def test_negative_logits_include_all_couplings(self):
        context = np.array([170.0, 5.0, -0.4, 0.8])
        rows = np.array([2, 11])
        got = self.world.negative_logits(context, rows)
        ctx = self.oracle_context(context)
        d_l = self.cfg.listing_feature_dim
        click = self.cfg.stage_coefficients["c"]
        for j, name in enumerate(NEGATIVE_MILESTONES):
            model = self.cfg.negative_coefficients[name]
            for i, row in enumerate(rows):
                x = self.world.listing_features[row]
                want = (x @ model.weights[:d_l] + ctx @ model.weights[d_l:]
                        + model.bias)
                want += self.cfg.ctr_negative_coupling * (
                    x @ click.weights[:d_l] + click.bias)
                if name == "rej":
                    want += self.cfg.days_ahead_ushape_strength * (
                        ctx[0] ** 2 - 0.5)
                want += self.cfg.late_journey_negative_coupling * ctx[1]
                np.testing.assert_allclose(got[i, j], want, rtol=1e-14)

    def test_conversion_probability_is_stage_product(self):
        context = np.array([80.0, 1.0, 0.0, 0.0])
        rows = np.arange(10)
        got = self.world.true_unc_probability(context, rows)
        want = expit(self.world.stage_logits(context, rows)).prod(axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-14)
        assert np.all(got > 0) and np.all(got < 1)

    def test_unknown_listing_rejected(self):
        with pytest.raises(ConfigError):
            self.world.rows_for_ids(["listing-does-not-exist"])

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "world.json"
        save_world(self.world, path)
        back = load_world(path)
        assert back.listing_ids == self.world.listing_ids
        np.testing.assert_array_equal(back.listing_features,
                                      self.world.listing_features)
        context = np.array([100.0, 3.0, 0.2, 0.1])
        np.testing.assert_array_equal(
            back.true_unc_probability(context),
            self.world.true_unc_probability(context))

    def test_load_rejects_other_records(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"record":"schema"}\n')
        with pytest.raises(SchemaMismatchError):
            load_world(path)


def true_ranking(world: WorldTruth, context, listing_ids=None) -> list[str]:
    """Listing ids ordered by true conversion probability, ties by id."""
    if listing_ids is None:
        listing_ids = list(world.listing_ids)
    else:
        listing_ids = list(listing_ids)
    rows = world.rows_for_ids(listing_ids)
    p = world.true_unc_probability(context, rows)
    ids = np.array(listing_ids)
    order = np.lexsort((ids, -p))
    return [str(ids[k]) for k in order]


class TestTrueRanking:
    def test_orders_by_conversion_probability(self):
        cfg = default_generator_config(n_guests=5, seed=2)
        world = build_world(cfg)
        context = np.array([60.0, 1.0, 0.4, -0.3])
        ids = list(world.listing_ids[:8])
        ranked = true_ranking(world, context, ids)
        d_l = cfg.listing_feature_dim
        ctx = world.normalized_context(context)
        probs = {}
        for lid in ids:
            x = world.listing_features[world.id_to_row[lid]]
            p = 1.0
            for name in POSITIVE_CHAIN:
                model = cfg.stage_coefficients[name]
                p *= expit(x @ model.weights[:d_l] + ctx @ model.weights[d_l:]
                           + model.bias)
            probs[lid] = p
        assert sorted(ranked) == sorted(ids)
        for first, second in zip(ranked, ranked[1:]):
            assert probs[first] >= probs[second] - 1e-15

    def test_ties_broken_by_listing_id(self):
        cfg = default_generator_config(n_guests=5, seed=2, n_listings=8)
        features = np.zeros((3, cfg.listing_feature_dim))
        features[2, 0] = 5.0
        world = WorldTruth(config=cfg, listing_ids=("b", "a", "z"),
                           listing_features=features)
        ranked = true_ranking(world, np.array([90.0, 0.0, 0.0, 0.0]))
        assert ranked == ["z", "a", "b"]

    def test_defaults_to_whole_pool(self):
        cfg = default_generator_config(n_guests=5, seed=2, n_listings=12)
        world = build_world(cfg)
        ranked = true_ranking(world, np.array([90.0, 0.0, 0.0, 0.0]))
        assert sorted(ranked) == sorted(world.listing_ids)


def listing_click_and_rejection_rates(dataset):
    """Per-listing click rate and rejection rate among eligible rows, for
    the listings with at least one eligible row, in order of first
    impression."""
    s = dataset.searches
    ids, first, codes = np.unique(s.listing_ids, return_index=True,
                                  return_inverse=True)
    n = len(ids)
    imp = np.bincount(codes, minlength=n)
    clk = np.bincount(codes[s.labels["c"]], minlength=n)
    eligible = s.labels["req"] & ~s.labels["book"]
    elig = np.bincount(codes[eligible], minlength=n)
    rej = np.bincount(codes[eligible & s.labels["rej"]], minlength=n)
    keep = np.argsort(first)
    keep = keep[elig[keep] >= 1]
    return clk[keep] / imp[keep], rej[keep] / elig[keep]


class TestCouplings:
    def test_ctr_rejection_independent_without_coupling(self):
        cfg = default_generator_config(n_guests=4500, seed=11,
                                       n_listings=2000)
        dataset, _ = generate(cfg)
        assert dataset.n_impressions > 100_000
        ctr, rate = listing_click_and_rejection_rates(dataset)
        r = np.corrcoef(ctr, rate)[0, 1]
        assert abs(r) < 0.05
        np.testing.assert_allclose(r, 0.02371732716849691, rtol=0, atol=1e-12)

    def test_ctr_rejection_correlated_with_coupling(self):
        base = default_generator_config(n_guests=4500, seed=11,
                                        n_listings=2000)
        model = base.negative_coefficients["rej"]
        # compensate the coupling's mean shift so the rejection
        # prevalence stays in the calibrated band
        neg = {**base.negative_coefficients,
               "rej": StageModel(weights=model.weights,
                                 bias=model.bias + 1.5 * 1.85)}
        cfg = default_generator_config(n_guests=4500, seed=11,
                                       n_listings=2000,
                                       ctr_negative_coupling=1.5,
                                       negative_coefficients=neg)
        dataset, _ = generate(cfg)
        ctr, rate = listing_click_and_rejection_rates(dataset)
        r = np.corrcoef(ctr, rate)[0, 1]
        assert r > 0.2
        np.testing.assert_allclose(r, 0.5140302599255367, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed,rates", [
        (5, (0.13421052631578947, 0.06142857142857143, 0.07076923076923076)),
        (6, (0.12439024390243902, 0.05151915455746367, 0.10869565217391304)),
        (7, (0.09768637532133675, 0.07555555555555556, 0.10385756676557864)),
    ])
    def test_rejection_ushape_in_days_ahead(self, seed, rates):
        cfg = default_generator_config(n_guests=4000, seed=seed,
                                       days_ahead_ushape_strength=1.5)
        dataset, _ = generate(cfg)
        days, rej = rejection_by_days(dataset)
        low = rej[days < 45.0].mean()
        mid = rej[(days >= 45.0) & (days < 135.0)].mean()
        high = rej[days >= 135.0].mean()
        assert low > mid
        assert high > mid
        np.testing.assert_allclose([low, mid, high], rates, rtol=0, atol=1e-12)

    def test_late_journey_coupling_raises_negatives(self):
        observed = {}
        for coupling in (0.0, 1.2):
            cfg = default_generator_config(
                n_guests=5000, seed=5,
                late_journey_negative_coupling=coupling)
            dataset, _ = generate(cfg)
            s = dataset.searches
            labels = s.labels
            eligible = (labels["req"] & ~labels["book"]) | labels["book"]
            prev = s.context_features[s.search_of_imp[eligible], 1]
            neg = (labels["rej"] | labels["cbh"] | labels["cbg"])[eligible]
            neg = neg.astype(np.float64)
            observed[coupling] = (neg[prev <= 1].mean(),
                                  neg[prev >= 3].mean())
        early, late = observed[1.2]
        assert late - early > 0.02
        gap_without = observed[0.0][1] - observed[0.0][0]
        assert late - early > gap_without
        np.testing.assert_allclose(
            [early, late], [0.12975206611570247, 0.16179952644041043],
            rtol=0, atol=1e-12)


class TestBiasResponse:
    def test_click_rate_tracks_click_bias(self):
        rates = []
        for shift in (-1.0, 0.0, 1.0):
            base = default_generator_config(n_guests=800, seed=3)
            model = base.stage_coefficients["c"]
            stage = {**base.stage_coefficients,
                     "c": StageModel(weights=model.weights,
                                     bias=model.bias + shift)}
            cfg = default_generator_config(n_guests=800, seed=3,
                                           stage_coefficients=stage)
            dataset, _ = generate(cfg)
            rates.append(click_rate(dataset))
        assert rates[0] < rates[1] < rates[2]
        np.testing.assert_allclose(
            rates,
            [0.09258771929824561, 0.1942638422818792, 0.3503826530612245],
            rtol=0, atol=1e-12)


class TestSummarize:
    def test_golden_snapshot(self):
        dataset, _ = generate(default_generator_config(n_guests=250, seed=7))
        report = summarize(dataset)
        assert report.milestone_counts == {
            "imp": 6640, "c": 1105, "lc": 797, "pp": 371, "req": 210,
            "book": 127, "unc": 113, "rej": 13, "cbh": 4, "cbg": 10,
        }
        assert report.searches_per_journey == {
            1: 61, 2: 53, 3: 41, 4: 28, 5: 18, 6: 17, 7: 20, 8: 12,
        }
        assert report.n_journeys == 250
        assert report.n_searches == 830
        assert report.n_impressions == 6640
        np.testing.assert_allclose(report.pp_retained_fraction,
                                   0.763855421686747, rtol=0, atol=1e-12)

    def test_empty_dataset(self):
        cfg = default_generator_config(n_guests=1, seed=0)
        report = summarize(dataset_from_records(cfg.schema(), []))
        assert report.n_journeys == 0
        assert report.n_searches == 0
        assert report.n_impressions == 0
        assert all(v == 0 for v in report.milestone_counts.values())

    def test_report_record_is_plain_data(self):
        dataset, _ = generate(default_generator_config(n_guests=30, seed=1))
        record = summarize(dataset).to_record()
        assert set(record) == {"milestone_counts", "searches_per_journey",
                               "n_journeys", "n_searches", "n_impressions",
                               "pp_retained_fraction"}
        assert all(isinstance(k, str)
                   for k in record["searches_per_journey"])
