"""Tests for the synthetic journey generator.

The generator is the evidence base for every downstream ranking experiment,
so these tests pin its behavior hard: byte-level determinism, shard
merging, label validity, the ground-truth ranking oracle, and the
calibrated statistical couplings (CTR vs rejection, the days-ahead U-shape,
late-journey negative inflation). Golden numbers were computed once from
the frozen world coefficients and are asserted exactly; any drift in the
sampling path shows up here first.
"""

import hashlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from conftest import dataset_to_records
from journeyrank.dataio import (
    dataset_from_records,
    file_sha256,
    save_dataset,
)
from journeyrank.domain import (
    LABELS,
    NEGATIVE_MILESTONES,
    POSITIVE_CHAIN,
    Dataset,
    attribute_labels,
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
from journeyrank.nn import logistic


def click_rate(dataset):
    return np.count_nonzero(dataset.labels["c"]) / dataset.n_impressions


def rejection_by_days(dataset):
    labels = dataset.labels
    eligible = labels["req"] & ~labels["book"]
    days = dataset.context_features[dataset.searches.ids[eligible], 0]
    return days, labels["rej"][eligible].astype(np.float64)


# ---------------------------------------------------------------------------
# the reference sampler: one guest and one search at a time, each search's
# logits computed on their own; ``generate`` must reproduce it record for
# record


def reference_context(config, context):
    out = np.array(context, dtype=np.float64)
    out[0] = (context[0] - 90.0) / 90.0
    out[1] = context[1] / max(config.max_searches_per_journey - 1, 1) - 0.5
    return out


def reference_logits(world, models, names, context, rows):
    ctx = reference_context(world.config, context)
    x = world.listing_features[rows]
    d_l = world.config.listing_feature_dim
    out = np.empty((len(rows), len(names)))
    for j, name in enumerate(names):
        m = models[name]
        out[:, j] = x @ m.weights[:d_l] + ctx @ m.weights[d_l:] + m.bias
    return out


def reference_stage_logits(world, context, rows):
    cfg = world.config
    out = reference_logits(world, cfg.stage_coefficients, POSITIVE_CHAIN,
                           context, rows)
    ctx = reference_context(cfg, context)
    multiplier = float(1.0 + (cfg.conversion_days_modulation
                              * (ctx[0] ** 2 - 0.5)
                              + cfg.conversion_late_modulation * ctx[1]))
    if multiplier != 1.0:
        w = cfg.stage_coefficients["unc"].weights[:cfg.listing_feature_dim]
        out[:, POSITIVE_CHAIN.index("unc")] += (
            (multiplier - 1.0) * (world.listing_features[rows] @ w))
    return out


def reference_negative_logits(world, context, rows):
    cfg = world.config
    out = reference_logits(world, cfg.negative_coefficients,
                           NEGATIVE_MILESTONES, context, rows)
    click = cfg.stage_coefficients["c"]
    ctr = (world.listing_features[rows]
           @ click.weights[:cfg.listing_feature_dim] + click.bias)
    out += cfg.ctr_negative_coupling * ctr[:, None]
    ctx = reference_context(cfg, context)
    out[:, NEGATIVE_MILESTONES.index("rej")] += (
        cfg.days_ahead_ushape_strength * (ctx[0] ** 2 - 0.5))
    out += cfg.late_journey_negative_coupling * ctx[1]
    return out


def reference_sample_journey(rng, world, stops: Counter) -> list[tuple]:
    """One guest's searches before attribution; counts why it stopped."""
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
            stops["window"] += 1
            return searches
        context = np.empty(cfg.context_feature_dim)
        context[0] = round(days_ahead_start - elapsed, 6)
        context[1] = float(s_idx)
        context[2:] = taste

        available = np.flatnonzero(open_listings)
        if len(available) < cfg.listings_per_search:
            stops["pool"] += 1
            return searches
        rows = rng.choice(available, size=cfg.listings_per_search,
                          replace=False)

        p_stage = logistic(reference_stage_logits(world, context, rows))
        p_neg = logistic(reference_negative_logits(world, context, rows))
        n = len(rows)
        draws = rng.random((n, len(POSITIVE_CHAIN)))
        reached = np.ones(n, dtype=bool)
        flags = {}
        for j, name in enumerate(POSITIVE_CHAIN):
            reached = reached & (draws[:, j] < p_stage[:, j])
            flags[name] = reached.copy()

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
            is_host = rng.random(len(idx)) < p_h / (p_h + p_g)
            cbh[idx[is_host]] = True
            cbg[idx[~is_host]] = True

        rejectable = flags["req"] & ~flags["book"]
        rej = rejectable & (rng.random(n)
                            < p_neg[:, NEGATIVE_MILESTONES.index("rej")])

        flags.update(rej=rej, cbh=cbh, cbg=cbg)
        searches.append((context, round(start_day + elapsed, 6), rows,
                         np.column_stack([flags[m] for m in LABELS])))

        open_listings[rows[rej | cbh | cbg | booked]] = False
        if booked.any():
            stops["booked"] += 1
            return searches
    stops["planned"] += 1
    return searches


def reference_generate(config, stops: Counter | None = None) -> Dataset:
    """Every guest's journey, one guest after another, attributed."""
    stops = Counter() if stops is None else stops
    world = build_world(config)
    guest_ids, searches_per_journey, search_ids = [], [], []
    t_days, contexts, rows, flags = [], [], [], []
    for guest_idx in range(config.n_guests):
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(guest_idx,)))
        searches = reference_sample_journey(rng, world, stops)
        if not searches:
            continue
        guest_ids.append(f"g{guest_idx:06d}")
        searches_per_journey.append(len(searches))
        for s_idx, (context, t, search_rows, search_flags) in enumerate(
                searches):
            search_ids.append(f"g{guest_idx:06d}-s{s_idx}")
            t_days.append(t)
            contexts.append(context)
            rows.append(search_rows)
            flags.append(search_flags)
    n = config.listings_per_search
    rows = np.concatenate(rows)
    flags = np.concatenate(flags)
    return attribute_labels(Dataset.from_columns(
        config.schema(),
        guest_ids=guest_ids,
        searches_per_journey=searches_per_journey,
        search_ids=search_ids,
        t_days=t_days,
        context_features=contexts,
        imps_per_search=[n] * len(search_ids),
        positions=np.tile(np.arange(1, n + 1), len(search_ids)),
        listing_ids=world.listing_ids,
        listing_rows=world.listing_features,
        listing_index=rows,
        label_rows=flags.T,
    ))


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

    @pytest.mark.parametrize("key, value", [
        ("ctr_negative_coupling", True), ("journey_window_days", False),
    ])
    def test_record_float_setting_refuses_a_boolean(self, key, value):
        rec = generator_config_to_record(default_generator_config(n_guests=5))
        rec[key] = value
        with pytest.raises(ConfigError, match=key):
            generator_config_from_record(rec)

    @pytest.mark.parametrize("key, value", [
        ("journey_window_days", "30"), ("ctr_negative_coupling", "0.5"),
    ])
    def test_record_float_setting_refuses_a_string(self, key, value):
        rec = generator_config_to_record(default_generator_config(n_guests=5))
        rec[key] = value
        with pytest.raises(ConfigError, match=key):
            generator_config_from_record(rec)

    def test_record_stage_bias_refuses_a_string(self):
        rec = generator_config_to_record(default_generator_config(n_guests=5))
        rec["stage_coefficients"]["c"]["bias"] = "1.5"
        with pytest.raises(ConfigError, match="stage_coefficients"):
            generator_config_from_record(rec)

    @pytest.mark.parametrize("key, weight", [
        ("stage_coefficients", True), ("negative_coefficients", "0.5"),
    ], ids=["boolean", "string"])
    def test_record_weight_must_be_a_number(self, key, weight):
        rec = generator_config_to_record(default_generator_config(n_guests=5))
        name = next(iter(rec[key]))
        rec[key][name]["weights"][0] = weight
        with pytest.raises(ConfigError, match=key):
            generator_config_from_record(rec)

    def test_record_weights_read_integers_as_floats(self):
        rec = generator_config_to_record(default_generator_config(n_guests=5))
        width = len(rec["stage_coefficients"]["c"]["weights"])
        rec["stage_coefficients"]["c"]["weights"] = list(range(width))
        weights = generator_config_from_record(
            rec).stage_coefficients["c"].weights
        assert weights.dtype == np.float64
        np.testing.assert_array_equal(weights, np.arange(width, dtype=float))

    def test_record_float_setting_reads_an_integer(self):
        rec = generator_config_to_record(default_generator_config(n_guests=5))
        rec["journey_window_days"] = 30
        back = generator_config_from_record(rec)
        assert back.journey_window_days == 30.0
        assert type(back.journey_window_days) is float

    def test_nan_journey_window_rejected(self):
        """A NaN window fails ``<= 0`` as every comparison does; it must
        be refused with the config, before any guest is drawn."""
        nan = float("nan")
        with pytest.raises(ConfigError, match="journey_window_days"):
            default_generator_config(n_guests=5, journey_window_days=nan)
        rec = generator_config_to_record(default_generator_config(n_guests=5))
        rec["journey_window_days"] = nan
        with pytest.raises(ConfigError, match="journey_window_days"):
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


@pytest.mark.parametrize("make_config,sha256", [
    (default_generator_config,
     "c0f3255c7184eee44f9629b7cf516ab23b1753e7683facdb22d30e208f45d8b9"),
    (benchmark_generator_config,
     "719f575156147a883be93ec149c1035ddf3463d8ca787cd82950075cf9ca2afd"),
], ids=["default", "benchmark"])
def test_recipe_pinned(make_config, sha256):
    """Every coefficient of both worlds, to the last bit: a small world's
    bytes may not show a last-bit change in one weight."""
    record = json.dumps(generator_config_to_record(make_config()),
                        sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(record.encode()).hexdigest() == sha256


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["GenIo", "CompareDefault"])
def test_perfbench_reference_datasets(tmp_path, monkeypatch, workload):
    """The benchmark checks the file its seed-0 world writes against a
    recorded sha256; a changed generator shows here, not only as a failed
    benchmark run. The benchmark's files are loaded as they are."""
    monkeypatch.setitem(sys.modules, "layers", load_perfbench("layers"))
    workloads = load_perfbench("workloads")
    bench = getattr(workloads, workload)(0, tmp_path, None,
                                         workloads.Checks())
    dataset, _ = generate(bench.config_at(0))
    path = tmp_path / "reference.jsonl"
    save_dataset(dataset, path)
    assert file_sha256(path) == bench.reference_sha256


class TestLockstepMatchesReference:
    """The generator reproduces the per-guest reference sampler record for
    record, on configs that between them reach every branch: the default
    world keeps the conversion slope multiplier at 1.0 and the benchmark
    world bends it."""

    @pytest.mark.parametrize("make_config, reached", [
        (lambda: default_generator_config(n_guests=200, seed=4),
         {"booked", "planned"}),
        (lambda: benchmark_generator_config(n_guests=200, seed=2),
         {"booked", "rej", "cbh", "cbg"}),
        # one page above the pool's size, and not a multiple of 4 rows
        (lambda: benchmark_generator_config(n_guests=200, seed=3,
                                            n_listings=16,
                                            listings_per_search=15),
         {"pool", "rej"}),
        (lambda: default_generator_config(n_guests=200, seed=6,
                                          ctr_negative_coupling=0.8,
                                          days_ahead_ushape_strength=1.0,
                                          late_journey_negative_coupling=0.6),
         {"rej", "cbh", "cbg"}),
        (lambda: default_generator_config(n_guests=200, seed=7,
                                          journey_window_days=1.5),
         {"window"}),
    ], ids=["default", "benchmark", "pool-runs-out", "coupled",
            "short-window"])
    def test_records_equal_reference(self, make_config, reached):
        cfg = make_config()
        stops = Counter()
        want = reference_generate(cfg, stops)
        got, _ = generate(cfg)
        seen = set(stops) | {m for m in NEGATIVE_MILESTONES
                             if want.labels[m].any()}
        assert reached <= seen
        assert list(dataset_to_records(got)) == list(dataset_to_records(want))

    @pytest.mark.parametrize("config", [
        default_generator_config(n_guests=1, seed=3, ctr_negative_coupling=0.8,
                                 days_ahead_ushape_strength=1.0,
                                 late_journey_negative_coupling=0.6),
        benchmark_generator_config(n_guests=1, seed=4),
        benchmark_generator_config(n_guests=1, seed=5, n_listings=601,
                                   listings_per_search=15),
    ], ids=["default-coupled", "benchmark", "benchmark-odd-sizes"])
    def test_logits_equal_reference(self, config):
        """Sampled records hide a last-bit change in a logit, so the
        logits are compared themselves."""
        world = build_world(config)
        rng = np.random.default_rng(0)
        k, n = 128, config.listings_per_search
        contexts = np.round(rng.normal(size=(k, config.context_feature_dim)),
                            6)
        # some horizons are ones whose normalized square a float64
        # scalar's ** 2 rounds differently from x * x
        days = np.round(rng.uniform(0.0, 180.0, size=400 * k), 6)
        x = (days - 90.0) / 90.0
        odd = days[np.array([v ** 2 for v in x]) != x * x][:k // 2]
        assert len(odd) >= 8
        contexts[:, 0] = np.concatenate([odd, days[:k - len(odd)]])
        contexts[:, 1] = rng.integers(0, config.max_searches_per_journey,
                                      size=k)
        rows = np.array([rng.choice(config.n_listings, size=n, replace=False)
                         for _ in range(k)])
        got = world.logits(contexts, rows)
        for context, search_rows, search_logits in zip(contexts, rows, got):
            np.testing.assert_array_equal(
                search_logits,
                np.hstack([reference_stage_logits(world, context, search_rows),
                           reference_negative_logits(world, context,
                                                     search_rows)]))

    def test_shards_equal_reference(self):
        cfg = benchmark_generator_config(n_guests=90, seed=8)
        merged = []
        for guest_range in [(0, 0), (0, 37), (37, 37), (37, 90), (90, 90)]:
            shard, _ = generate(cfg, guest_range=guest_range)
            merged += dataset_to_records(shard)
        assert merged == list(dataset_to_records(reference_generate(cfg)))

    @pytest.mark.parametrize("lo, hi", [(0.25, 1.75), (1.0, 180.0),
                                        (0.0, 365.0)])
    def test_uniform_draw_is_generator_uniform(self, lo, hi):
        """``generate`` draws its search gaps, check-in horizons and start
        days as ``lo + (hi - lo) * rng.random()``, where the reference
        calls ``Generator.uniform(lo, hi)``: the two give the same bits on
        the same stream."""
        n = 10 ** 5
        ours, numpys = np.random.default_rng(11), np.random.default_rng(11)
        got = np.array([lo + (hi - lo) * ours.random() for _ in range(n)])
        want = np.array([numpys.uniform(lo, hi) for _ in range(n)])
        assert got.tobytes() == want.tobytes()


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

    def test_normalized_context(self):
        raw = np.array([135.0, 7.0, 0.3, -0.2])
        np.testing.assert_allclose(self.world.normalized_context(raw),
                                   [0.5, 0.5, 0.3, -0.2], rtol=0, atol=1e-15)

    def search_logits(self, context, rows):
        """The logits of one search, columns in ``LABELS`` order."""
        return self.world.logits(context[None], rows[None])[0]

    def test_stage_logits_match_hand_computation(self):
        context = np.array([45.0, 2.0, 0.5, -1.0])
        rows = np.array([0, 3, 7])
        got = self.search_logits(context, rows)[:, :len(POSITIVE_CHAIN)]
        ctx = reference_context(self.cfg, context)
        d_l = self.cfg.listing_feature_dim
        x = self.world.listing_features[rows]
        for j, name in enumerate(POSITIVE_CHAIN):
            model = self.cfg.stage_coefficients[name]
            want = (x @ model.weights[:d_l] + ctx @ model.weights[d_l:]
                    + model.bias)
            np.testing.assert_array_equal(got[:, j], want)

    def test_negative_logits_include_all_couplings(self):
        context = np.array([170.0, 5.0, -0.4, 0.8])
        rows = np.array([2, 11])
        got = self.search_logits(context, rows)[:, len(POSITIVE_CHAIN):]
        ctx = reference_context(self.cfg, context)
        d_l = self.cfg.listing_feature_dim
        click = self.cfg.stage_coefficients["c"]
        x = self.world.listing_features[rows]
        for j, name in enumerate(NEGATIVE_MILESTONES):
            model = self.cfg.negative_coefficients[name]
            want = (x @ model.weights[:d_l] + ctx @ model.weights[d_l:]
                    + model.bias)
            want += self.cfg.ctr_negative_coupling * (
                x @ click.weights[:d_l] + click.bias)
            if name == "rej":
                want += self.cfg.days_ahead_ushape_strength * (
                    ctx[0] ** 2 - 0.5)
            want += self.cfg.late_journey_negative_coupling * ctx[1]
            np.testing.assert_array_equal(got[:, j], want)

    def test_conversion_probability_is_stage_product(self):
        context = np.array([80.0, 1.0, 0.0, 0.0])
        rows = np.arange(10)
        got = self.world.true_unc_probability(context[None], rows[None])[0]
        stages = self.search_logits(context, rows)[:, :len(POSITIVE_CHAIN)]
        want = expit(stages).prod(axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-14)
        assert np.all(got > 0) and np.all(got < 1)

    def test_unknown_listing_rejected(self):
        with pytest.raises(ConfigError):
            self.world.rows_for_ids(["listing-does-not-exist"])

    def test_id_map_is_not_passed(self):
        with pytest.raises(TypeError):
            WorldTruth(self.cfg, self.world.listing_ids,
                       self.world.listing_features,
                       id_to_row={self.world.listing_ids[0]: 7})

    @pytest.mark.parametrize("make_config", [
        lambda: default_generator_config(n_guests=5, seed=13),
        lambda: benchmark_generator_config(n_guests=5, seed=13),
    ], ids=["default", "benchmark"])
    def test_rows_for_ids_follow_the_id_order(self, make_config):
        world = build_world(make_config())
        ids = list(world.listing_ids)
        np.testing.assert_array_equal(world.rows_for_ids(ids[::-1]),
                                      [ids.index(lid) for lid in ids[::-1]])

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "world.json"
        save_world(self.world, path)
        back = load_world(path)
        assert back.listing_ids == self.world.listing_ids
        np.testing.assert_array_equal(back.listing_features,
                                      self.world.listing_features)
        context = np.array([[100.0, 3.0, 0.2, 0.1]])
        rows = np.arange(self.cfg.n_listings)[None]
        np.testing.assert_array_equal(
            back.true_unc_probability(context, rows),
            self.world.true_unc_probability(context, rows))

    @pytest.mark.parametrize("mismatch", [
        lambda rec: rec.update(listing_features=[
            row[:5] for row in rec["listing_features"]]),
        lambda rec: rec.update(listing_ids=rec["listing_ids"][:10]),
        lambda rec: rec.update(listing_features=rec["listing_features"][:-1]),
        lambda rec: rec["listing_features"][3].pop(),
        lambda rec: rec["listing_features"][0].__setitem__(0, float("nan")),
        lambda rec: rec["listing_ids"].__setitem__(1, rec["listing_ids"][0]),
        lambda rec: rec["listing_ids"].__setitem__(2, 2),
    ], ids=["feature-width", "id-count", "row-count", "ragged", "non-finite",
            "repeated-id", "non-string-id"])
    def test_load_rejects_a_world_that_does_not_fit_its_config(
            self, tmp_path, mismatch):
        path = tmp_path / "world.json"
        save_world(self.world, path)
        rec = json.loads(path.read_text())
        mismatch(rec)
        path.write_text(json.dumps(rec))
        with pytest.raises(SchemaMismatchError):
            load_world(path)

    def test_load_rejects_other_records(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"record":"schema"}\n')
        with pytest.raises(SchemaMismatchError):
            load_world(path)

    @pytest.mark.parametrize("value", [True, "0.5", None, [0.5]],
                             ids=["boolean", "numeric-string", "null", "list"])
    def test_load_rejects_a_feature_that_is_no_number(self, tmp_path, value):
        path = tmp_path / "world.json"
        save_world(self.world, path)
        rec = json.loads(path.read_text())
        rec["listing_features"][0][0] = value
        path.write_text(json.dumps(rec))
        with pytest.raises(SchemaMismatchError, match="numeric matrix"):
            load_world(path)

    def test_load_reads_integer_features_as_floats(self, tmp_path):
        path = tmp_path / "world.json"
        save_world(self.world, path)
        rec = json.loads(path.read_text())
        rec["listing_features"][0][0] = 2
        path.write_text(json.dumps(rec))
        back = load_world(path)
        assert back.listing_features[0, 0] == 2.0
        np.testing.assert_array_equal(back.listing_features[1:],
                                      self.world.listing_features[1:])

    def test_load_rejects_a_byte_that_is_no_utf8(self, tmp_path):
        path = tmp_path / "world.json"
        save_world(self.world, path)
        text = path.read_bytes()
        at = text.index(b'"listing_ids"')
        path.write_bytes(text[:at] + b"\xff" + text[at:])
        with pytest.raises(SchemaMismatchError, match="UTF-8"):
            load_world(path)

    def test_load_rejects_a_top_level_list(self, tmp_path):
        path = tmp_path / "world.json"
        path.write_text('[{"record":"world"}]\n')
        with pytest.raises(SchemaMismatchError):
            load_world(path)

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "world.json"
        save_world(self.world, path)
        path.write_text(path.read_text()[:100])
        with pytest.raises(SchemaMismatchError, match="JSON"):
            load_world(path)

    @pytest.mark.parametrize("key", ["listing_features", "listing_ids",
                                     "config"])
    def test_load_rejects_a_missing_key(self, tmp_path, key):
        path = tmp_path / "world.json"
        save_world(self.world, path)
        rec = json.loads(path.read_text())
        del rec[key]
        path.write_text(json.dumps(rec))
        with pytest.raises(SchemaMismatchError, match=key):
            load_world(path)


def true_ranking(world: WorldTruth, context, listing_ids=None) -> list[str]:
    """Listing ids ordered by true conversion probability, ties by id."""
    if listing_ids is None:
        listing_ids = list(world.listing_ids)
    else:
        listing_ids = list(listing_ids)
    rows = world.rows_for_ids(listing_ids)
    p = world.true_unc_probability(np.asarray(context)[None], rows[None])[0]
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
        cfg = default_generator_config(n_guests=5, seed=2, n_listings=3,
                                       listings_per_search=2)
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
    labels = dataset.labels
    ids, first, codes = np.unique(
        dataset.listing_ids[dataset.listing_index], return_index=True,
        return_inverse=True)
    n = len(ids)
    imp = np.bincount(codes, minlength=n)
    clk = np.bincount(codes[labels["c"]], minlength=n)
    eligible = labels["req"] & ~labels["book"]
    elig = np.bincount(codes[eligible], minlength=n)
    rej = np.bincount(codes[eligible & labels["rej"]], minlength=n)
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
            labels = dataset.labels
            eligible = (labels["req"] & ~labels["book"]) | labels["book"]
            prev = dataset.context_features[dataset.searches.ids[eligible], 1]
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
