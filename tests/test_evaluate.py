"""Tests for the offline evaluation harness.

The NDCG implementation is checked against a brute-force scorer written
independently below (explicit relevance vector, explicit discount sum)
across a thousand random cases. Multi-seed protocols are checked for
exact reproducibility, paired-zero self-comparison, and agreement
between sequential and parallel execution. Coefficient curves are
checked against hand-recomputed bucket means.
"""

import csv
import hashlib
import math

import numpy as np
import pytest

from conftest import tiny_manual_dataset
from journeyrank import evaluate as ev
from journeyrank.dataio import dataset_from_records, dataset_to_records
from journeyrank.domain import POSITIVE_CHAIN
from journeyrank.errors import ConfigError, ContractError, SchemaMismatchError
from journeyrank.model import (
    baseline_model_config,
    default_model_config,
    train,
)
from journeyrank.simulate import default_generator_config, generate


def brute_ndcg(ranked_ids, positive_ids):
    """Independent reference: explicit relevance vector and discount sum."""
    positives = set(positive_ids)
    rel = np.array([1.0 if lid in positives else 0.0 for lid in ranked_ids])
    discounts = 1.0 / np.log2(np.arange(2, len(rel) + 2))
    dcg = float(np.sum(rel * discounts))
    ideal_rel = np.sort(rel)[::-1]
    idcg = float(np.sum(ideal_rel * discounts))
    return dcg / idcg


def params_digest(model):
    h = hashlib.sha256()
    for name in sorted(model.params.names()):
        h.update(name.encode())
        h.update(model.params[name].values.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def small_data():
    dataset, world = generate(default_generator_config(n_guests=150, seed=9))
    return dataset, world


@pytest.fixture(scope="module")
def trained_full(small_data):
    dataset, _ = small_data
    train_ds, eval_ds = ev.prepare_split(dataset)
    config = default_model_config(
        dataset.schema.listing_dim, dataset.schema.context_dim,
        embedding_dim=6, tower_hidden=(8,), combination_hidden=(4,))
    model, _ = train(config, train_ds, 1, batch_size=64)
    return model, train_ds, eval_ds


def ndcg_of_ranking(ranked_ids, positive_ids):
    """Segment NDCG of a single search given as a ranking of ids."""
    flags = np.array([lid in positive_ids for lid in ranked_ids])
    ndcg, has_positive = ev.ndcg_binary(flags, np.array([0, len(flags)]))
    assert has_positive.tolist() == [True]
    return float(ndcg[0])


class TestNdcgBinary:
    def test_positive_at_rank_one_is_perfect(self):
        assert ndcg_of_ranking(["a", "b", "c"], {"a"}) == 1.0
        assert ndcg_of_ranking(["a"], {"a"}) == 1.0

    def test_single_positive_at_last_of_three(self):
        value = ndcg_of_ranking(["x", "y", "z"], {"z"})
        np.testing.assert_allclose(value, 1.0 / math.log2(4.0), rtol=1e-15)
        np.testing.assert_allclose(value, 0.5, rtol=1e-15)

    def test_matches_brute_force_on_random_cases(self):
        """1000 random searches scored in one call, one segment each."""
        rng = np.random.default_rng(2024)
        flags, starts, want = [], [0], []
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            ids = [f"L{k}" for k in range(n)]
            n_pos = int(rng.integers(1, n + 1))
            positives = set(rng.choice(ids, size=n_pos, replace=False))
            ranked = [ids[k] for k in rng.permutation(n)]
            flags.extend(lid in positives for lid in ranked)
            starts.append(len(flags))
            want.append(brute_ndcg(ranked, positives))
        ndcg, has_positive = ev.ndcg_binary(np.array(flags), np.array(starts))
        assert has_positive.all()
        np.testing.assert_allclose(ndcg, want, rtol=0, atol=1e-12)

    def test_ideal_ordering_scores_exactly_one(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            n_pos = int(rng.integers(1, n + 1))
            ranked = [f"L{k}" for k in range(n)]
            positives = set(ranked[:n_pos])
            assert ndcg_of_ranking(ranked, positives) == 1.0

    def test_permuting_below_lowest_positive_changes_nothing(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(4, 20))
            ids = [f"L{k}" for k in range(n)]
            last_pos = int(rng.integers(0, n - 2))
            positives = set(rng.choice(ids[:last_pos + 1],
                                       size=int(rng.integers(1, last_pos + 2)),
                                       replace=False)) | {ids[last_pos]}
            before = ndcg_of_ranking(ids, positives)
            tail = ids[last_pos + 1:]
            shuffled = ids[:last_pos + 1] + [tail[k]
                                             for k in rng.permutation(len(tail))]
            assert ndcg_of_ranking(shuffled, positives) == before

    def test_swapping_positive_upward_strictly_improves(self):
        ranked = ["n0", "n1", "p", "n2"]
        low = ndcg_of_ranking(ranked, {"p"})
        high = ndcg_of_ranking(["n0", "p", "n1", "n2"], {"p"})
        assert high > low

    def test_search_without_positive_is_skipped(self):
        flags = np.array([False, False, False, True, False, False])
        ndcg, has_positive = ev.ndcg_binary(flags, np.array([0, 2, 4, 6]))
        assert has_positive.tolist() == [False, True, False]
        assert ndcg.tolist() == [0.0, 1.0 / math.log2(3.0), 0.0]


class TestNdcgReport:
    def test_mean_outside_unit_interval_is_refused(self):
        with pytest.raises(ContractError):
            ev.NdcgReport(mean=1.2, per_seed=(1.2,), ci_half_width=0.0,
                          n_searches=1, n_skipped=0)

    def test_negative_ci_is_refused(self):
        with pytest.raises(ContractError):
            ev.NdcgReport(mean=0.5, per_seed=(0.5,), ci_half_width=-0.1,
                          n_searches=1, n_skipped=0)

    def test_record_roundtrip_fields(self):
        report = ev.NdcgReport(mean=0.75, per_seed=(0.7, 0.8),
                               ci_half_width=0.05, n_searches=40, n_skipped=3)
        record = report.to_record()
        assert record["mean"] == 0.75
        assert record["per_seed"] == [0.7, 0.8]
        assert record["n_skipped"] == 3


class TestTInterval:
    def test_matches_hand_computed_value(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        t_crit = 2.7764451051977987
        expected = t_crit * values.std(ddof=1) / math.sqrt(5.0)
        np.testing.assert_allclose(ev.t_interval_half_width(values),
                                   expected, rtol=1e-12)

    def test_single_value_is_refused(self):
        with pytest.raises(ConfigError):
            ev.t_interval_half_width(np.array([1.0]))

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 30, 100, 1000])
    def test_equals_scipy_stats_quantile(self, n):
        from scipy import stats
        values = np.random.default_rng(n).normal(size=n)
        sem = values.std(ddof=1) / math.sqrt(n)
        expected = stats.t.ppf(0.975, n - 1) * sem
        assert ev.t_interval_half_width(values) == expected


def reversed_scorer(scorer):
    def wrapped(searches):
        return -np.asarray(scorer(searches))
    return wrapped


def random_scorer(seed: int):
    """Deterministic noise scorer (stateful stream, fixed per seed)."""
    rng = np.random.default_rng(seed)
    def scorer(searches):
        return rng.normal(size=searches.n_impressions)
    return scorer


class TestScorers:
    def test_oracle_beats_random_beats_reversed(self, small_data):
        dataset, world = small_data
        oracle = ev.evaluate_with_scorer(dataset, ev.oracle_scorer(world))
        rand = ev.evaluate_with_scorer(dataset, random_scorer(4))
        rev = ev.evaluate_with_scorer(
            dataset, reversed_scorer(ev.oracle_scorer(world)))
        for task in POSITIVE_CHAIN:
            assert oracle[task].mean > rand[task].mean > rev[task].mean

    def test_oracle_ceiling_pinned_below_one(self, small_data):
        dataset, world = small_data
        reports = ev.evaluate_with_scorer(dataset, ev.oracle_scorer(world))
        assert reports["unc"].mean < 1.0
        np.testing.assert_allclose(reports["unc"].mean,
                                   0.8152425967785846, rtol=0, atol=1e-12)
        np.testing.assert_allclose(reports["c"].mean,
                                   0.7338972755146181, rtol=0, atol=1e-12)

    def test_random_scorer_pinned(self, small_data):
        dataset, _ = small_data
        reports = ev.evaluate_with_scorer(dataset, random_scorer(4))
        np.testing.assert_allclose(reports["unc"].mean,
                                   0.5045980699364542, rtol=0, atol=1e-12)

    def test_reversed_oracle_pinned(self, small_data):
        dataset, world = small_data
        reports = ev.evaluate_with_scorer(
            dataset, reversed_scorer(ev.oracle_scorer(world)))
        np.testing.assert_allclose(reports["unc"].mean,
                                   0.3339449931672878, rtol=0, atol=1e-12)

    def test_random_scorer_matches_permutation_expectation(self, small_data):
        dataset, _ = small_data
        reports = ev.evaluate_with_scorer(dataset, random_scorer(4))
        rng = np.random.default_rng(123)
        total, n = 0.0, 0
        searches = [s for rec in dataset_to_records(dataset)
                    for s in rec["searches"]]
        for search in searches:
            ids = [imp["listing_id"] for imp in search["impressions"]]
            positives = {imp["listing_id"] for imp in search["impressions"]
                         if "unc" in imp["labels"]}
            if not positives:
                continue
            acc = 0.0
            for _ in range(200):
                perm = rng.permutation(len(ids))
                acc += brute_ndcg([ids[k] for k in perm], positives)
            total += acc / 200.0
            n += 1
        expectation = total / n
        assert abs(reports["unc"].mean - expectation) < 0.03

    def test_skip_counts_partition_searches(self, small_data):
        dataset, world = small_data
        reports = ev.evaluate_with_scorer(dataset, ev.oracle_scorer(world))
        for task in POSITIVE_CHAIN:
            assert (reports[task].n_searches + reports[task].n_skipped
                    == dataset.n_searches)

    def test_milestone_counts_shrink_along_funnel(self, small_data):
        dataset, world = small_data
        reports = ev.evaluate_with_scorer(dataset, ev.oracle_scorer(world))
        counts = [reports[task].n_searches for task in POSITIVE_CHAIN[:-1]]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_scorer_with_wrong_shape_is_refused(self, small_data):
        dataset, _ = small_data
        def bad_scorer(searches):
            return np.zeros(searches.n_impressions + 1)
        with pytest.raises(ContractError):
            ev.evaluate_with_scorer(dataset, bad_scorer)


    def test_constant_scorer_ranks_by_listing_id(self, small_data):
        dataset, _ = small_data
        reports = ev.evaluate_with_scorer(
            dataset, lambda searches: np.zeros(searches.n_impressions))
        searches = [s for rec in dataset_to_records(dataset)
                    for s in rec["searches"]]
        for task in POSITIVE_CHAIN:
            values = []
            for search in searches:
                ids = [imp["listing_id"] for imp in search["impressions"]]
                positives = {imp["listing_id"] for imp in search["impressions"]
                             if task in imp["labels"]}
                if positives:
                    values.append(brute_ndcg(sorted(ids), positives))
            assert reports[task].n_searches == len(values)
            assert reports[task].n_skipped == len(searches) - len(values)
            np.testing.assert_allclose(reports[task].mean, np.mean(values),
                                       rtol=0, atol=1e-12)


class TestEvaluateModel:
    def test_trained_model_pinned_and_between_bounds(self, small_data,
                                                     trained_full):
        dataset, world = small_data
        model, _, eval_ds = trained_full
        reports = ev.evaluate(model, eval_ds)
        oracle = ev.evaluate_with_scorer(eval_ds, ev.oracle_scorer(world))
        assert 0.0 < reports["unc"].mean < oracle["unc"].mean
        np.testing.assert_allclose(reports["unc"].mean,
                                   0.48638198984630626, rtol=1e-10)

    def test_evaluation_does_not_mutate_parameters(self, trained_full):
        model, _, eval_ds = trained_full
        before = params_digest(model)
        ev.evaluate(model, eval_ds)
        assert params_digest(model) == before

    def test_evaluation_is_deterministic(self, trained_full):
        model, _, eval_ds = trained_full
        first = ev.evaluate(model, eval_ds)
        second = ev.evaluate(model, eval_ds)
        for task in POSITIVE_CHAIN:
            assert first[task].to_record() == second[task].to_record()

    def test_dataset_without_searches_reports_zero_counts(self,
                                                          trained_full):
        model, _, eval_ds = trained_full
        reports = ev.evaluate(model, dataset_from_records(eval_ds.schema, []))
        for task in POSITIVE_CHAIN:
            assert reports[task].to_record() == {
                "mean": 0.0, "per_seed": [0.0], "ci_half_width": 0.0,
                "n_searches": 0, "n_skipped": 0}

    def test_schema_mismatch_is_refused(self, trained_full):
        model, _, _ = trained_full
        with pytest.raises(SchemaMismatchError):
            ev.evaluate(model, tiny_manual_dataset())


class TestCompare:
    def test_self_comparison_is_exactly_zero(self, small_data):
        dataset, _ = small_data
        config = baseline_model_config(
            dataset.schema.listing_dim, dataset.schema.context_dim,
            embedding_dim=6, tower_hidden=(8,))
        report = ev.compare(config, config, dataset, seeds=(0, 1),
                            settings=ev.TrainEvalSettings(epochs=1,
                                                          batch_size=64))
        assert report.deltas == (0.0, 0.0)
        assert report.mean_delta == 0.0
        assert report.ci_half_width == 0.0
        assert report.per_seed_a == report.per_seed_b

    def test_two_architectures_report_full_fields(self, small_data):
        dataset, _ = small_data
        base = baseline_model_config(
            dataset.schema.listing_dim, dataset.schema.context_dim,
            embedding_dim=6, tower_hidden=(8,))
        full = default_model_config(
            dataset.schema.listing_dim, dataset.schema.context_dim,
            embedding_dim=6, tower_hidden=(8,), combination_hidden=(4,))
        report = ev.compare(full, base, dataset, seeds=(0, 1),
                            settings=ev.TrainEvalSettings(epochs=1,
                                                          batch_size=64),
                            label_a="full", label_b="baseline")
        assert report.label_a == "full"
        assert len(report.per_seed_a) == len(report.per_seed_b) == 2
        assert report.ci_half_width >= 0.0
        np.testing.assert_allclose(report.mean_delta,
                                   report.mean_a - report.mean_b, rtol=1e-12)
        table = ev.format_compare_table(report)
        assert "full" in table and "baseline" in table
        assert len(table.splitlines()) == 5

    def test_comparison_is_reproducible(self, small_data):
        dataset, _ = small_data
        config = baseline_model_config(
            dataset.schema.listing_dim, dataset.schema.context_dim,
            embedding_dim=6, tower_hidden=(8,))
        settings = ev.TrainEvalSettings(epochs=1, batch_size=64)
        first = ev.compare(config, config, dataset, seeds=(0, 1),
                           settings=settings)
        second = ev.compare(config, config, dataset, seeds=(0, 1),
                            settings=settings)
        assert first.to_record() == second.to_record()


@pytest.fixture(scope="module")
def cells(small_data):
    dataset, _ = small_data
    return ev.run_ablation(
        dataset, seeds=(0, 1),
        settings=ev.TrainEvalSettings(epochs=1, batch_size=64),
        embedding_dim=6)


class TestAblation:
    def test_cell_names_and_order(self, cells):
        assert [c.name for c in cells] == ["unc", "req+book+unc", "c+unc",
                                           "all6"]
        assert cells[3].tasks == POSITIVE_CHAIN

    def test_baseline_cell_is_zero_by_definition(self, cells):
        baseline = cells[0]
        assert baseline.mean_delta == 0.0
        assert baseline.ci_half_width == 0.0
        assert baseline.parameter_delta == 0
        assert baseline.search_delta == 0

    def test_parameter_deltas_count_extra_heads(self, cells):
        deltas = {c.name: c.parameter_delta for c in cells}
        per_head = deltas["c+unc"]
        assert per_head > 0
        assert deltas["req+book+unc"] == 2 * per_head
        assert deltas["all6"] == 5 * per_head

    def test_search_counts_grow_with_task_coverage(self, cells):
        counts = {c.name: c.n_searches_with_positives for c in cells}
        assert counts["unc"] <= counts["req+book+unc"] <= counts["all6"]
        assert counts["c+unc"] <= counts["all6"]
        deltas = {c.name: c.search_delta for c in cells}
        assert deltas["all6"] == counts["all6"] - counts["unc"]

    def test_parallel_jobs_match_sequential(self, small_data, cells):
        dataset, _ = small_data
        parallel = ev.run_ablation(
            dataset, seeds=(0, 1),
            settings=ev.TrainEvalSettings(epochs=1, batch_size=64),
            embedding_dim=6, jobs=4)
        for a, b in zip(cells, parallel):
            assert a.to_record() == b.to_record()

    def test_table_has_one_row_per_cell(self, cells):
        table = ev.format_ablation_table(cells)
        assert len(table.splitlines()) == 5
        assert "req+book+unc" in table

    def test_cells_without_baseline_are_refused(self, small_data):
        dataset, _ = small_data
        with pytest.raises(ConfigError):
            ev.run_ablation(dataset, seeds=(0, 1),
                            cells=(("c+unc", ("c", "unc")),))

    def test_cell_tasks_must_end_at_conversion(self, small_data):
        dataset, _ = small_data
        with pytest.raises(ConfigError):
            ev.run_ablation(dataset, seeds=(0, 1),
                            cells=(("unc", ("unc",)),
                                   ("broken", ("c", "lc"))))


PROTOCOL_SETTINGS = ev.TrainEvalSettings(epochs=1, batch_size=64)


def full_and_baseline(dataset):
    """The full model and the baseline in the ablation cells' architecture."""
    dims = (dataset.schema.listing_dim, dataset.schema.context_dim)
    return (default_model_config(*dims, embedding_dim=6),
            baseline_model_config(*dims, embedding_dim=6))


def run_protocol(protocol, dataset, seeds=(0, 1), jobs=1):
    if protocol == "compare":
        full, base = full_and_baseline(dataset)
        return ev.compare(full, base, dataset, seeds,
                          settings=PROTOCOL_SETTINGS, jobs=jobs)
    return ev.run_ablation(dataset, seeds, settings=PROTOCOL_SETTINGS,
                           embedding_dim=6, jobs=jobs)


@pytest.fixture(scope="module")
def full_vs_baseline(small_data):
    return run_protocol("compare", small_data[0])


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swaps the process pool for an in-process stand-in; returns the
    worker counts it is asked for."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(ev, "ProcessPoolExecutor", RecordingPool)
    return sizes


class TestPairedProtocol:
    """``compare`` and ``run_ablation`` share one seed check, one split and
    one job runner."""

    @pytest.mark.parametrize("protocol", ["compare", "ablate"])
    def test_single_seed_is_refused(self, small_data, protocol):
        with pytest.raises(ConfigError, match="at least 2 distinct seeds"):
            run_protocol(protocol, small_data[0], seeds=(0,))

    @pytest.mark.parametrize("protocol", ["compare", "ablate"])
    def test_duplicate_seeds_are_refused(self, small_data, protocol):
        with pytest.raises(ConfigError, match="at least 2 distinct seeds"):
            run_protocol(protocol, small_data[0], seeds=(1, 1))

    @pytest.mark.parametrize("protocol", ["compare", "ablate"])
    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_are_refused(self, small_data, protocol, jobs):
        with pytest.raises(ConfigError, match="jobs must be at least 1"):
            run_protocol(protocol, small_data[0], jobs=jobs)

    def test_parallel_compare_matches_sequential(self, small_data,
                                                 full_vs_baseline):
        parallel = run_protocol("compare", small_data[0], jobs=2)
        assert parallel.to_record() == full_vs_baseline.to_record()

    def test_pool_never_outnumbers_the_runs(self, small_data,
                                            full_vs_baseline, pool_sizes):
        report = run_protocol("compare", small_data[0], jobs=500)
        assert pool_sizes == [4]
        assert report.to_record() == full_vs_baseline.to_record()

    def test_one_job_starts_no_pool(self, small_data, full_vs_baseline,
                                    pool_sizes):
        report = run_protocol("compare", small_data[0], jobs=1)
        assert pool_sizes == []
        assert report.to_record() == full_vs_baseline.to_record()

    def test_ablation_baseline_cell_matches_compare(self, cells,
                                                    full_vs_baseline):
        assert cells[0].tasks == ("unc",)
        assert cells[0].per_seed_ndcg == full_vs_baseline.per_seed_b
        assert cells[0].mean_ndcg == full_vs_baseline.mean_b


class TestNtcCurves:
    def test_bucket_edges_and_counts(self, small_data, trained_full):
        dataset, _ = small_data
        model, _, eval_ds = trained_full
        curve = ev.ntc_curves(model, eval_ds, "days_ahead_of_checkin",
                              n_buckets=4)
        edges = np.array(curve.edges)
        assert np.all(np.diff(edges) > 0)
        assert sum(curve.counts) == eval_ds.n_searches
        assert set(curve.signed) == set(model.config.twiddler_tasks)
        assert curve.n_buckets == 4

    def test_bucket_means_match_hand_recomputation(self, trained_full):
        from journeyrank.model import blend_coefficients
        model, _, eval_ds = trained_full
        curve = ev.ntc_curves(model, eval_ds, "num_previous_searches",
                              n_buckets=3)
        packed = eval_ds.searches
        col = eval_ds.schema.context_index("num_previous_searches")
        values = packed.context_features[:, col]
        alpha_base, alpha_t = blend_coefficients(model,
                                                 packed.context_features)
        edges = np.array(curve.edges)
        for task in curve.signed:
            ratio = alpha_t[task] / alpha_base
            for b in range(curve.n_buckets):
                if b < curve.n_buckets - 1:
                    mask = (values >= edges[b]) & (values < edges[b + 1])
                else:
                    mask = values >= edges[b]
                np.testing.assert_allclose(curve.signed[task][b],
                                           ratio[mask].mean(), rtol=1e-12)
                np.testing.assert_allclose(curve.magnitude[task][b],
                                           np.abs(ratio[mask]).mean(),
                                           rtol=1e-12)

    def test_magnitude_dominates_signed(self, trained_full):
        model, _, eval_ds = trained_full
        curve = ev.ntc_curves(model, eval_ds, "days_ahead_of_checkin",
                              n_buckets=4)
        for task in curve.signed:
            for s, m in zip(curve.signed[task], curve.magnitude[task]):
                assert m >= abs(s) - 1e-12

    def test_zeroed_combination_gives_flat_zero_curves(self):
        dataset = tiny_manual_dataset()
        config = default_model_config(
            dataset.schema.listing_dim, dataset.schema.context_dim,
            embedding_dim=4, tower_hidden=(5,), combination_hidden=(3,))
        model, _ = train(config, dataset, 0)
        for name in model.params.names():
            if name.startswith("combination"):
                model.params[name].values[...] = 0.0
        curve = ev.ntc_curves(model, dataset, "days_ahead_of_checkin",
                              n_buckets=2)
        for task in curve.signed:
            assert all(v == 0.0 for v in curve.signed[task])
            assert all(v == 0.0 for v in curve.magnitude[task])
        with pytest.raises(ContractError):
            ev.ntc_curves(model, dataset, "days_ahead_of_checkin",
                          n_buckets=2, normalize_by_first=True)

    def test_normalized_first_bucket_is_unit(self, trained_full):
        model, _, eval_ds = trained_full
        curve = ev.ntc_curves(model, eval_ds, "days_ahead_of_checkin",
                              n_buckets=4, normalize_by_first=True)
        for task in curve.signed:
            assert abs(abs(curve.signed[task][0]) - 1.0) < 1e-12
            assert abs(curve.magnitude[task][0] - 1.0) < 1e-12

    def test_constant_feature_warns_and_uses_single_bucket(self):
        dataset = tiny_manual_dataset(constant_prev=2.0)
        config = default_model_config(
            dataset.schema.listing_dim, dataset.schema.context_dim,
            embedding_dim=4, tower_hidden=(5,), combination_hidden=(3,))
        model, _ = train(config, dataset, 0)
        with pytest.warns(RuntimeWarning):
            curve = ev.ntc_curves(model, dataset, "num_previous_searches",
                                  n_buckets=4)
        assert curve.n_buckets == 1
        assert curve.counts == (3,)

    def test_model_without_combination_is_refused(self, small_data):
        dataset, _ = small_data
        config = baseline_model_config(
            dataset.schema.listing_dim, dataset.schema.context_dim,
            embedding_dim=6, tower_hidden=(8,))
        train_ds, eval_ds = ev.prepare_split(dataset)
        model, _ = train(config, train_ds, 0)
        with pytest.raises(ConfigError):
            ev.ntc_curves(model, eval_ds, "days_ahead_of_checkin")

    def test_unknown_feature_is_refused(self, trained_full):
        model, _, eval_ds = trained_full
        with pytest.raises(ConfigError):
            ev.ntc_curves(model, eval_ds, "nonexistent_feature")

    def test_csv_roundtrip(self, tmp_path, trained_full):
        model, _, eval_ds = trained_full
        curve = ev.ntc_curves(model, eval_ds, "days_ahead_of_checkin",
                              n_buckets=3)
        path = tmp_path / "curves.csv"
        ev.write_ntc_csv(curve, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["bucket", "low", "high", "count", "task",
                           "ntc_signed", "ntc_magnitude"]
        assert len(rows) == 1 + curve.n_buckets * len(curve.signed)
        for row in rows[1:]:
            b, task = int(row[0]), row[4]
            assert float(row[5]) == curve.signed[task][b]
            assert float(row[6]) == curve.magnitude[task][b]


class TestFormatting:
    def test_ndcg_table_lists_every_milestone(self, small_data):
        dataset, world = small_data
        reports = ev.evaluate_with_scorer(dataset, ev.oracle_scorer(world))
        table = ev.format_ndcg_table(reports)
        lines = table.splitlines()
        assert len(lines) == 1 + len(POSITIVE_CHAIN)
        for task in POSITIVE_CHAIN:
            assert any(line.startswith(task) for line in lines[1:])

    def test_ntc_table_has_one_row_per_bucket(self, trained_full):
        model, _, eval_ds = trained_full
        curve = ev.ntc_curves(model, eval_ds, "days_ahead_of_checkin",
                              n_buckets=4)
        table = ev.format_ntc_table(curve)
        assert len(table.splitlines()) == 1 + curve.n_buckets
