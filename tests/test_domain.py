"""Label taxonomy, attribution, filtering, validation, and task weights.

Datasets are built by hand from journey records, the same form the JSONL
file holds. The record-level loops below (attribution and filtering) are
the independent references the columnar operations are checked against.
"""

import numpy as np
import pytest

from conftest import dataset_to_records
from journeyrank.dataio import (dataset_from_records, load_dataset,
                                save_dataset)
from journeyrank.domain import (
    ALL_MILESTONES,
    LABELS,
    NEGATIVE_MILESTONES,
    NEGATIVE_PARENT,
    POSITIVE_CHAIN,
    Dataset,
    DatasetSchema,
    attribute_labels,
    empirical_task_weight,
    filter_training_searches,
    label_violations,
    milestone_counts,
    select_impressions,
    validate_dataset,
)
from journeyrank.errors import ConfigError, DataValidationError, UndefinedTaskWeightError
from journeyrank.evaluate import evaluate_with_scorer
from journeyrank.model import NormalizationStats

SCHEMA = DatasetSchema(
    listing_dim=3,
    context_dim=2,
    context_features=("days_ahead_of_checkin", "num_previous_searches"),
    window_days=30.0,
)


def make_impression(listing_id, position, labels=(), features=(0.0, 0.0, 0.0)):
    return {"listing_id": listing_id, "position": position,
            "features": list(features), "labels": {m: True for m in labels}}


def make_search(search_id, t_days, impressions, context=(30.0, 1.0)):
    return {"search_id": search_id, "t_days": t_days, "context": list(context),
            "impressions": list(impressions)}


def make_journey(guest_id, searches):
    return {"guest_id": guest_id, "searches": list(searches)}


def make_dataset(*journeys):
    return dataset_from_records(SCHEMA, journeys)


def chain_labels(depth, *negatives):
    """The first ``depth`` positive milestones plus the given negatives."""
    return POSITIVE_CHAIN[:depth] + negatives


def flags(*milestones):
    """Label columns of a single impression carrying ``milestones``."""
    return {m: np.array([m in milestones]) for m in LABELS}


def violations(*milestones):
    return [kind for kind, mask in label_violations(flags(*milestones)).items()
            if mask[0]]


def label_table(dataset):
    return [
        (s["search_id"], imp["listing_id"], set(imp["labels"]))
        for rec in dataset_to_records(dataset)
        for s in rec["searches"]
        for imp in s["impressions"]
    ]


class TestLabelRules:
    def test_imp_always_true(self):
        ds = make_dataset(make_journey("g0", [make_search("s1", 0.0, [
            make_impression("A", 1, ("imp",)), make_impression("B", 2)])]))
        assert milestone_counts(ds)["imp"] == ds.n_impressions == 2
        assert label_table(ds) == [("s1", "A", set()), ("s1", "B", set())]

    def test_funnel_violation_detected(self):
        assert "funnel consistency" in violations("lc")
        assert violations("c", "lc") == []

    def test_negative_implications(self):
        assert "rej implies req" in violations("rej")
        assert "rej excludes book" in violations(*chain_labels(5, "rej"))
        assert "cbh implies book" in violations(*chain_labels(4, "cbh"))
        assert "cbg implies book" in violations(*chain_labels(2, "cbg"))

    def test_unc_excludes_cancellations(self):
        assert "unc excludes cancellations" in violations(*chain_labels(6, "cbg"))
        assert violations(*chain_labels(6)) == []

    def test_full_chain_consistent(self):
        for depth in range(len(POSITIVE_CHAIN) + 1):
            assert violations(*chain_labels(depth)) == []

    def test_masks_are_per_impression(self):
        rows = [chain_labels(2), ("lc",), chain_labels(6, "cbh"), ()]
        labels = {m: np.array([m in row for row in rows]) for m in LABELS}
        masks = label_violations(labels)
        assert masks["funnel consistency"].tolist() == [False, True, False, False]
        assert masks["unc excludes cancellations"].tolist() == [
            False, False, True, False]

    def test_roundtrip_through_records(self):
        labels = chain_labels(4, "rej")
        ds = make_dataset(make_journey("g0", [make_search("s1", 0.0, [
            make_impression("A", 1, labels), make_impression("B", 2)])]))
        assert label_table(ds)[0] == ("s1", "A", set(labels))

    def test_milestone_order(self):
        assert ALL_MILESTONES == ("imp",) + POSITIVE_CHAIN + NEGATIVE_MILESTONES
        assert LABELS == ALL_MILESTONES[1:]
        assert set(NEGATIVE_PARENT) == set(NEGATIVE_MILESTONES)
        assert set(NEGATIVE_PARENT.values()) <= set(POSITIVE_CHAIN)


def random_raw_journey(rng, guest_id="g0", n_listings=6, allow_negatives=True,
                       respect_terminal_events=False):
    """Raw journey record where listings may recur across searches.

    Every raw label set is individually consistent. With
    ``respect_terminal_events`` a listing never reappears after a booking or
    a negative outcome, which is the structure real pipelines guarantee and
    re-attribution requires; without it, journey-level structure is
    unconstrained so attribution can be fuzzed broadly.
    """
    listings = [f"L{k}" for k in range(n_listings)]
    terminal: set[str] = set()
    searches = []
    for s in range(int(rng.integers(2, 6))):
        pool = [l for l in listings if l not in terminal]
        if len(pool) < 2:
            break
        ids = rng.choice(pool, size=min(int(rng.integers(2, 5)), len(pool)),
                         replace=False)
        imps = []
        for pos, lid in enumerate(ids, start=1):
            depth = int(rng.integers(0, 7)) if rng.random() < 0.6 else 0
            negatives = ()
            if allow_negatives:
                if depth == 4 and rng.random() < 0.5:
                    negatives = ("rej",)
                if depth == 5 and rng.random() < 0.6:
                    negatives = ("cbh" if rng.random() < 0.5 else "cbg",)
            if respect_terminal_events and (depth >= 5 or negatives):
                terminal.add(str(lid))
            imps.append(make_impression(str(lid), pos,
                                        chain_labels(depth, *negatives)))
        searches.append(make_search(f"{guest_id}-s{s}", float(s), imps))
    return make_journey(guest_id, searches)


def brute_force_attribution(record):
    """Scan all (search, listing, milestone) triples of one journey record."""
    searches = record["searches"]
    out = []
    for s_idx, search in enumerate(searches):
        for imp in search["impressions"]:
            lid = imp["listing_id"]
            labels = set()
            for m in POSITIVE_CHAIN:
                if any(m in other["labels"]
                       for later in searches[s_idx:]
                       for other in later["impressions"]
                       if other["listing_id"] == lid):
                    labels.add(m)
            for m in NEGATIVE_MILESTONES:
                if any(m in other["labels"]
                       for other_search in searches
                       for other in other_search["impressions"]
                       if other["listing_id"] == lid):
                    labels.add(m)
            out.append((search["search_id"], lid, labels))
    return out


class TestAttributeLabels:
    def test_booked_item_marked_across_prior_searches(self):
        # listing B is booked (uncancelled) in the 4th search and was shown
        # in searches 2-4; the 1st search never contained it
        searches = [
            make_search("s1", 0.0, [make_impression("A", 1), make_impression("C", 2)]),
            make_search("s2", 1.0, [make_impression("B", 1), make_impression("A", 2)]),
            make_search("s3", 2.0, [make_impression("B", 1, chain_labels(2)),
                                    make_impression("C", 2)]),
            make_search("s4", 3.0, [make_impression("B", 1, chain_labels(6)),
                                    make_impression("A", 2)]),
        ]
        out = attribute_labels(make_dataset(make_journey("g1", searches)))
        by_key = {(s, l): labels for s, l, labels in label_table(out)}
        assert "unc" in by_key[("s2", "B")] and "unc" in by_key[("s3", "B")]
        assert "unc" in by_key[("s4", "B")]
        assert all("unc" not in labels for (s, l), labels in by_key.items()
                   if l != "B")
        assert not any("unc" in labels for (s, _), labels in by_key.items()
                       if s == "s1")

    def test_no_actions_is_identity(self):
        ds = make_dataset(make_journey("g2", [
            make_search(f"s{k}", float(k),
                        [make_impression("A", 1), make_impression("B", 2)])
            for k in range(3)]))
        assert label_table(attribute_labels(ds)) == label_table(ds)

    def test_matches_brute_force_on_random_journeys(self):
        # the listing ids recur in every journey, so this also checks that
        # attribution never crosses a journey boundary
        rng = np.random.default_rng(123)
        records = [random_raw_journey(rng, f"g{k}") for k in range(60)]
        got = label_table(attribute_labels(make_dataset(*records)))
        want = [row for rec in records for row in brute_force_attribution(rec)]
        assert got == want

    def test_idempotent(self):
        rng = np.random.default_rng(321)
        ds = make_dataset(*[random_raw_journey(rng, f"g{k}",
                                               respect_terminal_events=True)
                            for k in range(30)])
        once = attribute_labels(ds)
        twice = attribute_labels(once)
        assert label_table(once) == label_table(twice)

    def test_rejects_inconsistent_raw_labels(self):
        bad = make_dataset(make_journey("g3", [
            make_search("s1", 0.0, [
                make_impression("A", 1, ("lc",)),
                make_impression("B", 2),
            ])]))
        with pytest.raises(DataValidationError,
                           match="guest=g3 search=s1 listing=A: .*funnel consistency"):
            attribute_labels(bad)

    def test_negative_propagates_to_all_searches(self):
        searches = [
            make_search("s1", 0.0, [make_impression("A", 1), make_impression("B", 2)]),
            make_search("s2", 1.0, [make_impression("A", 1, chain_labels(4, "rej")),
                                    make_impression("B", 2)]),
        ]
        out = attribute_labels(make_dataset(make_journey("g4", searches)))
        by_key = {(s, l): labels for s, l, labels in label_table(out)}
        assert "rej" in by_key[("s1", "A")]
        # backward request propagation keeps the labels consistent
        assert "req" in by_key[("s1", "A")]
        assert "rej" not in by_key[("s1", "B")]


def journey_with_pp(guest_id, with_pp):
    depth = 3 if with_pp else 2
    return make_journey(guest_id, [
        make_search(f"{guest_id}-s1", 0.0, [
            make_impression("A", 1, chain_labels(depth)),
            make_impression("B", 2),
        ]),
        make_search(f"{guest_id}-s2", 1.0, [
            make_impression("A", 1),
            make_impression("C", 2),
        ]),
    ])


def attributed(*journeys):
    return attribute_labels(make_dataset(*journeys))


def brute_force_filter(records):
    """The training filter written as a loop over journey records."""
    out = []
    for rec in records:
        if not any("pp" in imp["labels"]
                   for s in rec["searches"] for imp in s["impressions"]):
            continue
        last_book = {}
        for s_idx, s in enumerate(rec["searches"]):
            for imp in s["impressions"]:
                if "book" in imp["labels"]:
                    last_book[imp["listing_id"]] = s_idx
        searches = []
        for s_idx, s in enumerate(rec["searches"]):
            kept = [imp for imp in s["impressions"]
                    if not (imp["listing_id"] in last_book
                            and "book" not in imp["labels"]
                            and s_idx > last_book[imp["listing_id"]])]
            if len(kept) >= 2:
                searches.append({**s, "impressions": kept})
        if searches:
            out.append({**rec, "searches": searches})
    return out


class TestFilterTrainingSearches:
    def test_all_payment_page_journeys_unchanged(self):
        ds = attributed(*[journey_with_pp(f"g{k}", True) for k in range(4)])
        result = filter_training_searches(ds)
        assert result.n_searches_after == ds.n_searches
        assert result.retained_fraction == 1.0
        assert result.warning is None

    def test_no_payment_page_gives_empty_result_and_warning(self):
        ds = attributed(*[journey_with_pp(f"g{k}", False) for k in range(3)])
        result = filter_training_searches(ds)
        assert result.dataset.n_journeys == 0
        assert result.n_searches_after == 0
        assert result.warning is not None

    def test_mixed_dataset_matches_linear_scan(self):
        rng = np.random.default_rng(9)
        ds = attributed(*[random_raw_journey(rng, f"g{k}", allow_negatives=False)
                          for k in range(40)])
        records = list(dataset_to_records(ds))
        result = filter_training_searches(ds)
        want = brute_force_filter(records)
        assert list(dataset_to_records(result.dataset)) == want
        assert set(result.dataset.guest_ids) == {
            rec["guest_id"] for rec in records
            if any("pp" in imp["labels"]
                   for s in rec["searches"] for imp in s["impressions"])}
        assert result.n_journeys_after == len(want)
        assert result.n_searches_after <= result.n_searches_before

    def test_post_booking_impressions_of_booked_listing_dropped(self):
        out = attributed(make_journey("g9", [
            make_search("s1", 0.0, [
                make_impression("A", 1, chain_labels(6)),
                make_impression("B", 2),
            ]),
            make_search("s2", 1.0, [
                make_impression("A", 1),   # booked earlier; stale re-show
                make_impression("C", 2),
                make_impression("D", 3),
            ]),
        ]))
        result = filter_training_searches(out)
        searches = next(dataset_to_records(result.dataset))["searches"]
        assert [s["search_id"] for s in searches] == ["s1", "s2"]
        assert [imp["listing_id"] for imp in searches[1]["impressions"]] == ["C", "D"]

    def test_search_shrinking_below_two_impressions_is_dropped(self):
        out = attributed(make_journey("g10", [
            make_search("s1", 0.0, [
                make_impression("A", 1, chain_labels(6)),
                make_impression("B", 2),
            ]),
            make_search("s2", 1.0, [
                make_impression("A", 1),
                make_impression("C", 2),
            ]),
        ]))
        result = filter_training_searches(out)
        assert result.dataset.search_ids.tolist() == ["s1"]

    def test_never_drops_a_unc_journey(self):
        # uncancelled booking implies a payment-page view by funnel nesting
        ds = attributed(journey_with_pp("g0", True), make_journey("g1", [
            make_search("s1", 0.0, [
                make_impression("A", 1, chain_labels(6)),
                make_impression("B", 2),
            ])]))
        result = filter_training_searches(ds)
        assert "g1" in set(result.dataset.guest_ids)


class TestValidateDataset:
    def test_clean_dataset_accepted(self):
        ds = attributed(*[journey_with_pp(f"g{k}", True) for k in range(3)])
        report = validate_dataset(ds)
        assert report.accepted
        assert report.n_journeys == 3

    def test_funnel_violation_reported(self):
        ds = make_dataset(make_journey("g0", [
            make_search("s1", 0.0, [
                make_impression("A", 1, ("lc",)),
                make_impression("B", 2),
            ])]))
        report = validate_dataset(ds)
        assert report.violations["funnel consistency"] == 1
        assert not report.accepted
        assert report.examples == [
            "guest=g0 search=s1 listing=A: funnel consistency"]

    def test_unc_with_cancellation_reported(self):
        ds = make_dataset(make_journey("g0", [
            make_search("s1", 0.0, [
                make_impression("A", 1, chain_labels(6, "cbg")),
                make_impression("B", 2),
            ])]))
        report = validate_dataset(ds)
        assert report.violations["unc excludes cancellations"] == 1

    def test_structural_violations_reported(self):
        journey = make_journey("g0", [
            make_search("s1", 5.0, [make_impression("A", 1),
                                    make_impression("A", 1)]),
            make_search("s2", 1.0, [make_impression("B", 1)]),
            make_search("s3", 40.0, [make_impression("C", 0),
                                     make_impression("D", 2)]),
        ])
        report = validate_dataset(make_dataset(journey))
        assert report.violations["duplicate position"] == 1
        assert report.violations["duplicate listing"] == 1
        assert report.violations["too few impressions"] == 1
        assert report.violations["searches out of order"] == 1
        assert report.violations["journey window"] == 1
        assert report.violations["position not 1-based"] == 1
        assert report.examples

    def test_non_finite_values_reported(self):
        ds = make_dataset(make_journey("g0", [
            make_search("s1", 0.0, [
                make_impression("A", 1, features=(0.0, float("nan"), 1.0)),
                make_impression("B", 2, features=(float("inf"), 0.0, 0.0)),
            ]),
            make_search("s2", 1.0, [make_impression("C", 1),
                                    make_impression("D", 2)],
                        context=(float("-inf"), 1.0)),
        ]))
        report = validate_dataset(ds)
        assert report.violations["non-finite listing features"] == 2
        assert report.violations["non-finite context"] == 1
        assert not report.accepted

    def test_non_finite_table_row_reported_on_every_impression(self):
        """Two rows of the listing table hold a NaN: every impression
        that shows one is reported, once each, in impression order."""
        good, bad = (0.0, 1.0, 2.0), (float("nan"), 0.0, 0.0)
        ds = make_dataset(make_journey("g0", [
            make_search("s1", 0.0, [make_impression("A", 1, features=bad),
                                    make_impression("B", 2, features=good)]),
            make_search("s2", 1.0, [make_impression("C", 1, features=bad),
                                    make_impression("A", 2, features=bad)]),
        ]))
        assert len(ds.listing_rows) == 3
        report = validate_dataset(ds)
        assert report.violations == {"non-finite listing features": 3}
        assert report.examples == [
            f"guest=g0 search={s} listing={lid}: non-finite listing features"
            for s, lid in (("s1", "A"), ("s2", "C"), ("s2", "A"))]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n_searches", [1, 2])
    def test_non_finite_time_reported(self, bad, n_searches):
        """The order and window rules compare times, so they skip a NaN
        and a lone search's infinite time; the time rule does not."""
        times = [0.0, 1.0][:n_searches - 1] + [bad]
        ds = make_dataset(make_journey("g0", [
            make_search(f"s{k}", t, [make_impression(f"A{k}", 1),
                                     make_impression(f"B{k}", 2)])
            for k, t in enumerate(times)]))
        report = validate_dataset(ds)
        assert report.violations["non-finite time"] == 1
        assert f"search=s{n_searches - 1}: non-finite time" in "".join(
            report.examples)

    @pytest.mark.parametrize("where", ["features", "context"])
    def test_values_past_the_fit_range_reported(self, where):
        """A value past sqrt(max / 8n), n the impressions for listing
        features and the searches for contexts, could overflow a
        normalization fit; at the bound the fit stays finite."""
        n = 4 if where == "features" else 2
        bound = np.sqrt(np.finfo(np.float64).max / (8 * n))

        def dataset(v):
            sign = (1, 1, 1, -1)
            return make_dataset(make_journey("g0", [
                make_search(f"s{s}", float(s), [
                    make_impression(f"L{s}{k}", k + 1, features=(
                        sign[2 * s + k] * v if where == "features" else 0.0,
                        0.0, 0.0)) for k in range(2)],
                    context=(sign[2 * s + 1] * v if where == "context"
                             else 30.0, 1.0))
                for s in range(2)]))

        inside = dataset(bound)
        assert validate_dataset(inside).accepted
        norm = NormalizationStats.fit(inside.listing_rows,
                                      inside.listing_index,
                                      inside.context_features)
        assert all(np.isfinite(v).all() for v in vars(norm).values())
        kind = "listing features" if where == "features" else "context"
        report = validate_dataset(dataset(np.nextafter(bound, np.inf)))
        assert report.violations == {f"{kind} too large to normalize": n}

    def test_multiple_unc_listings_reported(self):
        journey = make_journey("g0", [
            make_search("s1", 0.0, [
                make_impression("A", 1, chain_labels(6)),
                make_impression("B", 2, chain_labels(6)),
            ])])
        report = validate_dataset(make_dataset(journey))
        assert report.violations["multiple unc listings"] == 1

    def test_report_record_is_serializable(self):
        ds = attributed(journey_with_pp("g0", True))
        rec = validate_dataset(ds).to_record()
        assert rec["accepted"] is True
        assert rec["violations"] == {}


def nested_random_dataset(rng, n_journeys=30):
    """Valid dataset with fresh listings per impression (no recurrence)."""
    journeys = []
    counter = 0
    for g in range(n_journeys):
        searches = []
        for s in range(int(rng.integers(1, 4))):
            imps = []
            for pos in range(1, int(rng.integers(2, 6)) + 1):
                depth = int(rng.integers(0, 7))
                negatives = ()
                if depth == 4 and rng.random() < 0.4:
                    negatives = ("rej",)
                if depth == 5 and rng.random() < 0.5:
                    negatives = ("cbh" if rng.random() < 0.5 else "cbg",)
                imps.append(make_impression(f"L{counter}", pos,
                                            chain_labels(depth, *negatives)))
                counter += 1
            searches.append(make_search(f"g{g}-s{s}", float(s), imps))
        journeys.append(make_journey(f"g{g}", searches))
    return make_dataset(*journeys)


class TestListingIdentity:
    """A listing is its id, not its feature row: listing B changes price
    between searches, so one id shows two rows of the table, and every
    rule treats both as one listing."""

    CHEAP, DEAR = (0.1, 0.0, 1.0), (0.2, 0.0, 1.0)

    def dataset(self):
        # B is booked at the dear price in s2, and shown again at the cheap
        # price in s3
        return make_dataset(make_journey("g0", [
            make_search("s1", 0.0, [
                make_impression("B", 1, features=self.CHEAP),
                make_impression("A", 2)]),
            make_search("s2", 1.0, [
                make_impression("B", 1, chain_labels(6), features=self.DEAR),
                make_impression("A", 2)]),
            make_search("s3", 2.0, [
                make_impression("B", 1, features=self.CHEAP),
                make_impression("C", 2), make_impression("A", 3)]),
        ]))

    def test_table_keeps_both_rows_of_one_id(self):
        ds = self.dataset()
        np.testing.assert_array_equal(ds.listing_ids, ["B", "A", "B", "C"])
        np.testing.assert_array_equal(ds.listing_index,
                                      [0, 1, 2, 1, 0, 3, 1])
        assert validate_dataset(ds).accepted

    def test_attribution_groups_by_id(self):
        by_key = {(s, lid): labels
                  for s, lid, labels in label_table(attribute_labels(
                      self.dataset()))}
        assert set(POSITIVE_CHAIN) <= by_key[("s1", "B")]
        assert not by_key[("s3", "B")]

    def test_filter_drops_the_booked_id_at_another_price(self):
        result = filter_training_searches(attribute_labels(self.dataset()))
        searches = next(dataset_to_records(result.dataset))["searches"]
        assert [[imp["listing_id"] for imp in s["impressions"]]
                for s in searches] == [["B", "A"], ["B", "A"], ["C", "A"]]

    def test_one_id_twice_in_a_search_is_a_duplicate_listing(self):
        ds = make_dataset(make_journey("g0", [make_search("s1", 0.0, [
            make_impression("B", 1, features=self.CHEAP),
            make_impression("B", 2, features=self.DEAR)])]))
        assert len(ds.listing_rows) == 2
        assert validate_dataset(ds).violations == {"duplicate listing": 1}

    def test_score_ties_break_by_id(self):
        """Equal scores rank A before B in every search, though B's rows
        come first in s1 and the table: the uncancelled B ranks second in
        both searches that hold it."""
        reports = evaluate_with_scorer(attribute_labels(self.dataset()),
                                       lambda ds: np.zeros(ds.n_impressions))
        assert reports["unc"].n_searches == 2
        assert reports["unc"].mean == pytest.approx(1 / np.log2(3))

    def test_save_load_keeps_both_rows(self, tmp_path):
        ds = attribute_labels(self.dataset())
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.listing_ids, ds.listing_ids)
        np.testing.assert_array_equal(loaded.listing_rows.view(np.uint64),
                                      ds.listing_rows.view(np.uint64))
        np.testing.assert_array_equal(loaded.listing_index, ds.listing_index)
        assert label_table(loaded) == label_table(ds)


def table_dataset(rng, kind, n_journeys=12):
    """A dataset whose listing table is ``kind``: a few rows shown over
    and over, a row per impression, or two rows per id."""
    journeys = []
    counter = 0
    for g in range(n_journeys):
        searches = []
        for s in range(int(rng.integers(1, 4))):
            imps = []
            for pos in range(1, int(rng.integers(1, 6)) + 1):
                if kind == "repeated":
                    k = int(rng.integers(0, 4))
                    listing, features = f"L{k}", (k, 0.5 * k, -1.0)
                elif kind == "all-distinct":
                    listing, features = f"L{counter}", rng.normal(size=3)
                else:
                    k, price = int(rng.integers(0, 3)), int(rng.integers(2))
                    listing, features = f"L{k}", (k, 0.1 + price, 0.0)
                imps.append(make_impression(listing, pos, features=features))
                counter += 1
            searches.append(make_search(f"g{g}-s{s}", float(s), imps))
        journeys.append(make_journey(f"g{g}", searches))
    return make_dataset(*journeys)


def from_columns_subset(ds, keep, min_impressions):
    """The subset as ``Dataset.from_columns`` re-keys it from the
    parent's whole table: the reference ``select_impressions`` keeps."""
    counts = np.bincount(ds.searches.ids[keep], minlength=ds.n_searches)
    keep_search = counts >= min_impressions
    keep = keep & keep_search[ds.searches.ids]
    per_journey = np.bincount(ds.journeys.ids[keep_search],
                              minlength=ds.n_journeys)
    return Dataset.from_columns(
        ds.schema, guest_ids=ds.guest_ids[per_journey > 0],
        searches_per_journey=per_journey[per_journey > 0],
        search_ids=ds.search_ids[keep_search],
        t_days=ds.t_days[keep_search],
        context_features=ds.context_features[keep_search],
        imps_per_search=counts[keep_search], positions=ds.positions[keep],
        listing_ids=ds.listing_ids, listing_rows=ds.listing_rows,
        listing_index=ds.listing_index[keep],
        label_rows=ds.label_rows[:, keep])


class TestSelectImpressions:
    """A subset of a canonical table keeps the rows it shows, in order of
    first appearance, without keying them again."""

    @pytest.mark.parametrize("kind, seed", [
        ("repeated", 0), ("all-distinct", 1), ("two-rows-of-one-id", 2)])
    def test_subset_is_the_from_columns_subset(self, kind, seed):
        rng = np.random.default_rng(seed)
        for rep in range(20):
            ds = table_dataset(rng, kind)
            keep = rng.random(ds.n_impressions) < (0.3, 0.7, 1.0)[rep % 3]
            min_impressions = 1 + rep % 2
            got = select_impressions(ds, keep, min_impressions)
            want = from_columns_subset(ds, keep, min_impressions)
            for name in ("guest_ids", "search_ids", "t_days",
                         "context_features", "positions", "listing_ids",
                         "listing_rows", "listing_index"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name
            for name in ("journeys", "searches"):
                np.testing.assert_array_equal(getattr(got, name).sizes,
                                              getattr(want, name).sizes)
            assert list(got.labels) == list(want.labels)
            for m in LABELS:
                np.testing.assert_array_equal(got.labels[m], want.labels[m])

    def test_full_subset_keeps_the_table(self):
        ds = table_dataset(np.random.default_rng(3), "repeated")
        got = select_impressions(ds, np.ones(ds.n_impressions, dtype=bool))
        assert got.listing_rows is ds.listing_rows


class TestTaskWeights:
    def test_unc_weight_is_one(self):
        rng = np.random.default_rng(77)
        ds = nested_random_dataset(rng)
        assert empirical_task_weight(ds, "unc") == 1.0

    def test_hand_counted_ratio(self):
        # 10 long clicks, 2 of which convert: weight 0.2
        imps = []
        for k in range(10):
            depth = 6 if k < 2 else 2
            imps.append(make_impression(f"L{k}", k + 1, chain_labels(depth)))
        ds = make_dataset(make_journey("g0", [make_search("s1", 0.0, imps)]))
        assert empirical_task_weight(ds, "lc") == pytest.approx(0.2)

    def test_monotone_along_funnel(self):
        rng = np.random.default_rng(55)
        ds = nested_random_dataset(rng, n_journeys=60)
        weights = [empirical_task_weight(ds, m) for m in POSITIVE_CHAIN]
        assert all(a <= b + 1e-12 for a, b in zip(weights, weights[1:]))
        assert weights[-1] == 1.0

    def test_counts_monotone_along_funnel(self):
        rng = np.random.default_rng(56)
        counts = milestone_counts(nested_random_dataset(rng))
        chain = [counts[m] for m in POSITIVE_CHAIN]
        assert all(a >= b for a, b in zip(chain, chain[1:]))
        assert counts["imp"] >= chain[0]

    def test_zero_positives_is_undefined(self):
        ds = attributed(journey_with_pp("g0", False))
        with pytest.raises(UndefinedTaskWeightError):
            empirical_task_weight(ds, "unc")

    def test_negative_milestone_rejected(self):
        ds = attributed(journey_with_pp("g0", True))
        with pytest.raises(ConfigError):
            empirical_task_weight(ds, "rej")
        with pytest.raises(ConfigError):
            empirical_task_weight(ds, "zap")


class TestDatasetSchema:
    def test_requires_named_context_features(self):
        with pytest.raises(ConfigError):
            DatasetSchema(listing_dim=2, context_dim=1,
                          context_features=("days_ahead_of_checkin",))

    def test_context_feature_count_must_match(self):
        with pytest.raises(ConfigError):
            DatasetSchema(listing_dim=2, context_dim=3,
                          context_features=("days_ahead_of_checkin",
                                            "num_previous_searches"))

    def test_context_index_lookup(self):
        assert SCHEMA.context_index("num_previous_searches") == 1
        with pytest.raises(ConfigError):
            SCHEMA.context_index("nonexistent")

    def test_hash_is_stable_and_field_sensitive(self):
        other = DatasetSchema(listing_dim=4, context_dim=2,
                              context_features=SCHEMA.context_features)
        assert SCHEMA.hash() == SCHEMA.hash()
        assert len(SCHEMA.hash()) == 64
        assert SCHEMA.hash() != other.hash()
