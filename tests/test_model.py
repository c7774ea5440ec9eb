"""Tests for the multi-task ranking model.

Every loss has a scripted numpy oracle computed without the autodiff
engine, every forced-arithmetic case (zero weights, equal scores) is
asserted against its closed form, and gradients are checked with central
finite differences. The losses' oracles are checked against the per-op
composition in ``per_op``, and the model's one node per training step,
and its loss from the logits, against that composition, bit for bit. The
gradient-stop contract of the blending layer is asserted bitwise.
"""

import hashlib
import json
import tracemalloc
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import per_op as ops
from conftest import (
    fd_gradcheck,
    imp_rows_for_searches,
    impression_features,
    with_impression_features,
    with_listing_table,
)
from per_op import base_loss, combination_loss, twiddler_loss
from journeyrank import (dataio, domain, evaluate, model as model_module,
                         nn, simulate)
from journeyrank.dataio import dataset_from_records
from journeyrank.domain import (
    ALL_MILESTONES,
    DatasetSchema,
    Dataset,
    LABELS,
    NEGATIVE_PARENT,
    POSITIVE_CHAIN,
    REQUIRED_CONTEXT_FEATURES,
)
from journeyrank.errors import (
    ConfigError,
    ContractError,
    SchemaMismatchError,
    ShapeError,
    TrainingDivergenceError,
)
from journeyrank.model import (
    ModelConfig,
    ModelOutputs,
    NormalizationStats,
    SearchBatch,
    TrainedModel,
    baseline_model_config,
    batch_inputs,
    default_model_config,
    forward,
    init_model_params,
    load_model,
    loss_from_logits,
    make_batch,
    model_config_from_record,
    model_config_to_record,
    module_parameter_names,
    network,
    outputs_from_logits,
    parameter_count,
    parameter_layout,
    preference_pairs,
    reorder,
    save_model,
    total_loss,
    train,
)

LN2 = float(np.log(2.0))
SOFTPLUS_INV_1 = 0.5413248546129181


def small_config(**overrides) -> ModelConfig:
    defaults = dict(embedding_dim=5, tower_hidden=(6,),
                    combination_hidden=(4,), seed=3)
    defaults.update(overrides)
    return default_model_config(4, 3, **defaults)


def nested_labels(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """Random labels that respect the funnel and exclusivity rules."""
    labels = {m: np.zeros(n, dtype=bool) for m in ALL_MILESTONES}
    stay = np.ones(n, dtype=bool)
    for task, keep in zip(POSITIVE_CHAIN, (0.6, 0.8, 0.7, 0.7, 0.6, 0.7)):
        stay = stay & (rng.random(n) < keep)
        labels[task] = stay.copy()
    eligible_rej = labels["req"] & ~labels["book"]
    labels["rej"] = eligible_rej & (rng.random(n) < 0.4)
    cancelled = labels["book"] & ~labels["unc"]
    which = rng.random(n) < 0.5
    labels["cbh"] = cancelled & which
    labels["cbg"] = cancelled & ~which
    return labels


def loop_preference_pairs(grades, seg):
    """Reference: the grade-violation grid of each search, one at a time.
    Fed the uncancelled-booking flags as grades 1 and 0, it gives the
    blend's pairs in their order."""
    starts = np.flatnonzero(np.r_[True, np.diff(seg) != 0])
    bounds = np.r_[starts, len(seg)]
    pair_i, pair_j = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        g = grades[lo:hi]
        ii, jj = np.nonzero(g[:, None] > g[None, :])
        pair_i.append(ii + lo)
        pair_j.append(jj + lo)
    if not pair_i:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(pair_i), np.concatenate(pair_j)


def label_rows(labels: dict[str, np.ndarray]) -> np.ndarray:
    """A :class:`SearchBatch`'s ``label_rows`` for labels given by name,
    in ``LABELS`` order; a milestone not given is never set."""
    n = len(next(iter(labels.values())))
    return np.stack([labels.get(m, np.zeros(n, dtype=bool))
                     for m in LABELS])


def per_batch_make_batch(dataset: Dataset, search_indices: np.ndarray,
                         norm: NormalizationStats) -> SearchBatch:
    """Reference: a batch built from the dataset columns alone,
    normalization included."""
    search_indices = np.asarray(search_indices, dtype=np.int64)
    rows = imp_rows_for_searches(dataset, search_indices)
    segments = nn.Segments(dataset.searches.sizes[search_indices])
    labels = {name: values[rows] for name, values in dataset.labels.items()}
    context_rows = dataset.context_features[search_indices]
    return SearchBatch(
        listing_rows=norm.apply_listing(impression_features(dataset)[rows]),
        listing_index=np.arange(len(rows)),
        context_rows=norm.apply_context(context_rows),
        segments=segments,
        label_rows=label_rows(labels),
    )


RANDOM_SCHEMA = DatasetSchema(
    listing_dim=4, context_dim=3,
    context_features=REQUIRED_CONTEXT_FEATURES + ("taste_0",))


def random_searches(rng: np.random.Generator, n_searches: int,
                    equal_grades: bool = False,
                    n_listings: int | None = None) -> Dataset:
    """One journey of searches of 1..9 rows with random funnel labels;
    with ``equal_grades`` every row is a plain impression, so no
    uncancelled booking and no pairs exist. Every row has features of its
    own, or, given ``n_listings``, those of one of that many listings."""
    sizes = rng.integers(1, 10, size=n_searches)
    n = int(sizes.sum())
    labels = nested_labels(rng, n)
    if equal_grades:
        labels = {m: np.zeros(n, dtype=bool) for m in labels}
    listing_rows = rng.normal(size=(n_listings or n, 4)) * 3.0 + 1.0
    listing_index = (np.arange(n) if n_listings is None
                     else rng.integers(0, n_listings, size=n))
    return Dataset.from_columns(
        RANDOM_SCHEMA, guest_ids=["G0"], searches_per_journey=[n_searches],
        search_ids=[f"S{k}" for k in range(n_searches)],
        t_days=np.zeros(n_searches),
        context_features=rng.normal(size=(n_searches, 3)) * 5.0 - 2.0,
        imps_per_search=sizes,
        positions=np.ones(n, dtype=np.int64),
        listing_ids=[f"L{k}" for k in range(len(listing_rows))],
        listing_rows=listing_rows,
        listing_index=listing_index,
        label_rows=label_rows(labels),
    )


def random_batch(rng: np.random.Generator, n_searches: int = 5,
                 d_l: int = 4, d_c: int = 3,
                 booked: bool = False) -> SearchBatch:
    """Searches of 2..5 rows with random funnel labels; with ``booked``
    the first row of every search is an uncancelled booking, so every
    search has preference pairs."""
    sizes = rng.integers(2, 6, size=n_searches)
    n = int(sizes.sum())
    segments = nn.Segments(sizes)
    labels = nested_labels(rng, n)
    if booked:
        for m in LABELS:
            labels[m][segments.starts[:-1]] = m in POSITIVE_CHAIN
    return SearchBatch(
        listing_rows=rng.normal(size=(n, d_l)),
        listing_index=np.arange(n),
        context_rows=rng.normal(size=(n_searches, d_c)),
        segments=segments,
        label_rows=label_rows(labels),
    )


def one_row_searches(listing_rows: np.ndarray,
                     context_rows: np.ndarray) -> SearchBatch:
    """An unlabelled batch of searches of one impression each, every
    impression with a listing row of its own."""
    n = len(listing_rows)
    return SearchBatch(listing_rows=listing_rows, listing_index=np.arange(n),
                       context_rows=context_rows,
                       segments=nn.Segments(np.ones(n, dtype=np.int64)),
                       label_rows=np.zeros((len(LABELS), n), dtype=bool))


def forward_one_row_each(config: ModelConfig, params,
                          listing_rows: np.ndarray,
                          context_rows: np.ndarray) -> ModelOutputs:
    """The forward pass over :func:`one_row_searches`."""
    return forward(config, params,
                   one_row_searches(listing_rows, context_rows))


def zero_params(store):
    for _, tensor in store.items():
        tensor.values[...] = 0.0


def per_row_forward(config: ModelConfig, params, listing_rows: np.ndarray,
                    context_rows: np.ndarray) -> ops.Outputs:
    """Reference: the forward pass with one context row per listing row,
    one task at a time.

    The context tower and the coefficient MLP run on every row, the joint
    embedding is built once for the base heads and once for the twiddler
    heads, and each head is its own MLP over it. The funnel chain and the
    blend add one task's ``[rows, 1]`` column at a time; only the finished
    columns are put side by side, as ``[rows, tasks]`` matrices, the
    ``.T`` of the model's ``[tasks, rows]`` arrays.
    """
    emb_l = ops.forward_mlp(params, "tower_listing", config.listing_tower,
                            nn.Tensor(listing_rows))
    emb_c = ops.forward_mlp(params, "tower_context", config.context_tower,
                            nn.Tensor(context_rows))

    def head_logit(task, joint_emb):
        return ops.forward_mlp(params, f"head_{task}", config.head,
                               joint_emb)

    joint_emb = ops.concat_cols(emb_l, emb_c)
    cond_logits, log_joint = [], []
    running = None
    for task in config.base_tasks:
        logit = head_logit(task, joint_emb)
        cond_logits.append(logit)
        step = ops.log_sigmoid(logit)
        running = step if running is None else ops.add(running, step)
        log_joint.append(running)
    y_base = log_joint[-1]
    joint_emb = ops.concat_cols(emb_l, emb_c)
    y_twiddler = [head_logit(task, joint_emb)
                  for task in config.twiddler_tasks]
    alpha_base = alpha_twiddler = y_combination = None
    if config.combination is not None:
        coefs = ops.forward_mlp(params, "combination", config.combination,
                                emb_c)
        alpha_base = ops.softplus(ops.column(coefs, slice(0, 1)))
        y_combination = ops.mul(alpha_base, ops.stop_gradient(y_base))
        for k, logit in enumerate(y_twiddler, start=1):
            y_combination = ops.add(y_combination, ops.mul(
                ops.column(coefs, slice(k, k + 1)),
                ops.stop_gradient(logit)))
        alpha_twiddler = ops.column(coefs, slice(1, coefs.shape[1]))
        y_combination = ops.column(y_combination, 0)
    return ops.Outputs(
        cond_logits=ops.concat_cols(*cond_logits),
        log_joint=ops.concat_cols(*log_joint),
        y_base=ops.column(y_base, 0),
        y_twiddler=ops.concat_cols(*y_twiddler) if y_twiddler else None,
        alpha_base=alpha_base, alpha_twiddler=alpha_twiddler,
        y_combination=y_combination)


def task_columns(tasks, matrix) -> dict[str, float]:
    """One impression's column of a ``[tasks, rows]`` output, keyed by
    task."""
    return {task: float(v) for task, v in zip(tasks, matrix)}


@dataclass(frozen=True)
class ScoredCandidate:
    listing_id: str
    rank: int
    score: float
    y_base: float
    y_combination: float | None
    log_joint: dict[str, float]
    cond_logits: dict[str, float]
    y_twiddler: dict[str, float]
    alpha_base: float | None
    alpha_twiddler: dict[str, float]


def score_candidates(model: TrainedModel, context: np.ndarray,
                     listing_ids: list[str],
                     listing_rows: np.ndarray) -> list[ScoredCandidate]:
    """Rank candidates of one search, best first, ties by listing id."""
    listing_ids = [str(lid) for lid in listing_ids]
    listing_rows = np.asarray(listing_rows, dtype=np.float64)
    if len(listing_ids) == 0:
        raise ContractError("cannot rank an empty candidate list")
    if listing_rows.ndim != 2 or len(listing_rows) != len(listing_ids):
        raise ContractError("one feature row per candidate is required")
    outputs = model.outputs(dataset_showing(
        listing_rows, np.arange(len(listing_rows)), listing_ids, context))
    score = outputs.ranking_score
    base, twiddlers = model.config.base_tasks, model.config.twiddler_tasks
    order = np.lexsort((np.asarray(listing_ids), -score))
    ranked = []
    for rank, k in enumerate(order, start=1):
        k = int(k)
        ranked.append(ScoredCandidate(
            listing_id=listing_ids[k],
            rank=rank,
            score=float(score[k]),
            y_base=float(outputs.y_base[k]),
            y_combination=(None if outputs.y_combination is None
                           else float(outputs.y_combination[k])),
            log_joint=task_columns(base, outputs.log_joint[:, k]),
            cond_logits=task_columns(base, outputs.cond_logits[:, k]),
            y_twiddler=({} if outputs.y_twiddler is None else
                        task_columns(twiddlers, outputs.y_twiddler[:, k])),
            alpha_base=(None if outputs.alpha_base is None
                        else float(outputs.alpha_base[0])),
            alpha_twiddler=({} if outputs.alpha_twiddler is None else
                            task_columns(twiddlers,
                                         outputs.alpha_twiddler[:, 0])),
        ))
    return ranked


def oracle_listwise_loss(scores: np.ndarray, positives: np.ndarray,
                         seg: np.ndarray, n_seg: int) -> float:
    """Brute-force softmax listwise loss of one task's score vector, one
    term per positive."""
    total = 0.0
    for s in range(n_seg):
        rows = np.flatnonzero(seg == s)
        sc = scores[rows]
        m = sc.max()
        lse = m + np.log(np.exp(sc - m).sum())
        for r in rows:
            if positives[r]:
                total += lse - scores[r]
    return total


class TestModelConfig:
    def test_empty_base_tasks_rejected(self):
        with pytest.raises(ConfigError):
            small_config(base_tasks=())

    def test_base_tasks_must_end_at_unc(self):
        with pytest.raises(ConfigError, match="unc"):
            small_config(base_tasks=("c", "book"))

    def test_base_tasks_must_follow_funnel_order(self):
        with pytest.raises(ConfigError):
            small_config(base_tasks=("lc", "c", "unc"))

    def test_unknown_twiddler_rejected(self):
        with pytest.raises(ConfigError):
            small_config(twiddler_tasks=("rej", "imp"))

    def test_parameter_accounting(self):
        full = small_config()
        baseline = baseline_model_config(4, 3, embedding_dim=5,
                                         tower_hidden=(6,), seed=3)
        def mlp_params(spec):
            dims = [spec.input_dim, *spec.hidden_dims, spec.output_dim]
            return sum((a + 1) * b for a, b in zip(dims[:-1], dims[1:]))
        expected_full = (mlp_params(full.listing_tower)
                         + mlp_params(full.context_tower)
                         + len(full.all_tasks) * mlp_params(full.head)
                         + mlp_params(full.combination))
        assert parameter_count(full) == expected_full
        extra_heads = [t for t in full.all_tasks if t != "unc"]
        analytic_delta = (len(extra_heads) * mlp_params(full.head)
                          + mlp_params(full.combination))
        assert parameter_count(full) - parameter_count(baseline) \
            == analytic_delta
        fewer = small_config(base_tasks=("book", "unc"),
                             twiddler_tasks=("cbg",))
        for config in (full, baseline, fewer):
            layout = parameter_layout(config)
            store = init_model_params(config)
            assert [name for name, _ in layout] == store.names()
            assert sum(int(np.prod(shape)) for _, shape in layout) \
                == parameter_count(config) == store.tensor.size

    def test_record_roundtrip(self):
        config = small_config(tower_hidden=(6, 4), combination_hidden=(),
                              base_tasks=("c", "pp", "unc"),
                              twiddler_tasks=("cbg",))
        back = model_config_from_record(model_config_to_record(config))
        assert back == config

    def test_eight_settable_fields(self):
        assert [f.name for f in fields(ModelConfig)] == [
            "listing_dim", "context_dim", "embedding_dim", "tower_hidden",
            "combination_hidden", "base_tasks", "twiddler_tasks", "seed"]
        assert small_config().head == nn.MlpSpec(10, (), 1)

    @pytest.mark.parametrize("key, value", [
        ("activation", "relu"), ("head_hidden", []),
        ("task_loss_weights", None)])
    def test_record_with_a_removed_key_rejected(self, key, value):
        """The activation, head depth and task weights are not settable:
        a record that still sets one is refused, not half read."""
        rec = dict(model_config_to_record(small_config()), **{key: value})
        with pytest.raises(ConfigError, match=f"unknown keys \\['{key}'\\]"):
            model_config_from_record(rec)

    def test_record_missing_key_rejected(self):
        rec = model_config_to_record(small_config())
        del rec["embedding_dim"]
        with pytest.raises(ConfigError):
            model_config_from_record(rec)

    def test_record_unknown_key_rejected(self):
        rec = model_config_to_record(small_config())
        rec["dropout"] = 0.1
        with pytest.raises(ConfigError, match="dropout"):
            model_config_from_record(rec)

    def test_nested_block_record_rejected(self):
        """A record in the nested shape, one layer spec per block, is
        refused rather than half read."""
        def block(input_dim, hidden_dims, output_dim):
            return {"input_dim": input_dim, "hidden_dims": hidden_dims,
                    "output_dim": output_dim, "activation": "relu",
                    "seed": 0}
        rec = {"listing_tower": block(4, [6], 5),
               "context_tower": block(3, [6], 5),
               "embedding_dim": 5,
               "base_tasks": ["unc"],
               "head_specs": {"unc": block(10, [], 1)},
               "twiddler_tasks": [],
               "combination": None,
               "task_loss_weights": None,
               "seed": 3}
        with pytest.raises(ConfigError, match="head_specs"):
            model_config_from_record(rec)


def embeddings(config: ModelConfig, params, listing_rows: np.ndarray,
               context_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The listing and context embeddings of one listing row per
    search."""
    net = network(config, params,
                  one_row_searches(listing_rows, context_rows))
    return net.listing[-1], net.context[-1]


class TestSharedForward:
    def test_zero_weights_give_zero_embeddings(self):
        config = small_config()
        params = init_model_params(config)
        zero_params(params)
        rng = np.random.default_rng(0)
        emb_l, emb_c = embeddings(config, params, rng.normal(size=(4, 4)),
                                  rng.normal(size=(4, 3)))
        np.testing.assert_array_equal(emb_l, 0.0)
        np.testing.assert_array_equal(emb_c, 0.0)

    def test_batch_rows_independent(self):
        config = small_config()
        params = init_model_params(config)
        rng = np.random.default_rng(1)
        listing = rng.normal(size=(8, 4))
        context = rng.normal(size=(8, 3))
        full = embeddings(config, params, listing, context)
        solo = embeddings(config, params, listing[:1], context[:1])
        for s, f in zip(solo, full):
            np.testing.assert_allclose(s[0], f[0], rtol=1e-13)

    def test_golden_snapshot(self):
        config = default_model_config(6, 4, seed=42)
        params = init_model_params(config)
        listing = np.linspace(-1.0, 1.0, 18).reshape(3, 6)
        context = np.linspace(0.5, -0.5, 12).reshape(3, 4)
        emb_l, emb_c = embeddings(config, params, listing, context)
        np.testing.assert_allclose(
            emb_l[0, :3],
            [0.008525277850541113, 0.43539867475748, 0.028028402517221027],
            rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            emb_c[0, :3],
            [0.16355741135296198, -0.05500528843523372, 0.11983831966496784],
            rtol=0, atol=1e-15)
        out = forward_one_row_each(config, params, listing, context)
        np.testing.assert_allclose(
            out.y_base,
            [-4.107466696880749, -4.240459630992293, -5.185047818772162],
            rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            out.y_twiddler[config.twiddler_tasks.index("rej")],
            [-0.44795210286211457, -0.057253436327056484,
             0.03910167494221711],
            rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            out.y_combination,
            [-2.826036703418397, -2.940074184743533, -3.672576592232105],
            rtol=0, atol=1e-14)


FORWARD_CONFIGS = {
    "default": small_config,
    "baseline": lambda: baseline_model_config(4, 3, embedding_dim=5,
                                              tower_hidden=(6,), seed=3),
}


def batch_of_sizes(rng: np.random.Generator, sizes,
                   n_listings: int | None = None) -> SearchBatch:
    """A random batch whose searches have the given row counts. Every row
    shows a listing of its own, or, given ``n_listings``, one of that many
    listings, each shown at least once and in random order."""
    sizes = np.asarray(sizes)
    n = int(sizes.sum())
    segments = nn.Segments(sizes)
    labels = nested_labels(rng, n)
    if n_listings is None:
        index = np.arange(n)
    else:
        index = rng.permutation(np.concatenate((
            np.arange(n_listings),
            rng.integers(0, n_listings, size=n - n_listings))))
    return SearchBatch(listing_rows=rng.normal(size=(index.max() + 1, 4)),
                       listing_index=index,
                       context_rows=rng.normal(size=(len(sizes), 3)),
                       segments=segments, label_rows=label_rows(labels))


@pytest.mark.parametrize("sizes, n_listings",
                         [([3, 1, 5, 2, 1, 4, 1], None), ([1, 1, 1, 1], None),
                          ([3, 1, 5, 2, 1, 4, 1], 5)],
                         ids=["mixed", "one-row", "repeated-listings"])
@pytest.mark.parametrize("make_config", list(FORWARD_CONFIGS.values()),
                         ids=list(FORWARD_CONFIGS))
class TestForwardMatchesPerRowReference:
    """The per-listing, per-search, columnar forward against the per-row,
    per-task reference it replaced: the same outputs and the same
    gradients, up to summation order."""

    def test_outputs(self, make_config, sizes, n_listings):
        config = make_config()
        params = init_model_params(config)
        batch = batch_of_sizes(np.random.default_rng(51), sizes, n_listings)
        got = forward(config, params, batch)
        want = per_row_forward(config, params,
                               batch.listing_rows[batch.listing_index],
                               batch.context_rows[batch.segments.ids])
        n, searches = batch.n_rows, batch.segments.n
        n_base = len(config.base_tasks)
        n_twiddlers = len(config.twiddler_tasks)
        shapes = {"cond_logits": (n_base, n), "log_joint": (n_base, n),
                  "y_twiddler": (n_twiddlers, n),
                  "alpha_twiddler": (n_twiddlers, searches),
                  "alpha_base": (searches,), "y_base": (n,),
                  "y_combination": (n,)}
        blend = {"y_twiddler", "alpha_twiddler", "alpha_base",
                 "y_combination"}
        for name, shape in shapes.items():
            g, w = getattr(got, name), getattr(want, name)
            if name in blend and not n_twiddlers:
                assert g is None and w is None, name
                continue
            assert g.shape == shape, name
            if name.startswith("alpha"):
                # the reference holds a search's coefficients on its rows
                g = g.repeat(batch.segments.sizes, axis=-1)
            # the reference is [rows, tasks], the base coefficient a
            # [rows, 1] column
            w = w.values.T.reshape(g.shape)
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_total_loss_gradients(self, make_config, sizes, n_listings):
        config = make_config()
        params = init_model_params(config)
        rng = np.random.default_rng(52)
        batch = batch_of_sizes(rng, sizes, n_listings)
        weights = {t: float(rng.uniform(0.5, 2.0)) for t in config.base_tasks}
        with nn.Tape() as tape:
            loss, _, _ = total_loss(config, params, batch, weights)
            nn.backward(tape, loss)
        got = params.views(params.tensor.grad)
        with nn.Tape() as tape:
            ref = per_row_forward(config, params,
                                  batch.listing_rows[batch.listing_index],
                                  batch.context_rows[batch.segments.ids])
            want = base_loss(ref.log_joint, batch, config.base_tasks,
                             weights)
            if config.twiddler_tasks:
                want = ops.add(want, twiddler_loss(ref.y_twiddler, batch,
                                                  config.twiddler_tasks))
                want = ops.add(want, combination_loss(ref.y_combination,
                                                     batch))
            nn.backward(tape, want)
        np.testing.assert_allclose(float(loss.values), float(want.values),
                                   rtol=1e-12)
        for name, t in params.items():
            assert got[name].shape == t.values.shape
            np.testing.assert_allclose(got[name], t.grad, rtol=0, atol=1e-10,
                                       err_msg=name)


class TestBaseForward:
    def test_zero_logits_give_halving_joints(self):
        config = small_config()
        params = init_model_params(config)
        zero_params(params)
        rng = np.random.default_rng(2)
        out = forward_one_row_each(
            config, params, rng.normal(size=(5, 4)),
            rng.normal(size=(5, 3)))
        assert out.log_joint.shape == (len(config.base_tasks), 5)
        for k in range(len(config.base_tasks)):
            np.testing.assert_allclose(out.log_joint[k],
                                       (k + 1) * np.log(0.5), rtol=1e-15)
        np.testing.assert_allclose(np.exp(out.y_base), 1.0 / 64.0,
                                   rtol=1e-12)

    def test_single_task_degenerates_to_plain_logistic_score(self):
        config = baseline_model_config(4, 3, embedding_dim=5,
                                       tower_hidden=(6,), seed=3)
        params = init_model_params(config)
        rng = np.random.default_rng(3)
        listing = rng.normal(size=(6, 4))
        context = rng.normal(size=(6, 3))
        out = forward_one_row_each(config, params, listing, context)
        assert out.log_joint.shape == out.cond_logits.shape == (1, 6)
        logit = out.cond_logits[0]
        np.testing.assert_allclose(out.y_base,
                                   -np.logaddexp(0.0, -logit), rtol=1e-14)
        assert out.y_combination is None
        assert out.ranking_score is out.y_base

    def test_joint_equals_product_of_conditionals(self):
        config = small_config()
        params = init_model_params(config)
        rng = np.random.default_rng(4)
        out = forward_one_row_each(
            config, params, rng.normal(size=(30, 4)),
            rng.normal(size=(30, 3)))
        running = np.ones(30)
        for k in range(len(config.base_tasks)):
            running = running * expit(out.cond_logits[k])
            np.testing.assert_allclose(np.exp(out.log_joint[k]),
                                       running, rtol=1e-12)

    def test_funnel_monotonicity_fuzz(self):
        rng = np.random.default_rng(5)
        for rep in range(60):
            d_l = int(rng.integers(2, 6))
            d_c = int(rng.integers(2, 5))
            emb = int(rng.integers(2, 7))
            hidden = () if rng.random() < 0.5 else (int(rng.integers(2, 8)),)
            config = default_model_config(
                d_l, d_c, embedding_dim=emb, tower_hidden=hidden,
                seed=int(rng.integers(0, 10_000)))
            params = init_model_params(config)
            n = int(rng.integers(1, 9))
            out = forward_one_row_each(config, params,
                                       rng.normal(size=(n, d_l)) * 3.0,
                                       rng.normal(size=(n, d_c)) * 3.0)
            previous = np.zeros(n)
            for current in out.log_joint:
                assert np.all(current <= previous + 1e-15)
                p = np.exp(current)
                assert np.all(p > 0.0) and np.all(p < 1.0)
                previous = current


class TestBaseLoss:
    def test_saturated_softmax_vanishes(self):
        scores = nn.Tensor(np.array([[20.0], [0.0], [0.0]]))
        batch = SearchBatch(
            listing_rows=np.zeros((3, 1)), listing_index=np.arange(3),
            context_rows=np.zeros((3, 1)),
            segments=nn.Segments([3]),
            label_rows=label_rows({"unc": np.array([True, False, False])}))
        loss = base_loss(scores, batch, ("unc",), {"unc": 1.0})
        assert float(loss.values) < 1e-8

    def test_symmetric_pair_costs_ln2(self):
        scores = nn.Tensor(np.array([[0.7], [0.7]]))
        batch = SearchBatch(
            listing_rows=np.zeros((2, 1)), listing_index=np.arange(2),
            context_rows=np.zeros((2, 1)),
            segments=nn.Segments([2]),
            label_rows=label_rows({"unc": np.array([True, False])}))
        loss = base_loss(scores, batch, ("unc",), {"unc": 1.0})
        np.testing.assert_allclose(float(loss.values), LN2, rtol=1e-15)

    def test_matches_scripted_oracle(self):
        rng = np.random.default_rng(6)
        for rep in range(20):
            batch = random_batch(rng)
            weights = {t: float(rng.uniform(0.2, 3.0))
                       for t in POSITIVE_CHAIN}
            scores = rng.normal(size=(batch.n_rows, 6)) * 2.0
            loss = base_loss(nn.Tensor(scores), batch, POSITIVE_CHAIN,
                             weights)
            want = sum(weights[t] * oracle_listwise_loss(
                scores[:, k], batch.labels[t], batch.segments.ids,
                batch.segments.n)
                for k, t in enumerate(POSITIVE_CHAIN))
            np.testing.assert_allclose(float(loss.values), want, rtol=1e-10)

    def test_empty_search_rejected(self):
        scores = nn.Tensor(np.array([[0.5], [0.2]]))
        batch = SearchBatch(
            listing_rows=np.zeros((2, 1)), listing_index=np.arange(2),
            context_rows=np.zeros((2, 1)),
            segments=nn.Segments([2, 0]),
            label_rows=label_rows({"unc": np.array([True, False])}))
        with pytest.raises(ContractError):
            base_loss(scores, batch, ("unc",), {"unc": 1.0})


class TestTwiddlerLoss:
    def make_batch(self, labels):
        n = len(next(iter(labels.values())))
        return SearchBatch(
            listing_rows=np.zeros((n, 1)), listing_index=np.arange(n),
            context_rows=np.zeros((n, 1)),
            segments=nn.Segments([n]), label_rows=label_rows(labels))

    def test_no_eligible_rows_contribute_zero(self):
        labels = {m: np.zeros(3, dtype=bool) for m in ALL_MILESTONES}
        batch = self.make_batch(labels)
        logits = nn.Tensor(np.tile([[5.0], [-3.0], [1.0]], (1, 3)))
        loss = twiddler_loss(logits, batch, ("rej", "cbh", "cbg"))
        assert float(loss.values) == 0.0

    def test_single_eligible_row_at_zero_costs_ln2(self):
        labels = {m: np.zeros(1, dtype=bool) for m in ALL_MILESTONES}
        labels["req"] = np.array([True])
        batch = self.make_batch(labels)
        loss = twiddler_loss(nn.Tensor(np.array([[0.0]])), batch, ("rej",))
        np.testing.assert_allclose(float(loss.values), LN2, rtol=1e-15)

    def test_matches_masked_bce_oracle(self):
        rng = np.random.default_rng(7)
        for rep in range(20):
            batch = random_batch(rng)
            tasks = ("rej", "cbh", "cbg")
            logits = rng.normal(size=(batch.n_rows, 3)) * 2.5
            loss = twiddler_loss(nn.Tensor(logits), batch, tasks)
            want = 0.0
            for task, z in zip(tasks, logits.T):
                mask = batch.labels[NEGATIVE_PARENT[task]]
                if not mask.any():
                    continue
                p = expit(z[mask])
                y = batch.labels[task][mask]
                want += float(np.mean(np.where(y, -np.log(p),
                                               -np.log1p(-p))))
            np.testing.assert_allclose(float(loss.values), want, rtol=1e-10)


class TestCombinationForward:
    def test_zero_coefficients_force_ln2_blend(self):
        config = small_config()
        params = init_model_params(config)
        for name, tensor in params.items():
            if name.startswith("combination"):
                tensor.values[...] = 0.0
        rng = np.random.default_rng(8)
        out = forward_one_row_each(
            config, params, rng.normal(size=(4, 4)),
            rng.normal(size=(4, 3)))
        np.testing.assert_allclose(out.alpha_base, LN2, rtol=1e-15)
        assert out.alpha_twiddler.shape == (len(config.twiddler_tasks), 4)
        np.testing.assert_array_equal(out.alpha_twiddler, 0.0)
        np.testing.assert_allclose(out.y_combination,
                                   LN2 * out.y_base, rtol=1e-14)

    def test_unit_base_coefficient_reproduces_base_score(self):
        config = small_config()
        params = init_model_params(config)
        for name, tensor in params.items():
            if name.startswith("combination"):
                tensor.values[...] = 0.0
        final_bias = params[f"combination.b{len(config.combination.hidden_dims)}"]
        final_bias.values[0] = SOFTPLUS_INV_1
        rng = np.random.default_rng(9)
        out = forward_one_row_each(
            config, params, rng.normal(size=(6, 4)),
            rng.normal(size=(6, 3)))
        np.testing.assert_allclose(out.alpha_base, 1.0, rtol=1e-12)
        np.testing.assert_allclose(out.y_combination,
                                   out.y_base, rtol=1e-12)

    def test_matches_dot_product_oracle(self):
        config = small_config()
        params = init_model_params(config)
        rng = np.random.default_rng(10)
        out = forward_one_row_each(
            config, params, rng.normal(size=(12, 4)),
            rng.normal(size=(12, 3)))
        # one impression per search: a search's coefficients are its row's
        want = out.alpha_base * out.y_base
        for k in range(len(config.twiddler_tasks)):
            want = want + out.alpha_twiddler[k] * out.y_twiddler[k]
        np.testing.assert_allclose(out.y_combination, want,
                                   rtol=1e-12)


class TestCombinationLoss:
    def test_uniform_grades_contribute_nothing(self):
        labels = {m: np.zeros(4, dtype=bool) for m in ALL_MILESTONES}
        labels["c"] = np.array([True, True, False, False])
        labels["rej"] = np.array([False, False, True, False])
        segments = nn.Segments([4])
        pair_i, pair_j = preference_pairs(labels["unc"], segments)
        assert pair_i.size == 0
        batch = SearchBatch(listing_rows=np.zeros((4, 1)),
                            listing_index=np.arange(4),
                            context_rows=np.zeros((4, 1)), segments=segments,
                            label_rows=label_rows(labels))
        loss = combination_loss(nn.Tensor(np.array([1.0, 2.0, 3.0, 4.0])),
                                batch)
        assert float(loss.values) == 0.0

    def test_single_tied_pair_costs_ln2(self):
        labels = {m: np.zeros(2, dtype=bool) for m in ALL_MILESTONES}
        for task in POSITIVE_CHAIN:
            labels[task] = np.array([True, False])
        segments = nn.Segments([2])
        pair_i, pair_j = preference_pairs(labels["unc"], segments)
        assert (pair_i.tolist(), pair_j.tolist()) == ([0], [1])
        batch = SearchBatch(listing_rows=np.zeros((2, 1)),
                            listing_index=np.arange(2),
                            context_rows=np.zeros((2, 1)), segments=segments,
                            label_rows=label_rows(labels))
        loss = combination_loss(nn.Tensor(np.array([0.3, 0.3])), batch)
        np.testing.assert_allclose(float(loss.values), LN2, rtol=1e-15)

    def test_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(11)
        for rep in range(20):
            batch = random_batch(rng, booked=rep % 2 == 1)
            y = rng.normal(size=batch.n_rows) * 2.0
            loss = combination_loss(nn.Tensor(y), batch)
            unc = batch.labels["unc"]
            terms = []
            for s in range(batch.segments.n):
                rows = np.flatnonzero(batch.segments.ids == s)
                for i in rows:
                    for j in rows:
                        if unc[i] and not unc[j]:
                            terms.append(-np.log(expit(y[i] - y[j])))
            want = float(np.mean(terms)) if terms else 0.0
            np.testing.assert_allclose(float(loss.values), want, rtol=1e-10)


class TestGradesAndPairs:
    """The blend's pairs grade an uncancelled booking 1 and any other row
    0: each booking against every other row of its search."""

    def test_pairs_stay_within_searches(self):
        rng = np.random.default_rng(12)
        for rep in range(30):
            batch = random_batch(rng, booked=rep % 2 == 1)
            grades = batch.labels["unc"].astype(np.int64)
            seg = batch.segments.ids
            assert np.all(seg[batch.pair_i] == seg[batch.pair_j])
            assert np.all(grades[batch.pair_i] > grades[batch.pair_j])
            want = sum(
                int(np.sum(grades[rows, None] > grades[None, rows]))
                for s in range(batch.segments.n)
                for rows in [np.flatnonzero(seg == s)])
            assert len(batch.pair_i) == want

    def test_matches_per_search_loop_in_order(self):
        # searches may be empty, hold no booking or several
        rng = np.random.default_rng(24)
        for rep in range(300):
            n_searches = int(rng.integers(0, 8))
            sizes = rng.integers(0, 9, size=n_searches)
            seg = np.repeat(np.arange(n_searches), sizes)
            if rep % 4 == 0:
                unc = np.full(len(seg), bool(rng.integers(0, 2)))
            else:
                unc = rng.random(len(seg)) < rng.uniform(0.1, 0.9)
            got = preference_pairs(unc, nn.Segments(sizes))
            want = loop_preference_pairs(unc.astype(np.int64), seg)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)


class TestPairsOnDemand:
    """The blend's pairs are built only where its loss reads them."""

    def test_scoring_and_the_baseline_build_none(self, monkeypatch):
        dataset = planted_dataset()
        full, _ = train(default_model_config(2, 2, embedding_dim=4,
                                             tower_hidden=(5,), seed=7),
                        dataset, epochs=1)

        def refuse(*args):
            raise AssertionError("preference pairs built")

        monkeypatch.setattr(model_module, "preference_pairs", refuse)
        reports = evaluate.evaluate(full, dataset)
        assert reports["unc"].n_searches == dataset.n_searches
        evaluate.ntc_curves(full, dataset, "days_ahead_of_checkin")
        train(baseline_model_config(2, 2, embedding_dim=4, tower_hidden=(5,),
                                    seed=7), dataset, epochs=2)
        with pytest.raises(AssertionError, match="pairs built"):
            train(full.config, dataset, epochs=1)


class TestBatches:
    """Batches cut as slices of the once-per-train() inputs put in an
    epoch's order once equal the batches the per-step reference builds
    from the columns, array for array; each impression's listing row is
    compared through the batch's index."""

    def assert_same_batch(self, got: SearchBatch, want: SearchBatch):
        assert got.segments.n == want.segments.n
        assert list(got.labels) == list(want.labels)
        pairs = [(got.labels[k], want.labels[k]) for k in want.labels]
        pairs += [(got.segments.starts, want.segments.starts),
                  (got.segments.ids, want.segments.ids),
                  (got.listing_rows[got.listing_index],
                   want.listing_rows[want.listing_index]),
                  (got.context_rows, want.context_rows)]
        pairs += zip(got.pairs, loop_preference_pairs(
            want.labels["unc"].astype(np.int64), want.segments.ids))
        for g, w in pairs:
            assert g.dtype == w.dtype and g.shape == w.shape
            np.testing.assert_array_equal(g, w)
        # every listing row of the batch is shown, and none twice
        assert got.listing_index.dtype == np.int64
        assert np.array_equal(np.unique(got.listing_index),
                              np.arange(len(got.listing_rows)))
        assert len(np.unique(got.listing_rows, axis=0)) == len(
            got.listing_rows)

    @pytest.mark.parametrize("max_batch", [1, 40, 1 << 16])
    def test_matches_per_batch_reference(self, max_batch):
        # max_batch bounds the searches per batch: 1 cuts one search per
        # batch, 40 cuts batches of random size, 1 << 16 takes every
        # search of the set in one batch
        rng = np.random.default_rng(31)
        for rep in range(12):
            # odd reps show a few listings over and over
            dataset = random_searches(rng, int(rng.integers(1, 40)),
                                      equal_grades=rep % 4 == 3,
                                      n_listings=6 if rep % 2 else None)
            norm = NormalizationStats.fit(dataset.listing_rows,
                                          dataset.listing_index,
                                          dataset.context_features)
            inputs = batch_inputs(dataset, norm)
            order = rng.permutation(dataset.n_searches)
            shuffled = reorder(inputs, order)
            batch_size = int(rng.integers(1, max_batch + 1))
            for lo in range(0, len(order), batch_size):
                pick = order[lo:lo + batch_size]
                want = per_batch_make_batch(dataset, pick, norm)
                self.assert_same_batch(
                    make_batch(reorder(inputs, pick), 0, len(pick)), want)
                self.assert_same_batch(
                    make_batch(shuffled, lo, lo + batch_size), want)

    def test_pairs_do_not_depend_on_the_cut(self):
        # each batch's pairs, shifted by its first row, concatenate to
        # the pairs of the whole epoch
        rng = np.random.default_rng(35)
        for rep in range(30):
            dataset = random_searches(rng, int(rng.integers(1, 40)),
                                      equal_grades=rep % 6 == 5)
            norm = NormalizationStats.fit(dataset.listing_rows,
                                          dataset.listing_index,
                                          dataset.context_features)
            shuffled = reorder(batch_inputs(dataset, norm),
                               rng.permutation(dataset.n_searches))
            want = preference_pairs(shuffled.labels["unc"],
                                    shuffled.segments)
            batch_size = int(rng.integers(1, dataset.n_searches + 1))
            got_i, got_j = [], []
            for lo in range(0, dataset.n_searches, batch_size):
                batch = make_batch(shuffled, lo, lo + batch_size)
                # a batch's pairs are those of its own unc labels
                for g, w in zip((batch.pair_i, batch.pair_j),
                                preference_pairs(batch.labels["unc"],
                                                 batch.segments)):
                    np.testing.assert_array_equal(g, w)
                first = shuffled.segments.starts[lo]
                got_i.append(batch.pair_i + first)
                got_j.append(batch.pair_j + first)
            for g, w in zip((np.concatenate(got_i), np.concatenate(got_j)),
                            want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)

    def test_reordered_inputs_keep_every_search(self):
        rng = np.random.default_rng(33)
        dataset = random_searches(rng, 25, n_listings=7)
        norm = NormalizationStats.fit(dataset.listing_rows,
                                      dataset.listing_index,
                                      dataset.context_features)
        inputs = batch_inputs(dataset, norm)
        order = rng.permutation(dataset.n_searches)
        twice = reorder(reorder(inputs, order), np.argsort(order))
        for name in ("listing_index", "context_rows", "label_rows"):
            got, want = getattr(twice, name), getattr(inputs, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)
        np.testing.assert_array_equal(twice.segments.starts,
                                      inputs.segments.starts)

    @pytest.mark.parametrize("step", ["from_columns", "generate", "load",
                                      "filter"])
    def test_inputs_share_the_dataset_label_block(self, tmp_path, step):
        """``batch_inputs`` hands on the dataset's C-contiguous label block
        itself, whichever step built the dataset."""
        if step == "from_columns":
            dataset = random_searches(np.random.default_rng(34), 12)
        else:
            dataset, _ = simulate.generate(
                simulate.default_generator_config(n_guests=30, seed=3))
        if step == "load":
            dataio.save_dataset(dataset, tmp_path / "d.jsonl")
            dataset = dataio.load_dataset(tmp_path / "d.jsonl")
        elif step == "filter":
            dataset = domain.filter_training_searches(dataset).dataset
        assert dataset.label_rows.shape == (len(LABELS),
                                            dataset.n_impressions)
        assert dataset.label_rows.dtype == bool
        assert dataset.label_rows.flags.c_contiguous
        norm = NormalizationStats.fit(dataset.listing_rows,
                                      dataset.listing_index,
                                      dataset.context_features)
        inputs = batch_inputs(dataset, norm)
        assert inputs.label_rows is dataset.label_rows
        assert np.shares_memory(inputs.label_rows, dataset.label_rows)

    def test_covers_one_row_and_pairless_searches(self):
        rng = np.random.default_rng(32)
        dataset = random_searches(rng, 60)
        sizes = dataset.searches.sizes
        norm = NormalizationStats.fit(dataset.listing_rows,
                                      dataset.listing_index,
                                      dataset.context_features)
        batch = make_batch(batch_inputs(dataset, norm), 0,
                           dataset.n_searches)
        pair_counts = np.bincount(batch.segments.ids[batch.pair_i],
                                  minlength=batch.segments.n)
        assert np.any(sizes == 1)
        assert np.any(pair_counts > 0)
        assert np.any((sizes > 1) & (pair_counts == 0))
        assert np.all(pair_counts[sizes == 1] == 0)


def distinct_rows_reference(rows: np.ndarray, ids=None):
    """Reference: rows keyed by their id (by default one for all) and
    bytes in a dict, one at a time, in order of first appearance."""
    ids = ["L"] * len(rows) if ids is None else list(ids)
    key_of: dict[tuple[str, bytes], int] = {}
    index = [key_of.setdefault((lid, row.tobytes()), len(key_of))
             for lid, row in zip(ids, rows)]
    firsts = [index.index(k) for k in range(len(key_of))]
    return rows[firsts], np.array(index, dtype=np.int64)


def from_bits(word: int) -> float:
    return float(np.array([word], dtype=np.uint64).view(np.float64)[0])


def with_bit_flipped(value: float, bit: int) -> float:
    return from_bits(int(np.array([value]).view(np.uint64)[0]) ^ (1 << bit))


def rows_told_apart_by_bytes() -> np.ndarray:
    """Rows that are equal as numbers, or as NaNs, but not as bytes, each
    shown twice, beside rows that repeat exactly."""
    rows = np.array([
        [0.0, 1.0], [-0.0, 1.0],
        [0.5, 1.0], [0.5, with_bit_flipped(1.0, 0)],
        [0.5, with_bit_flipped(1.0, 51)],
        [from_bits(0x7FF8000000000000), 2.0],
        [from_bits(0x7FF8000000000001), 2.0],
        # only the sign bits differ, in two columns
        [1.0, 2.0], [-1.0, -2.0],
    ])
    return rows[[0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1, 0]]


def dataset_showing(table: np.ndarray, index, ids=None,
                    context=(1.0, 0.0)) -> Dataset:
    """One search in ``context`` whose impressions show rows ``index`` of
    ``table``, whose rows are listings ``ids``: by default all one
    listing, so that rows merge by their bytes alone. A context of more
    than the required features adds taste features."""
    n = len(index)
    names = REQUIRED_CONTEXT_FEATURES + tuple(
        f"taste_{k}" for k in range(len(context) - 2))
    schema = DatasetSchema(listing_dim=table.shape[1], context_dim=len(names),
                           context_features=names)
    return Dataset.from_columns(
        schema, guest_ids=["G0"], searches_per_journey=[1],
        search_ids=["S0"], t_days=[0.0], context_features=[context],
        imps_per_search=[n], positions=np.arange(1, n + 1),
        listing_ids=["L"] * len(table) if ids is None else ids,
        listing_rows=table, listing_index=index,
        label_rows=np.zeros((len(LABELS), n), dtype=bool))


# a few values, among them two zeros equal as numbers and two NaNs, each
# pair with bytes of its own
ODD_VALUES = (0.0, -0.0, 1.0, with_bit_flipped(1.0, 0), -1.0, np.inf,
              from_bits(0x7FF8000000000000), from_bits(0x7FF8000000000001))


@st.composite
def tables_and_indices(draw):
    """A table of rows built from a few odd values and of ids from a few
    names, so that rows, ids and pairs of both repeat, and an index that
    may skip rows or show a row many times."""
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.sampled_from(ODD_VALUES),
                                  min_size=width, max_size=width),
                         max_size=10))
    table = np.array(rows, dtype=np.float64).reshape(-1, width)
    ids = draw(st.lists(st.sampled_from(["a", "b", "c"]),
                        min_size=len(table), max_size=len(table)))
    index = draw(st.lists(st.integers(0, len(table) - 1), max_size=30)
                 if len(table) else st.just([]))
    return np.array(ids, dtype=str), table, np.array(index, dtype=np.int64)


class TestDistinctRows:
    """``Dataset.from_columns`` holds the listing table in canonical form:
    rows merge exactly when their ids and bytes are equal, come in order
    of first appearance, and are all shown."""

    @staticmethod
    def assert_canonical(table: np.ndarray, index) -> Dataset:
        dataset = dataset_showing(table, index)
        rows = table[index]
        want, want_index = distinct_rows_reference(rows)
        got, got_index = dataset.listing_rows, dataset.listing_index
        assert got.dtype == np.float64 and got_index.dtype == np.int64
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))
        np.testing.assert_array_equal(got_index, want_index)
        np.testing.assert_array_equal(got[got_index].view(np.uint64),
                                      rows.view(np.uint64))
        return dataset

    @settings(max_examples=300, deadline=None)
    @given(tables_and_indices())
    def test_canonical_form_property(self, table_and_index):
        ids, table, index = table_and_index
        dataset = dataset_showing(table, index, ids)
        got_ids, rows = dataset.listing_ids, dataset.listing_rows
        shown = dataset.listing_index
        # each impression shows its own id and row
        np.testing.assert_array_equal(got_ids[shown], ids[index])
        np.testing.assert_array_equal(rows[shown].view(np.uint64),
                                      table[index].view(np.uint64))
        # one row per distinct (id, bytes): equal bytes under two ids,
        # and two rows of one id, stay apart
        shown_keys = {(lid, row.tobytes())
                      for lid, row in zip(ids[index], table[index])}
        assert len(shown_keys) == len(rows)
        assert {(lid, row.tobytes())
                for lid, row in zip(got_ids, rows)} == shown_keys
        # in order of first appearance, every row shown
        used, first = np.unique(shown, return_index=True)
        np.testing.assert_array_equal(used, np.arange(len(rows)))
        assert np.all(np.diff(first) > 0)
        want, want_index = distinct_rows_reference(table[index], ids[index])
        np.testing.assert_array_equal(rows.view(np.uint64),
                                      want.view(np.uint64))
        np.testing.assert_array_equal(shown, want_index)

    def test_ids_not_aligned_with_the_rows_are_refused(self):
        rows = np.zeros((3, 2))
        for ids in (["a", "b"], ["a", "b", "c", "d"], [["a", "b", "c"]]):
            with pytest.raises(ContractError, match="listing ids"):
                dataset_showing(rows, [0, 1, 2], ids)

    def test_equal_bytes_under_two_ids_stay_two_rows(self):
        rows = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        dataset = dataset_showing(rows, [0, 1, 2, 3, 0, 1],
                                  ["a", "b", "a", "a"])
        # "a" with two feature rows is two rows too
        np.testing.assert_array_equal(dataset.listing_ids,
                                      ["a", "b", "a", "a"])
        np.testing.assert_array_equal(dataset.listing_rows, rows)
        np.testing.assert_array_equal(dataset.listing_index,
                                      [0, 1, 2, 3, 0, 1])

    def test_matches_byte_keyed_reference(self):
        rng = np.random.default_rng(33)
        for rep in range(20):
            n, width = int(rng.integers(0, 60)), int(rng.integers(1, 6))
            pool = rng.normal(size=(int(rng.integers(1, 12)), width))
            self.assert_canonical(pool, rng.integers(0, len(pool), size=n))

    def test_merges_only_byte_equal_rows(self):
        rows = rows_told_apart_by_bytes()
        dataset = self.assert_canonical(rows, np.arange(len(rows)))
        assert len(dataset.listing_rows) == 9
        np.testing.assert_array_equal(dataset.listing_index,
                                      [0, 1, 2, 3, 4, 5, 6, 7, 8,
                                       8, 7, 6, 5, 4, 3, 2, 1, 0])

    def test_sign_flips_and_binary_rows_stay_apart(self):
        """Rows that differ only in sign bits, and rows of 0s and 1s,
        which differ only in exponent bits, each keep a row of their
        own."""
        flips = (np.arange(64)[:, None] >> np.arange(6)) & 1
        sign_flips = np.random.default_rng(38).normal(size=6) * (1 - 2 * flips)
        binary = ((np.arange(1024)[:, None] >> np.arange(10)) & 1).astype(
            np.float64)
        for distinct in (sign_flips, binary):
            dataset = self.assert_canonical(distinct, np.arange(len(distinct)))
            assert len(dataset.listing_rows) == len(distinct)
            self.assert_canonical(distinct, np.random.default_rng(
                39).integers(0, len(distinct), size=2000))

    def test_table_layout_trains_the_same(self):
        """A table given in another order, with rows twice and a row no
        impression shows, makes the same dataset, which trains the
        same."""
        dataset = random_searches(np.random.default_rng(35), 12,
                                  n_listings=5)
        ids, rows = dataset.listing_ids, dataset.listing_rows
        index = dataset.listing_index
        n = len(rows)
        table = np.concatenate([rows[::-1], rows, np.full((1, 4), 7.0)])
        # even impressions show the reversed copy, odd ones the other
        relaid = with_listing_table(
            dataset, np.concatenate([ids[::-1], ids, ["unshown"]]), table,
            np.where(np.arange(len(index)) % 2, index + n, n - 1 - index))
        np.testing.assert_array_equal(relaid.listing_ids, ids)
        np.testing.assert_array_equal(relaid.listing_rows.view(np.uint64),
                                      rows.view(np.uint64))
        np.testing.assert_array_equal(relaid.listing_index, index)
        config = small_config()
        model, _ = train(config, dataset, epochs=2, batch_size=5)
        again, _ = train(config, relaid, epochs=2, batch_size=5)
        for name, tensor in model.params.items():
            np.testing.assert_array_equal(again.params[name].values,
                                          tensor.values)

    def test_all_distinct_rows_keep_their_order(self):
        rows = np.random.default_rng(36).normal(size=(25, 4))
        dataset = dataset_showing(rows, np.arange(25))
        np.testing.assert_array_equal(dataset.listing_rows, rows)
        np.testing.assert_array_equal(dataset.listing_index, np.arange(25))

    def test_index_outside_the_table_is_refused(self):
        rows = np.zeros((3, 2))
        for index in ([0, 3], [-1, 0]):
            with pytest.raises(ContractError, match="outside the listing"):
                dataset_showing(rows, index)

    def test_batch_of_distinct_rows(self):
        dataset = random_searches(np.random.default_rng(37), 8)
        norm = NormalizationStats.fit(dataset.listing_rows,
                                      dataset.listing_index,
                                      dataset.context_features)
        pick = np.array([5, 2, 7])
        batch = make_batch(reorder(batch_inputs(dataset, norm), pick), 0,
                           len(pick))
        # one listing row per impression, in the dataset's row order
        rows = imp_rows_for_searches(dataset, pick)
        np.testing.assert_array_equal(
            batch.listing_rows,
            norm.apply_listing(impression_features(dataset)[np.sort(rows)]))
        np.testing.assert_array_equal(batch.listing_index,
                                      np.argsort(np.argsort(rows)))


class TestTrainLayouts:
    def test_one_search_layout_per_step(self, monkeypatch):
        """Each step builds its batch's layout once, in make_batch, and
        every segment op of the step reads that one; the losses group
        their terms by task without a layout of their own. The only other
        layout is each epoch's, built once by reorder."""
        built = []

        class CountingSegments(nn.Segments):
            def __init__(self, sizes):
                super().__init__(sizes)
                built.append(self)

        calls = []

        def recording(original):
            def call(*args):
                before = len(built)
                result = original(*args)
                assert built[before:] == [result.segments]
                calls.append(original.__name__)
                return result
            return call

        monkeypatch.setattr(model_module, "Segments", CountingSegments)
        for name in ("reorder", "make_batch"):
            monkeypatch.setattr(model_module, name,
                                recording(getattr(model_module, name)))
        dataset = planted_dataset()
        config = default_model_config(2, 2, embedding_dim=4,
                                      tower_hidden=(5,), seed=7)
        for epochs in (1, 3):
            built.clear()
            calls.clear()
            train(config, dataset, epochs=epochs, batch_size=3)
            # 4 searches in batches of 3: two steps per epoch
            assert calls == ["reorder", "make_batch", "make_batch"] * epochs
            assert len(built) == len(calls)


class TestStepTape:
    """A training step, from the parameters to the loss, records one node
    over every parameter, whatever the config."""

    @staticmethod
    def step_tape(config: ModelConfig):
        params = init_model_params(config)
        batch = random_batch(np.random.default_rng(41), n_searches=6,
                             booked=True)
        weights = {t: 1.0 for t in config.base_tasks}
        with nn.Tape() as tape:
            total_loss(config, params, batch, weights)
        return params, tape

    def nodes_per_step(self, config: ModelConfig) -> int:
        params, tape = self.step_tape(config)
        (_, inputs, _), = tape._nodes
        assert len(inputs) == 1 and inputs[0] is params.tensor
        return len(tape)

    def test_full_config(self):
        assert self.nodes_per_step(small_config()) == 1

    def test_fewer_tasks_record_as_many_nodes(self):
        config = small_config(base_tasks=("book", "unc"),
                              twiddler_tasks=("cbg",))
        assert self.nodes_per_step(config) == 1

    def test_baseline(self):
        config = baseline_model_config(4, 3, embedding_dim=5,
                                       tower_hidden=(6,), seed=3)
        assert self.nodes_per_step(config) == 1


def with_labels(batch: SearchBatch, **changes) -> SearchBatch:
    """The batch with some label columns replaced; its pairs follow."""
    labels = {**batch.labels, **changes}
    return replace(batch, label_rows=label_rows(labels))


def loss_node_batches() -> dict[str, tuple]:
    """(config, batch) per case the loss node must get right."""
    rng = np.random.default_rng(42)
    mixed = batch_of_sizes(rng, [3, 1, 5, 2, 1, 4, 1, 6])
    booked = random_batch(rng, n_searches=6, booked=True)
    none = np.zeros(booked.n_rows, dtype=bool)
    baseline = FORWARD_CONFIGS["baseline"]()
    return {
        "mixed": (small_config(), mixed),
        "every-search-booked": (small_config(), booked),
        "no-uncancelled-booking": (small_config(),
                                   with_labels(booked, unc=none)),
        "twiddler-without-eligible-rows": (
            small_config(), with_labels(booked, **{NEGATIVE_PARENT["rej"]:
                                                   none})),
        "no-positive": (small_config(), with_labels(
            booked, **{t: none for t in POSITIVE_CHAIN})),
        "one-row-searches": (small_config(),
                             batch_of_sizes(rng, [1, 1, 1, 1, 1])),
        "one-row-and-booked": (small_config(), with_labels(
            batch_of_sizes(rng, [1, 4, 1, 3]),
            unc=np.array([True, True] + [False] * 6 + [True]))),
        "repeated-listings": (small_config(), batch_of_sizes(
            rng, [3, 1, 5, 2, 1, 4, 1], n_listings=5)),
        "fewer-tasks": (small_config(base_tasks=("book", "unc"),
                                     twiddler_tasks=("cbg",)), booked),
        "baseline": (baseline, booked),
        "baseline-repeated-listings": (baseline, batch_of_sizes(
            rng, [2, 6, 1, 3], n_listings=4)),
        "two-bookings-in-a-search": (small_config(), with_labels(
            batch_of_sizes(rng, [4, 3, 5]),
            unc=np.isin(np.arange(12), [0, 2, 5]))),
        "only-the-last-search-paired": (small_config(), with_labels(
            booked, unc=booked.labels["unc"]
            & (np.arange(booked.n_rows) >= booked.segments.starts[-2]))),
    }


def logits_node(config, head: nn.Tensor, coef_logits: nn.Tensor | None,
                batch: SearchBatch, weights):
    """``loss_from_logits`` recorded as one node over the two logit
    inputs, as (loss, parts)."""
    total, parts, backward = loss_from_logits(
        config, head.values,
        None if coef_logits is None else coef_logits.values, batch, weights)
    inputs = (head,) if coef_logits is None else (head, coef_logits)
    return nn.record(np.asarray(total), inputs,
                     lambda g: backward(float(g))), parts


def node_or_reference(node: bool):
    """The loss from the logits as one node, or as the per-op
    composition, as (loss, parts)."""
    if node:
        return logits_node
    return lambda *args: ops.total_loss(*args)[::2]


def bits(x) -> int | np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    return int(a.view(np.uint64)) if a.ndim == 0 else a.view(np.uint64)


@pytest.mark.parametrize("case", list(loss_node_batches()))
class TestLossNode:
    """The loss from the heads' logits, and the whole step's one node from
    the parameters, against the per-op composition they replaced: the
    same loss, parts and gradients, bit for bit, signed zeros included
    (the coefficient gradient of a search no pair reads is +0.0)."""

    @staticmethod
    def leaf_run(node: bool, config, batch, head, coef_logits, weights):
        """The loss, its parts and both gradients from ``[tasks, rows]``
        logits ``head``, which the per-op reference reads as its
        ``[rows, tasks]`` ``.T``; either way the head's gradient comes
        back ``[tasks, rows]``."""
        head = nn.Tensor(head if node else head.T, requires_grad=True)
        if coef_logits is not None:
            coef_logits = nn.Tensor(coef_logits, requires_grad=True)
        with nn.Tape() as tape:
            loss, parts = node_or_reference(node)(config, head, coef_logits,
                                                  batch, weights)
            nn.backward(tape, loss)
        return loss.values, parts, head.grad if node else head.grad.T, (
            None if coef_logits is None else coef_logits.grad)

    @staticmethod
    def model_run(node: bool, config, params, batch, weights):
        """The loss, its parts and the gradient vector: the node's, or
        the per-op gradients put together in layout order."""
        with nn.Tape() as tape:
            if node:
                loss, _, parts = total_loss(config, params, batch, weights)
            else:
                loss, parts = ops.step_loss(config, params, batch, weights)
            nn.backward(tape, loss)
        if node:
            grad, params.tensor.grad = params.tensor.grad, None
        else:
            grad = np.concatenate([t.grad for _, t in params.items()],
                                  axis=None)
            for _, t in params.items():
                t.grad = None
        return loss.values, parts, grad

    def test_loss_parts_and_both_gradients(self, case):
        config, batch = loss_node_batches()[case]
        rng = np.random.default_rng(43)
        weights = {t: float(rng.uniform(0.5, 2.0)) for t in config.base_tasks}
        net = network(config, init_model_params(config), batch)
        # as the model makes them, and spread out to saturate the funnel
        for scale in (1.0, 12.0):
            got = self.leaf_run(True, config, batch, net.head * scale,
                                net.coef_logits, weights)
            want = self.leaf_run(False, config, batch, net.head * scale,
                                 net.coef_logits, weights)
            assert bits(got[0]) == bits(want[0])
            assert list(got[1]) == list(want[1])
            for name in got[1]:
                assert bits(got[1][name]) == bits(want[1][name]), name
            for g, w in zip(got[2:], want[2:]):
                if w is None:
                    assert g is None
                else:
                    np.testing.assert_array_equal(bits(g), bits(w))

    def test_parameter_gradients(self, case):
        config, batch = loss_node_batches()[case]
        params = init_model_params(config)
        weights = {t: 1.5 for t in config.base_tasks}
        # as initialized, and spread out so more ReLUs are off and the
        # funnel saturates
        for scale in (1.0, 4.0):
            for _, t in params.items():
                t.values *= scale
            got = self.model_run(True, config, params, batch, weights)
            want = self.model_run(False, config, params, batch, weights)
            assert bits(got[0]) == bits(want[0]) and got[1] == want[1]
            got_views = params.views(got[2])
            for name, grad in params.views(want[2]).items():
                np.testing.assert_array_equal(bits(got_views[name]),
                                              bits(grad), err_msg=name)
            np.testing.assert_array_equal(bits(got[2]), bits(want[2]))

    def test_layout(self, case):
        """The heads' logits and their gradient are C-ordered
        ``[tasks, rows]`` arrays, and the blend coefficients per search."""
        config, batch = loss_node_batches()[case]
        weights = {t: 1.0 for t in config.base_tasks}
        net = network(config, init_model_params(config), batch)
        d_head, _ = loss_from_logits(config, net.head, net.coef_logits,
                                     batch, weights)[2](1.0)
        for a in (net.head, d_head):
            assert a.shape == (len(config.all_tasks), batch.n_rows)
            assert a.flags.c_contiguous
        out = outputs_from_logits(config, net.head, net.coef_logits,
                                  batch.segments)
        if config.twiddler_tasks:
            assert out.alpha_base.shape == (batch.segments.n,)
            assert out.alpha_twiddler.shape == (len(config.twiddler_tasks),
                                                batch.segments.n)

    def test_memory_order_changes_no_bit(self, case):
        """The heads' logits read the same as a C-ordered ``[tasks, rows]``
        array and as the ``.T`` of a C-ordered ``[rows, tasks]`` one: every
        score, the loss, its parts and both gradients, signed zeros
        included."""
        config, batch = loss_node_batches()[case]
        weights = {t: 0.75 + 0.25 * k for k, t in enumerate(config.base_tasks)}
        net = network(config, init_model_params(config), batch)
        for scale in (1.0, 12.0):
            tasks_first = net.head * scale
            rows_first = np.ascontiguousarray(tasks_first.T).T
            assert rows_first.T.flags.c_contiguous
            runs = []
            for head in (tasks_first, rows_first):
                total, parts, backward = loss_from_logits(
                    config, head, net.coef_logits, batch, weights)
                out = outputs_from_logits(config, head, net.coef_logits,
                                          batch.segments)
                runs.append(([total, *parts.values(), *backward(1.0)],
                             [getattr(out, f.name) for f in fields(out)]))
            (got, got_out), (want, want_out) = runs
            for g, w in zip(got + got_out, want + want_out):
                if w is None:
                    assert g is None
                else:
                    np.testing.assert_array_equal(bits(g), bits(w))


class TestLossNodeFiniteDifferences:
    def test_both_gradients(self):
        """Central differences of the loss against the node's gradients.
        The blend's loss sees the scores as constants, so the logits'
        gradient is that of the base and twiddler parts; the coefficient
        logits reach only the blend's loss."""
        rng = np.random.default_rng(44)
        config = small_config()
        batch = random_batch(rng, n_searches=4, booked=True)
        assert batch.pair_i.size
        weights = {t: float(rng.uniform(0.5, 2.0)) for t in POSITIVE_CHAIN}
        head = rng.normal(size=(len(config.all_tasks), batch.n_rows)) * 2.0
        coef_logits = rng.normal(size=(batch.segments.n, 4))
        _, _, d_head, d_coef = TestLossNode.leaf_run(
            True, config, batch, head, coef_logits, weights)

        def parts():
            return loss_from_logits(config, head, coef_logits, batch,
                                    weights)[1]

        for x, grad, read in (
                (head, d_head, lambda p: p["base"] + p["twiddler"]),
                (coef_logits, d_coef, lambda p: p["total"])):
            flat, step = x.reshape(-1), 1e-6
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + step
                up = read(parts())
                flat[k] = orig - step
                down = read(parts())
                flat[k] = orig
                np.testing.assert_allclose(grad.reshape(-1)[k],
                                           (up - down) / (2 * step),
                                           rtol=1e-5, atol=1e-8)


class TestStepNodeFiniteDifferences:
    def test_parameter_gradients(self, monkeypatch):
        """Central differences of the loss against the step node's
        gradients, on a few entries of each module. The blend's loss sees
        the scores as constants, so entries of the listing tower and the
        heads are checked against the base and twiddler parts; the
        coefficient MLP reaches only the blend's loss, so its entries are
        checked against the total."""
        rng = np.random.default_rng(46)
        config = small_config()
        params = init_model_params(config)
        batch = random_batch(rng, n_searches=4, booked=True)
        assert batch.pair_i.size
        assert_clear_of_relu_kinks(monkeypatch, config, params, batch)
        weights = {t: float(rng.uniform(0.5, 2.0)) for t in POSITIVE_CHAIN}
        with nn.Tape() as tape:
            loss, _, _ = total_loss(config, params, batch, weights)
            nn.backward(tape, loss)
        grad, values = params.tensor.grad, params.tensor.values
        # each parameter's entries of the vector
        positions = params.views(np.arange(values.size))

        def scoring(parts):
            return parts["base"] + parts["twiddler"]

        def total(parts):
            return parts["total"]

        step = 1e-6
        for name, read in (("tower_listing.w0", scoring),
                           ("tower_listing.b1", scoring),
                           ("head_book.w0", scoring),
                           ("head_rej.b0", scoring),
                           ("combination.w0", total),
                           ("combination.b1", total)):
            entries = positions[name].reshape(-1)
            for k in rng.choice(entries, size=min(3, entries.size),
                                replace=False):
                orig = values[k]
                values[k] = orig + step
                up = read(total_loss(config, params, batch, weights)[2])
                values[k] = orig - step
                down = read(total_loss(config, params, batch, weights)[2])
                values[k] = orig
                np.testing.assert_allclose(grad[k], (up - down) / (2 * step),
                                           rtol=1e-5, atol=1e-8,
                                           err_msg=name)


class TestLossNodeShapes:
    def test_refuses_logits_that_do_not_fit_the_batch(self):
        config, batch = loss_node_batches()["mixed"]
        rows, searches = batch.n_rows, batch.segments.n
        weights = {t: 1.0 for t in config.base_tasks}
        for head, coef_logits in (((9, rows + 1), (searches, 4)),
                                  ((8, rows), (searches, 4)),
                                  ((rows, 9), (searches, 4)),
                                  ((9, rows), (searches, 3)),
                                  ((9, rows), None)):
            with pytest.raises(ShapeError, match="loss_from_logits"):
                loss_from_logits(config, np.zeros(head),
                                 None if coef_logits is None
                                 else np.zeros(coef_logits), batch, weights)


class TestTotalLoss:
    def test_baseline_reduces_to_base_term(self):
        config = baseline_model_config(4, 3, embedding_dim=5,
                                       tower_hidden=(6,), seed=3)
        params = init_model_params(config)
        batch = random_batch(np.random.default_rng(13))
        loss, head, parts = total_loss(config, params, batch,
                                       {"unc": 1.0})
        assert parts["total"] == parts["base"]
        assert "twiddler" not in parts and "combination" not in parts
        assert head.shape == (1, batch.n_rows)

    def test_additivity(self):
        config = small_config()
        params = init_model_params(config)
        rng = np.random.default_rng(14)
        weights = {t: 1.0 for t in POSITIVE_CHAIN}
        for rep in range(10):
            batch = random_batch(rng)
            loss, _, parts = total_loss(config, params, batch, weights)
            again = ops.forward(config, params, batch)
            want = float(base_loss(again.log_joint, batch, POSITIVE_CHAIN,
                                   weights).values)
            want += float(twiddler_loss(again.y_twiddler, batch,
                                        config.twiddler_tasks).values)
            want += float(combination_loss(again.y_combination, batch).values)
            np.testing.assert_allclose(parts["total"], want, rtol=1e-12)
            np.testing.assert_allclose(
                parts["total"],
                parts["base"] + parts["twiddler"] + parts["combination"],
                rtol=1e-12)

    def test_zeroed_model_on_symmetric_batch_is_ln2_arithmetic(self):
        config = small_config()
        params = init_model_params(config)
        zero_params(params)
        labels = {m: np.zeros(2, dtype=bool) for m in ALL_MILESTONES}
        for task in POSITIVE_CHAIN:
            labels[task] = np.array([True, False])
        segments = nn.Segments([2])
        pair_i, pair_j = preference_pairs(labels["unc"], segments)
        batch = SearchBatch(listing_rows=np.zeros((2, 4)),
                            listing_index=np.arange(2),
                            context_rows=np.zeros((1, 3)), segments=segments,
                            label_rows=label_rows(labels))
        weights = {t: 1.0 for t in POSITIVE_CHAIN}
        loss, _, parts = total_loss(config, params, batch, weights)
        assert parts["base"] == pytest.approx(6 * LN2, rel=1e-14)
        assert parts["twiddler"] == pytest.approx(3 * LN2, rel=1e-14)
        assert parts["combination"] == pytest.approx(LN2, rel=1e-14)
        np.testing.assert_allclose(float(loss.values), 10 * LN2, rtol=1e-14)


# fd_gradcheck's central-difference step
FD_STEP = 1e-5


def assert_clear_of_relu_kinks(monkeypatch, config, params, batch):
    """Central differences across a ReLU kink see a one-sided slope, so a
    gradcheck holds only when every value reaching a ReLU in the forward
    pass over ``batch`` sits far more than a step from 0."""
    seen = []
    relu = ops.relu

    def spy(x):
        seen.append(x.values.ravel().copy())
        return relu(x)

    with monkeypatch.context() as patch:
        patch.setattr(ops, "relu", spy)
        ops.forward(config, params, batch)
    # both towers and the blend MLP have one hidden layer each
    assert len(seen) == 3
    assert np.min(np.abs(np.concatenate(seen))) > 100 * FD_STEP


class TestGradients:
    def test_scoring_losses_gradcheck(self, monkeypatch):
        """Base and twiddler losses see every parameter without stops, so
        finite differences apply directly."""
        rng = np.random.default_rng(15)
        config = small_config()
        params = init_model_params(config)
        batch = random_batch(rng, n_searches=3, booked=True)
        assert_clear_of_relu_kinks(monkeypatch, config, params, batch)
        weights = {t: float(rng.uniform(0.5, 2.0)) for t in POSITIVE_CHAIN}
        def make_loss():
            outputs = ops.forward(config, params, batch)
            return ops.add(base_loss(outputs.log_joint, batch, POSITIVE_CHAIN,
                                    weights),
                          twiddler_loss(outputs.y_twiddler, batch,
                                        config.twiddler_tasks))
        checked = {name: t for name, t in params.items()
                   if not name.startswith("combination")}
        worst = fd_gradcheck(make_loss, checked, h=FD_STEP)
        assert worst < 1e-4

    def test_combination_loss_gradcheck_with_frozen_scores(self, monkeypatch):
        """The blending loss treats scores as constants by contract, so the
        finite-difference reference freezes them the same way."""
        rng = np.random.default_rng(15)
        config = small_config()
        params = init_model_params(config)
        batch = random_batch(rng, n_searches=3, booked=True)
        assert_clear_of_relu_kinks(monkeypatch, config, params, batch)
        scores = np.column_stack([
            rng.normal(size=batch.n_rows) - 2.0,
            rng.normal(size=(batch.n_rows, len(config.twiddler_tasks)))])
        def make_loss():
            out = ops.forward(config, params, batch)
            coefs = ops.concat_cols(out.alpha_base, out.alpha_twiddler)
            blend = ops.cumsum(ops.mul(coefs, nn.Tensor(scores)))
            return combination_loss(ops.column(blend, scores.shape[1] - 1),
                                    batch)
        checked = {name: t for name, t in params.items()
                   if name.startswith(("combination", "tower_context"))}
        worst = fd_gradcheck(make_loss, checked, h=FD_STEP)
        assert worst < 1e-4

    def test_combination_loss_freezes_scoring_modules(self):
        config = small_config()
        params = init_model_params(config)
        rng = np.random.default_rng(16)
        batch = random_batch(rng, n_searches=6, booked=True)
        assert batch.pair_i.size > 0
        with nn.Tape() as tape:
            outputs = ops.forward(config, params, batch)
            loss = combination_loss(outputs.y_combination, batch)
            nn.backward(tape, loss)
        groups = module_parameter_names(config)
        for name in groups["base_heads"] + groups["twiddler_heads"] \
                + groups["listing_tower"]:
            assert np.all(params[name].grad == 0.0), name
        assert any(np.any(params[name].grad != 0.0)
                   for name in groups["combination"])
        assert any(np.any(params[name].grad != 0.0)
                   for name in groups["context_tower"])

    def test_full_loss_reaches_every_module(self):
        config = small_config()
        params = init_model_params(config)
        batch = random_batch(np.random.default_rng(17), n_searches=6,
                             booked=True)
        weights = {t: 1.0 for t in POSITIVE_CHAIN}
        with nn.Tape() as tape:
            loss, _, _ = total_loss(config, params, batch, weights)
            nn.backward(tape, loss)
        grads = params.views(params.tensor.grad)
        groups = module_parameter_names(config)
        for group, names in groups.items():
            assert any(np.any(grads[name] != 0.0) for name in names), group


def planted_dataset() -> Dataset:
    """Four searches whose first feature perfectly separates outcomes; the
    third listing is one listing, shown in every search."""
    schema = DatasetSchema(listing_dim=2, context_dim=2,
                           context_features=("days_ahead_of_checkin",
                                             "num_previous_searches"))
    full = {m: True for m in POSITIVE_CHAIN}
    click = {"c": True}
    records = []
    for g in range(4):
        impressions = [
            {"listing_id": f"L{g}a", "position": 1,
             "features": [1.0, 0.1 * g], "labels": full},
            {"listing_id": f"L{g}b", "position": 2,
             "features": [0.0, -0.1 * g], "labels": click},
            {"listing_id": "Lc", "position": 3,
             "features": [-1.0, 0.2], "labels": {}},
        ]
        records.append({"guest_id": f"g{g}", "searches": [
            {"search_id": f"s{g}", "t_days": float(g),
             "context": [30.0 + g, 0.0], "impressions": impressions}]})
    return dataset_from_records(schema, records)


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        dataset = planted_dataset()
        config = default_model_config(2, 2, embedding_dim=4,
                                      tower_hidden=(5,), seed=11)
        model, history = train(config, dataset, epochs=0)
        fresh = init_model_params(config)
        assert history == []
        for name, tensor in model.params.items():
            np.testing.assert_array_equal(tensor.values, fresh[name].values)

    def test_deterministic_per_seed(self):
        dataset = planted_dataset()
        config = default_model_config(2, 2, embedding_dim=4,
                                      tower_hidden=(5,), seed=11)
        model_a, hist_a = train(config, dataset, epochs=4, batch_size=2)
        model_b, hist_b = train(config, dataset, epochs=4, batch_size=2)
        assert [h.losses for h in hist_a] == [h.losses for h in hist_b]
        for name, tensor in model_a.params.items():
            np.testing.assert_array_equal(tensor.values,
                                          model_b.params[name].values)

    def test_separable_dataset_trains_monotonically(self, monkeypatch):
        dataset = planted_dataset()
        config = default_model_config(2, 2, embedding_dim=4,
                                      tower_hidden=(5,), seed=11)
        monkeypatch.setattr(model_module, "task_weights",
                            lambda dataset, tasks: {t: 1.0 for t in tasks})
        model, history = train(config, dataset, epochs=50,
                               learning_rate=5e-3)
        base = [h.losses["base"] for h in history]
        assert all(b1 > b2 for b1, b2 in zip(base, base[1:]))
        assert base[-1] < 0.5 * base[0]

    def test_divergence_reports_epoch(self, monkeypatch):
        dataset = planted_dataset()
        config = baseline_model_config(2, 2, embedding_dim=4,
                                       tower_hidden=(5,), seed=11)
        monkeypatch.setattr(model_module, "task_weights",
                            lambda dataset, tasks: {"unc": 1e308})
        with np.errstate(over="ignore"):
            with pytest.raises(TrainingDivergenceError) as err:
                train(config, dataset, epochs=1)
        assert err.value.epoch == 0
        assert err.value.batch == 0
        assert err.value.term == "base"
        assert str(err.value) == "non-finite base loss at epoch 0, batch 0"

    @pytest.mark.parametrize("rate", [-1e-3, 0.0, float("nan"),
                                      float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        config = baseline_model_config(2, 2, embedding_dim=4,
                                       tower_hidden=(5,), seed=11)
        with pytest.raises(ConfigError, match="learning_rate"):
            train(config, planted_dataset(), epochs=1, learning_rate=rate)

    @pytest.mark.parametrize("make_config, digest, ndcg_unc", [
        (default_model_config,
         "3c6a734eed2f8af1434ebbb3e6b452988a928cca9d52c9c4b2b3c674cb27b3c8",
         0.616561750538413),
        (baseline_model_config,
         "a13b54f9a634065d8500ee8d5237e71ca5ec1aebcb646cf904eafdfd4b76123b",
         0.7230610080992426),
    ], ids=["full", "baseline"])
    def test_result_pinned(self, make_config, digest, ndcg_unc):
        """Training is deterministic per seed, and a change that claims to
        leave the arithmetic alone must leave these values alone. Thirteen
        batches per epoch, the last one short."""
        dataset, _ = simulate.generate(
            simulate.default_generator_config(n_guests=300, seed=4))
        train_ds, eval_ds = evaluate.prepare_split(dataset)
        schema = dataset.schema
        config = make_config(schema.listing_dim, schema.context_dim, seed=5)
        model, _ = train(config, train_ds, epochs=3, batch_size=50)
        sha = hashlib.sha256()
        for name in sorted(model.params.names()):
            sha.update(name.encode())
            sha.update(model.params[name].values.tobytes())
        assert sha.hexdigest() == digest
        assert evaluate.evaluate(model, eval_ds)["unc"].mean == ndcg_unc

    @pytest.mark.parametrize("batch_size, digest, ndcg_unc", [
        (128,
         "2c15c7aa08dd1209089b6863781cf3e8550a74bf4befdc6a5c27028654fe3087",
         0.4699575664075291),
        (512,
         "bba8cfb4cdd1124ee77c2043a1e7deb414414fe0b4c49db236e9cbf6cc3b3f0e",
         0.3729522407150719),
    ])
    def test_benchmark_world_result_pinned(self, batch_size, digest,
                                           ndcg_unc):
        """As :meth:`test_result_pinned`, on the benchmark world's 20-wide
        listing rows, at batches of about 2,000 and 8,000 rows, where a
        change to the step's memory layout would show."""
        dataset, _ = simulate.generate(
            simulate.benchmark_generator_config(n_guests=300, seed=5))
        train_ds, eval_ds = evaluate.prepare_split(dataset)
        schema = dataset.schema
        config = default_model_config(schema.listing_dim, schema.context_dim,
                                      seed=5)
        model, _ = train(config, train_ds, epochs=2, batch_size=batch_size)
        sha = hashlib.sha256()
        for name in sorted(model.params.names()):
            sha.update(name.encode())
            sha.update(model.params[name].values.tobytes())
        assert sha.hexdigest() == digest
        assert evaluate.evaluate(model, eval_ds)["unc"].mean == ndcg_unc

    def test_schema_hash_recorded(self):
        dataset = planted_dataset()
        config = baseline_model_config(2, 2, embedding_dim=4,
                                       tower_hidden=(5,), seed=0)
        model, _ = train(config, dataset, epochs=1)
        assert model.schema_hash == dataset.schema.hash()
        model.require_schema(dataset.schema)
        other = DatasetSchema(listing_dim=3, context_dim=2,
                              context_features=("days_ahead_of_checkin",
                                                "num_previous_searches"))
        with pytest.raises(SchemaMismatchError):
            model.require_schema(other)


class TestScoring:
    def trained_tiny_model(self, seed=11):
        dataset = planted_dataset()
        config = default_model_config(2, 2, embedding_dim=4,
                                      tower_hidden=(5,), seed=seed)
        model, _ = train(config, dataset, epochs=5)
        return model

    def test_single_candidate_ranks_first(self):
        model = self.trained_tiny_model()
        ranked = score_candidates(model, np.array([30.0, 0.0]), ["only"],
                                  np.array([[0.5, 0.5]]))
        assert len(ranked) == 1
        assert ranked[0].rank == 1
        assert ranked[0].listing_id == "only"

    def test_orders_by_score(self):
        model = self.trained_tiny_model()
        rng = np.random.default_rng(18)
        ids = [f"cand{k:02d}" for k in range(20)]
        rows = rng.normal(size=(20, 2))
        ranked = score_candidates(model, np.array([30.0, 0.0]), ids, rows)
        scores = np.array([c.score for c in ranked])
        assert np.all(np.diff(scores) <= 0)
        want = model.outputs(dataset_showing(
            rows, np.arange(len(rows)), ids, [30.0, 0.0])).ranking_score
        order = np.lexsort((np.asarray(ids), -want))
        assert [c.listing_id for c in ranked] == [ids[int(k)] for k in order]

    def test_ties_break_by_listing_id(self):
        model = self.trained_tiny_model()
        rows = np.array([[0.25, -0.5], [0.25, -0.5], [0.25, -0.5]])
        ranked = score_candidates(model, np.array([30.0, 0.0]),
                                  ["zeta", "alpha", "mid"], rows)
        assert [c.listing_id for c in ranked] == ["alpha", "mid", "zeta"]

    def test_shift_invariance_of_ordering(self):
        model = self.trained_tiny_model()
        rng = np.random.default_rng(19)
        ids = [f"c{k}" for k in range(10)]
        rows = rng.normal(size=(10, 2))
        y = model.outputs(dataset_showing(
            rows, np.arange(len(rows)), ids, [35.0, 1.0])).ranking_score
        base_order = np.lexsort((np.asarray(ids), -y))
        for shift in (-100.0, -1.0, 2.5, 1e6):
            shifted_order = np.lexsort((np.asarray(ids), -(y + shift)))
            np.testing.assert_array_equal(base_order, shifted_order)

    def test_empty_candidates_rejected(self):
        model = self.trained_tiny_model()
        with pytest.raises(ContractError):
            score_candidates(model, np.array([30.0, 0.0]), [],
                             np.zeros((0, 2)))

    def test_candidate_outputs_are_consistent(self):
        model = self.trained_tiny_model()
        rng = np.random.default_rng(20)
        rows = rng.normal(size=(5, 2))
        ids = [f"c{k}" for k in range(5)]
        ranked = score_candidates(model, np.array([30.0, 0.0]), ids, rows)
        for cand in ranked:
            want = cand.alpha_base * cand.y_base
            for task, alpha in cand.alpha_twiddler.items():
                want += alpha * cand.y_twiddler[task]
            np.testing.assert_allclose(cand.y_combination, want, rtol=1e-12)
            assert cand.score == cand.y_combination
            joints = [cand.log_joint[t] for t in model.config.base_tasks]
            assert all(a >= b - 1e-15 for a, b in zip(joints, joints[1:]))
            assert all(v <= 0.0 for v in joints)


class TestPersistence:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        dataset = planted_dataset()
        config = default_model_config(2, 2, embedding_dim=4,
                                      tower_hidden=(5,), seed=7)
        model, _ = train(config, dataset, epochs=3)
        save_model(model, tmp_path / "model")
        back = load_model(tmp_path / "model")
        assert back.schema_hash == model.schema_hash
        assert back.config == model.config
        for name, tensor in model.params.items():
            np.testing.assert_array_equal(tensor.values,
                                          back.params[name].values)
        np.testing.assert_array_equal(back.normalization.listing_mean,
                                      model.normalization.listing_mean)
        rng = np.random.default_rng(21)
        shown = dataset_showing(rng.normal(size=(6, 2)), [3, 0, 5, 5, 1, 2, 4],
                                [f"L{k}" for k in range(6)], [40.0, 1.0])
        np.testing.assert_array_equal(back.outputs(shown).ranking_score,
                                      model.outputs(shown).ranking_score)

    def test_removed_config_keys_are_refused(self, tmp_path):
        """A model saved with the activation, head depth and task weights
        in its config record does not load."""
        config = default_model_config(2, 2, embedding_dim=4,
                                      tower_hidden=(5,), seed=7)
        model, _ = train(config, planted_dataset(), epochs=0)
        save_model(model, tmp_path / "model")
        path = tmp_path / "model" / "params.json"
        manifest = json.loads(path.read_text())
        manifest["model_config"].update(activation="relu", head_hidden=[],
                                        task_loss_weights=None)
        path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaMismatchError,
                           match="unknown keys \\['activation', "
                                 "'head_hidden', "
                                 "'task_loss_weights'\\]"):
            load_model(tmp_path / "model")

    def test_plain_parameter_dump_is_refused(self, tmp_path):
        store = init_model_params(small_config())
        nn.save_params(store, tmp_path / "bare")
        with pytest.raises(SchemaMismatchError):
            load_model(tmp_path / "bare")


class TestBlendCoefficients:
    def test_matches_scored_candidates(self):
        """A dataset-wide scoring pass gives every search the
        coefficients that scoring it alone does, up to the rounding of a
        four-row against a one-row matrix product."""
        dataset = planted_dataset()
        config = default_model_config(2, 2, embedding_dim=4,
                                      tower_hidden=(5,), seed=7)
        model, _ = train(config, dataset, epochs=3)
        outputs = model.outputs(dataset)
        features = impression_features(dataset)
        for s in range(dataset.n_searches):
            rows = np.arange(dataset.searches.starts[s],
                             dataset.searches.starts[s + 1])
            ranked = score_candidates(model, dataset.context_features[s],
                                      [f"r{k}" for k in rows],
                                      features[rows])
            assert outputs.alpha_base[s] > 0.0
            np.testing.assert_allclose(outputs.alpha_base[s],
                                       ranked[0].alpha_base, rtol=1e-12)
            for k, task in enumerate(config.twiddler_tasks):
                np.testing.assert_allclose(outputs.alpha_twiddler[k, s],
                                           ranked[0].alpha_twiddler[task],
                                           rtol=1e-12)

    def test_requires_combination_layer(self):
        dataset = planted_dataset()
        config = baseline_model_config(2, 2, embedding_dim=4,
                                       tower_hidden=(5,), seed=7)
        model, _ = train(config, dataset, epochs=1)
        outputs = model.outputs(dataset)
        assert outputs.alpha_base is None and outputs.alpha_twiddler is None
        with pytest.raises(ConfigError):
            evaluate.ntc_curves(model, dataset, "days_ahead_of_checkin")


class TestNonFiniteRows:
    """Feature rows that are not finite after normalization are refused
    before any arithmetic, in ``batch_inputs``, whose batch training cuts
    its batches from and scoring reads."""

    @staticmethod
    def trained(epochs=0):
        dataset = planted_dataset()
        config = default_model_config(2, 2, embedding_dim=4,
                                      tower_hidden=(5,), seed=7)
        return dataset, train(config, dataset, epochs=epochs)[0]

    @pytest.mark.parametrize("field", ["listing_mean", "context_mean"])
    def test_batch_inputs(self, field):
        """Statistics are finite, yet a finite row can still normalize
        past the float range: a mean of 1e300 over the floor's scale."""
        dataset = planted_dataset()
        norm = NormalizationStats.fit(dataset.listing_rows,
                                      dataset.listing_index,
                                      dataset.context_features)
        far = getattr(norm, field).copy()
        far[1] = 1e300
        narrow = np.full_like(far, model_module._MIN_SCALE)
        with np.errstate(over="ignore"), pytest.raises(ShapeError,
                                                       match="NaN or Inf"):
            batch_inputs(dataset, replace(norm, **{
                field: far, field.replace("mean", "scale"): narrow}))

    def test_train(self):
        """Training fits its normalization first, and the fit refuses the
        NaN mean that a NaN row gives."""
        dataset = planted_dataset()
        features = impression_features(dataset)
        features[4, 0] = np.nan
        config = default_model_config(2, 2, embedding_dim=4,
                                      tower_hidden=(5,), seed=7)
        with pytest.raises(SchemaMismatchError,
                           match="listing_mean must be finite"):
            train(config, with_impression_features(dataset, features),
                  epochs=1)

    @pytest.mark.parametrize("which", ["listing", "context"])
    def test_scoring(self, which):
        dataset, model = self.trained()
        listing = dataset.listing_rows.copy()
        context = dataset.context_features.copy()
        (listing if which == "listing" else context)[1, 1] = np.inf
        dataset = replace(dataset, listing_rows=listing,
                          context_features=context)
        with pytest.raises(ShapeError, match="NaN or Inf"):
            model.outputs(dataset)
        with pytest.raises(ShapeError, match="NaN or Inf"):
            evaluate.ntc_curves(model, dataset, "days_ahead_of_checkin")


class TestScoringLayout:
    @pytest.mark.parametrize("listing_dim, context_dim",
                             [(1, 4), (5, 4), (6, 3), (6, 5)],
                             ids=["listing-1", "listing-one-short",
                                  "context-one-short", "context-one-more"])
    def test_outputs_refuse_rows_of_another_width(self, listing_dim,
                                                  context_dim):
        """A dataset whose rows are not as wide as the towers is of
        another schema, and is refused before any arithmetic."""
        dataset, _ = simulate.generate(
            simulate.default_generator_config(n_guests=12, seed=3))
        model, _ = train(baseline_model_config(6, 4), dataset, 0)
        ours = dataset_showing(np.zeros((3, 6)), [0, 1, 2],
                               context=np.zeros(4))
        assert model.outputs(ours).y_base.shape == (3,)
        other = dataset_showing(np.zeros((3, listing_dim)), [0, 1, 2],
                                context=np.zeros(context_dim))
        with pytest.raises(SchemaMismatchError):
            model.outputs(other)


FIT_ROWS = model_module._FIT_ROWS  # impression rows per streamed chunk


def gathered_fit(table: np.ndarray, index: np.ndarray):
    """The listing mean and scale of the whole gather ``table[index]``,
    the reference the streamed fit must equal bit for bit."""
    rows = table[index]
    scale = rows.std(axis=0)
    return rows.mean(axis=0), np.where(scale < 1e-12, 1.0, scale)


class TestNormalizationStats:
    @staticmethod
    def assert_fit_is_gathered_fit(table, index, context):
        norm = NormalizationStats.fit(table, index, context)
        mean, scale = gathered_fit(table, index)
        assert norm.listing_mean.tobytes() == mean.tobytes()
        assert norm.listing_scale.tobytes() == scale.tobytes()
        assert norm.context_mean.tobytes() == context.mean(axis=0).tobytes()
        return norm

    def test_standardizes_columns(self):
        rng = np.random.default_rng(22)
        listing = rng.normal(loc=3.0, scale=2.0, size=(500, 3))
        context = rng.normal(loc=-1.0, scale=0.5, size=(500, 2))
        norm = NormalizationStats.fit(listing, np.arange(500), context)
        out = norm.apply_listing(listing)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, rtol=1e-12)

    def test_constant_columns_pass_through_centered(self):
        listing = np.full((10, 2), 7.0)
        context = np.zeros((10, 1))
        norm = NormalizationStats.fit(listing, np.arange(10), context)
        out = norm.apply_listing(listing)
        np.testing.assert_array_equal(out, 0.0)
        np.testing.assert_array_equal(norm.listing_scale, 1.0)

    def test_zero_impressions_are_refused(self):
        with pytest.raises(ContractError, match="zero rows"):
            NormalizationStats.fit(np.ones((3, 2)), np.zeros(0, np.int64),
                                   np.ones((1, 1)))

    @pytest.mark.parametrize("width", [1, 2, 7])
    @pytest.mark.parametrize("n", [1, FIT_ROWS - 1, FIT_ROWS, FIT_ROWS + 1,
                                   2 * FIT_ROWS + 3])
    def test_streamed_fit_is_the_gathered_fit(self, width, n):
        rng = np.random.default_rng(24 + n + width)
        # columns of very different size and offset, so the order of the
        # additions shows in the last bits
        table = (rng.normal(size=(37, width)) * np.logspace(-3, 5, width)
                 + rng.uniform(-1e4, 1e4, width))
        index = rng.integers(0, len(table), n)
        self.assert_fit_is_gathered_fit(table, index, rng.normal(size=(5, 3)))

    def test_constant_column_keeps_scale_one(self):
        rng = np.random.default_rng(25)
        table = rng.normal(size=(40, 3))
        table[:, 1] = 0.1
        index = rng.integers(0, 40, 2 * FIT_ROWS + 3)
        norm = self.assert_fit_is_gathered_fit(table, index,
                                               rng.normal(size=(5, 2)))
        assert norm.listing_scale[1] == 1.0

    @pytest.mark.parametrize("make_config", [
        lambda: simulate.default_generator_config(n_guests=1000, seed=0),
        lambda: simulate.benchmark_generator_config(n_guests=800, seed=0),
    ], ids=["default", "benchmark"])
    def test_generated_worlds(self, make_config):
        dataset, _ = simulate.generate(make_config())
        train_ds, _ = evaluate.prepare_split(dataset)
        assert train_ds.n_impressions > 2 * FIT_ROWS
        for data in (dataset, train_ds):
            self.assert_fit_is_gathered_fit(
                data.listing_rows, data.listing_index, data.context_features)

    def test_traced_peak_does_not_grow_with_the_impressions(self):
        rng = np.random.default_rng(26)
        table = rng.normal(size=(300, 20))
        context = rng.normal(size=(100, 6))
        peaks = []
        for n in (3 * FIT_ROWS + 5, 12 * FIT_ROWS + 20):
            index = rng.integers(0, len(table), n)
            tracemalloc.start()
            try:
                NormalizationStats.fit(table, index, context)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the gather of the larger index alone would take 7.9 MB
        assert peaks[1] <= 1.05 * peaks[0]

    @pytest.mark.parametrize("field,value", [
        ("listing_mean", np.nan), ("context_mean", -np.inf),
        ("listing_scale", np.inf), ("context_scale", 0.0)])
    def test_fit_and_record_share_one_rule(self, field, value):
        rng = np.random.default_rng(27)
        norm = NormalizationStats.fit(rng.normal(size=(5, 3)), np.arange(5),
                                      rng.normal(size=(5, 2)))
        bad = getattr(norm, field).copy()
        bad[0] = value
        with pytest.raises(SchemaMismatchError, match=f"{field} must be"):
            replace(norm, **{field: bad})
        record = dict(norm.to_record(), **{field: bad.tolist()})
        with pytest.raises(SchemaMismatchError, match=f"{field} must be"):
            NormalizationStats.from_record(record)

    def test_fit_past_the_float_range_is_refused(self):
        """A value whose square overflows gives an infinite scale, which
        the fit refuses rather than hand to ``save_model``."""
        table = np.zeros((6, 2))
        table[5, 0] = 1e300
        with np.errstate(over="ignore"), pytest.raises(SchemaMismatchError,
                                                       match="listing_scale"):
            NormalizationStats.fit(table, np.arange(6), np.zeros((3, 2)))

    def test_record_roundtrip(self):
        rng = np.random.default_rng(23)
        norm = NormalizationStats.fit(rng.normal(size=(50, 3)),
                                      np.arange(50),
                                      rng.normal(size=(50, 2)))
        back = NormalizationStats.from_record(norm.to_record())
        np.testing.assert_array_equal(back.listing_mean, norm.listing_mean)
        np.testing.assert_array_equal(back.context_scale, norm.context_scale)
