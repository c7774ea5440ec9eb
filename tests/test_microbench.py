"""Micro-benchmarks of the hot paths, timed with pytest-benchmark.

One training step (batch cut, the step's one tape node forward and
backward, Adam) on a batch whose rows show each listing about 3.5 times,
the same step on an 8,192-row batch and on a batch whose rows all show
distinct listings, one batched forward over a whole dataset, two of the
step's kernels, forward and backward, as plain array code: the loss from
the heads' logits (``model.loss_from_logits``) on a 2,048-row and an
8,192-row batch and a dense layer (``nn.mlp_activations`` and
``nn.mlp_gradients`` of a one-layer block) on a batch-sized matrix,
generating 200 guests, validating and splitting
(``evaluate.prepare_split``: the guest split and the training filter) a
200-guest world, generating and saving the 1,000-guest default world, whose
6-wide rows make the writer's per-impression texts a larger share of the
file, and the JSONL save and load of the 200-guest world: one save, and
one load each of the generated file (feature rows repeat, so the block
decoder reads it from its memo), of a copy whose rows are all distinct
(so the decoder parses every row) and of the generated world spelled with
``json.dumps``'s default spaces, one record a line (so the decoder
declines every block and the record path reads every line). Rounds are
few so the suite's run time barely moves. The timings only inform: nothing here asserts on them,
only on the results being well formed.
"""

import json
from itertools import chain

import numpy as np
import pytest

from conftest import dataset_to_records, with_impression_features
from journeyrank import dataio, domain, evaluate, model, nn, simulate

pytest.importorskip("pytest_benchmark")


@pytest.fixture(scope="module")
def generated():
    dataset, _ = simulate.generate(
        simulate.benchmark_generator_config(n_guests=200, seed=3))
    return dataset


@pytest.fixture(scope="module")
def world(generated):
    train_ds, _ = evaluate.prepare_split(generated)
    schema = generated.schema
    config = model.default_model_config(schema.listing_dim,
                                        schema.context_dim)
    return train_ds, config


def searches_within(dataset, max_rows: int) -> int:
    """The most leading searches of the dataset that fit in ``max_rows``
    impression rows."""
    return int(np.searchsorted(dataset.searches.starts, max_rows,
                               side="right")) - 1


def train_step(dataset, config, n_searches: int = 128):
    """One step's work on the dataset's first ``n_searches`` searches,
    and the batch it cuts."""
    norm = model.NormalizationStats.fit(dataset.listing_rows,
                                        dataset.listing_index,
                                        dataset.context_features)
    inputs = model.batch_inputs(dataset, norm)
    weights = model.task_weights(dataset, config.base_tasks)
    params = model.init_model_params(config)
    state = nn.init_adam(params)
    n_searches = min(n_searches, dataset.n_searches)

    def step():
        batch = model.make_batch(inputs, 0, n_searches)
        with nn.Tape() as tape:
            loss, _, _ = model.total_loss(config, params, batch, weights)
            nn.backward(tape, loss)
        nn.optimizer_step(params, state)
        return float(loss.values)

    return step, model.make_batch(inputs, 0, n_searches)


def test_train_step(benchmark, world):
    step, batch = train_step(*world)
    # the generated world shows each listing several times per batch
    assert 3 * len(batch.listing_rows) < batch.n_rows
    loss = benchmark.pedantic(step, rounds=5, warmup_rounds=1)
    assert np.isfinite(loss)


def test_train_step_8192_rows(benchmark, world, generated):
    """The whole step on the most searches of the 200-guest world that
    fit in 8,192 rows, four times a train-bench batch, where a per-row
    cost of the step shows."""
    n_searches = searches_within(generated, 8192)
    step, batch = train_step(generated, world[1], n_searches)
    assert 8192 - 148 < batch.n_rows <= 8192 and batch.pair_i.size
    loss = benchmark.pedantic(step, rounds=5, warmup_rounds=1)
    assert np.isfinite(loss)


def test_train_step_distinct_listings(benchmark, world, distinct_rows):
    train_ds, _ = evaluate.prepare_split(distinct_rows)
    step, batch = train_step(train_ds, world[1])
    assert len(batch.listing_rows) == batch.n_rows
    loss = benchmark.pedantic(step, rounds=5, warmup_rounds=1)
    assert np.isfinite(loss)


def test_batched_forward(benchmark, world):
    dataset, config = world
    trained, _ = model.train(config, dataset, epochs=0)

    outputs = benchmark.pedantic(trained.outputs, args=(dataset,), rounds=5,
                                 warmup_rounds=1)
    assert outputs.ranking_score.shape == (dataset.n_impressions,)
    assert np.all(np.isfinite(outputs.ranking_score))


@pytest.mark.parametrize("split, max_rows", [("train", 2048), ("all", 8192)])
def test_loss_node_kernel(benchmark, world, generated, split, max_rows):
    """The loss from fixed logits, forward and backward, on the most
    searches that fit in ``max_rows`` rows: of the 200-guest world's
    training split, a train-bench-sized batch, or of the whole world, a
    batch four times that size, where a per-row cost would show."""
    train_ds, config = world
    dataset = train_ds if split == "train" else generated
    inputs = model.batch_inputs(dataset, model.NormalizationStats.fit(
        dataset.listing_rows, dataset.listing_index,
        dataset.context_features))
    n_searches = searches_within(dataset, max_rows)
    batch = model.make_batch(inputs, 0, n_searches)
    net = model.network(config, model.init_model_params(config), batch)
    weights = model.task_weights(dataset, config.base_tasks)

    def step():
        total, _, backward = model.loss_from_logits(
            config, net.head, net.coef_logits, batch, weights)
        return total, backward(1.0)

    total, (d_head, d_coef) = benchmark.pedantic(step, rounds=20,
                                                 warmup_rounds=2)
    assert max_rows - 148 < batch.n_rows <= max_rows and batch.pair_i.size
    assert np.isfinite(total)
    assert d_head.shape == (len(config.all_tasks), batch.n_rows)
    assert d_coef.shape == (n_searches, 4)


def test_dense_kernel(benchmark):
    """One dense layer, a one-layer block, forward and backward."""
    rng = np.random.default_rng(6)
    spec = nn.MlpSpec(20, (), 24)
    store = nn.ParameterStore(nn.mlp_layout("dense", spec))
    nn.init_glorot(store, rng)
    x, g = rng.normal(size=(2000, 20)), rng.normal(size=(2000, 24))

    def step():
        acts = nn.mlp_activations(store, "dense", spec, x)
        grad = np.empty_like(store.tensor.values)
        d_x = nn.mlp_gradients(store, "dense", spec, acts, g, grad,
                               input_grad=True)
        return acts[-1], grad, d_x

    out, grad, d_x = benchmark.pedantic(step, rounds=20, warmup_rounds=2)
    assert out.shape == (2000, 24) and d_x.shape == (2000, 20)
    assert grad.shape == (20 * 24 + 24,)


def test_generate_200_guests(benchmark):
    config = simulate.default_generator_config(n_guests=200, seed=3)
    dataset, _ = benchmark.pedantic(simulate.generate, args=(config,),
                                    rounds=3)
    assert dataset.n_journeys == 200


def test_validate_200_guests(benchmark, generated):
    report = benchmark.pedantic(domain.validate_dataset, args=(generated,),
                                rounds=5, warmup_rounds=1)
    assert report.accepted and report.n_impressions == generated.n_impressions


def test_prepare_split_200_guests(benchmark, generated):
    train_ds, eval_ds = benchmark.pedantic(
        evaluate.prepare_split, args=(generated,), rounds=5, warmup_rounds=1)
    assert 0 < train_ds.n_journeys and 0 < eval_ds.n_journeys
    assert train_ds.n_journeys + eval_ds.n_journeys <= generated.n_journeys


def test_save_200_guests(benchmark, generated, tmp_path):
    path = tmp_path / "world.jsonl"
    benchmark.pedantic(dataio.save_dataset, args=(generated, path), rounds=3)
    assert path.read_text().count("\n") == generated.n_journeys + 1


@pytest.fixture(scope="module")
def default_config():
    return simulate.default_generator_config(n_guests=1000, seed=3)


def test_generate_default_1000_guests(benchmark, default_config):
    dataset, _ = benchmark.pedantic(simulate.generate,
                                    args=(default_config,), rounds=3)
    assert dataset.n_journeys == 1000


def test_save_default_1000_guests(benchmark, default_config, tmp_path):
    """The default world's 6-wide rows, where per-impression texts are a
    larger share of the file than the benchmark world's 20-wide rows."""
    dataset, _ = simulate.generate(default_config)
    path = tmp_path / "world.jsonl"
    benchmark.pedantic(dataio.save_dataset, args=(dataset, path), rounds=3)
    assert path.read_text().count("\n") == dataset.n_journeys + 1


@pytest.fixture(scope="module")
def distinct_rows(generated):
    """The 200-guest world with every feature row distinct, so the block
    decoder parses each row once and never finds it in its memo."""
    rng = np.random.default_rng(4)
    return with_impression_features(generated, np.round(rng.normal(
        size=(generated.n_impressions, generated.schema.listing_dim)), 6))


@pytest.mark.parametrize("rows", ["generated", "distinct_rows", "spaced"])
def test_load_200_guests(benchmark, request, tmp_path, rows):
    dataset = request.getfixturevalue(
        "generated" if rows == "spaced" else rows)
    path = tmp_path / "world.jsonl"
    dataio.save_dataset(dataset, path)
    source = path
    if rows == "spaced":
        source = tmp_path / "spaced.jsonl"
        records = chain([dataset.schema.to_record()],
                        dataset_to_records(dataset))
        source.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    loaded = benchmark.pedantic(dataio.load_dataset, args=(source,), rounds=3)
    again = tmp_path / "again.jsonl"
    dataio.save_dataset(loaded, again)
    assert again.read_bytes() == path.read_bytes()
