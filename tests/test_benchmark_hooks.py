"""The benchmark's hooks into the package still resolve.

``perfbench/layers.py`` wraps package functions by module and attribute
name, and its info hooks read fields of what those functions return. A
rename in the package would otherwise show only when the benchmark runs.
The benchmark file is loaded as it is, never edited.
"""

import importlib.util
import json
import statistics
from collections import defaultdict
from pathlib import Path

from conftest import tiny_manual_dataset
from journeyrank import cli, dataio, model, simulate
from journeyrank import evaluate as ev

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


class RecordingTracer:
    """Stands in for the benchmark's tracer: it keeps each span's info
    hook and hands the wrapped function back unchanged."""

    def __init__(self):
        self.infos = {}

    def wrap(self, original, name, info=None):
        self.infos[name] = info
        return original


class CountingTracer:
    """Runs each wrapped call and keeps one info record per call, by span
    name, as the benchmark's tracer does."""

    def __init__(self):
        self.infos = defaultdict(list)

    def wrap(self, original, name, info=None):
        def traced(*args, **kwargs):
            result = original(*args, **kwargs)
            self.infos[name].append(
                info(result, *args, **kwargs) if info else None)
            return result
        return traced


def installed_hooks():
    layers = load_layers()
    tracer = RecordingTracer()
    entries = layers.boundaries(tracer) + layers.stage_taps(tracer)
    for module, attr, wrapper in entries:
        assert hasattr(module, attr), f"{module.__name__}.{attr} is gone"
        original = getattr(module, attr)
        assert callable(original), f"{module.__name__}.{attr}"
        assert callable(wrapper(original))
    return tracer.infos


def test_every_hook_resolves():
    infos = installed_hooks()
    assert {"model.make_batch", "model.train", "evaluate.evaluate",
            "evaluate.ndcg"} <= set(infos)


def test_info_hooks_read_real_results():
    infos = installed_hooks()
    dataset = tiny_manual_dataset()
    for pack in (dataio.pack_dataset, model.pack_dataset):
        assert infos["dataio.pack"](pack(dataset), dataset) == {
            "rows": dataset.n_impressions}
    norm = model.NormalizationStats.fit(dataset.listing_rows,
                                        dataset.listing_index,
                                        dataset.context_features)
    inputs = model.batch_inputs(dataset, norm)
    batch = model.make_batch(inputs, 0, dataset.n_searches)
    assert infos["model.make_batch"](batch, inputs, 0,
                                     dataset.n_searches) == {
        "rows": 6, "pairs": 3}

    config = model.default_model_config(2, 2, embedding_dim=3,
                                        tower_hidden=(4,))
    result = ev.train(config, dataset, 1)
    train_info = infos["model.train"](result, config, dataset, 1)
    assert train_info["full"] and train_info["finite"]
    assert train_info["rows"] == dataset.n_impressions
    reports = ev.evaluate(result[0], dataset)
    eval_info = infos["evaluate.evaluate"](reports, result[0], dataset)
    assert eval_info["searches"] == dataset.n_searches
    assert set(eval_info["ndcg"]) == set(reports)


def test_compare_trains_and_evaluates_each_config_once_per_seed(
        tmp_path, monkeypatch):
    """The compare-default workload runs ``journeyrank compare`` under the
    stage taps. It expects one ``model.train`` and one ``evaluate.evaluate``
    span per (config, seed), and reads ``seeds``, ``per_seed_a`` and
    ``per_seed_b`` from ``compare.json``."""
    dataset, _ = simulate.generate(
        simulate.default_generator_config(n_guests=120, seed=9))
    data = tmp_path / "dataset.jsonl"
    dataio.save_dataset(dataset, data)
    dims = (dataset.schema.listing_dim, dataset.schema.context_dim)
    config_a, config_b = tmp_path / "full.json", tmp_path / "baseline.json"
    for path, config in (
            (config_a, model.default_model_config(*dims, embedding_dim=6)),
            (config_b, model.baseline_model_config(*dims, embedding_dim=6))):
        path.write_text(json.dumps(model.model_config_to_record(config)))
    tracer = CountingTracer()
    for module, attr, make in load_layers().stage_taps(tracer):
        monkeypatch.setattr(module, attr, make(getattr(module, attr)))
    out = tmp_path / "out"
    assert cli.main(["compare", "--model-config-a", str(config_a),
                     "--model-config-b", str(config_b),
                     "--dataset", str(data), "--seeds", "0,1",
                     "--epochs", "1", "--batch-size", "64", "--jobs", "1",
                     "--out", str(out)]) == cli.EXIT_OK

    report = json.loads((out / "compare.json").read_text())
    trains = tracer.infos["model.train"]
    evals = tracer.infos["evaluate.evaluate"]
    assert report["seeds"] == [0, 1]
    assert len(trains) == len(evals) == 2 * len(report["seeds"])
    assert sorted(t["full"] for t in trains) == [False, False, True, True]
    assert all(t["finite"] for t in trains)
    # per_seed_a is config A's, the full model's, seed by seed
    for key, full in (("per_seed_a", True), ("per_seed_b", False)):
        assert report[key] == [e["ndcg"]["unc"]
                               for t, e in zip(trains, evals)
                               if t["full"] == full]
        assert 0.0 <= statistics.fmean(report[key]) <= 1.0


def test_a_traced_train_records_each_step_once(monkeypatch):
    """A traced run reads the training step's per-layer times from one
    ``model.make_batch``, ``model.forward_loss``, ``nn.backward`` and
    ``nn.optimizer_step`` span per step; a step that skipped a boundary
    would read 0 there and move its time into ``model.train_fixed_s``."""
    tracer = CountingTracer()
    for module, attr, make in load_layers().boundaries(tracer):
        monkeypatch.setattr(module, attr, make(getattr(module, attr)))
    dataset = tiny_manual_dataset()
    config = model.default_model_config(2, 2, embedding_dim=3,
                                        tower_hidden=(4,))
    epochs, batch_size = 3, 2
    model.train(config, dataset, epochs, batch_size=batch_size)
    steps = epochs * -(-dataset.n_searches // batch_size)
    assert steps > epochs
    for name in ("model.make_batch", "model.forward_loss", "nn.backward",
                 "nn.optimizer_step"):
        assert len(tracer.infos[name]) == steps, name
    assert [info["nodes"] for info in tracer.infos["nn.backward"]] == \
        [1] * steps
    assert sum(info["rows"] for info in tracer.infos["model.make_batch"]) \
        == epochs * dataset.n_impressions
