"""The benchmark's hooks into the package still resolve.

``perfbench/layers.py`` wraps package functions by module and attribute
name, and its info hooks read fields of what those functions return. A
rename in the package would otherwise show only when the benchmark runs.
The benchmark file is loaded as it is, never edited.
"""

import importlib.util
from pathlib import Path

import numpy as np

from conftest import tiny_manual_dataset
from journeyrank import dataio, model
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
    norm = model.NormalizationStats.fit(dataset.listing_features,
                                        dataset.context_features)
    inputs = model.batch_inputs(dataset, norm)
    batch = model.make_batch(inputs, np.arange(dataset.n_searches))
    assert infos["model.make_batch"](batch, inputs, None) == {
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
