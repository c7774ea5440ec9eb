"""The journeyrank call boundaries the benchmark records, and the per-layer
metrics derived from them.

Every boundary is a public function wrapped where its caller looks it up:
``model.train`` calls ``pack_dataset`` through the ``model`` module, so the
pack span is installed on ``model.pack_dataset`` as well as on
``dataio.pack_dataset``. Nothing in ``src/`` is edited. README.md says which
end-to-end metric and workload each per-layer metric should move.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
from collections import Counter, defaultdict

from journeyrank import cli, dataio, domain, model, nn, simulate
from journeyrank import evaluate as ev


def param_digest(params) -> str:
    """sha256 over every trained parameter, in name order."""
    digest = hashlib.sha256()
    for name in sorted(params.names()):
        digest.update(name.encode())
        digest.update(params[name].values.tobytes())
    return digest.hexdigest()


def losses_finite(history) -> bool:
    return all(math.isfinite(v) for stats in history
               for v in stats.losses.values())


def train_info(result, config, dataset, epochs, **kwargs) -> dict:
    trained, history = result
    return {
        "full": config.combination is not None,
        "digest": param_digest(trained.params),
        "finite": losses_finite(history),
        "rows": dataset.n_impressions * epochs,
    }


def evaluate_info(reports, trained, dataset) -> dict:
    unc = reports["unc"]
    return {
        "searches": unc.n_searches + unc.n_skipped,
        "ndcg": {task: r.mean for task, r in reports.items()},
    }


def _generate_info(result, *args, **kwargs) -> dict:
    dataset, _ = result
    return {"journeys": dataset.n_journeys,
            "impressions": dataset.n_impressions}


def _wrap(tracer, name, info=None):
    return lambda original: tracer.wrap(original, name, info)


# The training workloads install these two boundaries themselves, traced or
# not: on compare-default, training and evaluation run inside ``cli.main``,
# so the benchmark cannot time them or take the parameter digest from its
# own calls. ``evaluate`` imports ``train`` by name, so the training
# workloads call it as ``evaluate.train``. One span per call.
def stage_taps(tracer):
    return [
        (ev, "train", _wrap(tracer, "model.train", train_info)),
        (ev, "evaluate", _wrap(tracer, "evaluate.evaluate", evaluate_info)),
    ]


def boundaries(tracer):
    """Every boundary a traced run records, as ``Tracer.patched`` entries."""
    def scorer_factory(original):
        return lambda trained: tracer.wrap(original(trained), "evaluate.score")

    w = lambda name, info=None: _wrap(tracer, name, info)  # noqa: E731
    return [
        (cli, "main", w("cli.command")),
        (cli, "file_sha256", w("cli.hash")),
        (simulate, "generate", w("simulate.generate", _generate_info)),
        (simulate, "attribute_labels", w("simulate.attribute_labels")),
        (dataio, "save_dataset",
         w("dataio.save", lambda r, ds, path: {"bytes": os.path.getsize(path)})),
        (dataio, "load_dataset", w("dataio.load")),
        (cli, "load_dataset", w("dataio.load")),
        (dataio, "split_by_guest", w("dataio.split")),
        (ev, "split_by_guest", w("dataio.split")),
        (dataio, "pack_dataset",
         w("dataio.pack", lambda r, *a, **k: {"rows": r.n_impressions})),
        (model, "pack_dataset",
         w("dataio.pack", lambda r, *a, **k: {"rows": r.n_impressions})),
        (domain, "validate_dataset", w("domain.validate")),
        (cli, "validate_dataset", w("domain.validate")),
        (domain, "filter_training_searches",
         w("domain.filter", lambda r, *a, **k: {"retained": r.retained_fraction})),
        (ev, "filter_training_searches",
         w("domain.filter", lambda r, *a, **k: {"retained": r.retained_fraction})),
        (model, "task_weights", w("domain.task_weights")),
        (model, "make_batch",
         w("model.make_batch",
           lambda b, *a, **k: {"rows": b.n_rows, "pairs": int(b.pair_i.size)})),
        (model, "total_loss", w("model.forward_loss")),
        (nn, "backward", w("nn.backward", lambda r, tape, loss: {"nodes": len(tape)})),
        (nn, "optimizer_step", w("nn.optimizer_step")),
        (ev, "model_scorer", scorer_factory),
        (ev, "ndcg_binary", w("evaluate.ndcg")),
    ]


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _train_ancestor(spans, i) -> dict:
    """The info of the ``model.train`` span that encloses span ``i``."""
    while spans[i][0] != "model.train":
        i = spans[i][3]
    return spans[i][4]


def layer_metrics(tracer, members, self_times) -> dict[str, float]:
    """Per-layer metrics over the spans ``members`` (indices into
    ``tracer.spans``). A layer that did not run reads 0."""
    spans = tracer.spans
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    infos: dict[str, list] = defaultdict(list)
    first_batch: dict[int, float] = {}
    for i in members:
        name, start, end, parent, info = spans[i]
        total[name] += end - start
        own[name] += self_times[i]
        calls[name] += 1
        if info is not None:
            infos[name].append(info)
        if name == "model.make_batch" and parent not in first_batch:
            first_batch[parent] = start
    fixed = sum(first_batch.get(i, spans[i][2]) - spans[i][1]
                for i in members if spans[i][0] == "model.train")
    # Tape size of the full config only: compare-default also trains the
    # single-task baseline, whose steps record a smaller tape.
    full_nodes = [spans[i][4]["nodes"] for i in members
                  if spans[i][0] == "nn.backward"
                  and _train_ancestor(spans, i)["full"]]
    searches = sum(x["searches"] for x in infos["evaluate.evaluate"])

    def info_sum(name, key):
        return float(sum(x[key] for x in infos[name]))

    return {
        "simulate.generate_s": total["simulate.generate"],
        "simulate.attribute_labels_s": own["simulate.attribute_labels"],
        "simulate.journeys": info_sum("simulate.generate", "journeys"),
        "simulate.impressions": info_sum("simulate.generate", "impressions"),
        "dataio.save_s": total["dataio.save"],
        "dataio.load_s": total["dataio.load"],
        "dataio.file_bytes": info_sum("dataio.save", "bytes"),
        "dataio.split_s": total["dataio.split"],
        "dataio.pack_s": total["dataio.pack"],
        "dataio.pack_calls": float(calls["dataio.pack"]),
        "dataio.pack_rows": info_sum("dataio.pack", "rows"),
        "domain.validate_s": total["domain.validate"],
        "domain.filter_s": total["domain.filter"],
        "domain.filter_retained_frac": _mean(
            [x["retained"] for x in infos["domain.filter"]]),
        "domain.task_weights_s": total["domain.task_weights"],
        "model.train_fixed_s": fixed,
        "model.make_batch_s": total["model.make_batch"],
        "model.forward_loss_s": total["model.forward_loss"],
        "model.steps": float(calls["nn.optimizer_step"]),
        "model.rows_per_step": _mean([x["rows"] for x in infos["model.make_batch"]]),
        "model.pairs_per_step": _mean([x["pairs"] for x in infos["model.make_batch"]]),
        "nn.backward_s": total["nn.backward"],
        "nn.optimizer_step_s": total["nn.optimizer_step"],
        "nn.tape_nodes_per_step": _median(full_nodes),
        "evaluate.score_s": total["evaluate.score"],
        "evaluate.ndcg_s": total["evaluate.ndcg"],
        "evaluate.us_per_search": (1e6 * total["evaluate.evaluate"] / searches
                                   if searches else 0.0),
        "evaluate.train_calls": float(calls["model.train"]),
        "cli.hash_s": total["cli.hash"],
        "cli.command_s": own["cli.command"],
    }


def self_time_table(tracer, members, self_times) -> dict[str, dict]:
    """calls, total and self seconds per span name over ``members``."""
    table: dict[str, dict] = {}
    for i in members:
        name, start, end, _, _ = tracer.spans[i]
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += self_times[i]
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))
