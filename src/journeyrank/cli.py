"""Command-line pipeline: gen, train, eval, compare, ablate, ntc, validate.

Every command funnels its randomness through one named seed and writes
its outputs, then the run record ``manifest.json`` (:func:`_finish`), into
``--out``: a re-run on the same inputs is byte-identical but for the
record's timestamp. Flags override config-file keys, then the defaults.

Exit codes: 0 success, 1 usage or configuration error, 2 data validation
error, 3 numeric failure during training.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from . import __version__
from . import evaluate as ev
from .dataio import file_sha256, load_dataset, save_dataset
from .domain import filter_training_searches, validate_dataset
from .errors import (
    ConfigError,
    ContractError,
    DataValidationError,
    JourneyRankError,
    NonFiniteScoreError,
    SchemaMismatchError,
    ShapeError,
    TrainingDivergenceError,
)
from .model import (
    ModelConfig,
    check_training_settings,
    load_model,
    model_config_from_record,
    model_config_to_record,
    save_model,
    train,
)
from .simulate import (
    generate,
    generator_config_from_record,
    generator_config_to_record,
    save_world,
    summarize,
)

CONFIG_DIR_ENV = "JOURNEYRANK_CONFIG_DIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# run records


def _input(shown, hashed=None) -> tuple[str, str]:
    """One manifest input, taken when the command reads it: the path
    shown and the sha256 of the file read, ``shown`` itself unless
    ``hashed`` names another (a model shows its directory and hashes its
    ``params.bin``)."""
    return str(shown), file_sha256(shown if hashed is None else hashed)


def _finish(args, out: Path, payload: dict, table: str, *, seed, config,
            inputs: dict[str, tuple[str, str]], outputs) -> int:
    """Write the run record ``out/manifest.json``: ``command``, ``version``,
    the ``seed`` list, the resolved ``config``, ``inputs`` and
    ``input_hashes`` from the :func:`_input` pairs, the ``outputs``
    written and ``created_at``. Then print ``payload`` (``--json``) or
    ``table`` and return :data:`EXIT_OK`."""
    _write_json(out / "manifest.json", {
        "command": args.command, "version": __version__, "seed": list(seed),
        "config": config, "outputs": [str(path) for path in outputs],
        "inputs": {name: shown for name, (shown, _) in inputs.items()},
        "input_hashes": {name: digest for name, (_, digest) in inputs.items()},
        "created_at": datetime.now(timezone.utc).isoformat()})
    _emit(args, payload, table)
    return EXIT_OK


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(text)
        if not text.endswith("\n"):
            f.write("\n")


def _resolve_config_path(raw: str) -> Path:
    """The literal path's file, else the one under ``CONFIG_DIR_ENV``."""
    candidates = [Path(raw)]
    config_dir = os.environ.get(CONFIG_DIR_ENV)
    if config_dir:
        candidates.append(Path(config_dir) / raw)
    for path in candidates:
        if path.is_file():
            return path
    raise ConfigError(f"config file {raw} not found or not a file")


def _load_json_config(raw: str) -> tuple[dict, tuple[str, str]]:
    """The config file's JSON object, and the file as a manifest
    input."""
    path = _resolve_config_path(raw)
    try:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8 JSON: "
                          f"{exc}") from None
    if not isinstance(record, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return record, _input(path)


def _emit(args, payload: dict, table: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(table)


def _require_out(args) -> Path:
    """The ``--out`` directory. Nothing is created here: every writer makes
    its file's directory, so a command that fails first leaves none."""
    if args.out is None:
        raise ConfigError("--out is required for this command")
    out = Path(args.out)
    for path in (out, *out.parents):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"--out {out}: {path} is not a directory")
    return out


def _load_dataset(path_arg: str):
    """The dataset file's path (it must name a file), dataset and report."""
    path = Path(path_arg)
    if not path.is_file():
        raise ConfigError(f"dataset file {path} not found or not a file")
    dataset = load_dataset(path)
    return path, dataset, validate_dataset(dataset)


def _load_valid_dataset(path_arg: str):
    """The dataset, validated, and its file as a manifest input."""
    path, dataset, report = _load_dataset(path_arg)
    if not report.accepted:
        lines = "; ".join(f"{k}x{v}" for k, v in
                          sorted(report.violations.items()))
        raise DataValidationError(f"dataset {path} failed validation: {lines}")
    return dataset, _input(path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    record, config_input = _load_json_config(args.config)
    if args.seed is not None:
        record = dict(record, seed=args.seed)
    config = generator_config_from_record(record)
    out = _require_out(args)
    guest_range = tuple(args.guest_range) if args.guest_range else None
    dataset, world = generate(config, guest_range)
    outputs = [out / "dataset.jsonl", out / "world.json", out / "funnel.json"]
    save_dataset(dataset, outputs[0])
    save_world(world, outputs[1])
    funnel = summarize(dataset)
    _write_json(outputs[2], funnel.to_record())
    counts = funnel.milestone_counts
    table = "\n".join([
        f"journeys    {funnel.n_journeys}",
        f"searches    {funnel.n_searches}",
        f"impressions {funnel.n_impressions}",
        "funnel      " + " ".join(f"{m}={counts[m]}"
                                  for m in ("c", "lc", "pp", "req", "book",
                                            "unc", "rej", "cbh", "cbg")),
    ])
    return _finish(args, out, funnel.to_record(), table, seed=[config.seed],
                   config=generator_config_to_record(config),
                   inputs={"config": config_input}, outputs=outputs)


def cmd_train(args) -> int:
    record, config_input = _load_json_config(args.model_config)
    if args.seed is not None:
        record = dict(record, seed=args.seed)
    config = model_config_from_record(record)
    check_training_settings(args.epochs, args.batch_size, args.learning_rate)
    out = _require_out(args)
    dataset, dataset_input = _load_valid_dataset(args.dataset)
    if args.filter:
        dataset = filter_training_searches(dataset).training_dataset()
    model, history = train(config, dataset, args.epochs,
                           batch_size=args.batch_size,
                           learning_rate=args.learning_rate)
    model_dir = out / "model"
    save_model(model, model_dir)
    loss_keys = ["base", "twiddler", "combination", "total"]
    csv_lines = ["epoch," + ",".join(loss_keys)]
    for stats in history:
        cells = [f"{stats.losses[k]!r}" if k in stats.losses else ""
                 for k in loss_keys]
        csv_lines.append(f"{stats.epoch}," + ",".join(cells))
    _write_text(out / "loss_history.csv", "\n".join(csv_lines))
    payload = {"epochs": args.epochs,
               "final_losses": history[-1].losses if history else {},
               "model_dir": str(model_dir)}
    table = f"trained {args.epochs} epochs\n" + (
        f"final losses: {history[-1].losses}" if history
        else "no training epochs requested")
    return _finish(args, out, payload, table, seed=[config.seed],
                   config=model_config_to_record(config),
                   inputs={"model_config": config_input,
                           "dataset": dataset_input},
                   outputs=[model_dir / "params.json",
                            model_dir / "params.bin",
                            out / "loss_history.csv"])


def _score(model_dir: str, score, *args, **kwargs):
    """``score(*args, **kwargs)``, where scores that are not finite are a
    fault of the saved model: a data error naming its ``params.json``."""
    try:
        return score(*args, **kwargs)
    except NonFiniteScoreError as exc:
        raise DataValidationError(
            f"{Path(model_dir) / 'params.json'}: {exc}") from None


def cmd_eval(args) -> int:
    out = _require_out(args)
    model = load_model(args.model)
    model_input = _input(args.model, Path(args.model) / "params.bin")
    dataset, dataset_input = _load_valid_dataset(args.dataset)
    reports = _score(args.model, ev.evaluate, model, dataset)
    payload = {task: rep.to_record() for task, rep in reports.items()}
    _write_json(out / "ndcg.json", payload)
    table = ev.format_ndcg_table(reports)
    _write_text(out / "ndcg.txt", table)
    return _finish(args, out, payload, table, seed=[model.config.seed],
                   config=model_config_to_record(model.config),
                   inputs={"model": model_input, "dataset": dataset_input},
                   outputs=[out / "ndcg.json", out / "ndcg.txt"])


def _cmd_paired(args, name: str, run, record, config: dict,
                inputs: dict[str, tuple[str, str]],
                json_key: str | None = None) -> int:
    """The body of ``compare`` and ``ablate``.

    Settings and seeds are checked before any data is read. ``run(dataset,
    seeds, settings=, jobs=)`` runs the paired protocol and ``record``
    projects its report onto ``<name>.json``, which ``--json`` prints
    under ``json_key`` when one is given.
    """
    settings = ev.TrainEvalSettings(epochs=args.epochs,
                                    batch_size=args.batch_size,
                                    learning_rate=args.learning_rate)
    try:
        seeds = [int(part) for part in args.seeds.split(",") if part != ""]
    except ValueError:
        raise ConfigError(f"--seeds expects comma-separated integers, "
                          f"got {args.seeds!r}") from None
    seeds = ev.check_protocol(seeds, args.jobs)
    out = _require_out(args)
    dataset, dataset_input = _load_valid_dataset(args.dataset)
    report = run(dataset, seeds, settings=settings, jobs=args.jobs)
    payload = record(report)
    outputs = [out / f"{name}.json", out / f"{name}.txt"]
    _write_json(outputs[0], payload)
    table = ev.format_paired_table(report)
    _write_text(outputs[1], table)
    return _finish(args, out, {json_key: payload} if json_key else payload,
                   table, seed=seeds, outputs=outputs,
                   config={**config, "settings": asdict(settings)},
                   inputs={**inputs, "dataset": dataset_input})


def cmd_compare(args) -> int:
    record_a, input_a = _load_json_config(args.model_config_a)
    record_b, input_b = _load_json_config(args.model_config_b)
    config_a = model_config_from_record(record_a)
    config_b = model_config_from_record(record_b)
    return _cmd_paired(
        args, "compare",
        partial(ev.compare, config_a, config_b, label_a=args.label_a,
                label_b=args.label_b),
        ev.compare_record,
        config={"model_a": model_config_to_record(config_a),
                "model_b": model_config_to_record(config_b)},
        inputs={"model_config_a": input_a, "model_config_b": input_b})


def cmd_ablate(args) -> int:
    # the cells' other widths come from the dataset; a config of width 1
    # checks the embedding width before any file is read
    ModelConfig(1, 1, embedding_dim=args.embedding_dim)
    return _cmd_paired(
        args, "ablation",
        partial(ev.run_ablation, embedding_dim=args.embedding_dim),
        ev.PairedReport.rows,
        config={"embedding_dim": args.embedding_dim,
                "cells": [[name, list(tasks)]
                          for name, tasks in ev.ABLATION_CELLS]},
        inputs={}, json_key="cells")


def cmd_ntc(args) -> int:
    ev.check_buckets(args.buckets)
    out = _require_out(args)
    model = load_model(args.model)
    model_input = _input(args.model, Path(args.model) / "params.bin")
    dataset, dataset_input = _load_valid_dataset(args.dataset)
    curve = _score(args.model, ev.ntc_curves, model, dataset, args.feature,
                   n_buckets=args.buckets, normalize_by_first=args.normalize)
    outputs = [out / "ntc.json", out / "ntc.csv", out / "ntc.txt"]
    _write_json(outputs[0], curve.to_record())
    ev.write_ntc_csv(curve, outputs[1])
    table = ev.format_ntc_table(curve)
    _write_text(outputs[2], table)
    return _finish(args, out, curve.to_record(), table,
                   seed=[model.config.seed], outputs=outputs,
                   config={"feature": args.feature, "buckets": args.buckets,
                           "normalize": args.normalize},
                   inputs={"model": model_input, "dataset": dataset_input})


def cmd_validate(args) -> int:
    _, _, report = _load_dataset(args.dataset)
    payload = report.to_record()
    if report.accepted:
        table = (f"dataset ok: {report.n_journeys} journeys, "
                 f"{report.n_searches} searches, "
                 f"{report.n_impressions} impressions")
    else:
        lines = [f"dataset rejected with "
                 f"{sum(report.violations.values())} violations:"]
        for kind, count in sorted(report.violations.items()):
            lines.append(f"  {kind}: {count}")
        table = "\n".join(lines)
    _emit(args, payload, table)
    return EXIT_OK if report.accepted else EXIT_DATA


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--out", default=None,
                     help="output directory for files and the run manifest")
    sub.add_argument("--json", action="store_true",
                     help="print machine-readable JSON instead of tables")


def _add_training_flags(sub):
    sub.add_argument("--epochs", type=int, default=8)
    sub.add_argument("--batch-size", type=int, default=128)
    sub.add_argument("--learning-rate", type=float, default=1e-3)


def _add_protocol_flags(sub):
    sub.add_argument("--jobs", type=int, default=1,
                     help="parallel worker processes for independent runs")
    sub.add_argument("--seeds", default="0,1,2,3,4",
                     help="comma-separated training seeds")
    _add_training_flags(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="journeyrank",
                     description="Multi-task journey ranking toolkit")
    parser.add_argument("--version", action="version",
                        version=f"journeyrank {__version__}")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    gen = subs.add_parser("gen", help="simulate a labeled journey dataset")
    gen.add_argument("--config", required=True,
                     help="JSON file of generator settings")
    gen.add_argument("--seed", type=int, default=None,
                     help="override the seed key in --config")
    gen.add_argument("--guest-range", type=int, nargs=2, default=None,
                     metavar=("LO", "HI"),
                     help="generate only guests [LO, HI) for sharding")
    _add_common(gen)
    gen.set_defaults(func=cmd_gen)

    tr = subs.add_parser("train", help="train one model on a dataset")
    tr.add_argument("--model-config", required=True,
                    help="JSON file of model architecture settings")
    tr.add_argument("--dataset", required=True)
    tr.add_argument("--seed", type=int, default=None,
                    help="override the seed key in --model-config")
    _add_training_flags(tr)
    tr.add_argument("--filter", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="restrict training to payment-page journeys")
    _add_common(tr)
    tr.set_defaults(func=cmd_train)

    ea = subs.add_parser("eval", help="NDCG report for a trained model")
    ea.add_argument("--model", required=True,
                    help="model directory written by the train command")
    ea.add_argument("--dataset", required=True)
    _add_common(ea)
    ea.set_defaults(func=cmd_eval)

    cp = subs.add_parser("compare",
                         help="paired multi-seed comparison of two configs")
    cp.add_argument("--model-config-a", required=True)
    cp.add_argument("--model-config-b", required=True)
    cp.add_argument("--dataset", required=True)
    cp.add_argument("--label-a", default="A")
    cp.add_argument("--label-b", default="B")
    _add_protocol_flags(cp)
    _add_common(cp)
    cp.set_defaults(func=cmd_compare)

    ab = subs.add_parser("ablate",
                         help="train the funnel task-set ablation grid")
    ab.add_argument("--dataset", required=True)
    ab.add_argument("--embedding-dim", type=int, default=12)
    _add_protocol_flags(ab)
    _add_common(ab)
    ab.set_defaults(func=cmd_ablate)

    nt = subs.add_parser("ntc",
                         help="blend-coefficient curves over context buckets")
    nt.add_argument("--model", required=True)
    nt.add_argument("--dataset", required=True)
    nt.add_argument("--feature", required=True,
                    help="context feature name to bucket by")
    nt.add_argument("--buckets", type=int, default=5)
    nt.add_argument("--normalize", action="store_true",
                    help="divide every bucket by the first bucket's value")
    _add_common(nt)
    nt.set_defaults(func=cmd_ntc)

    va = subs.add_parser("validate",
                         help="check dataset invariants and report counts")
    va.add_argument("--dataset", required=True)
    va.add_argument("--json", action="store_true")
    va.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TrainingDivergenceError as exc:
        print(f"journeyrank: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataValidationError, SchemaMismatchError) as exc:
        print(f"journeyrank: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ShapeError, ContractError, MemoryError) as exc:
        what = "not enough memory: " if isinstance(exc, MemoryError) else ""
        print(f"journeyrank: config error: {what}{exc}", file=sys.stderr)
        return EXIT_USAGE
    except JourneyRankError as exc:
        print(f"journeyrank: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
