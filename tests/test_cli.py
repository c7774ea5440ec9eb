"""Tests for the command-line pipeline.

Each subcommand is exercised in-process through ``main`` so exit codes and
stdout are observable. Artifact determinism is checked byte-for-byte:
re-running any command with identical inputs must reproduce every output
file except the manifest, whose only moving part is its timestamp.
"""

import contextlib
import copy
import csv
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import journeyrank
from journeyrank import cli
from conftest import (assert_same_load, dataset_to_records,
                      tiny_manual_dataset)
from journeyrank import evaluate as ev
from journeyrank.cli import main
from journeyrank.dataio import (
    dataset_from_records,
    file_sha256,
    load_dataset,
    save_dataset,
)
from journeyrank.domain import ALL_MILESTONES
from journeyrank.model import (
    baseline_model_config,
    default_model_config,
    load_model,
    model_config_to_record,
)
from journeyrank.simulate import (
    default_generator_config,
    generate,
    generator_config_to_record,
)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One generated dataset and one trained model shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    gen_record = generator_config_to_record(
        default_generator_config(n_guests=120, seed=9))
    (root / "gen.json").write_text(json.dumps(gen_record))
    assert main(["gen", "--config", str(root / "gen.json"),
                 "--out", str(root / "data")]) == 0

    full = model_config_to_record(default_model_config(
        6, 4, embedding_dim=6, tower_hidden=(8,), combination_hidden=(4,)))
    (root / "model.json").write_text(json.dumps(full))
    base = model_config_to_record(baseline_model_config(
        6, 4, embedding_dim=6, tower_hidden=(8,)))
    (root / "base.json").write_text(json.dumps(base))
    assert main(["train", "--model-config", str(root / "model.json"),
                 "--dataset", str(root / "data" / "dataset.jsonl"),
                 "--out", str(root / "run"),
                 "--epochs", "1", "--batch-size", "64"]) == 0
    return root


def run_python(*args):
    """A child interpreter that imports the journeyrank under test."""
    src = str(Path(journeyrank.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def hash_outputs(directory):
    return {p.name: file_sha256(p) for p in sorted(directory.iterdir())
            if p.is_file() and p.name != "manifest.json"}


class TestGen:
    def test_outputs_exist_and_validate(self, ws):
        data = ws / "data"
        for name in ("dataset.jsonl", "world.json", "funnel.json",
                     "manifest.json"):
            assert (data / name).exists()
        rc = main(["validate", "--dataset", str(data / "dataset.jsonl")])
        assert rc == 0

    def test_funnel_snapshot(self, ws):
        funnel = json.loads((ws / "data" / "funnel.json").read_text())
        assert funnel["n_journeys"] == 120
        assert funnel["n_searches"] == 396
        assert funnel["n_impressions"] == 3168
        assert funnel["milestone_counts"] == {
            "imp": 3168, "c": 646, "lc": 466, "pp": 191, "req": 106,
            "book": 59, "unc": 46, "rej": 6, "cbh": 6, "cbg": 7}

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        assert main(["gen", "--config", str(ws / "gen.json"),
                     "--out", str(tmp_path / "again")]) == 0
        assert hash_outputs(tmp_path / "again") == hash_outputs(ws / "data")

    def test_manifest_hashes_verify(self, ws):
        manifest = json.loads((ws / "data" / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["seed"] == [9]
        recomputed = file_sha256(manifest["inputs"]["config"])
        assert manifest["input_hashes"]["config"] == recomputed
        assert [p for p in (ws / "data").glob("manifest.json")] != []

    def test_seed_flag_overrides_config_file(self, ws, tmp_path):
        assert main(["gen", "--config", str(ws / "gen.json"),
                     "--seed", "11", "--out", str(tmp_path / "other")]) == 0
        manifest = json.loads((tmp_path / "other" /
                               "manifest.json").read_text())
        assert manifest["seed"] == [11]
        assert manifest["config"]["seed"] == 11
        assert (file_sha256(tmp_path / "other" / "dataset.jsonl")
                != file_sha256(ws / "data" / "dataset.jsonl"))

    def test_guest_range_shards_match_full_run(self, ws, tmp_path):
        assert main(["gen", "--config", str(ws / "gen.json"),
                     "--guest-range", "0", "60",
                     "--out", str(tmp_path / "shard")]) == 0
        full_lines = (ws / "data" / "dataset.jsonl").read_text().splitlines()
        shard_lines = (tmp_path / "shard" /
                       "dataset.jsonl").read_text().splitlines()
        assert shard_lines[0] == full_lines[0]
        assert shard_lines[1:] == full_lines[1:len(shard_lines)]

    def test_invalid_config_names_the_key(self, ws, tmp_path, capsys):
        record = json.loads((ws / "gen.json").read_text())
        record["listings_per_search"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(record))
        rc = main(["gen", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "listings_per_search" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", [None, "stage_coefficients",
                                       "negative_coefficients"])
    def test_unknown_key_is_refused(self, ws, tmp_path, capsys, stage):
        """A misspelt key exits 1 and names it, at the top level and in
        each stage model record, instead of falling back to a default."""
        record = json.loads((ws / "gen.json").read_text())
        if stage is None:
            key, target = "n_listing", record
        else:
            key, target = "bais", next(iter(record[stage].values()))
        target[key] = 50
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps(record))
        rc = main(["gen", "--config", str(bad), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error:" in err and f"unknown keys ['{key}']" in err
        assert not (tmp_path / "x").exists()

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        rc = main(["gen", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"n_guests": "\xff"}')
        rc = main(["gen", "--config", str(bad), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1
        assert "config error:" in err and "not valid UTF-8 JSON" in err
        assert not (tmp_path / "x").exists()

    def test_config_dir_environment_fallback(self, ws, tmp_path, monkeypatch):
        monkeypatch.setenv("JOURNEYRANK_CONFIG_DIR", str(ws))
        assert main(["gen", "--config", "gen.json",
                     "--out", str(tmp_path / "envout")]) == 0


class TestMalformedConfig:
    """A malformed config value exits 1 with a config error that names
    the key, from both config readers."""

    @pytest.mark.parametrize("command, key, value", [
        ("train", "embedding_dim", "12"),
        ("train", "task_loss_weights", "x"),
        ("train", "seed", "a"),
        ("train", "tower_hidden", 5),
        ("train", "seed", -1),
        ("gen", "n_guests", "abc"),
        ("gen", "stage_coefficients", {"c": 1}),
        ("gen", "ctr_negative_coupling", None),
        ("gen", "seed", -1),
        ("gen", "n_guests", 3.7),
        ("gen", "listings_per_search", 8.9),
        ("gen", "seed", True),
        ("gen", "ctr_negative_coupling", True),
        ("gen", "journey_window_days", "30"),
        # sizes numpy cannot shape an array from
        ("gen", "n_listings", 2 ** 62),
        ("gen", "n_listings", 2 ** 63),
        ("gen", "n_listings", 10 ** 20),
        ("gen", "max_searches_per_journey", 2 ** 63),
        ("gen", "max_searches_per_journey", 10 ** 20),
        ("train", "embedding_dim", 10 ** 20),
        ("train", "listing_dim", 10 ** 20),
        ("train", "context_dim", 2 ** 63),
        ("train", "tower_hidden", [10 ** 20]),
        ("train", "combination_hidden", [10 ** 19]),
        ("gen", "journey_window_days", float("nan")),
    ])
    def test_malformed_value_names_the_key(self, ws, tmp_path, capsys,
                                           command, key, value):
        source = "model.json" if command == "train" else "gen.json"
        record = json.loads((ws / source).read_text())
        record[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(record))
        if command == "train":
            argv = ["train", "--model-config", str(bad),
                    "--dataset", str(ws / "data" / "dataset.jsonl")]
        else:
            argv = ["gen", "--config", str(bad)]
        rc = main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error:" in err
        assert key in err


class TestTrain:
    def test_model_round_trips(self, ws):
        model = load_model(ws / "run" / "model")
        assert model.config.twiddler_tasks == ("rej", "cbh", "cbg")

    def test_loss_history_snapshot(self, ws):
        with open(ws / "run" / "loss_history.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 1
        np.testing.assert_allclose(float(rows[0]["base"]),
                                   608.4403920756833, rtol=1e-12)
        np.testing.assert_allclose(float(rows[0]["twiddler"]),
                                   14.6326905240013, rtol=1e-12)
        np.testing.assert_allclose(float(rows[0]["combination"]),
                                   4.446770151029275, rtol=1e-12)
        np.testing.assert_allclose(float(rows[0]["total"]),
                                   627.5198527507138, rtol=1e-12)

    def test_rerun_is_byte_identical_except_manifest(self, ws, tmp_path):
        out = tmp_path / "rerun"
        args = ["train", "--model-config", str(ws / "model.json"),
                "--dataset", str(ws / "data" / "dataset.jsonl"),
                "--out", str(out), "--epochs", "1", "--batch-size", "64"]
        assert main(args) == 0
        first_files = hash_outputs(out)
        first_model = {p.name: file_sha256(p)
                       for p in sorted((out / "model").iterdir())}
        first_manifest = json.loads((out / "manifest.json").read_text())
        assert main(args) == 0
        assert hash_outputs(out) == first_files
        assert {p.name: file_sha256(p)
                for p in sorted((out / "model").iterdir())} == first_model
        second_manifest = json.loads((out / "manifest.json").read_text())
        first_manifest.pop("created_at")
        second_manifest.pop("created_at")
        assert first_manifest == second_manifest

    def test_zero_epochs_writes_initialization(self, ws, tmp_path):
        outs = []
        for sub in ("init1", "init2"):
            out = tmp_path / sub
            assert main(["train", "--model-config", str(ws / "model.json"),
                         "--dataset", str(ws / "data" / "dataset.jsonl"),
                         "--out", str(out), "--epochs", "0"]) == 0
            outs.append(out)
        assert (file_sha256(outs[0] / "model" / "params.bin")
                == file_sha256(outs[1] / "model" / "params.bin"))
        history = (outs[0] / "loss_history.csv").read_text().splitlines()
        assert history == ["epoch,base,twiddler,combination,total"]

    def test_manifest_hashes_the_bytes_read(self, ws, tmp_path, monkeypatch):
        """Each input is hashed when the command reads it: a dataset
        changed while the model trains is recorded as it was read."""
        data = tmp_path / "dataset.jsonl"
        data.write_bytes((ws / "data" / "dataset.jsonl").read_bytes())
        read = file_sha256(data)
        train = cli.train

        def train_then_append(*args, **kwargs):
            result = train(*args, **kwargs)
            with open(data, "ab") as f:
                f.write(b"\n")
            return result

        monkeypatch.setattr(cli, "train", train_then_append)
        out = tmp_path / "run"
        assert main(["train", "--model-config", str(ws / "model.json"),
                     "--dataset", str(data), "--out", str(out),
                     "--epochs", "0"]) == 0
        hashes = json.loads((out / "manifest.json").read_text())[
            "input_hashes"]
        assert file_sha256(data) != read
        assert hashes == {"dataset": read,
                          "model_config": file_sha256(ws / "model.json")}

    def test_divergence_exits_three_with_epoch(self, ws, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["train", "--model-config", str(ws / "model.json"),
                       "--dataset", str(ws / "data" / "dataset.jsonl"),
                       "--out", str(tmp_path / "div"), "--epochs", "1",
                       "--batch-size", "64", "--learning-rate", "1e308"])
        assert rc == 3
        assert "epoch 0, batch 1" in capsys.readouterr().err

    def test_removed_architecture_key_is_refused(self, ws, tmp_path, capsys):
        """The activation is not settable: a model config that still
        names it exits 1 and names the key."""
        record = json.loads((ws / "model.json").read_text())
        record["activation"] = "relu"
        old = tmp_path / "old.json"
        old.write_text(json.dumps(record))
        rc = main(["train", "--model-config", str(old),
                   "--dataset", str(ws / "data" / "dataset.jsonl"),
                   "--out", str(tmp_path / "old")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "unknown keys ['activation']" in err
        assert not (tmp_path / "old").exists()

    @pytest.mark.parametrize("rate", ["-0.001", "0", "nan", "inf"])
    def test_bad_learning_rate_is_usage_error(self, ws, tmp_path, capsys,
                                              rate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train", "--model-config", str(ws / "model.json"),
                       "--dataset", str(ws / "data" / "dataset.jsonl"),
                       "--out", str(tmp_path / "lr"), "--epochs", "1",
                       f"--learning-rate={rate}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error" in err and "learning_rate" in err
        assert not (tmp_path / "lr" / "model").exists()

    def test_missing_dataset_is_usage_error(self, ws, tmp_path):
        rc = main(["train", "--model-config", str(ws / "model.json"),
                   "--dataset", str(tmp_path / "absent.jsonl"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_no_filter_flag(self, ws, tmp_path):
        assert main(["train", "--model-config", str(ws / "base.json"),
                     "--dataset", str(ws / "data" / "dataset.jsonl"),
                     "--out", str(tmp_path / "nofilter"),
                     "--epochs", "0", "--no-filter"]) == 0

    def test_no_filter_without_bookings_is_data_error(self, ws, tmp_path,
                                                     capsys):
        # without a single booking the task weights are undefined
        dataset = load_dataset(ws / "data" / "dataset.jsonl")
        records = list(dataset_to_records(dataset))
        for rec in records:
            for search in rec["searches"]:
                for imp in search["impressions"]:
                    imp["labels"] = {m: True for m in ("c", "lc", "pp")
                                     if m in imp["labels"]}
        path = tmp_path / "no_bookings.jsonl"
        save_dataset(dataset_from_records(dataset.schema, records), path)
        assert main(["validate", "--dataset", str(path)]) == 0
        rc = main(["train", "--model-config", str(ws / "model.json"),
                   "--dataset", str(path), "--out", str(tmp_path / "x"),
                   "--epochs", "1", "--no-filter"])
        assert rc == 2
        assert "data error" in capsys.readouterr().err


    def test_filter_emptying_training_set_is_data_error(self, ws, tmp_path,
                                                        capsys):
        # valid data, but no journey reaches a payment page
        dataset = load_dataset(ws / "data" / "dataset.jsonl")
        records = list(dataset_to_records(dataset))
        for rec in records:
            for search in rec["searches"]:
                for imp in search["impressions"]:
                    imp["labels"] = {m: True for m in ("c", "lc")
                                     if m in imp["labels"]}
        path = tmp_path / "no_payment_page.jsonl"
        save_dataset(dataset_from_records(dataset.schema, records), path)
        assert main(["validate", "--dataset", str(path)]) == 0
        rc = main(["train", "--model-config", str(ws / "model.json"),
                   "--dataset", str(path), "--out", str(tmp_path / "x"),
                   "--epochs", "1"])
        assert rc == 2
        assert "payment-page" in capsys.readouterr().err
        rc = main(["compare",
                   "--model-config-a", str(ws / "model.json"),
                   "--model-config-b", str(ws / "base.json"),
                   "--dataset", str(path), "--out", str(tmp_path / "y"),
                   "--seeds", "0,1", "--epochs", "1"])
        assert rc == 2
        assert "payment-page" in capsys.readouterr().err


    def test_empty_dataset_is_data_error(self, ws, tmp_path, capsys):
        dataset = load_dataset(ws / "data" / "dataset.jsonl")
        path = tmp_path / "empty.jsonl"
        save_dataset(dataset_from_records(dataset.schema, []), path)
        assert main(["validate", "--dataset", str(path)]) == 0
        rc = main(["train", "--model-config", str(ws / "model.json"),
                   "--dataset", str(path), "--out", str(tmp_path / "x"),
                   "--epochs", "1", "--no-filter"])
        assert rc == 2
        assert "no searches" in capsys.readouterr().err


def edited_model(ws, tmp_path, edit) -> Path:
    """A copy of the workspace's saved model whose manifest ``edit`` has
    changed in place."""
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    for name in ("params.json", "params.bin"):
        (model_dir / name).write_bytes(
            (ws / "run" / "model" / name).read_bytes())
    manifest = json.loads((model_dir / "params.json").read_text())
    edit(manifest)
    (model_dir / "params.json").write_text(json.dumps(manifest))
    return model_dir


class TestEval:
    def test_manifest_hashes_the_model_read(self, ws, tmp_path, monkeypatch):
        """A model whose weights change while the dataset is scored is
        recorded as it was read."""
        model_dir = tmp_path / "model"
        shutil.copytree(ws / "run" / "model", model_dir)
        read = file_sha256(model_dir / "params.bin")
        evaluate = ev.evaluate

        def evaluate_then_append(*args, **kwargs):
            with open(model_dir / "params.bin", "ab") as f:
                f.write(b"\0")
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(ev, "evaluate", evaluate_then_append)
        out = tmp_path / "eval"
        assert main(["eval", "--model", str(model_dir),
                     "--dataset", str(ws / "data" / "dataset.jsonl"),
                     "--out", str(out)]) == 0
        hashes = json.loads((out / "manifest.json").read_text())[
            "input_hashes"]
        assert file_sha256(model_dir / "params.bin") != read
        assert hashes["model"] == read

    def test_matches_in_process_evaluation(self, ws, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--model", str(ws / "run" / "model"),
                     "--dataset", str(ws / "data" / "dataset.jsonl"),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "ndcg.json").read_text())
        model = load_model(ws / "run" / "model")
        dataset = load_dataset(ws / "data" / "dataset.jsonl")
        expected = {task: rep.to_record()
                    for task, rep in ev.evaluate(model, dataset).items()}
        assert payload == expected

    def test_unscored_milestone_has_no_mean(self, tmp_path, capsys):
        """A milestone that no eval search holds is written as null and
        printed as '-', not as an NDCG of 0.0."""
        dataset, _ = generate(default_generator_config(n_guests=12, seed=3))
        train_ds, eval_ds = ev.prepare_split(dataset)
        save_dataset(train_ds, tmp_path / "train.jsonl")
        save_dataset(eval_ds, tmp_path / "eval.jsonl")
        (tmp_path / "base.json").write_text(json.dumps(
            model_config_to_record(baseline_model_config(6, 4))))
        assert main(["train", "--model-config", str(tmp_path / "base.json"),
                     "--dataset", str(tmp_path / "train.jsonl"),
                     "--out", str(tmp_path / "run"), "--epochs", "1"]) == 0
        capsys.readouterr()
        out = tmp_path / "eval"
        assert main(["eval", "--model", str(tmp_path / "run" / "model"),
                     "--dataset", str(tmp_path / "eval.jsonl"),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "ndcg.json").read_text())
        rows = {cells[0]: cells[1:] for cells in map(
            str.split, capsys.readouterr().out.splitlines()) if cells}
        unscored = [t for t, rec in payload.items() if rec["n_searches"] == 0]
        assert unscored == ["book", "unc"]
        for task, rec in payload.items():
            if task in unscored:
                assert rec["mean"] is None
                assert rows[task] == ["-", "0", str(eval_ds.n_searches)]
            else:
                assert 0.0 < rec["mean"] <= 1.0
                assert rows[task][0] == f"{rec['mean']:.4f}"

    def test_json_flag_prints_payload(self, ws, tmp_path, capsys):
        out = tmp_path / "evaljson"
        assert main(["eval", "--model", str(ws / "run" / "model"),
                     "--dataset", str(ws / "data" / "dataset.jsonl"),
                     "--out", str(out), "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads((out / "ndcg.json").read_text())

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        hashes = []
        for sub in ("e1", "e2"):
            out = tmp_path / sub
            assert main(["eval", "--model", str(ws / "run" / "model"),
                         "--dataset", str(ws / "data" / "dataset.jsonl"),
                         "--out", str(out)]) == 0
            hashes.append(hash_outputs(out))
        assert hashes[0] == hashes[1]

    def test_truncated_normalization_exits_two(self, ws, tmp_path, capsys):
        model_dir = edited_model(
            ws, tmp_path,
            lambda manifest: manifest["normalization"]["listing_mean"].pop())
        rc = main(["eval", "--model", str(model_dir),
                   "--dataset", str(ws / "data" / "dataset.jsonl"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "normalization" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, fault", [
        ("listing_mean", True, "list of numbers"),
        ("listing_mean", "0.5", "list of numbers"),
        ("listing_scale", 0.0, "finite and positive"),
        ("context_scale", -1.0, "finite and positive"),
        ("context_mean", float("nan"), "must be finite"),
        ("context_scale", 1e-320, "at least 1e-12"),
    ], ids=["bool", "string", "zero-scale", "negative-scale", "nan-mean",
            "below-fit-floor"])
    def test_malformed_normalization_value_exits_two(self, ws, tmp_path,
                                                     capsys, field, value,
                                                     fault):
        def edit(manifest):
            manifest["normalization"][field][0] = value
        model_dir = edited_model(ws, tmp_path, edit)
        rc = main(["eval", "--model", str(model_dir),
                   "--dataset", str(ws / "data" / "dataset.jsonl"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"normalization {field} must be" in err and fault in err

    @pytest.mark.parametrize("edit", [
        {"twiddler_tasks": ["rej", "cbh"]},
        {"twiddler_tasks": []},
        {"embedding_dim": 7},
    ], ids=["one-twiddler-fewer", "no-twiddlers", "embedding-dim"])
    def test_weights_disagreeing_with_config_exit_two(self, ws, tmp_path,
                                                      capsys, edit):
        model_dir = edited_model(
            ws, tmp_path, lambda manifest: manifest["model_config"].update(edit))
        rc = main(["eval", "--model", str(model_dir),
                   "--dataset", str(ws / "data" / "dataset.jsonl"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "do not match model_config" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "ntc"])
    def test_model_dir_without_params_is_usage_error(self, ws, tmp_path,
                                                     capsys, command):
        empty = tmp_path / "empty_model"
        empty.mkdir()
        argv = [command, "--model", str(empty),
                "--dataset", str(ws / "data" / "dataset.jsonl"),
                "--out", str(tmp_path / "x")]
        if command == "ntc":
            argv += ["--feature", "days_ahead_of_checkin"]
        assert main(argv) == 1
        assert "params.json" in capsys.readouterr().err

    def test_schema_mismatch_exits_two(self, ws, tmp_path):
        foreign = tmp_path / "foreign.jsonl"
        save_dataset(tiny_manual_dataset(), foreign)
        rc = main(["eval", "--model", str(ws / "run" / "model"),
                   "--dataset", str(foreign), "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("value", [
        5, None, ["a"], "", "0" * 63, "0" * 65, "A" * 64, "g" * 64,
    ], ids=["int", "null", "list", "empty", "short", "long", "uppercase",
            "not-hex"])
    def test_malformed_schema_hash_exits_two(self, ws, tmp_path, capsys,
                                             value):
        def edit(manifest):
            manifest["schema_hash"] = value
        model_dir = edited_model(ws, tmp_path, edit)
        rc = main(["eval", "--model", str(model_dir),
                   "--dataset", str(ws / "data" / "dataset.jsonl"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "schema_hash must be a 64-character lowercase hex" in err


    @pytest.mark.parametrize("edit, raw", [
        (None, b"{not json"),
        (None, b"[1, 2]"),
        (None, b'{"format": "journeyrank-params-v1", "name": "\xff"}'),
        (lambda manifest: manifest.pop("n_bytes"), None),
        (lambda manifest: manifest.update(tensors=5), None),
        (lambda manifest: manifest["tensors"][1].update(
            name=manifest["tensors"][0]["name"]), None),
    ], ids=["not-json", "list", "non-utf8", "no-n-bytes", "tensors-int",
            "repeated-name"])
    def test_malformed_params_json_exits_two(self, ws, tmp_path, capsys,
                                             edit, raw):
        model_dir = edited_model(ws, tmp_path, edit or (lambda _: None))
        if raw is not None:
            (model_dir / "params.json").write_bytes(raw)
        rc = main(["eval", "--model", str(model_dir),
                   "--dataset", str(ws / "data" / "dataset.jsonl"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"data error: {model_dir / 'params.json'}" in err


class TestCompare:
    def test_self_comparison_zero_delta(self, ws, tmp_path):
        out = tmp_path / "self"
        assert main(["compare",
                     "--model-config-a", str(ws / "base.json"),
                     "--model-config-b", str(ws / "base.json"),
                     "--dataset", str(ws / "data" / "dataset.jsonl"),
                     "--out", str(out), "--seeds", "0,1",
                     "--epochs", "1", "--batch-size", "64"]) == 0
        payload = json.loads((out / "compare.json").read_text())
        assert payload["deltas"] == [0.0, 0.0]
        assert payload["mean_delta"] == 0.0

    def test_two_configs_report(self, ws, tmp_path):
        out = tmp_path / "ab"
        assert main(["compare",
                     "--model-config-a", str(ws / "model.json"),
                     "--model-config-b", str(ws / "base.json"),
                     "--dataset", str(ws / "data" / "dataset.jsonl"),
                     "--out", str(out), "--seeds", "0,1",
                     "--epochs", "1", "--batch-size", "64",
                     "--label-a", "full", "--label-b", "baseline"]) == 0
        payload = json.loads((out / "compare.json").read_text())
        assert payload["label_a"] == "full"
        assert len(payload["per_seed_a"]) == 2
        assert "full" in (out / "compare.txt").read_text()

    def test_equal_labels_still_run(self, ws, tmp_path):
        out = tmp_path / "same"
        assert main(["compare",
                     "--model-config-a", str(ws / "model.json"),
                     "--model-config-b", str(ws / "base.json"),
                     "--dataset", str(ws / "data" / "dataset.jsonl"),
                     "--out", str(out), "--seeds", "0,1",
                     "--epochs", "1", "--batch-size", "64",
                     "--label-a", "X", "--label-b", "X"]) == 0
        payload = json.loads((out / "compare.json").read_text())
        assert payload["label_a"] == payload["label_b"] == "X"
        assert payload["per_seed_a"] != payload["per_seed_b"]
        rows = (out / "compare.txt").read_text().splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["X", "X"]
        assert rows[0].split()[4] == "+0.00000"

    def test_two_seeds_leave_scipy_special_unloaded(self, ws, tmp_path):
        """The interval of up to 31 seeds reads its t quantile from a
        table."""
        result = run_python(
            "-c", "import sys; from journeyrank.cli import main; "
                  "print(main(sys.argv[1:]), 'scipy.special' in sys.modules)",
            "compare", "--model-config-a", str(ws / "model.json"),
            "--model-config-b", str(ws / "base.json"),
            "--dataset", str(ws / "data" / "dataset.jsonl"),
            "--out", str(tmp_path / "ab"), "--seeds", "0,1",
            "--epochs", "1", "--batch-size", "64")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 False"
        assert (tmp_path / "ab" / "compare.json").exists()

    def test_malformed_seeds_is_usage_error(self, ws, tmp_path):
        rc = main(["compare",
                   "--model-config-a", str(ws / "base.json"),
                   "--model-config-b", str(ws / "base.json"),
                   "--dataset", str(ws / "data" / "dataset.jsonl"),
                   "--out", str(tmp_path / "x"), "--seeds", "a,b",
                   "--epochs", "1"])
        assert rc == 1


class TestAblate:
    def test_four_cells_and_parallel_determinism(self, ws, tmp_path):
        args = ["ablate", "--dataset", str(ws / "data" / "dataset.jsonl"),
                "--seeds", "0,1", "--epochs", "1", "--batch-size", "64",
                "--embedding-dim", "6"]
        assert main(args + ["--out", str(tmp_path / "seq")]) == 0
        assert main(args + ["--out", str(tmp_path / "par"),
                            "--jobs", "4"]) == 0
        seq = json.loads((tmp_path / "seq" / "ablation.json").read_text())
        par = json.loads((tmp_path / "par" / "ablation.json").read_text())
        assert seq == par
        assert [cell["name"] for cell in seq] == [
            "unc", "req+book+unc", "c+unc", "all6"]
        table = (tmp_path / "seq" / "ablation.txt").read_text()
        assert len(table.splitlines()) == 5


class TestProtocolRefusals:
    """compare and ablate refuse the same protocol settings the same way."""

    @staticmethod
    def argv(ws, tmp_path, command):
        argv = [command, "--dataset", str(ws / "data" / "dataset.jsonl"),
                "--out", str(tmp_path / "x"), "--epochs", "1"]
        if command == "compare":
            argv += ["--model-config-a", str(ws / "base.json"),
                     "--model-config-b", str(ws / "base.json")]
        return argv

    @pytest.mark.parametrize("command", ["compare", "ablate"])
    def test_single_seed_is_usage_error(self, ws, tmp_path, capsys, command):
        rc = main(self.argv(ws, tmp_path, command) + ["--seeds", "0"])
        assert rc == 1
        assert "at least 2 distinct seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "ablate"])
    def test_duplicate_seeds_is_usage_error(self, ws, tmp_path, capsys,
                                            command):
        rc = main(self.argv(ws, tmp_path, command) + ["--seeds", "1,1"])
        assert rc == 1
        assert "at least 2 distinct seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "ablate"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, ws, tmp_path, capsys,
                                           command, jobs):
        rc = main(self.argv(ws, tmp_path, command)
                  + ["--seeds", "0,1", "--jobs", jobs])
        assert rc == 1
        assert "jobs must be at least 1" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["compare", "ablate"])
    @pytest.mark.parametrize("rate", ["0", "nan"])
    def test_bad_learning_rate_is_usage_error(self, ws, tmp_path, capsys,
                                              command, rate):
        rc = main(self.argv(ws, tmp_path, command)
                  + ["--seeds", "0,1", f"--learning-rate={rate}"])
        assert rc == 1
        assert "learning_rate" in capsys.readouterr().err


class TestNoEvidence:
    """A split whose eval side holds no search with an uncancelled booking
    gives no NDCG to compare: compare and ablate refuse it as a data
    error (exit 2) that names the eval search count, before any run
    trains, and write no report."""

    @pytest.mark.parametrize("command", ["compare", "ablate"])
    def test_exits_two_before_training(self, ws, tmp_path, capsys,
                                       monkeypatch, command):
        dataset, _ = generate(default_generator_config(n_guests=12, seed=3))
        path = tmp_path / "tiny.jsonl"
        save_dataset(dataset, path)

        def train(*args, **kwargs):
            raise AssertionError("a run trained")

        monkeypatch.setattr(ev, "train", train)
        argv = TestProtocolRefusals.argv(ws, tmp_path, command)
        argv[argv.index("--dataset") + 1] = str(path)
        assert main(argv + ["--seeds", "0,1"]) == 2
        assert "eval split's 10 searches" in capsys.readouterr().err
        assert not list(tmp_path.glob("x/*.json"))


class TestSettingsBeforeData:
    """Bad training or protocol settings are refused before the dataset
    is read: with a dataset whose header is malformed (a data error, exit
    2) they still exit 1."""

    @staticmethod
    def bad_dataset(tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "schema", "listing_dim": "x"}\n')
        return path

    @pytest.mark.parametrize("command", ["compare", "ablate"])
    @pytest.mark.parametrize("flags", [
        ["--epochs", "0"], ["--batch-size", "0"], ["--learning-rate=-1"],
        ["--jobs", "0"], ["--seeds", "1,1"]],
        ids=["epochs", "batch-size", "learning-rate", "jobs", "seeds"])
    def test_protocol_flag_is_usage_error(self, ws, tmp_path, capsys,
                                          command, flags):
        argv = [command, "--dataset", str(self.bad_dataset(tmp_path)),
                "--out", str(tmp_path / "x"), "--seeds", "0,1"]
        if command == "compare":
            argv += ["--model-config-a", str(ws / "base.json"),
                     "--model-config-b", str(ws / "base.json")]
        assert main(argv + flags) == 1
        assert "config error:" in capsys.readouterr().err

    def test_bad_dataset_alone_is_data_error(self, ws, tmp_path):
        assert main(["ablate", "--dataset", str(self.bad_dataset(tmp_path)),
                     "--out", str(tmp_path / "x"), "--seeds", "0,1"]) == 2

    @pytest.mark.parametrize("command, flags, message", [
        ("ablate", ["--embedding-dim", "0", "--seeds", "0,1"],
         "embedding_dim must be an integer from 1"),
        ("ntc", ["--buckets", "0", "--feature", "days_ahead_of_checkin"],
         "n_buckets must be positive"),
    ], ids=["ablate-embedding-dim", "ntc-buckets"])
    def test_width_flag_is_refused_before_any_file_is_read(
            self, ws, tmp_path, capsys, monkeypatch, command, flags,
            message):
        """A width a command could only refuse once it had built its
        models exits 1 before the model or the dataset is read."""
        def never(*args, **kwargs):
            raise AssertionError("a file was read")

        monkeypatch.setattr(cli, "validate_dataset", never)
        monkeypatch.setattr(cli, "load_model", never)
        argv = [command, "--dataset", str(ws / "data" / "dataset.jsonl"),
                "--out", str(tmp_path / "x")]
        if command == "ntc":
            argv += ["--model", str(ws / "run" / "model")]
        assert main(argv + flags) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and message in err

    @pytest.mark.parametrize("flags", [
        ["--epochs=-1"], ["--batch-size", "0"], ["--learning-rate=-1"]],
        ids=["epochs", "batch-size", "learning-rate"])
    def test_train_flag_is_usage_error(self, ws, tmp_path, capsys, flags):
        argv = ["train", "--model-config", str(ws / "model.json"),
                "--dataset", str(self.bad_dataset(tmp_path)),
                "--out", str(tmp_path / "x")]
        assert main(argv + flags) == 1
        assert "config error:" in capsys.readouterr().err


class TestOutDirectory:
    """``--out`` is checked before a command runs but only made by the
    writers, so a refused command leaves nothing behind."""

    @pytest.mark.parametrize("command", ["compare", "ablate"])
    def test_refused_run_leaves_no_out(self, ws, tmp_path, command):
        rc = main(TestProtocolRefusals.argv(ws, tmp_path, command)
                  + ["--seeds", "0,1", "--jobs", "0"])
        assert rc == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_out_that_is_a_file_is_usage_error(self, ws, tmp_path, capsys,
                                               under):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        rc = main(["train", "--model-config", str(ws / "base.json"),
                   "--dataset", str(ws / "data" / "dataset.jsonl"),
                   "--out", str(taken / under), "--epochs", "0"])
        assert rc == 1
        assert "not a directory" in capsys.readouterr().err
        assert taken.read_text() == "keep\n"

    @pytest.mark.parametrize("command",
                             ["train", "eval", "ntc", "compare", "ablate"])
    def test_bad_out_beats_a_bad_dataset(self, ws, tmp_path, capsys,
                                         command):
        """``--out`` is checked before the dataset is read: under a file,
        next to a malformed dataset (a data error, exit 2), it exits 1."""
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        argv = [command, "--dataset",
                str(TestSettingsBeforeData.bad_dataset(tmp_path)),
                "--out", str(afile / "sub")]
        argv += {
            "train": ["--model-config", str(ws / "base.json")],
            "eval": ["--model", str(ws / "run" / "model")],
            "ntc": ["--model", str(ws / "run" / "model"),
                    "--feature", "days_ahead_of_checkin"],
            "compare": ["--model-config-a", str(ws / "base.json"),
                        "--model-config-b", str(ws / "base.json"),
                        "--seeds", "0,1"],
            "ablate": ["--seeds", "0,1"],
        }[command]
        assert main(argv) == 1
        assert "not a directory" in capsys.readouterr().err
        assert afile.read_text() == "keep\n"

    def test_nested_out_is_made_by_the_writers(self, ws, tmp_path):
        out = tmp_path / "a" / "b"
        assert main(["eval", "--model", str(ws / "run" / "model"),
                     "--dataset", str(ws / "data" / "dataset.jsonl"),
                     "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == {
            "manifest.json", "ndcg.json", "ndcg.txt"}


class TestInputPathKind:
    """An input path must name a file: a path to a directory, or a model
    directory that is a file, exits 1 with a config error naming it."""

    @pytest.mark.parametrize("case", [
        "eval-params-json-is-a-directory", "eval-model-is-a-file",
        "ntc-model-is-a-file", "validate-dataset", "train-model-config",
        "gen-config", "gen-config-in-config-dir", "compare-model-config-a"])
    def test_config_error_naming_the_path(self, ws, tmp_path, capsys,
                                          monkeypatch, case):
        monkeypatch.setenv("JOURNEYRANK_CONFIG_DIR", str(tmp_path))
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        directory = tmp_path / "dir"
        (directory / "params.json").mkdir(parents=True)
        a_file = tmp_path / "afile"
        a_file.write_text("{}\n")
        data = ["--dataset", str(ws / "data" / "dataset.jsonl")]
        out = ["--out", str(tmp_path / "out")]
        bad, argv = {
            "eval-params-json-is-a-directory": (
                directory, ["eval", "--model", str(directory)] + data + out),
            "eval-model-is-a-file": (
                a_file, ["eval", "--model", str(a_file)] + data + out),
            "ntc-model-is-a-file": (
                a_file, ["ntc", "--model", str(a_file), "--feature",
                         "days_ahead_of_checkin"] + data + out),
            "validate-dataset": (
                directory, ["validate", "--dataset", str(directory)]),
            "train-model-config": (
                directory, ["train", "--model-config", str(directory)]
                + data + out),
            "gen-config": (directory, ["gen", "--config", str(directory)]
                           + out),
            # a relative name only the config directory resolves
            "gen-config-in-config-dir": ("dir", ["gen", "--config", "dir"]
                                         + out),
            "compare-model-config-a": (
                directory, ["compare", "--model-config-a", str(directory),
                            "--model-config-b", str(ws / "base.json"),
                            "--seeds", "0,1"] + data + out),
        }[case]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and str(bad) in err
        assert not (tmp_path / "out").exists()


class TestNtc:
    def test_reports_and_csv(self, ws, tmp_path):
        out = tmp_path / "ntc"
        assert main(["ntc", "--model", str(ws / "run" / "model"),
                     "--dataset", str(ws / "data" / "dataset.jsonl"),
                     "--feature", "days_ahead_of_checkin",
                     "--buckets", "4", "--out", str(out)]) == 0
        payload = json.loads((out / "ntc.json").read_text())
        assert payload["feature"] == "days_ahead_of_checkin"
        assert len(payload["edges"]) == 5
        with open(out / "ntc.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 4 * len(payload["signed"])
        for row in rows[1:]:
            bucket, task = int(row[0]), row[4]
            assert float(row[5]) == payload["signed"][task][bucket]

    def test_unknown_feature_is_usage_error(self, ws, tmp_path):
        rc = main(["ntc", "--model", str(ws / "run" / "model"),
                   "--dataset", str(ws / "data" / "dataset.jsonl"),
                   "--feature", "nonexistent", "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_dataset_without_searches_exits_two(self, ws, tmp_path, capsys):
        """A dataset that validates but holds no search is a data error,
        as it is for train."""
        schema = load_dataset(ws / "data" / "dataset.jsonl").schema
        empty = tmp_path / "empty.jsonl"
        save_dataset(dataset_from_records(schema, []), empty)
        assert main(["validate", "--dataset", str(empty)]) == 0
        capsys.readouterr()
        rc = main(["ntc", "--model", str(ws / "run" / "model"),
                   "--dataset", str(empty), "--feature",
                   "days_ahead_of_checkin", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "curves need searches" in capsys.readouterr().err


@pytest.fixture(scope="module")
def runs(ws):
    """Each manifest-writing command's ``--out``, all run on the shared
    workspace's files: gen and train from ``ws``, the others here."""
    data, model = str(ws / "data" / "dataset.jsonl"), str(ws / "run" / "model")
    paired = ["--dataset", data, "--seeds", "0,1", "--epochs", "1",
              "--batch-size", "64"]
    argvs = {
        "eval": ["--model", model, "--dataset", data],
        "compare": ["--model-config-a", str(ws / "model.json"),
                    "--model-config-b", str(ws / "base.json"), *paired],
        "ablate": [*paired, "--embedding-dim", "6"],
        "ntc": ["--model", model, "--dataset", data,
                "--feature", "days_ahead_of_checkin"],
    }
    for command, argv in argvs.items():
        assert main([command, *argv, "--out", str(ws / command)]) == 0
    return {"gen": ws / "data", "train": ws / "run",
            **{command: ws / command for command in argvs}}


class TestNotEnoughMemory:
    """A request for more memory than a process can address exits 1 with
    a config error, not a traceback. Each asks for more than 2**47 bytes,
    the user address space, so it fails before any memory is committed."""

    @pytest.mark.parametrize("case", ["ntc-buckets", "train-widths",
                                      "train-depth"])
    def test_exits_one_without_a_traceback(self, ws, tmp_path, capsys, case):
        if case == "ntc-buckets":
            # np.linspace over 10**15 + 1 bucket edges: 7 PiB
            argv = ["ntc", "--model", str(ws / "run" / "model"),
                    "--feature", "days_ahead_of_checkin",
                    "--buckets", str(10**15)]
        else:
            record = json.loads((ws / "model.json").read_text())
            if case == "train-widths":
                # two towers of 10**8 x 10**8 weights: 142 PiB of parameters
                record.update(embedding_dim=10**8, tower_hidden=[10**8])
            else:
                # 20 layers of 2**28 x 2**28 weights: more values than
                # numpy can shape in one float64 array
                record.update(tower_hidden=[2**28] * 20)
            wide = tmp_path / "wide.json"
            wide.write_text(json.dumps(record))
            argv = ["train", "--model-config", str(wide)]
        rc = main(argv + ["--dataset", str(ws / "data" / "dataset.jsonl"),
                          "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("journeyrank: config error: not enough memory")
        assert "Traceback" not in err


class TestManifest:
    @pytest.mark.parametrize("command", ["gen", "train", "eval", "compare",
                                         "ablate", "ntc"])
    def test_lists_what_the_command_read_and_wrote(self, runs, command):
        """The files under ``--out`` are the manifest and its outputs, and
        each input hash is the sha256 of the file it names (a model's
        ``params.bin``)."""
        out = runs[command]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        written = sorted(str(p) for p in out.rglob("*") if p.is_file())
        assert written == sorted([str(out / "manifest.json"),
                                  *manifest["outputs"]])
        assert manifest["input_hashes"].keys() == manifest["inputs"].keys()
        for name, shown in manifest["inputs"].items():
            read = Path(shown) / "params.bin" if name == "model" else shown
            assert manifest["input_hashes"][name] == file_sha256(read), name


class TestValidate:
    def test_rejects_corrupt_dataset(self, tmp_path, capsys):
        base = tiny_manual_dataset()
        records = list(dataset_to_records(base))
        records[0]["searches"][0]["impressions"][1] = {
            "listing_id": "L0c", "position": 1, "features": [0.0, 0.0],
            "labels": {}}
        path = tmp_path / "broken.jsonl"
        save_dataset(dataset_from_records(base.schema, records), path)
        rc = main(["validate", "--dataset", str(path)])
        assert rc == 2
        assert "duplicate position" in capsys.readouterr().out

    @pytest.mark.parametrize("field,kind", [
        ("features", "non-finite listing features"),
        ("context", "non-finite context"),
    ])
    def test_non_finite_values_exit_two(self, ws, tmp_path, capsys, field,
                                        kind):
        dataset = load_dataset(ws / "data" / "dataset.jsonl")
        records = list(dataset_to_records(dataset))
        search = records[-1]["searches"][0]
        target = search if field == "context" else search["impressions"][0]
        target[field][1] = float("nan")
        path = tmp_path / "nan.jsonl"
        save_dataset(dataset_from_records(dataset.schema, records), path)
        assert main(["validate", "--dataset", str(path)]) == 2
        assert kind in capsys.readouterr().out
        rc = main(["train", "--model-config", str(ws / "model.json"),
                   "--dataset", str(path), "--out", str(tmp_path / "x"),
                   "--epochs", "1", "--no-filter"])
        assert rc == 2

    @pytest.mark.parametrize("column,kind", [
        ("t_days", "non-finite time"),
        ("listing_rows", "listing features too large to normalize"),
    ])
    def test_validate_train_and_eval_refuse_alike(self, ws, tmp_path, capsys,
                                                  column, kind):
        """A NaN search time, which the order and window rules skip, and
        a feature of 1e300, whose square overflows the fit's scale: each
        exits 2 from validate, train and eval."""
        dataset = load_dataset(ws / "data" / "dataset.jsonl")
        values = getattr(dataset, column).copy()
        values[(5, 0) if values.ndim == 2 else 3] = (
            1e300 if values.ndim == 2 else np.nan)
        path = tmp_path / "bad.jsonl"
        save_dataset(dataclasses.replace(dataset, **{column: values}), path)
        assert main(["validate", "--dataset", str(path)]) == 2
        assert kind in capsys.readouterr().out
        assert main(["train", "--model-config", str(ws / "model.json"),
                     "--dataset", str(path), "--out", str(tmp_path / "x"),
                     "--epochs", "1"]) == 2
        assert main(["eval", "--model", str(ws / "run" / "model"),
                     "--dataset", str(path),
                     "--out", str(tmp_path / "eval")]) == 2

    def test_width_mismatch_exits_two(self, ws, tmp_path, capsys):
        lines = (ws / "data" / "dataset.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        record["searches"][0]["context"].append(0.0)
        lines[1] = json.dumps(record)
        path = tmp_path / "wide.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert main(["validate", "--dataset", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"guest={record['guest_id']} search=" in err

    def test_infinite_position_exits_two(self, ws, tmp_path, capsys):
        lines = (ws / "data" / "dataset.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        record["searches"][0]["impressions"][0]["position"] = float("inf")
        lines[1] = json.dumps(record)
        assert '"position": Infinity' in lines[1]
        path = tmp_path / "inf.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert main(["validate", "--dataset", str(path)]) == 2
        assert "malformed journey record" in capsys.readouterr().err
        rc = main(["train", "--model-config", str(ws / "model.json"),
                   "--dataset", str(path), "--out", str(tmp_path / "x"),
                   "--epochs", "1"])
        assert rc == 2
        assert "malformed journey record" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", [
        (("impressions", "position"), 10 ** 20),
        (("impressions", "position"), 2.7),
        (("impressions", "position"), True),
        (("impressions", "features"), "1.5"),
        (("impressions", "features"), True),
        (("impressions", "features"), None),
        (("context",), True),
        (("context",), "1.5"),
        (("t_days",), "2.5"),
        (("t_days",), True),
    ], ids=["huge-position", "fractional-position", "bool-position",
            "string-feature", "bool-feature", "null-feature", "bool-context",
            "string-context", "string-t_days", "bool-t_days"])
    def test_malformed_record_value_exits_two(self, ws, tmp_path, capsys,
                                              path, value):
        """A value of the wrong kind anywhere in a journey record is a
        data error, never a silent conversion or a traceback."""
        lines = (ws / "data" / "dataset.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        search = record["searches"][0]
        if path == ("t_days",):
            search["t_days"] = value
        elif path == ("context",):
            search["context"][1] = value
        elif path[1] == "position":
            search["impressions"][0]["position"] = value
        else:
            search["impressions"][0]["features"][2] = value
        lines[1] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["validate", "--dataset", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "data error: malformed journey record" in err

    def test_non_utf8_dataset_exits_two(self, ws, tmp_path, capsys):
        data = (ws / "data" / "dataset.jsonl").read_bytes()
        at = data.index(b'"listing_id":"') + len(b'"listing_id":"')
        bad = tmp_path / "latin1.jsonl"
        bad.write_bytes(data[:at] + b"\xff" + data[at:])
        assert main(["validate", "--dataset", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{bad}: not UTF-8 text" in err

    @pytest.mark.parametrize("key, value, named", [
        ("listing_dim", 6.9, "listing_dim"),
        ("listing_dim", "6", "listing_dim"),
        ("context_dim", True, "context_dim"),
        ("window_days", True, "window_days"),
        ("window_days", "30", "window_days"),
        ("milestones", ["imp"], "milestones"),
        ("context_features", "days_ahead_of_checkin", "context_features"),
        ("context_features", [0, 1, 2, 3], "context_features"),
        ("listing_dim", 0, "feature widths"),
        ("window_days", -1, "journey window"),
        ("window_days", float("nan"), "journey window"),
        ("context_features", ["days_out", "num_previous_searches",
                              "taste_0", "taste_1"], "days_ahead_of_checkin"),
    ], ids=["fractional-width", "string-width", "bool-width", "bool-window",
            "string-window", "milestones", "names-not-a-list",
            "names-not-strings", "zero-width", "negative-window",
            "nan-window", "names-lack-days-ahead"])
    def test_malformed_header_exits_two(self, ws, tmp_path, capsys, key,
                                        value, named):
        """The schema header is read as strictly as the journey records:
        every fault in it is a data error that names what is wrong."""
        lines = (ws / "data" / "dataset.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["context_features"] == [
            "days_ahead_of_checkin", "num_previous_searches", "taste_0",
            "taste_1"]
        header[key] = value
        lines[0] = json.dumps(header)
        path = tmp_path / "header.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert main(["validate", "--dataset", str(path)]) == 2
        err = capsys.readouterr().err
        assert "data error:" in err
        assert named in err

    @pytest.mark.parametrize("width", [2 ** 62, 10 ** 20])
    @pytest.mark.parametrize("command", ["validate", "train", "eval",
                                         "compare", "ablate", "ntc"])
    def test_width_numpy_cannot_shape_exits_two(self, ws, tmp_path, capsys,
                                                command, width):
        """A header width past what numpy can shape an array from is a
        data error naming the file and the key, from every command that
        loads the file."""
        lines = (ws / "data" / "dataset.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        header["listing_dim"] = width
        path = tmp_path / "wide.jsonl"
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        model, paired = str(ws / "run" / "model"), ["--seeds", "0,1",
                                                    "--epochs", "1"]
        argv = {
            "validate": [],
            "train": ["--model-config", str(ws / "model.json")],
            "eval": ["--model", model],
            "compare": ["--model-config-a", str(ws / "model.json"),
                        "--model-config-b", str(ws / "base.json"), *paired],
            "ablate": paired,
            "ntc": ["--model", model, "--feature", "days_ahead_of_checkin"],
        }[command]
        if command != "validate":
            argv += ["--out", str(tmp_path / "out")]
        rc = main([command, *argv, "--dataset", str(path)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert f"data error: {path}: schema header: " in err
        assert "listing_dim" in err

    def test_ids_that_are_not_strings_exit_two(self, tmp_path, capsys):
        """A null or numeric guest, search or listing id is a data fault
        naming the field, not the text "None" or "7"."""
        dataset, _ = generate(default_generator_config(n_guests=40, seed=0))
        save_dataset(dataset, tmp_path / "clean.jsonl")
        header, *lines = (tmp_path / "clean.jsonl").read_text().splitlines()
        for field, value in (("guest_id", None), ("search_id", 7),
                             ("listing_id", None)):
            records = [json.loads(line) for line in lines]
            holder = {"guest_id": records[3],
                      "search_id": records[3]["searches"][0],
                      "listing_id": records[3]["searches"][0][
                          "impressions"][2]}[field]
            holder[field] = value
            path = tmp_path / f"{field}.jsonl"
            path.write_text("\n".join([header, *map(json.dumps, records)])
                            + "\n")
            assert main(["validate", "--dataset", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"{field} must be a string, got {value!r}" in err

    def test_header_that_is_not_an_object_exits_two(self, ws, tmp_path,
                                                    capsys):
        lines = (ws / "data" / "dataset.jsonl").read_text().splitlines()
        path = tmp_path / "list-header.jsonl"
        path.write_text("\n".join(["[]", *lines[1:]]) + "\n")
        assert main(["validate", "--dataset", str(path)]) == 2
        assert "schema record" in capsys.readouterr().err

    def test_json_payload_reports_acceptance(self, ws, capsys):
        rc = main(["validate", "--json",
                   "--dataset", str(ws / "data" / "dataset.jsonl")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accepted"] is True
        assert payload["n_journeys"] == 120


class TestParserPlumbing:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_argument_is_usage_error(self, capsys):
        assert main(["gen"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["gen", "--config", "g.json"],
        ["train", "--model-config", "m.json", "--dataset", "d.jsonl"],
        ["eval", "--model", "m", "--dataset", "d.jsonl"],
        ["ntc", "--model", "m", "--dataset", "d.jsonl", "--feature", "f"],
    ])
    def test_jobs_is_refused_where_unused(self, argv, capsys):
        assert main(argv + ["--jobs", "7"]) == 1
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_version_flag_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "journeyrank" in capsys.readouterr().out

    def test_import_leaves_scipy_stats_unloaded(self):
        """Neither scipy.special nor the process pool: only a run that uses
        one imports it."""
        modules = ["scipy.stats", "scipy.special", "multiprocessing",
                   "concurrent.futures"]
        result = run_python(
            "-c", "import sys, journeyrank.cli; "
                  f"print([m in sys.modules for m in {modules}])")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == str([False] * len(modules))

    def test_module_entry_point(self, ws):
        result = run_python("-m", "journeyrank", "validate",
                            "--dataset", str(ws / "data" / "dataset.jsonl"))
        assert result.returncode == 0
        assert "dataset ok" in result.stdout


# ---------------------------------------------------------------------------
# one fault model for validate, train and both JSONL readers


# values a mutated leaf takes: other JSON kinds, edge numbers, non-finites
LEAF_POOL = [None, True, False, 0, -1, 1.5, -0.0, 2 ** 63, 2 ** 53 + 1,
             1e300, 1.7e308, -1.7e308, 1e-320, 5e-324, float("nan"),
             float("inf"), float("-inf"), "", "x", [], {}, [1.0],
             {"c": True}]

# a documented reason for validate to accept a file that train refuses;
# none has shown on these mutations
TRAIN_ONLY_REFUSALS: tuple[str, ...] = ()


def _leaves(rec: dict) -> dict[str, list[tuple]]:
    """Every (holder, key) of a journey record whose value is a leaf or a
    whole feature, context or label value, by where it sits, so each kind
    is drawn as often as the others however many there are."""
    searches = rec["searches"]
    imps = [imp for s in searches for imp in s["impressions"]]
    leaves = {
        "journey": [(rec, "guest_id")],
        "search": [(s, k) for s in searches
                   for k in ("search_id", "t_days", "context")],
        "context": [(s["context"], k) for s in searches
                    for k in range(len(s["context"]))],
        "impression": [(imp, k) for imp in imps
                       for k in ("listing_id", "position", "features",
                                 "labels")],
        "features": [(imp["features"], k) for imp in imps
                     for k in range(len(imp["features"]))],
    }
    return {where: found for where, found in leaves.items() if found}


@st.composite
def mutated_records(draw, records: list[dict],
                    window_days: float) -> list[dict]:
    """A deep copy of ``records`` with one fault: a leaf set to a value
    of the pool, a key deleted, a label set replaced, a search copied
    into some journey, the lines reordered, or a search's ``t_days``
    moved before or after its journey's others or out of its window."""
    records = copy.deepcopy(records)
    rec = draw(st.sampled_from(records))
    kind = draw(st.sampled_from(["leaf", "key", "labels", "search", "lines",
                                 "t_days"]))
    searches = [s for r in records for s in r["searches"]]
    if kind == "leaf":
        leaves = _leaves(rec)
        holder, key = draw(st.sampled_from(
            leaves[draw(st.sampled_from(sorted(leaves)))]))
        holder[key] = copy.deepcopy(draw(st.sampled_from(LEAF_POOL)))
    elif kind == "key":
        holder = draw(st.sampled_from(
            [rec, *rec["searches"],
             *(imp for s in rec["searches"] for imp in s["impressions"])]))
        del holder[draw(st.sampled_from(sorted(holder)))]
    elif kind == "labels":
        imp = draw(st.sampled_from(
            [imp for s in searches for imp in s["impressions"]]))
        imp["labels"] = draw(st.dictionaries(
            st.sampled_from((*ALL_MILESTONES, "booked")), st.booleans(),
            max_size=4))
    elif kind == "search":
        at = draw(st.integers(0, len(rec["searches"])))
        rec["searches"].insert(at, copy.deepcopy(draw(st.sampled_from(
            searches))))
    elif kind == "lines":
        records = draw(st.permutations(records))
    else:
        times = [s["t_days"] for s in rec["searches"]]
        draw(st.sampled_from(rec["searches"]))["t_days"] = draw(
            st.sampled_from([min(times) - 0.5, max(times) + 0.5,
                             min(times) + window_days + 0.5,
                             max(times) - window_days - 0.5]))
    return records


def run_quietly(argv: list[str]) -> tuple[int, str]:
    """``main``'s exit code and what it wrote to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fault_ws(tmp_path_factory):
    """A 40-guest default world's dataset header and journey records, a
    small model config for it, and that model trained on the clean file
    for one epoch into ``clean/model``."""
    root = tmp_path_factory.mktemp("faults")
    dataset, _ = generate(default_generator_config(n_guests=40, seed=0))
    save_dataset(dataset, root / "clean.jsonl")
    header, *lines = (root / "clean.jsonl").read_text().splitlines()
    (root / "model.json").write_text(json.dumps(model_config_to_record(
        default_model_config(dataset.schema.listing_dim,
                             dataset.schema.context_dim, embedding_dim=4,
                             tower_hidden=(4,), combination_hidden=(4,)))))
    assert run_quietly([
        "train", "--model-config", str(root / "model.json"),
        "--dataset", str(root / "clean.jsonl"), "--epochs", "1",
        "--out", str(root / "clean")])[0] == cli.EXIT_OK
    return root, header, [json.loads(line) for line in lines]


class TestFaultModel:
    """Mutated files through ``validate``, ``train --epochs 1``, ``eval``
    of the model trained on the clean file and both JSONL readers: every
    exit code is a documented one for a data fault, nothing escapes
    ``main``, ``validate`` accepts exactly the files ``train`` trains on
    and ``eval`` scores, and the block decoder reads what the record path
    reads, or raises what it raises. A model ``train`` makes of a mutated
    file scores it through ``eval`` and ``ntc``, or they refuse it as a
    data error, with no RuntimeWarning."""

    @settings(max_examples=40, derandomize=True, database=None,
              deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_validate_train_and_readers_agree(self, fault_ws, data):
        root, header, records = fault_ws
        path = root / "mutated.jsonl"
        lines = [json.dumps(rec, sort_keys=True, separators=(",", ":"))
                 for rec in data.draw(mutated_records(
                     records, json.loads(header)["window_days"]))]
        path.write_text("\n".join([header, *lines]) + "\n")
        validate, _ = run_quietly(["validate", "--dataset", str(path)])
        train, err = run_quietly([
            "train", "--model-config", str(root / "model.json"),
            "--dataset", str(path), "--epochs", "1",
            "--out", str(root / "run")])
        evaluate, _ = run_quietly([
            "eval", "--model", str(root / "clean" / "model"),
            "--dataset", str(path), "--out", str(root / "eval")])
        assert validate in (cli.EXIT_OK, cli.EXIT_DATA)
        assert train in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_NUMERIC)
        assert evaluate in (cli.EXIT_OK, cli.EXIT_DATA)
        assert (evaluate == cli.EXIT_OK) == (validate == cli.EXIT_OK)
        if validate == cli.EXIT_OK and train != cli.EXIT_OK:
            assert any(reason in err for reason in TRAIN_ONLY_REFUSALS), err
        assert validate == cli.EXIT_OK or train != cli.EXIT_OK
        assert_same_load(path)
        if train != cli.EXIT_OK:
            return
        for command in (["eval"],
                        ["ntc", "--feature", "days_ahead_of_checkin"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, err = run_quietly([
                    *command, "--model", str(root / "run" / "model"),
                    "--dataset", str(path), "--out", str(root / "scored")])
            assert code in (cli.EXIT_OK, cli.EXIT_DATA), err


# ---------------------------------------------------------------------------
# one fault model for a saved model


# the pool's numbers, which a value of params.bin takes
NUMBER_POOL = [v for v in LEAF_POOL
               if isinstance(v, (int, float)) and not isinstance(v, bool)]


def _below(holder, key):
    """``(holder, key)`` and every ``(holder, key)`` nested in its
    value."""
    yield holder, key
    value = holder[key]
    if isinstance(value, (list, dict)):
        for inner in (range(len(value)) if isinstance(value, list)
                      else sorted(value)):
            yield from _below(value, inner)


@st.composite
def faulty_model(draw, manifest: dict, blob: bytes) -> tuple[dict, bytes]:
    """A saved model's ``params.json`` record and ``params.bin`` bytes
    with one fault: a leaf of the record set to a value of the pool, or a
    value of ``params.bin`` set to one of the pool's numbers under a
    matching length and checksum. Each top-level key of the record, and
    ``params.bin``, is drawn as often as the others."""
    manifest = copy.deepcopy(manifest)
    where = draw(st.sampled_from([*sorted(manifest), "params.bin"]))
    if where == "params.bin":
        values = np.frombuffer(blob, dtype="<f8").copy()
        values[draw(st.integers(0, len(values) - 1))] = draw(
            st.sampled_from(NUMBER_POOL))
        blob = values.astype("<f8").tobytes()
        manifest.update(n_bytes=len(blob),
                        sha256=hashlib.sha256(blob).hexdigest())
    else:
        holder, key = draw(st.sampled_from(list(_below(manifest, where))))
        holder[key] = copy.deepcopy(draw(st.sampled_from(LEAF_POOL)))
    return manifest, blob


class TestSavedModelFaults:
    """A one-fault copy of a trained model through ``eval`` and ``ntc``:
    each scores, or exits 2 with a data error naming the copy's
    ``params.json``, and nothing escapes ``main``, a RuntimeWarning
    included."""

    @settings(max_examples=80, derandomize=True, database=None,
              deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_eval_and_ntc_score_or_refuse_as_data_errors(self, fault_ws,
                                                         data):
        root = fault_ws[0]
        clean = root / "clean" / "model"
        manifest, blob = data.draw(faulty_model(
            json.loads((clean / "params.json").read_text()),
            (clean / "params.bin").read_bytes()))
        model_dir = root / "faulty"
        model_dir.mkdir(exist_ok=True)
        (model_dir / "params.json").write_text(json.dumps(manifest))
        (model_dir / "params.bin").write_bytes(blob)
        for command in (["eval"],
                        ["ntc", "--feature", "days_ahead_of_checkin"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, err = run_quietly([
                    *command, "--model", str(model_dir),
                    "--dataset", str(root / "clean.jsonl"),
                    "--out", str(root / "scored")])
            assert code in (cli.EXIT_OK, cli.EXIT_DATA), err
            if code == cli.EXIT_DATA:
                assert f"data error: {model_dir / 'params.json'}: " in err

    def test_unknown_normalization_key_is_refused(self, fault_ws,
                                                  tmp_path):
        """A ``normalization`` record with a key it does not define is
        refused, as ``model_config`` and the dataset header are."""
        clean = fault_ws[0] / "clean" / "model"
        manifest = json.loads((clean / "params.json").read_text())
        manifest["normalization"]["listing_median"] = [0.0]
        (tmp_path / "params.json").write_text(json.dumps(manifest))
        shutil.copy(clean / "params.bin", tmp_path / "params.bin")
        for command in (["eval"],
                        ["ntc", "--feature", "days_ahead_of_checkin"]):
            code, err = run_quietly([
                *command, "--model", str(tmp_path),
                "--dataset", str(fault_ws[0] / "clean.jsonl"),
                "--out", str(tmp_path / "scored")])
            assert code == cli.EXIT_DATA, err
            assert (f"data error: {tmp_path / 'params.json'}: normalization "
                    "record has unknown keys ['listing_median']") in err

    @pytest.mark.parametrize("value", [1.7e308, -1.7e308])
    @pytest.mark.parametrize("at", [0, 5, 50, 100])
    def test_weights_whose_scores_overflow_are_refused(self, fault_ws,
                                                       tmp_path, at, value):
        """A finite weight so large that the scores overflow: both
        commands refuse the model as a data error, with no warning."""
        clean = fault_ws[0] / "clean" / "model"
        manifest = json.loads((clean / "params.json").read_text())
        values = np.frombuffer((clean / "params.bin").read_bytes(),
                               dtype="<f8").copy()
        values[at] = value
        blob = values.tobytes()
        manifest.update(n_bytes=len(blob),
                        sha256=hashlib.sha256(blob).hexdigest())
        (tmp_path / "params.json").write_text(json.dumps(manifest))
        (tmp_path / "params.bin").write_bytes(blob)
        for command in (["eval"],
                        ["ntc", "--feature", "days_ahead_of_checkin"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, err = run_quietly([
                    *command, "--model", str(tmp_path),
                    "--dataset", str(fault_ws[0] / "clean.jsonl"),
                    "--out", str(tmp_path / "scored")])
            assert code == cli.EXIT_DATA, err
            assert (f"data error: {tmp_path / 'params.json'}: the model's "
                    "weights give scores") in err


# ---------------------------------------------------------------------------
# one fault model for a generator config


# values a generator config leaf takes: other JSON kinds, non-finites, a
# negative, 2**53 + 1 and ints of at least 2**62. None is a size that numpy
# accepts but memory cannot hold: the generator would fill it.
CONFIG_POOL = [None, True, False, "", "x", [], {}, [1.0], {"c": 1.0},
               float("nan"), float("inf"), float("-inf"), -1, -2.5,
               2 ** 53 + 1]


@st.composite
def faulty_generator_config(draw, record: dict) -> dict:
    """A generator config record with one fault: a leaf, or a whole value,
    set to a value of the pool or an int of at least 2**62, a key deleted,
    or an unknown key added to one of its objects. Each top-level key is
    drawn as often as the others."""
    record = copy.deepcopy(record)
    below = list(_below(record, draw(st.sampled_from(sorted(record)))))
    kind = draw(st.sampled_from(["leaf", "delete", "unknown"]))
    if kind == "unknown":
        objects = [record, *(holder[key] for holder, key in below
                             if isinstance(holder[key], dict))]
        draw(st.sampled_from(objects))["shade"] = 1.0
        return record
    holder, key = draw(st.sampled_from(below))
    if kind == "leaf":
        holder[key] = copy.deepcopy(draw(st.one_of(
            st.sampled_from(CONFIG_POOL), st.integers(min_value=2 ** 62))))
    else:
        del holder[key]
    return record


class TestGeneratorConfigFaults:
    """A one-fault copy of a small generator config through ``gen``: it
    generates, or exits with a documented code, nothing escapes ``main``,
    and ``validate`` accepts whatever ``gen`` writes."""

    @settings(max_examples=120, derandomize=True, database=None,
              deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_gen_generates_or_refuses(self, tmp_path_factory, data):
        record = generator_config_to_record(
            default_generator_config(n_guests=6, seed=4))
        root = tmp_path_factory.mktemp("gen-faults")
        (root / "gen.json").write_text(json.dumps(
            data.draw(faulty_generator_config(record))))
        code, err = run_quietly(["gen", "--config", str(root / "gen.json"),
                                 "--out", str(root / "data")])
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA), err
        if code == cli.EXIT_OK:
            assert run_quietly([
                "validate", "--dataset",
                str(root / "data" / "dataset.jsonl")])[0] == cli.EXIT_OK
