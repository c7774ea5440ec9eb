"""Tests for the command-line pipeline.

Each subcommand is exercised in-process through ``main`` so exit codes and
stdout are observable. Artifact determinism is checked byte-for-byte:
re-running any command with identical inputs must reproduce every output
file except the manifest, whose only moving part is its timestamp.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import journeyrank
from conftest import tiny_manual_dataset
from journeyrank import evaluate as ev
from journeyrank.cli import main
from journeyrank.dataio import (
    dataset_from_records,
    dataset_to_records,
    file_sha256,
    load_dataset,
    save_dataset,
)
from journeyrank.model import (
    baseline_model_config,
    default_model_config,
    load_model,
    model_config_to_record,
)
from journeyrank.simulate import (
    default_generator_config,
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

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        rc = main(["gen", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

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
    ])
    def test_malformed_value_names_the_key(self, ws, tmp_path, capsys,
                                           command, key, value):
        source = "model.json" if command == "train" else "gen.json"
        record = json.loads((ws / source).read_text())
        if key == "task_loss_weights":
            value = {t: 1.0 for t in record["base_tasks"]}
            value["unc"] = "x"
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
                                   608.4404324588087, rtol=1e-12)
        np.testing.assert_allclose(float(rows[0]["twiddler"]),
                                   14.62894350785693, rtol=1e-12)
        np.testing.assert_allclose(float(rows[0]["combination"]),
                                   4.1060054295335355, rtol=1e-12)
        np.testing.assert_allclose(float(rows[0]["total"]),
                                   627.1753813961991, rtol=1e-12)

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

    def test_divergence_exits_three_with_epoch(self, ws, tmp_path, capsys):
        record = json.loads((ws / "model.json").read_text())
        record["task_loss_weights"] = {t: 1.0 for t in record["base_tasks"]}
        record["task_loss_weights"]["unc"] = 1e308
        bad = tmp_path / "diverge.json"
        bad.write_text(json.dumps(record))
        with np.errstate(over="ignore"):
            rc = main(["train", "--model-config", str(bad),
                       "--dataset", str(ws / "data" / "dataset.jsonl"),
                       "--out", str(tmp_path / "div"), "--epochs", "1",
                       "--batch-size", "64"])
        assert rc == 3
        assert "epoch" in capsys.readouterr().err

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


class TestEval:
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
        model_dir = tmp_path / "model"
        model_dir.mkdir()
        for name in ("params.json", "params.bin"):
            (model_dir / name).write_bytes(
                (ws / "run" / "model" / name).read_bytes())
        manifest = json.loads((model_dir / "params.json").read_text())
        manifest["normalization"]["listing_mean"].pop()
        (model_dir / "params.json").write_text(json.dumps(manifest))
        rc = main(["eval", "--model", str(model_dir),
                   "--dataset", str(ws / "data" / "dataset.jsonl"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "normalization" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        {"twiddler_tasks": ["rej", "cbh"]},
        {"twiddler_tasks": []},
        {"embedding_dim": 7},
    ], ids=["one-twiddler-fewer", "no-twiddlers", "embedding-dim"])
    def test_weights_disagreeing_with_config_exit_two(self, ws, tmp_path,
                                                      capsys, edit):
        model_dir = tmp_path / "model"
        model_dir.mkdir()
        for name in ("params.json", "params.bin"):
            (model_dir / name).write_bytes(
                (ws / "run" / "model" / name).read_bytes())
        manifest = json.loads((model_dir / "params.json").read_text())
        manifest["model_config"].update(edit)
        (model_dir / "params.json").write_text(json.dumps(manifest))
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
        result = run_python("-c", "import sys, journeyrank.cli; "
                                  "print('scipy.stats' in sys.modules)")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_module_entry_point(self, ws):
        result = run_python("-m", "journeyrank", "validate",
                            "--dataset", str(ws / "data" / "dataset.jsonl"))
        assert result.returncode == 0
        assert "dataset ok" in result.stdout
