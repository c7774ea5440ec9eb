"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in ``setup`` (the
package sees only the generated inputs), repeats one unit of timed work in
``iteration``, turns an iteration's stage spans into end-to-end samples in
``observe``, and checks its outputs. README.md says why each was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics

from journeyrank import cli, dataio, domain, model, simulate
from journeyrank import evaluate as ev

import layers

DEFAULT_SEED = 0
BATCH_SIZE = 128


class Checks:
    """Output checks; each one counts as attempted, and failed if false."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _ndcg_ok(values) -> bool:
    return all(0.0 <= v <= 1.0 for v in values)


class _Workload:
    name = ""
    # sha256 of the dataset file this workload's generator writes for
    # DEFAULT_SEED; a faster generator must write the same bytes.
    reference_sha256 = ""

    def __init__(self, seed: int, workdir, tracer, checks: Checks):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.checks = checks

    def span(self, name):
        return self.tracer.span(name)

    def setup_samples(self, stages) -> dict[str, float]:
        return {}

    def extra(self):
        """Untimed work after the loop: (samples, fingerprint) or None."""
        return None

    def finish(self) -> None:
        pass

    def _check_round_trip_and_reference(self, path) -> None:
        loaded = dataio.load_dataset(path)
        again = self.workdir / f"{self.name}-again.jsonl"
        dataio.save_dataset(loaded, again)
        self.checks.expect(again.read_bytes() == path.read_bytes(),
                           "save -> load -> save is byte-identical")
        if self.seed != DEFAULT_SEED:
            dataset, _ = simulate.generate(self.config_at(DEFAULT_SEED))
            path = self.workdir / f"{self.name}-reference.jsonl"
            dataio.save_dataset(dataset, path)
        self.checks.expect(dataio.file_sha256(path) == self.reference_sha256,
                           f"dataset sha256 for seed {DEFAULT_SEED} matches "
                           "the recorded value")


class GenIo(_Workload):
    name = "gen-io"
    guests = 300
    reference_sha256 = (
        "71a5ec2b65088061328acf1c77b7ddb778bcc6fd9dd8a0f7cc66ac7e6bcb0f49")

    def __init__(self, *args):
        super().__init__(*args)
        self.config = self.config_at(self.seed)
        self.path = self.workdir / "gen-io.jsonl"
        self.n_impressions = None

    def config_at(self, seed):
        return simulate.benchmark_generator_config(n_guests=self.guests,
                                                   seed=seed)

    def setup(self) -> None:
        with self.span("stage.build_world"):
            simulate.build_world(self.config)

    def iteration(self):
        with self.span("stage.generate"):
            dataset, _ = simulate.generate(self.config)
        with self.span("stage.save"):
            dataio.save_dataset(dataset, self.path)
        with self.span("stage.load"):
            loaded = dataio.load_dataset(self.path)
        with self.span("stage.validate"):
            report = domain.validate_dataset(loaded)
        with self.span("stage.split"):
            train_ds, _ = dataio.split_by_guest(loaded)
        with self.span("stage.filter"):
            filtered = domain.filter_training_searches(train_ds)
        with self.span("stage.pack"):
            dataio.pack_dataset(filtered.dataset)
        return dataset, report

    def observe(self, out, stages):
        dataset, report = out
        if self.n_impressions is None:
            self.n_impressions = dataset.n_impressions
        self.checks.expect(report.accepted, "validate_dataset accepts the data")
        samples = {
            "guests_per_s": self.guests / stages["stage.generate"]["s"],
            "save_rows_per_s": self.n_impressions / stages["stage.save"]["s"],
            "load_rows_per_s": self.n_impressions / stages["stage.load"]["s"],
        }
        return samples, dataio.file_sha256(self.path)

    def finish(self) -> None:
        self._check_round_trip_and_reference(self.path)


class TrainBench(_Workload):
    name = "train-bench"
    guests = 800
    epochs = 6

    def setup(self) -> None:
        config = simulate.benchmark_generator_config(n_guests=self.guests,
                                                     seed=self.seed)
        with self.span("stage.generate"):
            self.dataset, _ = simulate.generate(config)
        with self.span("stage.split"):
            self.train_ds, self.eval_ds = ev.prepare_split(self.dataset)
        schema = self.dataset.schema
        self.full = model.default_model_config(schema.listing_dim,
                                               schema.context_dim)
        self.baseline = model.baseline_model_config(schema.listing_dim,
                                                    schema.context_dim)
        self.train_rows = self.train_ds.n_impressions * self.epochs
        self.eval_searches = self.eval_ds.n_searches

    def setup_samples(self, stages):
        return {"guests_per_s": self.guests / stages["stage.generate"]["s"]}

    def _train_and_evaluate(self, config):
        with self.tracer.patched(layers.stage_taps(self.tracer)):
            trained, history = ev.train(config, self.train_ds, self.epochs,
                                        batch_size=BATCH_SIZE)
            reports = ev.evaluate(trained, self.eval_ds)
        return trained, history, reports

    def _fingerprint(self, trained, history, reports):
        ndcg = {task: r.mean for task, r in reports.items()}
        self.checks.expect(layers.losses_finite(history),
                           "training losses are finite")
        self.checks.expect(_ndcg_ok(ndcg.values()), "every NDCG is in [0, 1]")
        digest = layers.param_digest(trained.params)
        return ndcg, json.dumps([digest, ndcg], sort_keys=True)

    def iteration(self):
        return self._train_and_evaluate(self.full)

    def observe(self, out, stages):
        ndcg, fingerprint = self._fingerprint(*out)
        samples = {
            "train_rows_per_s": self.train_rows / stages["model.train"]["s"],
            "eval_searches_per_s": (self.eval_searches
                                    / stages["evaluate.evaluate"]["s"]),
            "ndcg_unc": ndcg["unc"],
        }
        return samples, fingerprint

    def extra(self):
        ndcg, fingerprint = self._fingerprint(
            *self._train_and_evaluate(self.baseline))
        return {"ndcg_unc_baseline": ndcg["unc"]}, fingerprint

    def finish(self) -> None:
        self.checks.expect(domain.validate_dataset(self.dataset).accepted,
                           "validate_dataset accepts the data")


class CompareDefault(_Workload):
    name = "compare-default"
    guests = 1000
    epochs = 2
    train_seeds = "0,1"
    reference_sha256 = (
        "e92b06d9305f24707881379a4408172e1e61b3dd178befc37f2c2054f27051c5")

    def __init__(self, *args):
        super().__init__(*args)
        self.path = self.workdir / "compare-default.jsonl"
        self.config_a = self.workdir / "full.json"
        self.config_b = self.workdir / "baseline.json"
        self.out = self.workdir / "compare-out"

    def config_at(self, seed):
        return simulate.default_generator_config(n_guests=self.guests, seed=seed)

    def setup(self) -> None:
        with self.span("stage.generate"):
            dataset, _ = simulate.generate(self.config_at(self.seed))
        with self.span("stage.save"):
            dataio.save_dataset(dataset, self.path)
        with self.span("stage.configs"):
            schema = dataset.schema
            for path, config in (
                    (self.config_a, model.default_model_config(
                        schema.listing_dim, schema.context_dim)),
                    (self.config_b, model.baseline_model_config(
                        schema.listing_dim, schema.context_dim))):
                path.write_text(json.dumps(model.model_config_to_record(config)))
        self.n_impressions = dataset.n_impressions

    def setup_samples(self, stages):
        return {
            "guests_per_s": self.guests / stages["stage.generate"]["s"],
            "save_rows_per_s": self.n_impressions / stages["stage.save"]["s"],
        }

    def iteration(self):
        argv = ["compare", "--model-config-a", str(self.config_a),
                "--model-config-b", str(self.config_b),
                "--dataset", str(self.path), "--seeds", self.train_seeds,
                "--epochs", str(self.epochs), "--batch-size", str(BATCH_SIZE),
                "--jobs", "1", "--out", str(self.out)]
        with self.tracer.patched(layers.stage_taps(self.tracer)), \
                contextlib.redirect_stdout(io.StringIO()):
            with self.span("stage.compare"):
                return cli.main(argv)

    def observe(self, rc, stages):
        self.checks.expect(rc == cli.EXIT_OK, "journeyrank compare exits 0")
        report = json.loads((self.out / "compare.json").read_text())
        trains = stages["model.train"]["infos"]
        evals = stages["evaluate.evaluate"]["infos"]
        n_runs = 2 * len(report["seeds"])
        self.checks.expect(len(trains) == n_runs and len(evals) == n_runs,
                           "compare trains and evaluates each config per seed")
        self.checks.expect(all(t["finite"] for t in trains),
                           "training losses are finite")
        ndcg = report["per_seed_a"] + report["per_seed_b"]
        ndcg += [v for e in evals for v in e["ndcg"].values()]
        self.checks.expect(_ndcg_ok(ndcg), "every NDCG is in [0, 1]")
        samples = {
            "train_rows_per_s": (sum(t["rows"] for t in trains)
                                 / stages["model.train"]["s"]),
            "eval_searches_per_s": (sum(e["searches"] for e in evals)
                                    / stages["evaluate.evaluate"]["s"]),
            "ndcg_unc": statistics.fmean(report["per_seed_a"]),
            "ndcg_unc_baseline": statistics.fmean(report["per_seed_b"]),
        }
        fingerprint = json.dumps([[t["digest"] for t in trains],
                                  report["per_seed_a"], report["per_seed_b"]])
        return samples, fingerprint

    def finish(self) -> None:
        self._check_round_trip_and_reference(self.path)


WORKLOADS = {w.name: w for w in (GenIo, TrainBench, CompareDefault)}
