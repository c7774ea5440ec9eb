#!/usr/bin/env python3
"""Run a journeyrank benchmark workload and print its metrics.

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload train-bench --seed 3 --seconds 15 --trace 1

Run from the repository root; the package is imported from ``src/``. Each
workload runs in a process of its own (``all`` starts one per workload),
with one BLAS thread and no other threads. The run sets up ``SETUP_REPS``
times, then repeats the workload's timed unit for ``--seconds`` and reports
medians. With ``--trace 1`` it alternates untraced and traced units and
reports per-layer metrics instead of end-to-end ones. The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``. A record of the run, spans included, is written to
``perfbench/_runs/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = ROOT / "perfbench" / "_runs"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, well inside the cap of NPROC. The yardstick behind
# ``wall_ref`` is single-threaded; with a second BLAS thread the training
# units slowed down more than the yardstick whenever the other CPU was
# contended, and ``wall_ref`` on train-bench spread by 0.21 over ten seeds.
BLAS_THREADS = 1
SETUP_REPS = 5
MIN_UNITS = 3            # untraced runs: fewest timed units, even past --seconds
MIN_TRACED_UNITS = 2     # traced runs: fewest units of each kind

# Every end-to-end metric the benchmark measures, with its unit; a run
# reports each as the median of its samples. The subset with regression
# bounds (present on every workload, never 0) is the ``end_to_end`` list in
# BENCHMARK.json; the rest are printed here and, in traced runs, reported
# with the per-layer metrics.
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_ref": "ref",
    "guests_per_s": "1/s",
    "save_rows_per_s": "1/s",
    "load_rows_per_s": "1/s",
    "train_rows_per_s": "1/s",
    "eval_searches_per_s": "1/s",
    "ndcg_unc": "1",
    "ndcg_unc_baseline": "1",
    "peak_rss_mb": "MB",
    "error_rate": "1",
}
REFERENCE_LOOPS = 150_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def summary(values) -> dict:
    values = sorted(values)
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import journeyrank.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop, a yardstick of the host's
    current speed. ``wall_ref`` divides a unit's wall time by the mean of
    the yardstick taken just before and just after the unit."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(REFERENCE_LOOPS):
        key = i % 997
        table[key] = table.get(key, 0) + 3 * i
    return time.perf_counter() - start


def stage_view(tracer, first: int) -> dict:
    """Seconds and infos per span name, over span ``first`` and all spans
    recorded after it (its descendants, when it is the latest root)."""
    view: dict = defaultdict(lambda: {"s": 0.0, "infos": []})
    for name, start, end, _, info in tracer.spans[first:]:
        view[name]["s"] += end - start
        if info is not None:
            view[name]["infos"].append(info)
    return view


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    import layers
    import workloads
    from spans import Tracer

    tracer = Tracer()
    checks = workloads.Checks()
    workload = workloads.WORKLOADS[name](seed, workdir, tracer, checks)
    samples: dict[str, list[float]] = defaultdict(list)

    for _ in range(SETUP_REPS):
        imports = import_seconds()
        gc.collect()
        with tracer.span("setup") as root:
            workload.setup()
        samples["setup_s"].append(imports + tracer.duration(root))
        for metric, value in workload.setup_samples(stage_view(tracer, root)).items():
            samples[metric].append(value)
    traced_setup = None
    if trace:
        with tracer.patched(layers.boundaries(tracer)):
            with tracer.span("setup") as root:
                workload.setup()
        traced_setup = range(root, len(tracer.spans))

    fingerprints = {False: set(), True: set()}
    walls = {False: [], True: []}
    traced_units = []
    start = time.perf_counter()
    while True:
        traced = trace and len(walls[False]) > len(walls[True])
        gc.collect()
        before = reference_seconds()
        with tracer.patched(layers.boundaries(tracer) if traced else []):
            with tracer.span("iteration") as root:
                out = workload.iteration()
        yardstick = (before + reference_seconds()) / 2
        walls[traced].append(tracer.duration(root))
        unit_samples, fingerprint = workload.observe(out, stage_view(tracer, root))
        del out
        fingerprints[traced].add(fingerprint)
        if traced:
            traced_units.append(range(root, len(tracer.spans)))
        else:
            samples["wall_s"].append(walls[False][-1])
            samples["wall_ref"].append(walls[False][-1] / yardstick)
            for metric, value in unit_samples.items():
                samples[metric].append(value)
        fewest = min(len(walls[False]), len(walls[True])) if trace else len(walls[False])
        if (time.perf_counter() - start >= seconds
                and fewest >= (MIN_TRACED_UNITS if trace else MIN_UNITS)):
            break
    samples["peak_rss_mb"].append(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    extra = workload.extra()
    if extra is not None:
        extra_samples, fingerprint = extra
        for metric, value in extra_samples.items():
            samples[metric].append(value)
        if trace:
            with tracer.patched(layers.boundaries(tracer)):
                _, traced_fingerprint = workload.extra()
            checks.expect(traced_fingerprint == fingerprint,
                          "tracing changes no result after the timed units")
    workload.finish()

    checks.expect(len(fingerprints[False]) == 1,
                  "every timed unit gives the same result")
    if trace:
        checks.expect(fingerprints[True] == fingerprints[False],
                      "tracing changes no result of the timed units")
    samples["error_rate"].append(len(checks.failures) / checks.attempted)

    record = {"samples": dict(samples),
              "summary": {m: summary(v) for m, v in samples.items()},
              "checks": {"attempted": checks.attempted,
                         "failures": checks.failures}}
    if trace:
        self_times = tracer.self_times()
        per_unit = [layers.layer_metrics(tracer, [*traced_setup, *unit], self_times)
                    for unit in traced_units]
        layer = {m: statistics.median(u[m] for u in per_unit) for m in per_unit[0]}
        layer["trace.overhead_s"] = (statistics.median(walls[True])
                                     - statistics.median(walls[False]))
        record["per_layer"] = layer
        record["self_times"] = layers.self_time_table(
            tracer, [*traced_setup, *traced_units[0]], self_times)
        record["walls"] = {"untraced": walls[False], "traced": walls[True]}
    record["spans"] = tracer.to_record()
    return record


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "git_sha": git_sha(),
        "nproc": NPROC,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


def print_table(title: str, summ: dict) -> None:
    print(title)
    for name, unit in UNITS.items():
        if name in summ:
            s = summ[name]
            print(f"  {name:22s} {s['median']:>12.6g} {unit:4s} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")


def run_one(args, spec) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import journeyrank  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import journeyrank from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2

    RUNS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir)
    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed), **record}
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    summ = record["summary"]
    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"git {env['git_sha'][:12]}  nproc {env['nproc']}  "
          f"blas threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}")
    print_table("end-to-end, median over untraced units", summ)
    for failure in record["checks"]["failures"]:
        print(f"  FAILED check: {failure}")
    if args.trace:
        print("per-layer (traced units, median)")
        for m, v in record["per_layer"].items():
            print(f"  {m:30s} {v:>14.6g}")
        print("span self time (traced setup + first traced unit)")
        for m, row in record["self_times"].items():
            print(f"  {m:30s} calls {row['calls']:>7d}  total {row['total_s']:10.4f} s"
                  f"  self {row['self_s']:10.4f} s")
    print(f"record: {out.relative_to(ROOT)}")

    if args.trace:
        values = {**{m: summ[m]["median"] if m in summ else 0.0 for m in UNITS},
                  **record["per_layer"]}
        wanted = spec["per_layer"]
    else:
        values = {m: s["median"] for m, s in summ.items()}
        wanted = spec["end_to_end"]
    failed = len(record["checks"]["failures"])
    result = {
        "correct": failed == 0,
        "attempted": record["checks"]["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args, spec) -> int:
    """Each workload in a process of its own, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: workload {name} printed no result "
                  f"(exit {done.returncode})", file=sys.stderr)
            return done.returncode or 1
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
