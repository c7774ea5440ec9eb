#!/usr/bin/env python3
"""Summarize the run records in perfbench/_runs/ into one baseline file.

    python3 perfbench/baseline.py perfbench/BENCH_1.json

For every workload, each end-to-end metric's run values (the median each
untraced run reported) are summarized as the median and quartiles over the
runs, with the run count. Per-layer metrics are summarized over the traced
runs the same way. The environment of the first record is kept.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from run import RUNS, UNITS, summary


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(p.read_text()) for p in sorted(RUNS.glob("*.json"))]
    if not records:
        print(f"no run records in {RUNS}", file=sys.stderr)
        return 1
    end_to_end = defaultdict(lambda: defaultdict(list))
    per_layer = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(lambda: {"untraced": [], "traced": []})
    for rec in records:
        name = rec["workload"]
        seeds[name]["traced" if rec["trace"] else "untraced"].append(
            rec["environment"]["seed"])
        if rec["trace"]:
            for metric, value in rec["per_layer"].items():
                per_layer[name][metric].append(value)
        else:
            for metric, s in rec["summary"].items():
                end_to_end[name][metric].append(s["median"])
    out = {
        "environment": {k: v for k, v in records[0]["environment"].items()
                        if k != "seed"},
        "workloads": {
            name: {
                "seeds": {kind: sorted(v) for kind, v in seeds[name].items()},
                "end_to_end": {m: {"unit": UNITS[m], **summary(v)}
                               for m, v in end_to_end[name].items()},
                "per_layer": {m: summary(v) for m, v in per_layer[name].items()},
            }
            for name in sorted(seeds)
        },
    }
    Path(argv[0]).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
