"""Record the quality reference that run.py checks each run against.

    python3 bench/record_reference.py --seeds 1001-1012

For every workload, runs round 0 (the cells the quality metrics are
computed from) at each seed and writes, per quality metric, the median over
seeds, the observed range and a tolerance to bench/reference.json. A run
fails its reference check when a quality metric is worse than the median by
more than the tolerance: three times the largest deviation seen over the
recording seeds, and at least the floor below. The reference describes the
program at the commit it was recorded on; re-record it only in a change that
redefines the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

from workloads import BLAS_THREAD_VARS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
FLOOR = {"nmse_db": 3.0, "nmse_bound_db": 3.0, "auc": 0.05}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1001-1012",
                        help="inclusive seed range, e.g. 1001-1012")
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    from report import quality_metrics
    from workloads import make_spec
    from snschan.experiments import run_experiment

    seeds = parse_seeds(args.seeds)
    doc = {"seeds": seeds, "workloads": {}}
    for name in WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            table = run_experiment(make_spec(name, seed, 0))
            for metric, value in quality_metrics(table.rows).items():
                values.setdefault(metric, []).append(value)
            print(f"{name} seed {seed}: done", file=sys.stderr, flush=True)
        entries = {}
        for metric, vals in sorted(values.items()):
            med = statistics.median(vals)
            spread = max(abs(v - med) for v in vals)
            floor = FLOOR[metric.split(".")[0]]
            entries[metric] = {"median": med, "min": min(vals), "max": max(vals),
                               "tolerance": max(3.0 * spread, floor)}
        doc["workloads"][name] = entries
    out = BENCH_DIR / "reference.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
