"""snschan benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload dhbf_mmv --seed 1 --seconds 20 --trace 0

Runs the workload's rounds in a closed loop for about ``--seconds``,
checks the outputs, prints a human-readable report and, as the last line of
standard output, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds on the same seeds and reports the
per-layer metrics, with the traced-minus-untraced time as the tracing
overhead. The exit code is 0 when every check passed, 1 when one failed and
2 when the program could not be found or run.

The program is imported from ``src/`` of the checkout that holds this
directory; nothing under ``src/`` is modified.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import BLAS_THREAD_VARS, WORKLOADS, make_spec

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 4
# with one worker, the host's speed is measured before a cell whenever the
# last measurement is older than this
CELL_CAL_INTERVAL_S = 0.2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of one cell per sweep value, one "
                             "set-up; skips the reference comparison")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def set_blas_threads(pin: bool) -> None:
    """One BLAS thread, or the library default; before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        if pin:
            os.environ[var] = "1"
        else:
            os.environ.pop(var, None)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def measure_setup(spec_doc: dict, repeats: int) -> list[tuple[float, float]]:
    """(wall seconds, reference seconds) of fresh processes that import
    snschan and validate the workload's spec. This process has imported
    snschan already, so the bytecode cache is warm, as it is for a user's
    second run."""
    import hostspeed

    code = ("import json, sys\n"
            "from snschan.experiments import ExperimentSpec\n"
            "ExperimentSpec.from_dict(json.loads(sys.argv[1]))\n")
    cmd = [sys.executable, "-c", code, json.dumps(spec_doc)]
    times = []
    cal = hostspeed.calibrate()
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child_env(), check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        after = hostspeed.calibrate()
        times.append((wall, hostspeed.to_ref_s(wall, cal, after)))
        cal = after
    return times


def crosscheck_csv(name: str, seed: int, trials: int, workers: int,
                   pin_blas: bool) -> str:
    """results.csv of round 0 of ``name`` in a fresh process with the given
    worker count and BLAS threading."""
    env = child_env()
    for var in BLAS_THREAD_VARS:
        if pin_blas:
            env[var] = "1"
        else:
            env.pop(var, None)
    code = ("import sys\nfrom workloads import round_csv\n"
            "sys.stdout.write(round_csv(sys.argv[1], int(sys.argv[2]), 0, "
            "int(sys.argv[3]), int(sys.argv[4])))\n")
    return subprocess.run(
        [sys.executable, "-c", code, name, str(seed), str(trials), str(workers)],
        env=env, check=True, timeout=150, capture_output=True, text=True,
    ).stdout


def run_round(probe, name, seed, round_idx, trials, workers) -> dict:
    """One run_experiment call. ``wall_s`` leaves out the calibrations the
    probe made during it; ``ref_s`` is ``wall_s`` in reference seconds."""
    import hostspeed
    from snschan.experiments import ExperimentFailure, run_experiment

    spec = make_spec(name, seed, round_idx, trials)
    cal_before = probe.cal
    t0 = time.perf_counter()
    try:
        table = run_experiment(spec, workers=workers)
        failure = None
    except ExperimentFailure as err:
        table, failure = None, str(err)
    wall = time.perf_counter() - t0
    cells = probe.collect()
    cal_after = probe.calibrate()
    wall -= sum(c["cal_ms"] for c in cells) / 1e3
    errored = sum(1 for c in cells if c["error"] is not None)
    meta = table.meta if table else {
        "trials_requested": spec.trials * len(spec.sweep),
        "trials_errored": errored}
    return {"spec": spec, "table": table, "meta": meta, "failure": failure,
            "wall_s": wall, "cells": cells,
            "ref_s": hostspeed.round_ref_s(cells, wall, cal_before, cal_after)}


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "snschan" / "__init__.py").is_file():
        print(f"error: no snschan package under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    set_blas_threads(wl.pin_blas)
    sys.path.insert(0, str(SRC))

    import snschan

    if Path(snschan.__file__).resolve().parent != SRC / "snschan":
        print(f"error: imported snschan from {snschan.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import report
    from probe import Probe

    trials = 1 if args.smoke else wl.trials_per_round
    workers = wl.workers
    env = report.environment(ROOT, args.workload, args.seed, workers)
    print("environment: " + json.dumps(env, sort_keys=True))

    first_spec = make_spec(args.workload, args.seed, 0, trials)
    setup = measure_setup(first_spec.to_dict(), 1 if args.smoke else SETUP_REPEATS)

    problems: list[str] = []
    untraced, traced = [], []
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        probe = Probe(Path(tmp),
                      CELL_CAL_INTERVAL_S if workers == 1 else None)
        probe.install_cell_probe()
        try:
            t_begin = time.perf_counter()
            r = 0
            probe.calibrate()
            while True:
                untraced.append(run_round(probe, args.workload, args.seed, r,
                                          trials, workers))
                if args.trace:
                    probe.install_layers()
                    try:
                        traced.append(run_round(probe, args.workload,
                                                args.seed, r, trials, workers))
                    finally:
                        probe.remove_layers()
                r += 1
                if (args.smoke or untraced[-1]["failure"]
                        or time.perf_counter() - t_begin >= args.seconds):
                    break
        finally:
            probe.remove_all()

    rounds = untraced + traced
    for rnd in rounds:
        if rnd["failure"]:
            problems.append(f"round seed {rnd['spec'].seed}: {rnd['failure']}")
        problems += report.check_records(rnd["cells"])
        if rnd["table"] is not None:
            problems += report.check_round(
                rnd["meta"], rnd["cells"], rnd["table"].rows,
                len(rnd["spec"].algorithms), len(rnd["spec"].sweep))
    for a, b in zip(untraced, traced):
        if a["table"] and b["table"] and a["table"].to_csv() != b["table"].to_csv():
            problems.append(f"round seed {a['spec'].seed}: traced results.csv "
                            "differs from untraced")

    quality = {}
    if untraced[0]["table"] is not None:
        quality = report.quality_metrics(untraced[0]["table"].rows)
        if args.smoke:
            print("reference check: skipped (smoke run)")
        else:
            problems += report.check_reference(args.workload, quality, REFERENCE)
        for other_workers, other_pin, rel_tol in wl.crosschecks:
            other = crosscheck_csv(args.workload, args.seed, trials,
                                   other_workers, other_pin)
            diff = report.csv_max_rel_diff(untraced[0]["table"].to_csv(), other)
            setup_name = (f"workers={other_workers}, " + ("one BLAS thread"
                          if other_pin else "default BLAS threads"))
            print(f"round-0 results.csv with {setup_name}: "
                  + ("byte-identical" if diff == 0 else
                     f"max relative difference {diff:.3g}"))
            if diff > rel_tol:
                problems.append(f"round-0 results.csv with {setup_name} "
                                f"differs by {diff:.3g} (tolerance {rel_tol:g})")

    attempted = sum(r["meta"]["trials_requested"] for r in rounds)
    failed = sum(r["meta"]["trials_errored"] for r in rounds)

    if args.trace:
        metrics, table = report.per_layer(traced, untraced, workers)
        units = report.PER_LAYER_UNITS
        print(f"{'layer':44s} {'calls':>7s} {'per trial':>9s} "
              f"{'ms/call p50':>11s} {'self ms p50':>11s} {'% of cells':>10s}")
        for name, row in table.items():
            print(f"{name:44s} {row['calls']:7d} {row['calls_per_trial']:9.3g} "
                  f"{fmt(row['ms']):>11s} {fmt(row['self_ms']):>11s} "
                  f"{row['pct']:10.3g}")
        for name, unit in units.items():
            if unit != "%" or not name.endswith(".pct"):
                print(f"{name:52s} {metrics[name]:14.6g} {unit}")
    else:
        e2e = report.end_to_end(untraced)
        e2e["setup_s"] = (statistics.median(ref for _, ref in setup),
                          len(setup))
        e2e["setup_s.raw"] = (statistics.median(wall for wall, _ in setup),
                              len(setup))
        e2e["peak_rss_mb"] = (report.peak_rss_mb(), 1)
        metrics = {name: value for name, (value, _) in e2e.items()}
        units = report.END_TO_END_UNITS
        all_units = {**units, **report.REPORT_ONLY_UNITS}
        for name, (value, n) in sorted(e2e.items()):
            print(f"{name:32s} {value:14.6g} {all_units[name]:6s} n={n}")
        for name, value in quality.items():
            unit = "" if name.startswith("auc.") else "dB"
            print(f"{name:32s} {value:14.6g} {unit:6s} round 0")

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(f"rounds={len(untraced)} cells={attempted} failed={failed} "
          f"correct={correct}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
