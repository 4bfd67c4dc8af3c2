"""Metrics, output checks and the environment record of one benchmark run."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
from collections import defaultdict
from pathlib import Path

import numpy as np

from probe import LAYERS
from workloads import BLAS_THREAD_VARS

ESTIMATOR_ALGORITHMS = ("ss_absbl_mmv", "ss_somp", "ss_absbl", "ss_bsbl",
                        "ss_og_absbl_mmv")

# The traced run's metrics as printed in the JSON line. Layer times are
# given as shares of summed cell time (``.pct``) so that every workload
# reports every metric; the per-call medians go to the human-readable table.
PER_LAYER_UNITS: dict[str, str] = {
    "scenario.generate_scenario.ms": "ms",
    "experiments.run_experiment.self_ms_per_trial": "ms",
    **{f"{mod}.{fn}.pct": "%" for mod, fn, _ in LAYERS
       if fn != "estimate_channel"},
    **{f"pipeline.estimate_channel.{alg}.pct": "%"
       for alg in ESTIMATOR_ALGORITHMS},
    "estimator.absbl_mmv.self_pct": "%",
    "estimator.absbl_mmv.calls_per_trial": "count",
    "estimator.absbl_mmv.single_vector_calls_per_trial": "count",
    "estimator.absbl_mmv.iterations": "count",
    "estimator.absbl_mmv.converged_frac": "frac",
    "estimator.absbl_mmv.active_blocks_frac": "frac",
    "bcrb.absbl_mmv_calls_per_trial": "count",
    "segmentation.subarrays_per_scene": "count",
    "dhbf.pruned_frac": "frac",
    "dhbf.p_eff_mean": "count",
    "experiments.pool.busy_frac": "frac",
    "tracing.overhead_pct": "%",
}

END_TO_END_UNITS: dict[str, str] = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# printed in the report but not gated: p90 exists only on some workloads and
# failed_frac is 0; the per-cell median jumps between the host's fast and
# slow phases and spreads wider over seeds than trials_per_s; the .raw
# times are the gated ones before the host-speed conversion (hostspeed.py)
REPORT_ONLY_UNITS = {"trial_ms.p50": "ms", "trial_ms.p90": "ms",
                     "failed_frac": "frac", "trials_per_s.raw": "1/s",
                     "setup_s.raw": "s"}


# -- environment ---------------------------------------------------------

def environment(root: Path, workload: str, seed: int, workers: int) -> dict:
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload, "seed": seed, "workers": workers,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model, "git_commit": commit,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- quality -------------------------------------------------------------

QUALITY_PREFIX = {"nmse": "nmse_db", "nmse_bound": "nmse_bound_db",
                  "auc": "auc"}


def quality_metrics(rows: list[dict]) -> dict[str, float]:
    """Mean over sweep values of each algorithm's results.csv mean; NMSE and
    the bound in dB (10 log10 of the mean at each sweep value)."""
    per = defaultdict(list)
    for row in rows:
        prefix = QUALITY_PREFIX.get(row["metric"])
        if prefix is None:
            continue
        value = row["mean"]
        if prefix != "auc":
            value = 10.0 * math.log10(value) if value > 0 else -math.inf
        per[f"{prefix}.{row['algorithm']}"].append(value)
    return {name: float(np.mean(vals)) for name, vals in sorted(per.items())}


def lower_is_better(quality_name: str) -> bool:
    return not quality_name.startswith("auc.")


# -- checks ----------------------------------------------------------------

def check_records(cells: list[dict]) -> list[str]:
    """Per-trial outputs: finite NMSE and bound, AUC within [0.5, 1]."""
    problems = []
    for cell in cells:
        for algo, metric, value, _ in cell["records"] or ():
            where = f"sweep {cell['sweep_idx']} trial {cell['trial']} {algo}"
            if metric in ("nmse", "nmse_bound") and not math.isfinite(value):
                problems.append(f"{where}: {metric} is {value}")
            if metric == "auc" and not 0.5 <= value <= 1.0:
                problems.append(f"{where}: auc {value} outside [0.5, 1]")
    return problems


def check_round(meta: dict, cells: list[dict], rows: list[dict],
                n_algorithms: int, n_sweep: int) -> list[str]:
    """Every requested cell was attempted, errors are counted against the
    attempted cells, and every (sweep value, algorithm) has a row."""
    problems = []
    if len(cells) != meta["trials_requested"]:
        problems.append(f"{len(cells)} cells ran, {meta['trials_requested']} "
                        "were requested")
    errored = sum(1 for c in cells if c["error"] is not None)
    if errored != meta["trials_errored"]:
        problems.append(f"meta.json counts {meta['trials_errored']} errored "
                        f"cells, the probe saw {errored}")
    pairs = {(r["sweep_value"], r["algorithm"]) for r in rows}
    if errored == 0 and len(pairs) != n_algorithms * n_sweep:
        problems.append(f"{len(pairs)} (sweep, algorithm) rows, expected "
                        f"{n_algorithms * n_sweep}")
    return problems


def csv_max_rel_diff(a: str, b: str) -> float:
    """Largest relative difference between the numbers of two results.csv
    texts; inf when their rows or any text field differ."""
    rows_a = [line.split(",") for line in a.splitlines()]
    rows_b = [line.split(",") for line in b.splitlines()]
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return math.inf
    worst = 0.0
    for x, y in zip((f for r in rows_a for f in r), (f for r in rows_b for f in r)):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return math.inf
        worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)))
    return worst


def check_reference(workload: str, quality: dict[str, float],
                    reference_path: Path) -> list[str]:
    """Each quality metric is no worse than its recorded reference median by
    more than the recorded tolerance."""
    with open(reference_path, encoding="utf-8") as fh:
        ref = json.load(fh)["workloads"].get(workload, {})
    problems = []
    for name, value in quality.items():
        entry = ref.get(name)
        if entry is None:
            problems.append(f"{name}: no recorded reference")
            continue
        limit = (entry["median"] + entry["tolerance"] if lower_is_better(name)
                 else entry["median"] - entry["tolerance"])
        worse = value > limit if lower_is_better(name) else value < limit
        if not math.isfinite(value) or worse:
            problems.append(f"{name} = {value:.4f} is worse than the reference "
                            f"limit {limit:.4f}")
    missing = sorted(set(ref) - set(quality))
    problems += [f"{name}: reference metric not produced" for name in missing]
    return problems


# -- metrics ---------------------------------------------------------------

def end_to_end(rounds: list[dict]) -> dict[str, tuple[float, int]]:
    """(value, sample count) of the timing metrics over the measured rounds."""
    cells = [c for r in rounds for c in r["cells"]]
    cell_ms = [c["ms"] for c in cells]
    wall = sum(r["wall_s"] for r in rounds)
    ref = sum(r["ref_s"] for r in rounds)
    requested = sum(r["meta"]["trials_requested"] for r in rounds)
    errored = sum(r["meta"]["trials_errored"] for r in rounds)
    out = {
        "trials_per_s": (len(cells) / ref, len(cells)),
        "trials_per_s.raw": (len(cells) / wall, len(cells)),
        "trial_ms.p50": (statistics.median(cell_ms), len(cell_ms)),
        "failed_frac": (errored / requested, requested),
    }
    # p90 needs at least ten samples beyond it
    if len(cell_ms) >= 100:
        out["trial_ms.p90"] = (float(np.percentile(cell_ms, 90)), len(cell_ms))
    return out


def harness_metrics(rounds: list[dict], workers: int) -> dict[str, float]:
    """Per-trial harness overhead and pool occupancy of untraced rounds."""
    wall_ms = sum(r["wall_s"] for r in rounds) * 1e3
    cells = [c for r in rounds for c in r["cells"]]
    busy_ms = sum(c["ms"] for c in cells)
    return {
        "experiments.run_experiment.self_ms_per_trial":
            (workers * wall_ms - busy_ms) / len(cells),
        "experiments.pool.busy_frac": busy_ms / (workers * wall_ms),
    }


def layer_table(cells: list[dict]) -> dict[str, dict]:
    """Per-layer call counts, per-call medians and shares of cell time."""
    n_cells = len(cells)
    cell_ms = sum(c["ms"] for c in cells)
    groups = defaultdict(list)
    for cell in cells:
        for span in cell["spans"]:
            name = span["name"]
            if name == "pipeline.estimate_channel":
                name = f"{name}.{span['algorithm']}"
            groups[name].append(span)
    names = [f"{m}.{f}" for m, f, _ in LAYERS if f != "estimate_channel"]
    names += [f"pipeline.estimate_channel.{a}" for a in ESTIMATOR_ALGORITHMS]
    table = {}
    for name in names:
        spans = groups.get(name, [])
        total = sum(s["ms"] for s in spans)
        table[name] = {
            "calls": len(spans),
            "calls_per_trial": len(spans) / n_cells,
            "ms": statistics.median(s["ms"] for s in spans) if spans else None,
            "self_ms": (statistics.median(s["self_ms"] for s in spans)
                        if spans else None),
            "pct": 100.0 * total / cell_ms,
            "self_pct": 100.0 * sum(s["self_ms"] for s in spans) / cell_ms,
        }
    return table


def per_layer(traced: list[dict], untraced: list[dict], workers: int
              ) -> tuple[dict[str, float], dict[str, dict]]:
    """The JSON per-layer metrics and the full layer table."""
    cells = [c for r in traced for c in r["cells"]]
    n_cells = len(cells)
    table = layer_table(cells)
    spans = [s for c in cells for s in c["spans"]]

    def mean_of(name, key, default=0.0):
        vals = [s[key] for s in spans if s["name"] == name and key in s]
        return float(np.mean(vals)) if vals else default

    absbl = [s for s in spans if s["name"] == "estimator.absbl_mmv"]
    decoupled = [s for s in spans if s["name"] == "dhbf.decouple"]
    p_eff_n = sum(s["p_eff_n"] for s in decoupled)
    traced_wall = sum(r["wall_s"] for r in traced)
    untraced_wall = sum(r["wall_s"] for r in untraced)

    metrics = {
        "scenario.generate_scenario.ms":
            table["scenario.generate_scenario"]["ms"] or 0.0,
        **harness_metrics(untraced, workers),
        **{f"{name}.pct": row["pct"] for name, row in table.items()},
        "estimator.absbl_mmv.self_pct":
            table["estimator.absbl_mmv"]["self_pct"],
        "estimator.absbl_mmv.calls_per_trial": len(absbl) / n_cells,
        "estimator.absbl_mmv.single_vector_calls_per_trial":
            sum(1 for s in absbl if s.get("cols") == 1) / n_cells,
        "estimator.absbl_mmv.iterations":
            mean_of("estimator.absbl_mmv", "iterations"),
        "estimator.absbl_mmv.converged_frac":
            mean_of("estimator.absbl_mmv", "converged"),
        "estimator.absbl_mmv.active_blocks_frac":
            mean_of("estimator.absbl_mmv", "active_frac"),
        "bcrb.absbl_mmv_calls_per_trial":
            sum(1 for s in absbl if s["parent"] == "pipeline.bcrb_nmse_bound")
            / n_cells,
        "segmentation.subarrays_per_scene":
            mean_of("segmentation.pass_segment", "subarrays"),
        "dhbf.pruned_frac": mean_of("dhbf.prune_subarrays", "pruned_frac"),
        "dhbf.p_eff_mean":
            sum(s["p_eff_sum"] for s in decoupled) / p_eff_n if p_eff_n else 0.0,
        "tracing.overhead_pct": 100.0 * (traced_wall / untraced_wall - 1.0),
    }
    return metrics, table
