"""The benchmark's workloads: which experiment each one runs, in what rounds,
with how many workers and under which BLAS threading.

Every workload is a closed loop of rounds. A round is one
``run_experiment`` call on an ``ExperimentSpec`` whose seed is derived from
the benchmark seed and the round index, so the next round starts only when
the previous one has finished and the program sees nothing but the spec.

This module imports neither numpy nor snschan at import time, so the entry
script can read a workload's BLAS policy before numpy is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    spec: dict               # ExperimentSpec fields other than trials and seed
    trials_per_round: int
    workers: int
    pin_blas: bool           # True: one BLAS thread; False: library default
    why: str
    # (workers, pin_blas, rel_tol) set-ups whose round-0 results.csv must
    # match this workload's: byte for byte when rel_tol is 0, otherwise every
    # number within rel_tol
    crosschecks: tuple[tuple[int, bool, float], ...] = ()
    gated: bool = True       # listed in BENCHMARK.json


_DHBF_MMV = {"experiment": "nmse_vs_snr",
             "algorithms": ["ss_absbl_mmv", "ss_somp"]}

WORKLOADS: dict[str, Workload] = {
    "dhbf_mmv": Workload(
        _DHBF_MMV, 1, 1, True,
        "PASS + MEF-GAA DHBF + ABSBL-MMV on the desk scene; ABSBL-MMV over "
        "1-6 small subarrays is ~94% of a cell",
        # OpenBLAS's default two threads reorder sums, which moves the last
        # printed digit on some seeds; the pool at one thread must not
        crosschecks=((2, True, 0.0), (1, False, 1e-6))),
    "fc_smv_bcrb": Workload(
        {"experiment": "nmse_vs_distance",
         "algorithms": ["ss_absbl", "ss_bsbl", "ss_og_absbl_mmv", "bcrb"]},
        1, 1, True,
        "one 128-element fully connected subarray: per-subcarrier SBL runs, "
        "off-grid refinement and the BCRB's second ABSBL solve"),
    "seg_auc": Workload(
        {"experiment": "auc_vs_snr", "algorithms": ["pass", "rfem", "afm"]},
        20, 1, True,
        "segmentation only, no estimator: millisecond cells where scenario "
        "synthesis and per-trial harness overhead show",
        crosschecks=((2, True, 0.0),)),
    "parallel_mmv": Workload(
        _DHBF_MMV, 1, 2, False,
        "dhbf_mmv through the two-worker process pool at default BLAS "
        "threading, where oversubscription shows; too unsteady to gate on",
        crosschecks=((1, True, 0.0),), gated=False),
}


def round_seed(seed: int, round_idx: int) -> int:
    """ExperimentSpec.seed of one round; distinct per (seed, round)."""
    return seed * 10_000 + round_idx


def make_spec(name: str, seed: int, round_idx: int, trials: int | None = None):
    """The ExperimentSpec a workload runs in one round."""
    from snschan.experiments import ExperimentSpec

    wl = WORKLOADS[name]
    return ExperimentSpec(
        trials=wl.trials_per_round if trials is None else trials,
        seed=round_seed(seed, round_idx), **wl.spec)


def round_csv(name: str, seed: int, round_idx: int, trials: int | None = None,
              workers: int = 1) -> str:
    """results.csv of one round, run in this process."""
    from snschan.experiments import run_experiment

    spec = make_spec(name, seed, round_idx, trials)
    return run_experiment(spec, workers=workers).to_csv()
