"""End-to-end golden tests: every experiment at tiny scale, byte for byte.

Each spec below runs through `run_experiment` in a fresh interpreter pinned
to one BLAS thread (results.csv depends on the BLAS thread count, and the
thread count can only be set before numpy is imported). Its results.csv
must equal the file recorded under tests/golden/. Re-record the files with
`python tests/test_experiments.py` only when a change is meant to move the
numbers, and say so in the change: it prints, per golden, "unchanged" or
each moved row with its largest relative change in mean or stderr.
"""

from __future__ import annotations

import inspect
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snschan.config import SystemConfig
from snschan.dhbf import InfeasiblePilotError
from snschan.estimator import PosteriorState, dft_codebook, nmse
from snschan import _openblas, experiments, pipeline
from snschan.experiments import (
    _BLAS_THREAD_VARS as BLAS_THREAD_VARS,
    ExperimentSpec,
    run_experiment,
    run_single_trial,
)
from snschan.pipeline import bcrb_nmse_bound, estimate_channel, measure_scene
from snschan.scenario import ScenarioOptions, generate_scenario

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

_TINY = {"N": 64, "SI_min": 16, "P": 16}
_TINY_SEG = {"N": 64, "SI_min": 16, "K": 2}

# one tiny spec per experiment (N = 64, 2 trials), keyed by golden file name
SPECS: dict[str, dict] = {
    "nmse_vs_snr": {
        "experiment": "nmse_vs_snr", "sweep": [0.0, 20.0],
        "algorithms": ["ss_absbl_mmv", "ss_absbl", "ss_bsbl", "ss_somp",
                       "ss_og_absbl_mmv"],
        "overrides": _TINY,
    },
    "nmse_vs_pilots": {"experiment": "nmse_vs_pilots", "sweep": [16, 24],
                       "overrides": _TINY},
    "nmse_vs_paths": {"experiment": "nmse_vs_paths", "sweep": [2, 4],
                      "overrides": _TINY},
    "nmse_vs_distance": {"experiment": "nmse_vs_distance", "sweep": [3.0, 20.0],
                         "overrides": {"N": 64, "SI_min": 16}},
    # the bound alone: the same bcrb row as in nmse_vs_distance
    "nmse_vs_distance_bcrb_only": {
        "experiment": "nmse_vs_distance", "sweep": [3.0, 20.0],
        "algorithms": ["bcrb"], "overrides": {"N": 64, "SI_min": 16},
    },
    "convergence": {"experiment": "convergence", "sweep": [10.0],
                    "overrides": _TINY},
    "auc_vs_snr": {"experiment": "auc_vs_snr", "sweep": [0.0, 10.0],
                   "overrides": _TINY_SEG},
    "auc_vs_K": {"experiment": "auc_vs_K", "sweep": [2, 4],
                 "overrides": _TINY_SEG},
    "auc_vs_td": {"experiment": "auc_vs_td", "sweep": [0.5, 1.5],
                  "overrides": _TINY_SEG},
    "architecture_compare": {"experiment": "architecture_compare",
                             "sweep": [16], "overrides": _TINY},
    "segmentation_ablation": {"experiment": "segmentation_ablation",
                              "overrides": _TINY},
}
for _doc in SPECS.values():
    _doc.update(trials=2, seed=5)

# reads [specs, workers] as JSON on stdin, prints {name: results.csv}
_RUNNER = """
import json, sys
from snschan.experiments import ExperimentSpec, run_experiment
specs, workers = json.load(sys.stdin)
print(json.dumps({name: run_experiment(ExperimentSpec(**doc), workers).to_csv()
                  for name, doc in specs.items()}))
"""


def pinned_env() -> dict:
    """This environment with src/ on the path and one BLAS thread."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_specs(specs: dict[str, dict], workers: int) -> dict[str, str]:
    """results.csv of each spec, from one interpreter at one BLAS thread."""
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER], input=json.dumps([specs, workers]),
        capture_output=True, text=True, env=pinned_env(), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def serial_csvs() -> dict[str, str]:
    return run_specs(SPECS, workers=1)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_results_csv_matches_golden(serial_csvs, name):
    assert serial_csvs[name] == (GOLDEN / f"{name}.csv").read_text()


def test_bound_does_not_depend_on_the_other_rows(serial_csvs):
    def bcrb_rows(csv: str) -> list[str]:
        return [line for line in csv.splitlines() if ",bcrb," in line]

    alone = bcrb_rows(serial_csvs["nmse_vs_distance_bcrb_only"])
    assert len(alone) == 2
    assert alone == bcrb_rows(serial_csvs["nmse_vs_distance"])


def test_worker_count_does_not_change_results(serial_csvs):
    names = ("nmse_vs_distance", "auc_vs_snr", "segmentation_ablation")
    pooled = run_specs({name: SPECS[name] for name in names}, workers=2)
    for name in names:
        assert pooled[name] == serial_csvs[name], name


# reads a spec as JSON on stdin, prints [results.csv, the thread counts of
# numpy's and scipy's OpenBLAS before the run, in every cell, after it and
# after a pool worker's initializer, meta's blas_threads]
_THREADS_RUNNER = """
import json, sys
from snschan import _openblas, experiments
from snschan.experiments import ExperimentSpec, run_experiment

def counts():
    return [_openblas.threads(package)[0]()
            for package in ("numpy", "scipy")]

seen, real = [], experiments.run_single_trial
def spy(*args):
    seen.append(counts())
    return real(*args)
experiments.run_single_trial = spy
spec = ExperimentSpec(**json.load(sys.stdin))
before = counts()
table = run_experiment(spec, 1)
after = counts()
experiments._init_pool_worker(spec)
print(json.dumps([table.to_csv(), before, seen, after, counts(),
                  table.meta["blas_threads"]]))
"""


@pytest.mark.parametrize("blas_env", [None, "1"], ids=["unset", "one"])
def test_run_pins_blas_to_one_thread_whatever_the_env(blas_env):
    # a fresh interpreter, so the env is read when numpy loads its OpenBLAS;
    # the run pins both libraries and hands back the library default
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if blas_env:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, blas_env))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _THREADS_RUNNER],
                          input=json.dumps(SPECS["nmse_vs_snr"]), capture_output=True,
                          text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    csv, before, seen, after, worker, pinned = json.loads(proc.stdout)
    assert csv == (GOLDEN / "nmse_vs_snr.csv").read_text()
    assert len(seen) == 4 and all(cell == [1, 1] for cell in seen)
    assert pinned == {"numpy": 1, "scipy": 1}
    assert after == before and (blas_env is None or before == [1, 1])
    assert worker == [1, 1]


# runs a desk-scale PASS spec twice in one interpreter and prints the minor
# page faults of the second run
_FAULTS_RUNNER = """
import resource
from snschan.experiments import ExperimentSpec, run_experiment
spec = ExperimentSpec(experiment="auc_vs_snr", sweep=[5.0], trials=3, seed=1,
                      algorithms=["pass"])
run_experiment(spec)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(spec)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_repeated_cells_reuse_their_memory():
    # a fresh interpreter that has loaded no SciPy, so nothing but the run
    # has moved glibc's malloc thresholds: at the defaults, PASS's window
    # temporaries (N = 512) are mapped and unmapped or trimmed in every
    # cell, about 200 page faults a cell, where a pinned heap takes none
    proc = subprocess.run([sys.executable, "-c", _FAULTS_RUNNER], capture_output=True,
                          text=True, env=pinned_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100


# prints the scipy modules loaded after running the specs on stdin in this
# interpreter (argv[1] "cells"), or after the imports a pool makes before
# it forks ("preload")
_SCIPY_RUNNER = """
import importlib, json, sys
from snschan import experiments
if sys.argv[1] == "cells":
    for doc in json.load(sys.stdin):
        experiments.run_experiment(experiments.ExperimentSpec(**doc))
else:
    experiments._set_blas_threads({"scipy": 1})
    for module in experiments._CELL_SCIPY_MODULES:
        importlib.import_module(module)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_a_pool_preloads_every_scipy_module_its_cells_load():
    # forked workers inherit what the parent loaded before the fork; a
    # module a cell loads that the preload misses is imported again by
    # every worker of every pool
    cells = [dict(SPECS["nmse_vs_snr"], sweep=[10.0], trials=1,
                  algorithms=["ss_absbl_mmv", "ss_og_absbl_mmv"]),
             dict(SPECS["auc_vs_td"], sweep=[1.5], trials=1),
             dict(SPECS["nmse_vs_distance_bcrb_only"], sweep=[3.0], trials=1)]
    loaded = {}
    for mode in ("cells", "preload"):
        proc = subprocess.run([sys.executable, "-c", _SCIPY_RUNNER, mode],
                              input=json.dumps(cells), capture_output=True,
                              text=True, env=pinned_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        loaded[mode] = set(json.loads(proc.stdout))
    assert "scipy.special" in loaded["cells"]
    assert not [m for m in loaded["cells"] if m.startswith("scipy.linalg")]
    assert loaded["cells"] <= loaded["preload"], sorted(
        loaded["cells"] - loaded["preload"])


def test_one_posterior_per_subarray_and_only_from_joint_fits():
    cfg = SystemConfig(N=32, SI_min=8, K=1, P=16)
    rng = np.random.default_rng(0)
    chan = generate_scenario(cfg, rng, ScenarioOptions.full_visibility())
    meas = measure_scene(chan, cfg, rng, 10.0, architecture="fully_connected")
    h_hat, states = estimate_channel(meas, "ss_absbl_mmv")
    (state,) = states
    assert isinstance(state, PosteriorState)
    assert len(state.history) == state.iterations
    # the estimate is the last iterate of the history the trace reads
    np.testing.assert_array_equal(h_hat, dft_codebook(32) @ state.history[-1])
    for algo in ("ss_absbl", "ss_bsbl", "ss_somp"):
        _, none_states = estimate_channel(meas, algo)
        assert none_states == [None]


def test_the_bound_alone_fits_nothing(monkeypatch):
    calls = []
    for name in ("absbl_mmv", "absbl_per_column"):
        monkeypatch.setattr(pipeline, name,
                            lambda *a, _name=name, **k: calls.append(_name))
    spec = ExperimentSpec(**SPECS["nmse_vs_distance_bcrb_only"])
    table = run_experiment(spec, workers=1)
    assert table.meta["trials_errored"] == 0
    assert calls == []


def test_convergence_trace_covers_every_trial_to_the_budget():
    # fits that stop early hold their estimate, so each iteration's mean
    # is over every trial, not over the trials still running
    spec = ExperimentSpec(**SPECS["convergence"])
    table = run_experiment(spec, workers=1)
    assert table.meta["trials_errored"] == 0
    rows = table.rows
    assert [r["metric"] for r in rows] == [
        f"nmse_iter_{t:03d}" for t in range(1, spec.estimator_config.t_ite + 1)]
    assert all(r["trials"] == spec.trials for r in rows)
    assert rows[-1]["mean"] == rows[-2]["mean"]      # every fit has stopped


def _mean_by_sweep_and_algorithm(table) -> dict[tuple[float, str], float]:
    assert table.meta["trials_errored"] == 0
    return {(float(r["sweep_value"]), r["algorithm"]): r["mean"]
            for r in table.rows}


def test_bound_lies_below_every_estimators_mean_nmse():
    # the genie-aided bound holds for the mean over trials, not per trial
    algos = ["ss_absbl_mmv", "ss_absbl", "ss_bsbl", "ss_somp",
             "ss_og_absbl_mmv", "bcrb"]
    spec = ExperimentSpec(experiment="nmse_vs_distance", sweep=[3.0, 20.0],
                          trials=6, seed=7, algorithms=algos)
    means = _mean_by_sweep_and_algorithm(run_experiment(spec, workers=1))
    for distance in (3.0, 20.0):
        bound = means[distance, "bcrb"]
        for algo in algos[:-1]:
            assert bound <= means[distance, algo], (distance, algo)


def test_mef_gaa_beats_random_allocation():
    spec = ExperimentSpec(experiment="architecture_compare", sweep=[32],
                          trials=10, seed=7,
                          algorithms=["dhbf_mef_gaa", "dhbf_random"])
    means = _mean_by_sweep_and_algorithm(run_experiment(spec, workers=1))
    assert means[32.0, "dhbf_mef_gaa"] < means[32.0, "dhbf_random"]


def test_learners_take_the_spec_estimator_config_unchanged(monkeypatch):
    # the learner each algorithm reaches gets the spec's config as it is;
    # conventional BSBL is chosen by the call, not by a changed config
    spec = ExperimentSpec(**dict(
        SPECS["nmse_vs_snr"],
        params={"estimator_config": {"t_ite": 3, "block_size": 4}}))
    cfg = SystemConfig(N=32, SI_min=8, K=1, P=16)
    rng = np.random.default_rng(0)
    chan = generate_scenario(cfg, rng, ScenarioOptions.full_visibility())
    meas = measure_scene(chan, cfg, rng, 10.0, architecture="fully_connected")
    received = []
    for name in ("absbl_mmv", "absbl_per_column", "somp_baseline"):
        real = getattr(pipeline, name)

        def spy(*args, _real=real, **kwargs):
            bound = inspect.signature(_real).bind(*args, **kwargs)
            received.append((bound.arguments.get("cfg"),
                             bound.arguments.get("scalar_gamma", False)))
            return _real(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, spy)
    for algo in pipeline._ALGORITHMS:
        received.clear()
        estimate_channel(meas, algo, spec.estimator_config)
        expected = (None if algo == "ss_somp" else spec.estimator_config,
                    algo == "ss_bsbl")
        assert received == [expected], algo


class _RecordingParams(dict):
    """A params dict that records the keys read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("name", sorted(experiments.EXPERIMENTS))
def test_each_experiment_names_the_params_its_cell_reads(monkeypatch, name):
    # run one tiny cell of the first sweep point the way run_single_trial
    # does, recording the params keys it reads. estimator_config is read
    # through the estimator config, so it counts as read when the cell
    # estimates a channel; the key the point's scene options were built
    # from counts as read when the cell draws its scene with them
    exp = experiments.EXPERIMENTS[name]
    spec = ExperimentSpec(**SPECS[name])
    point = spec.points[0]
    params = _RecordingParams(point.params)
    estimated, drawn = [], []
    real_estimate = experiments.estimate_channel
    real_draw = experiments.generate_scenario

    def spy(*args, **kwargs):
        estimated.append(1)
        return real_estimate(*args, **kwargs)

    def draw(cfg, rng, options):
        drawn.append(options)
        return real_draw(cfg, rng, options)

    monkeypatch.setattr(experiments, "estimate_channel", spy)
    monkeypatch.setattr(experiments, "generate_scenario", draw)
    exp.kind.cell(experiments._Cell(spec, point._replace(params=params),
                                    spec.child_rng(0, 0)))
    assert drawn == [point.options]
    scene_key = {key for key in experiments._SCENE_OPTIONS if key in point.params}
    read = params.read | scene_key | ({"estimator_config"} if estimated else set())
    assert read == set(exp.kind.reads)


@pytest.mark.parametrize("name", ["K", "L", "N_RF", "P"])
def test_system_config_rejects_counts_below_one(name):
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        SystemConfig(**{name: 0})


@pytest.mark.parametrize("name", ["fc", "B", "c", "d"])
@pytest.mark.parametrize("value", [True, False, "28e9", None])
def test_system_config_float_fields_take_only_numbers(name, value):
    # a bool once ran as 0 or 1 (fc = True is 1 Hz), and a string or None
    # failed on a comparison that named no field; d = None is half a
    # wavelength
    if name == "d" and value is None:
        assert SystemConfig(d=None).d == SystemConfig().wavelength / 2.0
        return
    with pytest.raises(ValueError, match=f"{name} must be a number, got {value!r}"):
        SystemConfig(**{name: value})


def test_spec_builds_every_sweep_config_at_load():
    # a swept SystemConfig field goes into each point's config; any other
    # swept key goes into its params, as a float, and may set its scene
    spec = ExperimentSpec(**SPECS["nmse_vs_pilots"])
    assert [point.cfg.P for point in spec.points] == [16, 24]
    assert [point.params for point in spec.points] == [spec.params] * 2
    assert [point.options for point in spec.points] == [ScenarioOptions(t_d=1.0)] * 2
    with pytest.raises(experiments.ConfigError, match="sweep value 0"):
        ExperimentSpec(**dict(SPECS["nmse_vs_pilots"], sweep=[16, 0]))
    spec = ExperimentSpec(**dict(SPECS["nmse_vs_distance"], sweep=[3, 6.0]))
    assert [point.params["distance_m"] for point in spec.points] == [3.0, 6.0]
    assert type(spec.points[0].params["distance_m"]) is float
    assert [point.options.r_range for point in spec.points] == [(3.0, 3.0), (6.0, 6.0)]
    assert "distance_m" not in spec.params


@pytest.mark.parametrize("what,known,call", [
    ("architecture", pipeline.ARCHITECTURES,
     lambda chan, cfg, rng: measure_scene(chan, cfg, rng, 10.0,
                                          architecture="fully-connected")),
    ("segmentation variant", pipeline.SEGMENTATION_VARIANTS,
     lambda chan, cfg, rng: measure_scene(chan, cfg, rng, 10.0,
                                          seg_variant="oracel")),
    ("algorithm", pipeline.ESTIMATORS,
     lambda chan, cfg, rng: estimate_channel(
         measure_scene(chan, cfg, rng, 10.0), "ss_absbl_mm")),
], ids=["architecture", "segmentation-variant", "algorithm"])
def test_measure_scene_rejects_an_unknown_architecture(what, known, call):
    # a misspelt name must not fall through to a default, and the error
    # lists the names that would have been accepted
    cfg = SystemConfig(N=32, SI_min=8, K=1, P=16)
    rng = np.random.default_rng(0)
    chan = generate_scenario(cfg, rng, ScenarioOptions.full_visibility())
    with pytest.raises(ValueError, match=f"unknown {what} ") as err:
        call(chan, cfg, rng)
    assert str(list(known)) in str(err.value)


def _scenes(sizes: list[int]):
    """The arguments of _measured: any architecture and segmentation
    variant, N from sizes and small K, M, N_RF and P."""
    return st.tuples(
        st.sampled_from(pipeline.ARCHITECTURES),
        st.sampled_from(pipeline.SEGMENTATION_VARIANTS),
        st.sampled_from(sizes), st.sampled_from([8, 16]),
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
        st.sampled_from([8, 16, 32]), st.sampled_from([0.0, 0.5, 1.5]),
        st.floats(-5.0, 25.0), st.integers(0, 2**32 - 1))


def _measured(architecture, variant, n, si_min, k, m, n_rf, p, t_d, snr_db, seed):
    """One drawn scene and its measurement, or None when its pilots cannot
    reach every on-mode subarray."""
    cfg = SystemConfig(N=n, SI_min=si_min, K=k, M=m, N_RF=n_rf, P=p)
    rng = np.random.default_rng(seed)
    chan = generate_scenario(cfg, rng, ScenarioOptions(t_d=t_d))
    try:
        return chan, measure_scene(chan, cfg, rng, snr_db, architecture, variant)
    except InfeasiblePilotError:
        return None


@given(_scenes([32, 48, 64, 100]))
@settings(max_examples=60, deadline=None)
def test_every_observation_has_a_row_and_an_element(scene):
    # the estimators and the bound take every observation as it comes:
    # segmentations have no empty segment and every on-mode subarray gets
    # a pilot row, or build_combiners raises
    measured = _measured(*scene)
    if measured is None:
        return
    chan, meas = measured
    assert meas.observations
    for obs in meas.observations:
        assert obs.y.shape[0] >= 1 and obs.elements.size >= 1
        assert obs.phi.shape == (obs.y.shape[0], obs.elements.size)
    # D is unitary, so each observed subarray adds at most its energy and
    # the elements no subarray observes add exactly theirs
    observed = np.concatenate([obs.elements for obs in meas.observations])
    unobserved = np.delete(chan.H, observed, axis=0)
    floor = np.linalg.norm(unobserved) ** 2 / np.linalg.norm(chan.H) ** 2
    assert floor < bcrb_nmse_bound(meas) <= 1


@given(_scenes([32, 48, 64]))
@settings(max_examples=20, deadline=None)
def test_every_estimator_gives_a_finite_nmse(scene):
    # kept apart from the property above with fewer examples: running every
    # estimator costs ~0.25 s a scene
    measured = _measured(*scene)
    if measured is None:
        return
    chan, meas = measured
    for algo in pipeline.ESTIMATORS:
        h_hat, _ = estimate_channel(meas, algo)
        assert np.isfinite(nmse(h_hat, chan.H)), algo


def _scaled_trial_rows(scale: float) -> dict[str, float]:
    """Every estimator's NMSE and the BCRB of trial 0 of a 20 dB
    nmse_vs_snr point at desk scale, with the scene's H scaled by scale (so
    the noise variance scales by scale^2)."""
    spec = ExperimentSpec(experiment="nmse_vs_snr", sweep=[20.0], trials=1,
                          seed=11)
    (point,) = spec.points
    rng = spec.child_rng(0, 0)
    chan = generate_scenario(point.cfg, rng, point.options)
    chan.H *= scale
    meas = measure_scene(chan, point.cfg, rng, point.params["snr_db"])
    rows = {algo: nmse(estimate_channel(meas, algo, spec.estimator_config)[0],
                       chan.H) for algo in pipeline.ESTIMATORS}
    return rows | {"bcrb": bcrb_nmse_bound(meas)}


def test_a_trial_is_unchanged_by_the_channels_scale():
    # the learners, the bound and every stage before them are scale-free:
    # no threshold or floor that this trial reaches is absolute
    want = _scaled_trial_rows(1.0)
    for scale in (1e3, 1e-6, 1e-9):
        got = _scaled_trial_rows(scale)
        for algo, value in want.items():
            assert got[algo] == pytest.approx(value, rel=1e-9), (scale, algo)


def test_auc_detectors_are_timed_one_by_one():
    spec = ExperimentSpec(**SPECS["auc_vs_snr"])
    records = run_single_trial(spec, 0, 0)
    assert [r[:2] for r in records] == [("pass", "auc"), ("rfem", "auc"),
                                        ("afm", "auc")]
    assert len({runtime for *_, runtime in records}) == 3


def test_meta_counts_errors_by_type_and_records_environment(tmp_path, monkeypatch):
    # two failing cells of two exception types in 20, under the 10% limit
    real = experiments.run_single_trial
    failures = {(0, 0): ValueError("bad value"), (1, 3): KeyError("missing")}

    def flaky(spec, sweep_idx, trial):
        if (sweep_idx, trial) in failures:
            raise failures[(sweep_idx, trial)]
        return real(spec, sweep_idx, trial)

    monkeypatch.setattr(experiments, "run_single_trial", flaky)
    spec = ExperimentSpec(**dict(SPECS["auc_vs_snr"], trials=10))
    table = run_experiment(spec, workers=1)
    assert table.meta["trials_errored"] == 2
    assert table.meta["errors_by_type"] == {"KeyError": 1, "ValueError": 1}
    assert table.meta["errors"] == [
        "sweep=0.0 trial=0: ValueError: bad value",
        "sweep=10.0 trial=3: KeyError: 'missing'",
    ]
    table.write(tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    env = meta["environment"]
    assert env["numpy"] == np.__version__
    assert env["scipy"]
    assert set(env["blas_thread_vars"]) == set(BLAS_THREAD_VARS)
    assert env["cpu_count"] == os.cpu_count()
    assert json.loads((tmp_path / "results.json").read_text())["meta"] == meta


def test_blas_library_not_found_warns_and_is_recorded(monkeypatch):
    # an MKL or system BLAS build bundles no OpenBLAS to pin
    real = _openblas.library
    monkeypatch.setattr(_openblas, "library",
                        lambda package: None if package == "scipy" else real(package))
    with pytest.warns(RuntimeWarning, match="no bundled OpenBLAS found for scipy"):
        table = run_experiment(ExperimentSpec(**SPECS["auc_vs_snr"]), workers=1)
    assert table.meta["blas_threads"] == {"numpy": 1, "scipy": None}


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's max_workers
    and runs its initializer and cells in this process, so no process
    starts."""

    made: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.made.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("workers, sweep, trials, pools", [
    (8, [0.0, 10.0], 1, [2]),     # two cells: never eight processes
    (2, [0.0, 10.0], 2, [2]),
    (3, [0.0], 1, []),            # one cell runs in this process
    (1, [0.0, 10.0], 1, []),
])
def test_pool_never_outnumbers_the_cells(monkeypatch, workers, sweep, trials, pools):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "made", [])
    monkeypatch.setattr(experiments, "_pool_spec", None)
    spec = ExperimentSpec(**dict(SPECS["auc_vs_snr"], sweep=sweep, trials=trials))
    table = run_experiment(spec, workers=workers)
    assert RecordingPool.made == pools
    assert table.meta["workers"] == min(workers, len(sweep) * trials)
    assert table.to_csv() == run_experiment(spec, workers=1).to_csv()


@pytest.mark.parametrize("workers", [1, 2])
def test_cells_reuse_the_loaded_spec(monkeypatch, workers):
    # a pool worker gets the spec once, from the pool's initializer, and the
    # serial path hands it over as is: no cell rebuilds the spec, its sweep
    # points (their SystemConfigs and scene options) or its EstimatorConfig
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "made", [])
    monkeypatch.setattr(experiments, "_pool_spec", None)
    spec = ExperimentSpec(**dict(SPECS["auc_vs_snr"], trials=3))
    built = []

    def counting(real):
        def wrapper(*args, **kwargs):
            built.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    for name in ("_point", "ScenarioOptions", "EstimatorConfig"):
        monkeypatch.setattr(experiments, name, counting(getattr(experiments, name)))
    monkeypatch.setattr(ExperimentSpec, "from_dict",
                        counting(ExperimentSpec.from_dict))
    table = run_experiment(spec, workers=workers)
    assert table.meta["workers"] == workers
    assert built == []


@pytest.mark.parametrize("workers", [0, -2])
def test_fewer_than_one_worker_is_a_config_error(monkeypatch, workers):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "made", [])
    with pytest.raises(experiments.ConfigError, match="workers"):
        run_experiment(ExperimentSpec(**SPECS["auc_vs_snr"]), workers=workers)
    assert RecordingPool.made == []


def golden_moves(old: str, new: str) -> list[str]:
    """One line per row of results.csv that differs between old and new,
    keyed by (sweep_param, sweep_value, algorithm, metric): the largest
    relative change in mean or stderr, or that the row was added or
    removed."""
    def rows(csv: str) -> dict:
        lines = [line.split(",") for line in csv.splitlines()[1:]]
        return {tuple(f[:4]): f[4:] for f in lines}

    before, after = rows(old), rows(new)
    moves = []
    for key in sorted(before.keys() | after.keys()):
        a, b = before.get(key), after.get(key)
        if a == b:
            continue
        if a is None or b is None:
            moves.append(f"{','.join(key)}: {'added' if a is None else 'removed'}")
            continue
        # mean and stderr; trials and runtime_ms are compared as text
        rel = max(abs(float(y) - float(x)) / max(abs(float(x)), 1e-300)
                  for x, y in zip(a[:2], b[:2]))
        moves.append(f"{','.join(key)}: {','.join(a)} -> {','.join(b)} "
                     f"(largest relative change in mean/stderr {rel:.3g})")
    return moves


def test_golden_moves_names_each_moved_row():
    header = "sweep_param,sweep_value,algorithm,metric,mean,stderr,trials,runtime_ms\n"
    old = header + "snr_db,0,a,nmse,0.5,0.1,2,0\nsnr_db,0,b,nmse,0.25,0.5,2,0\n"
    assert golden_moves(old, old) == []
    new = header + "snr_db,0,a,nmse,0.5,0.1,2,0\nsnr_db,0,b,nmse,0.25,0.50001,2,0\n"
    (line,) = golden_moves(old, new)
    assert line.startswith("snr_db,0,b,nmse: 0.25,0.5,2,0 -> 0.25,0.50001,2,0")
    assert line.endswith("mean/stderr 2e-05)")
    assert golden_moves(old, header + "snr_db,0,a,nmse,0.5,0.1,2,0\n") == [
        "snr_db,0,b,nmse: removed"]
    assert golden_moves(header, old) == ["snr_db,0,a,nmse: added",
                                         "snr_db,0,b,nmse: added"]


if __name__ == "__main__":
    # re-record every golden and report, per golden, what moved
    GOLDEN.mkdir(exist_ok=True)
    for name, csv in run_specs(SPECS, workers=1).items():
        path = GOLDEN / f"{name}.csv"
        old = path.read_text() if path.exists() else ""
        if csv == old:
            print(f"{name}: unchanged")
            continue
        path.write_text(csv)
        moves = golden_moves(old, csv)
        print(f"{name}: rewrote {path}, {len(moves)} rows moved")
        for line in moves:
            print(f"  {line}")
