"""Config-driven Monte Carlo experiment harness.

Every experiment derives one RNG stream per (sweep value, trial) from the
spec seed via SeedSequence spawn keys, so results are bit-reproducible
regardless of worker count or completion order. results.csv is the canonical
deterministic artifact: its runtime_ms column is zero unless timing is
explicitly enabled, since wall-clock values would break byte-level
reproducibility; measured runtimes always go to results.json and meta.json.

Each registered experiment names its kind (`_Kind`): the cell it runs, the
rows (algorithms, detectors or variants) a spec may request of it, and the
params keys the cell reads. The names of estimators, architectures,
segmentation variants and detectors come from their tables in pipeline.py.

A spec builds each sweep point's inputs once, at load (`_Point`): its
SystemConfig, its params and the options its scenes are drawn from. A cell
reads its point and draws from its own stream.
"""

from __future__ import annotations

import copy
import hashlib
import importlib
import json
import os
import time
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, _openblas
from .channel import ChannelRealization
from .config import SystemConfig
from .estimator import EstimatorConfig, nmse
from .pipeline import (
    ARCHITECTURES,
    DETECTORS,
    ESTIMATORS,
    SEGMENTATION_VARIANTS,
    bcrb_nmse_bound,
    estimate_channel,
    measure_power,
    measure_scene,
)
from .scenario import ScenarioOptions, generate_scenario
from .segmentation import auc_score, check_window

Record = tuple[str, str, float, float]   # (algorithm, metric, value, runtime_ms)
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# every run computes with one BLAS thread per process: the matrices are
# small, the process pool is the only parallelism, and results.csv then
# does not depend on the host's BLAS default
_BLAS_THREADS = 1
# glibc malloc maps a block of M_MMAP_THRESHOLD bytes or more afresh, and
# hands free memory beyond M_TRIM_THRESHOLD at the heap's top back to the OS.
# Both start at 128 KiB and rise as mapped blocks are freed, so left alone a
# cell's page faults depend on what the process freed before it (an import
# of SciPy, for one, raises them). Every run fixes them at the ceiling of
# that rise on 64-bit glibc, keyed by mallopt's parameter numbers; forked
# pool workers inherit them
_MALLOC_THRESHOLDS = {-3: 32 << 20,     # M_MMAP_THRESHOLD
                      -1: 64 << 20}     # M_TRIM_THRESHOLD
# the SciPy modules that cells import on first use: the Fresnel integrals'
# and PASS's special functions (the E-step and the bound call SciPy's
# OpenBLAS directly, `_openblas`). A run with a pool imports them before it
# forks, so that the workers inherit them; a worker that imports them itself
# pays about as much as a small round takes
_CELL_SCIPY_MODULES = ("scipy.special",)


class ConfigError(ValueError):
    """The experiment spec is invalid."""


class ExperimentFailure(RuntimeError):
    """More than 10% of the trials raised errors."""


class _Point(NamedTuple):
    """The inputs of one sweep point, built and checked at load: its config,
    its params and the options its scenes are drawn from. params holds the
    spec's params and, when it is not a SystemConfig field, the swept value
    (a float) under its own name."""

    cfg: SystemConfig
    params: dict
    options: ScenarioOptions


class _Cell(NamedTuple):
    """The inputs of one (sweep value, trial) cell: its spec, its sweep
    point and its stream."""

    spec: ExperimentSpec
    point: _Point
    rng: np.random.Generator


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


# params key -> the scenario options a point's scenes are drawn from, given
# the key's value; every experiment's params hold one of the keys
_SCENE_OPTIONS: dict[str, Callable[[float], ScenarioOptions]] = {
    "t_d": lambda t_d: ScenarioOptions(t_d=t_d),
    "distance_m": lambda r: ScenarioOptions.full_visibility(r_range=(r, r)),
}


def _scene(c: _Cell) -> ChannelRealization:
    """The cell's scene, drawn with its point's options."""
    return generate_scenario(c.point.cfg, c.rng, c.point.options)


def _nmse_rows(c: _Cell, chan: ChannelRealization, architecture: str) -> list[Record]:
    """NMSE per estimator and the BCRB row, all on one measurement."""
    meas = measure_scene(chan, c.point.cfg, c.rng, c.point.params["snr_db"],
                         architecture=c.point.params.get("architecture", architecture))
    records = []
    for algo in c.spec.algorithms:
        t0 = time.perf_counter()
        if algo == "bcrb":
            records.append((algo, "nmse_bound", bcrb_nmse_bound(meas),
                            _ms_since(t0)))
        else:
            h_hat, _ = estimate_channel(meas, algo, c.spec.estimator_config)
            records.append((algo, "nmse", nmse(h_hat, chan.H), _ms_since(t0)))
    return records


def _nmse_cell(c: _Cell) -> list[Record]:
    return _nmse_rows(c, _scene(c), "dhbf_mef_gaa")


def _distance_cell(c: _Cell) -> list[Record]:
    """A fully visible scene at the swept distance, fully connected by
    default."""
    return _nmse_rows(c, _scene(c), "fully_connected")


def _convergence_cell(c: _Cell) -> list[Record]:
    """NMSE of the full-array iterate after each EM iteration of the budget
    t_ite; subarrays that stop early hold their final estimate in later
    iterations, so every trial reports every iteration."""
    chan = _scene(c)
    meas = measure_scene(chan, c.point.cfg, c.rng, c.point.params["snr_db"])
    est_cfg = c.spec.estimator_config
    records = []
    for algo in c.spec.algorithms:
        t0 = time.perf_counter()
        _, states = estimate_channel(meas, algo, est_cfg)
        fits = [(obs.elements, d, state.history)
                for obs, (d, _), state in zip(meas.observations,
                                              meas.dictionaries, states)]
        n_iter = max(len(hist) for _, _, hist in fits)
        traces = []
        for t in range(est_cfg.t_ite):
            h_hat = np.zeros_like(chan.H)
            for elements, d, hist in fits:
                h_hat[elements] = d @ hist[min(t, len(hist) - 1)]
            traces.append(h_hat)
        dt = _ms_since(t0) / n_iter
        records += [(algo, f"nmse_iter_{t:03d}", nmse(h_hat, chan.H), dt)
                    for t, h_hat in enumerate(traces, start=1)]
    return records


def _variant_rows(c: _Cell, chan: ChannelRealization, option: str,
                  **fixed) -> list[Record]:
    """NMSE of one estimator with each requested value of a measure_scene
    option, each measured with its own RNG stream."""
    estimator = c.point.params["estimator"]
    records = []
    for variant in c.spec.algorithms:
        sub_rng = np.random.default_rng(c.rng.integers(2**63))
        t0 = time.perf_counter()
        meas = measure_scene(chan, c.point.cfg, sub_rng, c.point.params["snr_db"],
                             **fixed, **{option: variant})
        h_hat, _ = estimate_channel(meas, estimator, c.spec.estimator_config)
        records.append((variant, "nmse", nmse(h_hat, chan.H), _ms_since(t0)))
    return records


def _architecture_cell(c: _Cell) -> list[Record]:
    return _variant_rows(c, _scene(c), "architecture")


def _ablation_cell(c: _Cell) -> list[Record]:
    """Segmentation variants of one power profile."""
    chan = _scene(c)
    return _variant_rows(c, chan, "seg_variant",
                         profile=measure_power(chan, c.rng, c.point.params["snr_db"]))


def _auc_cell(c: _Cell) -> list[Record]:
    """AUC of each detector against the truth, timed on its own."""
    chan = _scene(c)
    profile = measure_power(chan, c.rng, c.point.params["snr_db"])
    w = c.point.cfg.SI_min
    records = []
    for det in c.spec.algorithms:
        t0 = time.perf_counter()
        auc = auc_score(DETECTORS[det](profile, w).auc_score_sequence(),
                        chan.truth_breakpoints, max(1, w // 8))
        records.append((det, "auc", auc, _ms_since(t0)))
    return records


class _Kind(NamedTuple):
    """What an experiment's cell computes: the cell, the rows a spec may
    request of it, and the params keys it reads (t_d and distance_m through
    its point's scene options). A spec may set any of those keys but the
    swept one, which the sweep value replaces."""

    cell: Callable[[_Cell], list[Record]]
    allowed: tuple[str, ...]
    reads: tuple[str, ...]


_VARIANT_READS = ("snr_db", "t_d", "estimator", "estimator_config")
_NMSE = _Kind(_nmse_cell, ESTIMATORS, ("snr_db", "t_d", "architecture",
                                       "estimator_config"))
_DISTANCE = _Kind(_distance_cell, ESTIMATORS + ("bcrb",),
                  ("distance_m", "snr_db", "architecture", "estimator_config"))
_CONVERGENCE = _Kind(_convergence_cell, ("ss_absbl_mmv",),
                     ("snr_db", "t_d", "estimator_config"))
_AUC = _Kind(_auc_cell, tuple(DETECTORS), ("snr_db", "t_d"))
_ARCHITECTURE = _Kind(_architecture_cell, ARCHITECTURES, _VARIANT_READS)
_ABLATION = _Kind(_ablation_cell, SEGMENTATION_VARIANTS, _VARIANT_READS)


@dataclass
class ExperimentDef:
    """One registered experiment: its sweep, its kind, the overrides and
    params its specs start from, and the rows they request by default
    (every row the kind allows, when empty)."""

    sweep_param: str
    default_sweep: tuple
    kind: _Kind
    overrides: dict
    params: dict
    algorithms: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.algorithms = self.algorithms or self.kind.allowed


_DESK = {"N": 256, "M": 5, "K": 3, "L": 3, "SI_min": 32, "N_RF": 4, "P": 32}
_SEG_SCENE = {"N": 512, "M": 5, "K": 6, "L": 3, "SI_min": 64, "N_RF": 4, "P": 32}
_DESK_ESTIMATORS = ("ss_absbl_mmv", "ss_absbl", "ss_bsbl", "ss_somp")

EXPERIMENTS: dict[str, ExperimentDef] = {
    "nmse_vs_snr": ExperimentDef(
        "snr_db", (0.0, 5.0, 10.0, 15.0, 20.0), _NMSE, dict(_DESK),
        {"t_d": 1.0}, _DESK_ESTIMATORS),
    "nmse_vs_pilots": ExperimentDef(
        "P", (16, 32, 64), _NMSE, dict(_DESK), {"snr_db": 10.0, "t_d": 1.0},
        _DESK_ESTIMATORS),
    "nmse_vs_paths": ExperimentDef(
        "L", (2, 4, 6, 8, 10), _NMSE, dict(_DESK, P=64),
        {"snr_db": 15.0, "t_d": 1.0}, ("ss_absbl_mmv", "ss_absbl", "ss_somp")),
    "nmse_vs_distance": ExperimentDef(
        "distance_m", (1.5, 3.0, 6.0, 10.0, 20.0, 31.5), _DISTANCE,
        dict(_DESK, N=128, K=1, P=20), {"snr_db": 10.0},
        ("ss_absbl_mmv", "ss_absbl", "ss_somp", "bcrb")),
    "convergence": ExperimentDef(
        "snr_db", (10.0, 15.0), _CONVERGENCE, dict(_DESK, P=40), {"t_d": 1.0}),
    "auc_vs_snr": ExperimentDef(
        "snr_db", (-5.0, 0.0, 5.0, 10.0, 15.0), _AUC, dict(_SEG_SCENE),
        {"t_d": 1.5}),
    "auc_vs_K": ExperimentDef(
        "K", (2, 4, 6, 8), _AUC, dict(_SEG_SCENE), {"snr_db": 5.0, "t_d": 1.5}),
    "auc_vs_td": ExperimentDef(
        "t_d", (0.5, 1.0, 1.5, 2.0), _AUC, dict(_SEG_SCENE), {"snr_db": 5.0}),
    "architecture_compare": ExperimentDef(
        "P", (16, 32), _ARCHITECTURE, dict(_DESK),
        {"snr_db": 10.0, "estimator": "ss_absbl_mmv", "t_d": 1.0}),
    "segmentation_ablation": ExperimentDef(
        "snr_db", (10.0,), _ABLATION, dict(_DESK),
        {"estimator": "ss_absbl_mmv", "t_d": 1.0}),
}


def _finite_number(value) -> bool:
    """An int or float (not a bool) other than NaN or an infinity; abs(v) <
    inf fails for NaN."""
    return type(value) in (int, float) and abs(value) < np.inf


def _check_params(params: dict, exp: ExperimentDef) -> EstimatorConfig:
    """Reject a key the experiment's cell does not read (or the swept one,
    which the sweep value replaces), an architecture or estimator no cell
    knows, an snr_db that is no finite number, and an estimator_config with
    an unknown key or an invalid value; returns the estimator config."""
    accepted = [key for key in exp.kind.reads if key != exp.sweep_param]
    unread = sorted(set(params) - set(accepted))
    if unread:
        raise ConfigError(f"params {unread} are not read by this experiment; "
                          f"accepted: {accepted}")
    for key, known in (("architecture", ARCHITECTURES), ("estimator", ESTIMATORS)):
        if key in params and params[key] not in known:
            raise ConfigError(f"unknown {key} {params[key]!r}; known: {list(known)}")
    # a string or NaN would fail every trial's noise draw
    if "snr_db" in params and not _finite_number(params["snr_db"]):
        raise ConfigError(f"params snr_db must be a finite number, "
                          f"got {params['snr_db']!r}")
    try:
        return EstimatorConfig(**params.get("estimator_config", {}))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid estimator_config: {err}") from err


def _point(spec: ExperimentSpec, exp: ExperimentDef, value) -> _Point:
    """The inputs of the sweep point at value. The swept key goes into the
    config when it is a SystemConfig field, and into the params as a float
    otherwise. PASS segments with W = SI_min wherever it runs, so SI_min
    must satisfy PASS's window rule."""
    values, params = dict(spec.overrides), dict(spec.params)
    # a sweep that is no SystemConfig field has no part in a config fault
    source = "overrides"
    if exp.sweep_param in SystemConfig.__dataclass_fields__:
        values[exp.sweep_param] = value
        source = f"sweep value {value!r}"
    elif _finite_number(value):
        params[exp.sweep_param] = float(value)
    else:
        raise ConfigError(f"sweep values of {exp.sweep_param} must be "
                          f"finite numbers, got {[value]}")
    # a value the scenario options reject fails the spec, not every trial
    key = next(key for key in _SCENE_OPTIONS if key in params)
    try:
        options = _SCENE_OPTIONS[key](params[key])
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid {key}: {err}") from err
    try:
        cfg = SystemConfig(**values)
        check_window(cfg.SI_min)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{source}: {err}") from err
    return _Point(cfg, params, options)


def _check_distinct(name: str, values: list) -> None:
    """Reject a repeated row or sweep value, which would merge two rows'
    trials or write two rows of one key; 5 and 5.0 are one value."""
    repeated = [value for value, n in Counter(values).items() if n > 1]
    if repeated:
        raise ConfigError(f"{name} lists {repeated} more than once")


@dataclass
class ExperimentSpec:
    """One experiment request: what to sweep, how many trials, which seed."""

    experiment: str
    sweep: list = field(default_factory=list)
    trials: int = 100
    algorithms: list[str] = field(default_factory=list)
    overrides: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    seed: int = 0
    # the inputs of each sweep point and the estimator config, built and
    # checked at load time
    points: list[_Point] = field(init=False, repr=False, compare=False)
    estimator_config: EstimatorConfig = field(init=False, repr=False,
                                              compare=False)

    def __post_init__(self) -> None:
        # the containers of the spec document: a value of another JSON type
        # would raise a TypeError below, or be read character by character
        for name, kind in (("experiment", str), ("sweep", list),
                           ("algorithms", list), ("overrides", dict),
                           ("params", dict)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, "
                                  f"got {getattr(self, name)!r}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"known: {sorted(EXPERIMENTS)}")
        exp = EXPERIMENTS[self.experiment]
        self.sweep = self.sweep or list(exp.default_sweep)
        self.algorithms = self.algorithms or list(exp.algorithms)
        if type(self.trials) is not int or self.trials < 1:
            raise ConfigError(f"trials must be an integer >= 1, got {self.trials!r}")
        # SeedSequence takes only non-negative integers; a bool would run as 0 or 1
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        unknown = [a for a in self.algorithms if a not in exp.kind.allowed]
        if unknown:
            raise ConfigError(f"algorithms {unknown} not valid for "
                              f"{self.experiment}; allowed: {list(exp.kind.allowed)}")
        _check_distinct("algorithms", self.algorithms)
        self.params = {**exp.params, **self.params}
        self.estimator_config = _check_params(self.params, exp)
        unknown = sorted(set(self.overrides) - set(SystemConfig.__dataclass_fields__))
        if unknown:
            raise ConfigError(f"overrides {unknown} are not SystemConfig fields; "
                              f"known: {sorted(SystemConfig.__dataclass_fields__)}")
        self.overrides = {**exp.overrides, **self.overrides}
        self.points = [_point(self, exp, v) for v in self.sweep]
        _check_distinct("sweep", self.sweep)

    def to_dict(self) -> dict:
        """The spec document: every init field, copied."""
        return {name: copy.copy(getattr(self, name)) for name in _SPEC_FIELDS}

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        extra = set(doc) - set(_SPEC_FIELDS)
        if extra:
            raise ConfigError(f"unknown spec fields: {sorted(extra)}")
        if "experiment" not in doc:
            raise ConfigError("spec must name an experiment")
        return cls(**doc)

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def seed_sequence(self, sweep_idx: int, trial: int) -> np.random.SeedSequence:
        """The seed of one cell's stream: the spec seed, spawn key
        (sweep_idx, trial)."""
        return np.random.SeedSequence(entropy=self.seed,
                                      spawn_key=(sweep_idx, trial))

    def child_rng(self, sweep_idx: int, trial: int) -> np.random.Generator:
        return np.random.default_rng(self.seed_sequence(sweep_idx, trial))


# the spec document's fields
_SPEC_FIELDS = tuple(f.name for f in fields(ExperimentSpec) if f.init)


@dataclass
class ResultTable:
    """Aggregated rows plus provenance metadata."""

    rows: list[dict]
    meta: dict

    CSV_HEADER = ("sweep_param", "sweep_value", "algorithm", "metric",
                  "mean", "stderr", "trials", "runtime_ms")

    def to_csv(self, include_runtime: bool = False) -> str:
        lines = [",".join(self.CSV_HEADER)]
        for r in self.rows:
            rt = r["runtime_ms"] if include_runtime else 0.0
            lines.append(",".join([
                str(r["sweep_param"]), _fmt(r["sweep_value"]), r["algorithm"],
                r["metric"], _fmt(r["mean"]), _fmt(r["stderr"]),
                str(r["trials"]), _fmt(rt),
            ]))
        return "\n".join(lines) + "\n"

    def write(self, out_dir: str | Path, include_runtime: bool = False) -> None:
        """results.csv, results.json and meta.json; the JSON files also
        record the environment of the writing process."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        meta = dict(self.meta, environment=_environment())
        (out / "results.csv").write_text(self.to_csv(include_runtime))
        (out / "results.json").write_text(
            json.dumps({"rows": self.rows, "meta": meta}, indent=1,
                       sort_keys=True))
        (out / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))


def _environment() -> dict:
    """Library versions and the threading the results were computed with."""
    import scipy    # here, so that importing the harness does not load it
    return {
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_thread_vars": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


@cache
def _fix_malloc_thresholds() -> None:
    """Fix glibc malloc's mmap and trim thresholds for the life of the
    process; a C library without mallopt keeps its own policy."""
    import ctypes
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param, value in _MALLOC_THRESHOLDS.items():
        mallopt(param, value)


def _set_blas_threads(counts: dict[str, int]) -> dict[str, int | None]:
    """Set the thread count of each package's bundled OpenBLAS; returns the
    counts they had, None (with a warning) for a package whose library was
    not found, which stays at its own setting."""
    before = {}
    for package, count in counts.items():
        funcs = _openblas.threads(package)
        if funcs is None:
            warnings.warn(f"no bundled OpenBLAS found for {package}; its BLAS "
                          "thread count is not pinned", RuntimeWarning, stacklevel=2)
            before[package] = None
        else:
            before[package] = funcs[0]()
            funcs[1](count)
    return before


def _fmt(v) -> str:
    """A CSV number; an integer below 10^12 reads as its digits."""
    return format(float(v), ".12g")


def run_single_trial(spec: ExperimentSpec, sweep_idx: int,
                     trial: int) -> list[Record]:
    """Execute one (sweep value, trial) cell; returns (algo, metric, value,
    runtime_ms) records."""
    return EXPERIMENTS[spec.experiment].kind.cell(
        _Cell(spec, spec.points[sweep_idx], spec.child_rng(sweep_idx, trial)))


def _trial_worker(spec: ExperimentSpec, sweep_idx: int, trial: int):
    """(sweep_idx, trial, records, None) or, when the cell raised,
    (sweep_idx, trial, None, (exception type name, message))."""
    try:
        return sweep_idx, trial, run_single_trial(spec, sweep_idx, trial), None
    except Exception as err:  # noqa: BLE001 - per-trial errors are recorded
        return sweep_idx, trial, None, (type(err).__name__, str(err))


# the spec a pool worker runs, handed over once per process by the pool's
# initializer so that no cell re-parses it
_pool_spec: ExperimentSpec | None = None


def _init_pool_worker(spec: ExperimentSpec) -> None:
    """Hand the worker its spec and pin its BLAS, for the life of the
    process, which ends with the pool."""
    global _pool_spec
    _pool_spec = spec
    _set_blas_threads(dict.fromkeys(_openblas.BUNDLED, _BLAS_THREADS))


def _pool_trial(task: tuple[int, int]):
    return _trial_worker(_pool_spec, *task)


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ResultTable:
    """Run all (sweep value, trial) cells and aggregate the metric rows.

    workers >= 1 is an upper bound: the pool never has more processes than
    there are cells, one worker runs the cells in this process, and
    meta.json records the count used. When more than 10% of trials error,
    the run raises ExperimentFailure and returns no table; otherwise the
    trials that did not error are aggregated.

    This process and every pool worker compute with one thread of numpy's
    and scipy's bundled OpenBLAS; this process gets its own settings back
    when the run ends. meta.json records the pinned count per library,
    null for a library that was not found. Under glibc, the run also fixes
    malloc's mmap and trim thresholds for the rest of the process's life.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    exp = EXPERIMENTS[spec.experiment]
    t_start = time.perf_counter()
    tasks = [(i, t) for i in range(len(spec.sweep)) for t in range(spec.trials)]
    workers = min(workers, len(tasks))
    # (sweep_idx, algo, metric) -> (value, runtime) per trial; both outcome
    # streams yield the cells in task order, (sweep, trial)
    agg: dict[tuple[int, str, str], list[tuple[float, float]]] = {}
    errors: list[str] = []
    errors_by_type: Counter[str] = Counter()
    blas_before = _set_blas_threads(dict.fromkeys(_openblas.BUNDLED, _BLAS_THREADS))
    _fix_malloc_thresholds()
    if workers > 1:
        for module in _CELL_SCIPY_MODULES:
            importlib.import_module(module)
    try:
        with (ProcessPoolExecutor(max_workers=workers, initializer=_init_pool_worker,
                                  initargs=(spec,)) if workers > 1
              else nullcontext()) as pool:
            outcomes = (pool.map(_pool_trial, tasks) if pool
                        else (_trial_worker(spec, *task) for task in tasks))
            for sweep_idx, trial, recs, err in outcomes:
                if err:
                    errors_by_type[err[0]] += 1
                    errors.append(f"sweep={spec.sweep[sweep_idx]} trial={trial}: "
                                  f"{err[0]}: {err[1]}")
                    continue
                for algo, metric, value, dt in recs:
                    agg.setdefault((sweep_idx, algo, metric), []).append((value, dt))
    finally:
        _set_blas_threads({package: count for package, count in blas_before.items()
                           if count is not None})
    if len(errors) > 0.1 * len(tasks):
        raise ExperimentFailure(
            f"{len(errors)} of {len(tasks)} trials failed; first: {errors[0]}")

    rows = []
    for (sweep_idx, algo, metric) in sorted(agg):
        vals = np.array([v for v, _ in agg[(sweep_idx, algo, metric)]])
        times = np.array([t for _, t in agg[(sweep_idx, algo, metric)]])
        n = vals.size
        stderr = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        rows.append({
            "sweep_param": exp.sweep_param,
            "sweep_value": spec.sweep[sweep_idx],
            "algorithm": algo,
            "metric": metric,
            "mean": float(vals.mean()),
            "stderr": stderr,
            "trials": int(n),
            "runtime_ms": float(times.mean()),
        })

    wall_ms = (time.perf_counter() - t_start) * 1e3
    meta = {
        "experiment": spec.experiment,
        "config_hash": spec.config_hash(),
        "seed": spec.seed,
        "version": __version__,
        "trials_requested": spec.trials * len(spec.sweep),
        "trials_errored": len(errors),
        "errors": errors[:20],
        "errors_by_type": dict(sorted(errors_by_type.items())),
        "runtime_ms_total": wall_ms,
        "workers": workers,
        "blas_threads": {package: None if count is None else _BLAS_THREADS
                         for package, count in blas_before.items()},
    }
    return ResultTable(rows=rows, meta=meta)


def seed_report(spec: ExperimentSpec) -> list[dict]:
    """Derived child-stream identities per (sweep value, trial)."""
    out = []
    for i, v in enumerate(spec.sweep):
        for t in range(spec.trials):
            out.append({
                "sweep_value": v, "trial": t,
                "spawn_key": [i, t],
                "state_word": int(spec.seed_sequence(i, t).generate_state(1)[0]),
            })
    return out
