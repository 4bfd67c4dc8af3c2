"""Exit codes and outputs of the command-line entry point."""

from __future__ import annotations

import argparse
import json

import pytest

from snschan import cli
from snschan import experiments

TINY_AUC = {"experiment": "auc_vs_snr", "sweep": [5.0], "trials": 2, "seed": 3,
            "overrides": {"N": 64, "SI_min": 16, "K": 2}}
TINY_NMSE = {"experiment": "nmse_vs_snr", "sweep": [10.0], "trials": 1, "seed": 3,
             "algorithms": ["ss_somp"], "overrides": {"N": 64, "SI_min": 16, "P": 16}}
TINY_ABLATION = {"experiment": "segmentation_ablation", "trials": 1, "seed": 3,
                 "algorithms": ["equal4"], "overrides": {"N": 64, "SI_min": 16, "P": 16}}
TINY_CONVERGENCE = {"experiment": "convergence", "sweep": [10.0], "trials": 1,
                    "seed": 3, "overrides": {"N": 64, "SI_min": 16, "P": 16}}
TINY_DISTANCE = {"experiment": "nmse_vs_distance", "sweep": [3.0], "trials": 1,
                 "seed": 3, "algorithms": ["ss_somp"],
                 "overrides": {"N": 64, "SI_min": 16}}


def write_spec(tmp_path, doc) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_writes_results(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", write_spec(tmp_path, TINY_AUC), "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].startswith("sweep_param,")
    assert sorted(line.split(",")[2] for line in lines[1:]) == ["afm", "pass", "rfem"]
    assert json.loads((out / "meta.json").read_text())["trials_errored"] == 0
    assert "wrote 3 rows" in capsys.readouterr().out


@pytest.mark.parametrize("timing", [False, True], ids=["default", "timing"])
def test_run_timing_fills_runtime_column(tmp_path, capsys, timing):
    # results.csv is deterministic unless --timing asks for measured runtimes
    out = tmp_path / "out"
    argv = ["run", write_spec(tmp_path, TINY_AUC), "--out", str(out)]
    assert cli.main(argv + ["--timing"] * timing) == cli.EXIT_OK
    header, *rows = (out / "results.csv").read_text().splitlines()
    column = header.split(",").index("runtime_ms")
    runtimes = [float(row.split(",")[column]) for row in rows]
    assert len(runtimes) == 3
    assert all(t > 0 for t in runtimes) if timing else runtimes == [0.0] * 3


def test_validate(tmp_path, capsys):
    assert cli.main(["validate", write_spec(tmp_path, TINY_AUC)]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("ok: auc_vs_snr")


def test_list_experiments(capsys):
    assert cli.main(["list-experiments"]) == cli.EXIT_OK
    listed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == list(experiments.EXPERIMENTS)


def test_seed_report(tmp_path, capsys):
    assert cli.main(["seed-report", write_spec(tmp_path, TINY_AUC)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert "spawn_key=[0, 1]" in lines[1]


@pytest.mark.parametrize("doc", [
    None,                                               # no such file
    dict(TINY_AUC, experiment="no_such_experiment"),
    dict(TINY_AUC, algorithms=["ss_absbl_mmv"]),        # not a detector
    dict(TINY_AUC, trials="2"),
    dict(TINY_NMSE, params={"architecture": "fully-connected"}),
    dict(TINY_ABLATION, params={"estimator": "ss_absbl_mm"}),
    dict(TINY_ABLATION, params={"estimator_config": {"t_iter": 5}}),
    # estimator_config values every trial would fail on, or silently misuse
    dict(TINY_ABLATION, params={"estimator_config": {"block_size": 0}}),
    dict(TINY_ABLATION, params={"estimator_config": {"t_ite": 0}}),
    dict(TINY_ABLATION, params={"estimator_config": {"p_shrink": 1.5}}),
    dict(TINY_ABLATION, params={"estimator_config": {"p_shrink": 0}}),
    dict(TINY_ABLATION, params={"estimator_config": {"p_shrink": 1e-10}}),
    # the noise variance is the receiver's, not a learner's knob
    dict(TINY_ABLATION, params={"estimator_config": {"learn_noise": True}}),
    dict(TINY_ABLATION, params={"estimator_config": {"sigma2_init_scale": 0.5}}),
    dict(TINY_ABLATION, params={"estimator_config": {"sigma2_floor": 1e-12}}),
    # retired keys: BSBL is chosen by the algorithm name, the line search
    # settings are constants
    dict(TINY_ABLATION, params={"estimator_config": {"scalar_gamma": True}}),
    dict(TINY_ABLATION, params={"estimator_config": {"armijo_shrink": 0.5}}),
    dict(TINY_ABLATION, params={"estimator_config": {"armijo_slope": 1e-4}}),
    dict(TINY_ABLATION, params={"estimator_config": {"max_backtracks": 40}}),
    # overrides every trial would fail on: PASS's window W = SI_min must be
    # >= 8 and divisible by 4, and MEF-GAA needs an RF chain
    dict(TINY_AUC, overrides=dict(TINY_AUC["overrides"], SI_min=10)),
    dict(TINY_NMSE, overrides=dict(TINY_NMSE["overrides"], N_RF=0)),
    # the spec's seed is the only seed; the config has none to override
    dict(TINY_AUC, overrides=dict(TINY_AUC["overrides"], seed=1)),
    # a swept value every trial would fail to convert
    dict(TINY_NMSE, sweep=["abc"]),
    # counts must be integers, as overrides and as sweep values
    dict(TINY_NMSE, overrides=dict(TINY_NMSE["overrides"], P=16.0)),
    dict(TINY_NMSE, experiment="nmse_vs_pilots", sweep=[16.5]),
    # a t_d every trial's scene draw would fail to compare
    dict(TINY_AUC, params={"t_d": "abc"}),
    # json.load reads NaN and Infinity, which every trial would fail on
    dict(TINY_NMSE, overrides=dict(TINY_NMSE["overrides"], fc=float("nan"))),
    dict(TINY_DISTANCE, overrides=dict(TINY_DISTANCE["overrides"], B=float("inf"))),
    dict(TINY_DISTANCE, overrides=dict(TINY_DISTANCE["overrides"], B=float("nan"))),
    dict(TINY_NMSE, overrides=dict(TINY_NMSE["overrides"], c=float("nan"))),
    dict(TINY_DISTANCE, overrides=dict(TINY_DISTANCE["overrides"], d=float("inf"))),
    dict(TINY_DISTANCE, overrides=dict(TINY_DISTANCE["overrides"], d=float("nan"))),
    # SeedSequence takes only non-negative integers; true would run as seed 1
    dict(TINY_AUC, seed=-1),
    dict(TINY_AUC, seed=1.5),
    dict(TINY_AUC, seed="x"),
    dict(TINY_AUC, seed=True),
], ids=["unreadable", "unknown-experiment", "unknown-algorithm", "string-trials",
        "unknown-architecture", "unknown-estimator", "unknown-estimator-config",
        "estimator-config-block_size", "estimator-config-t_ite",
        "estimator-config-p_shrink", "estimator-config-p_shrink-zero",
        "estimator-config-p_shrink-tiny", "estimator-config-learn_noise",
        "estimator-config-sigma2_init_scale", "estimator-config-sigma2_floor",
        "estimator-config-scalar_gamma", "estimator-config-armijo_shrink",
        "estimator-config-armijo_slope", "estimator-config-max_backtracks",
        "pass-window-SI_min", "no-rf-chain", "config-seed", "string-sweep-value",
        "float-P-override", "float-P-sweep", "string-t_d", "nan-fc", "inf-B",
        "nan-B", "nan-c", "inf-d", "nan-d", "negative-seed", "float-seed",
        "string-seed", "bool-seed"])
def test_config_errors(tmp_path, capsys, doc):
    path = str(tmp_path / "missing.json") if doc is None else write_spec(tmp_path, doc)
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert cli.main(["seed-report", path]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.count("config error") == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc", [
    dict(TINY_CONVERGENCE, params={"architecture": "fully_connected"}),
    dict(TINY_ABLATION, params={"architecture": "fully_connected"}),
    dict(TINY_AUC, params={"architecture": "fully_connected"}),
    dict(TINY_AUC, params={"estimator_config": {"t_ite": 5}}),
    dict(TINY_DISTANCE, params={"t_d": 2.0}),
    dict(TINY_NMSE, params={"snr_db": 0.0}),            # the swept key
    dict(TINY_NMSE, params={"no_such_key": 1}),
], ids=["architecture-convergence", "architecture-ablation", "architecture-auc",
        "estimator-config-auc", "t_d-distance", "swept-snr_db", "unknown-key"])
def test_params_no_cell_reads_exit_2(tmp_path, capsys, doc):
    # without the check each of these runs and silently ignores the key
    path = write_spec(tmp_path, doc)
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "not read by this experiment" in err
    assert not (tmp_path / "out").exists()


def test_unknown_override_key_is_named(tmp_path, capsys):
    # the key is the fault, not the sweep point that first tried to use it
    doc = dict(TINY_NMSE, sweep=[5.0], overrides={"seed": 1})
    assert cli.main(["validate", write_spec(tmp_path, doc)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "overrides ['seed']" in err and "sweep value" not in err and "5.0" not in err


def test_override_fault_names_no_sweep_value(tmp_path, capsys):
    # snr_db is no SystemConfig field, so no sweep point is at fault
    doc = dict(TINY_NMSE, overrides=dict(TINY_NMSE["overrides"], P=16.0))
    assert cli.main(["validate", write_spec(tmp_path, doc)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "overrides: P must be an integer" in err
    assert "sweep value" not in err and "10.0" not in err


@pytest.mark.parametrize("doc", [
    dict(TINY_AUC, params={"t_d": -1.0}),
    dict(TINY_AUC, experiment="auc_vs_td", sweep=[-1.0]),
], ids=["params", "sweep"])
def test_negative_t_d_fails_and_is_named(tmp_path, capsys, doc):
    # sample_paths obstructs no path unless t_d > 0, so these runs used to
    # exit 0 with unobstructed scenes in rows labelled t_d = -1; the spec
    # is now rejected at load, before any trial runs
    out = tmp_path / "out"
    path = write_spec(tmp_path, doc)
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    assert cli.main(["run", path, "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("config error: invalid t_d: t_d must lie in") == 2
    assert not out.exists()


@pytest.mark.parametrize("doc, message", [
    # a container of another JSON type raised a TypeError (exit 1), or, for
    # algorithms, was rejected once per character
    (dict(TINY_NMSE, sweep=5), "sweep must be a list, got 5"),
    (dict(TINY_NMSE, params=[1]), "params must be a dict, got [1]"),
    (dict(TINY_NMSE, overrides=["N"]), "overrides must be a dict, got ['N']"),
    (dict(TINY_NMSE, experiment=["x"]), "experiment must be a str, got ['x']"),
    (dict(TINY_NMSE, algorithms="ss_somp"),
     "algorithms must be a list, got 'ss_somp'"),
    # values that validate accepted and every trial then failed on (exit 3)
    (dict(TINY_DISTANCE, params={"snr_db": "10"}),
     "params snr_db must be a finite number, got '10'"),
    (dict(TINY_DISTANCE, params={"snr_db": float("nan")}),
     "params snr_db must be a finite number, got nan"),
    (dict(TINY_DISTANCE, sweep=[0.0]), "invalid distance_m: r_range must lie in"),
    (dict(TINY_DISTANCE, sweep=[-1.0]), "invalid distance_m: r_range must lie in"),
    # true ran as t_d = 1, and Infinity at sample_paths' cap on t_d
    (dict(TINY_AUC, params={"t_d": True}), "invalid t_d: t_d must lie in"),
    (dict(TINY_AUC, params={"t_d": float("inf")}),
     "invalid t_d: t_d must lie in [0, inf), got inf"),
    # a key EstimatorConfig has no field for
    (dict(TINY_NMSE, params={"estimator_config": {"prune_threshold": 1e-3}}),
     "invalid estimator_config: EstimatorConfig.__init__() got an unexpected "
     "keyword argument 'prune_threshold'"),
], ids=["int-sweep", "list-params", "list-overrides", "list-experiment",
        "string-algorithms", "string-snr_db", "nan-snr_db", "zero-distance",
        "negative-distance", "bool-t_d", "inf-t_d", "unknown-estimator_config-key"])
def test_spec_fault_is_named_at_load(tmp_path, capsys, doc, message):
    out = tmp_path / "out"
    path = write_spec(tmp_path, doc)
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    assert cli.main(["run", path, "--out", str(out)]) == cli.EXIT_CONFIG
    assert cli.main(["seed-report", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count(f"config error: {message}") == 3, err
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    # each of these raised a TypeError or UnicodeDecodeError (exit 1), and
    # "abc" was rejected once per character as unknown spec fields
    (b"null", "spec must be a JSON object, got None"),
    (b"3", "spec must be a JSON object, got 3"),
    (b"[1, 2]", "spec must be a JSON object, got [1, 2]"),
    (b'"abc"', "spec must be a JSON object, got 'abc'"),
    (b"\xff{}", "cannot read spec"),
], ids=["null", "number", "list", "string", "not-utf-8"])
def test_spec_that_is_no_json_object_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    # --trials, --seed and --algorithms are applied to the document after
    # the check, so they cannot turn the fault into a crash
    assert cli.main(["validate", str(path)]) == cli.EXIT_CONFIG
    assert cli.main(["run", str(path), "--out", str(out), "--trials", "2",
                     "--seed", "1", "--algorithms", "pass"]) == cli.EXIT_CONFIG
    assert cli.main(["seed-report", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count(f"config error: {message}") == 3, err
    assert not out.exists()


@pytest.mark.parametrize("value", [",", " ", "", " , "],
                         ids=["comma", "space", "empty", "comma-spaces"])
def test_algorithms_flag_naming_nothing_exits_2(tmp_path, capsys, value):
    # the flag's empty list once reached the spec, which reads an empty list
    # as "every default algorithm", and the run went ahead with all of them
    out = tmp_path / "out"
    path = write_spec(tmp_path, TINY_AUC)
    assert cli.main(["run", path, "--out", str(out),
                     "--algorithms", value]) == cli.EXIT_CONFIG
    assert (f"config error: --algorithms names no algorithm: {value!r}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("fc", float("nan")), ("B", float("inf")), ("c", float("inf")),
    ("d", float("nan")),
])
def test_non_finite_override_is_named(tmp_path, capsys, field, value):
    doc = dict(TINY_DISTANCE, overrides=dict(TINY_DISTANCE["overrides"],
                                             **{field: value}))
    assert cli.main(["validate", write_spec(tmp_path, doc)]) == cli.EXIT_CONFIG
    assert f"overrides: {field} must be finite" in capsys.readouterr().err


def test_run_with_zero_workers_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", write_spec(tmp_path, TINY_AUC), "--out", str(out),
                     "--workers", "0"])
    assert code == cli.EXIT_CONFIG
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_failing_trials_exit_3(tmp_path, capsys, monkeypatch):
    def broken(spec, sweep_idx, trial):
        raise RuntimeError("boom")

    monkeypatch.setattr(experiments, "run_single_trial", broken)
    out = tmp_path / "out"
    code = cli.main(["run", write_spec(tmp_path, TINY_AUC), "--out", str(out),
                     "--workers", "1"])
    assert code == cli.EXIT_FAILURE
    assert "RuntimeError: boom" in capsys.readouterr().err
    assert not out.exists()


def test_every_subcommand_has_one_handler():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(cli.COMMANDS)
