"""Every line of snschan that a run can take, a run takes.

`tests/test_public_surface.py` checks names: it cannot see a branch that no
run takes, or a second path beside one that does. This test runs the
program under a line tracer, in a fresh process whose tracer is installed
before ``import snschan`` (so import-time lines and the bodies of cached
functions run once, whatever ran before), and compares the lines that never
ran with a committed allow-list.

The traced run is every registered experiment with every row its kind
allows, at tiny sizes, 2 trials and its first two sweep values; one tiny run
with two workers, so that the parent's pool path runs; and the CLI's
``list-experiments``, ``validate`` of the example spec and of an invalid
one, ``seed-report``, and ``run --trials --seed --algorithms``.

The lines that count are those of the code objects of every function body
in ``src/snschan`` (``co_lines``), without the lines of ``raise``
statements; a handler whose body only raises counts as part of its raise.
A line is keyed by its function's qualified name and its stripped source
text, never by its number; lines of one function with the same text share
a key, which counts as unrun while any of them is. Each allow-list entry
says why the line stays although no run takes it; adding one is a change
to declare in CHANGES.md, with that reason.

Run as a script (``python tests/test_reach.py OUT_DIR``), this file is the
traced run: it writes the executed (file, line) pairs to OUT_DIR/hits.json.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "snschan"
EXAMPLE = ROOT / "examples" / "auc_quick.json"
TINY = {"N": 64, "SI_min": 16, "P": 16}
# the convergence trace at delta1 = 0, as the claims table runs it, so that
# its fits run their whole budget and end unconverged
PARAMS = {"convergence": {"estimator_config": {"delta1": 0.0}}}
_NEW_LOCALS = 0x2   # inspect.CO_NEWLOCALS: set on function bodies alone


def _function_codes(code: CodeType, prefix: str = ""):
    """(qualified name, code object) of every function body nested in code;
    the names are those of co_qualname, which Python 3.10 lacks."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            name = prefix + const.co_name
            if const.co_flags & _NEW_LOCALS:
                yield name, const
                yield from _function_codes(const, f"{name}.<locals>.")
            else:
                yield from _function_codes(const, f"{name}.")


def executable_lines() -> dict[tuple[str, int], tuple[str, str]]:
    """(file, line) -> (module.qualified name, stripped source text) of each
    line of a function body outside raise statements and the handlers that
    only raise."""
    lines = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        # a handler whose body only raises is part of its raise
        raises = {line for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Raise)
                  or isinstance(node, ast.ExceptHandler)
                  and all(isinstance(sub, ast.Raise) for sub in node.body)
                  for line in range(node.lineno, node.end_lineno + 1)}
        for name, code in _function_codes(compile(source, str(path), "exec")):
            for _, _, line in code.co_lines():
                if line is not None and line not in raises:
                    lines[(str(path), line)] = (f"{path.stem}.{name}",
                                                text[line - 1].strip())
    return lines


def unrun_lines(hits_path: Path) -> set[tuple[str, str]]:
    """The keys of the executable lines missing from a traced run's hits."""
    hits = {tuple(hit) for hit in json.loads(hits_path.read_text())}
    return {key for where, key in executable_lines().items() if where not in hits}


def test_every_reachable_line_runs(tmp_path):
    run = subprocess.run([sys.executable, __file__, str(tmp_path)],
                         capture_output=True, text=True, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    unrun = unrun_lines(tmp_path / "hits.json")
    assert sorted(unrun - set(ALLOWED)) == [], "delete the unrun lines, or list them"
    assert sorted(set(ALLOWED) - unrun) == [], "these listed lines now run"


# the reason each group of unrun lines stays -> its (function, line) keys
_KEPT = {
    "per-trial error capture: a failing cell is recorded, and a run past "
    "10% failed trials exits 3": [
        ("cli._run", "except ExperimentFailure as err:"),
        ("cli._run", 'print(f"experiment failed: {err}", file=sys.stderr)'),
        ("cli._run", "return EXIT_FAILURE"),
        ("experiments._trial_worker",
         "except Exception as err:  # noqa: BLE001 - per-trial errors are recorded"),
        ("experiments._trial_worker",
         "return sweep_idx, trial, None, (type(err).__name__, str(err))"),
        ("experiments.run_experiment", "errors_by_type[err[0]] += 1"),
        ("experiments.run_experiment",
         'errors.append(f"sweep={spec.sweep[sweep_idx]} trial={trial}: "'),
        ("experiments.run_experiment", 'f"{err[0]}: {err[1]}")'),
        ("experiments.run_experiment", "continue"),
    ],
    "the pool workers' bodies, which run in forked processes": [
        ("experiments._init_pool_worker", "_pool_spec = spec"),
        ("experiments._init_pool_worker",
         "_set_blas_threads(dict.fromkeys(_BUNDLED_OPENBLAS, _BLAS_THREADS))"),
        ("experiments._pool_trial", "return _trial_worker(_pool_spec, *task)"),
    ],
    "a numpy or SciPy without a bundled OpenBLAS, or a C library without "
    "mallopt": [
        ("experiments._openblas_threads", "except AttributeError:"),
        ("experiments._openblas_threads", "continue"),
        ("experiments._openblas_threads", "return None"),
        ("experiments._fix_malloc_thresholds", "return"),
        ("experiments._set_blas_threads",
         'warnings.warn(f"no bundled OpenBLAS found for {package}; its BLAS "'),
        ("experiments._set_blas_threads",
         '"thread count is not pinned", RuntimeWarning, stacklevel=2)'),
        ("experiments._set_blas_threads", "before[package] = None"),
    ],
    "bench/probe.py reads them for its metrics": [
        ("estimator.PosteriorState.iterations", "return len(self.history)"),
        ("estimator.PosteriorState.active", "return list(range(len(self.gamma)))"),
        ("segmentation.SegmentationResult.n_subarrays",
         "return len(self.breakpoints) - 1"),
    ],
    "conventional BSBL: the ABSBL-vs-BSBL tests' oracle and a bench/probe.py "
    "layer": [
        ("estimator.bsbl_baseline", "Y, Psi = _checked(Y, Psi)"),
        ("estimator.bsbl_baseline", "cfg = EstimatorConfig() if cfg is None else cfg"),
        ("estimator.bsbl_baseline",
         "state, = _sbl_runs(Y[None], Psi, sigma2, cfg, scalar_gamma=True)"),
        ("estimator.bsbl_baseline", "return state.mu, state"),
    ],
    "the E-step's ridge fallback for a K without a Cholesky factor": [
        ("estimator._posterior", "chol, info = potrf(k_r, lower=1, clean=1)"),
        ("estimator._posterior", "if info:"),
        ("estimator._posterior", "diagonal += 1e-12 * diagonal.real.sum() / p_eff"),
    ],
    "the zero start: an all-zero Y or Psi returns the zero estimate": [
        ("estimator._sbl_runs", "states[r] = _run_state("),
        ("estimator._sbl_runs", "_block_stacks(n_sub, u, np.zeros(1)), 0, True,"),
        ("estimator._sbl_runs", "[np.zeros((n_sub, m_count), dtype=complex)],"),
        ("estimator._sbl_runs", "[float(-m_count * p_eff * np.log(sigma2) "
         "- y_energy[r] / sigma2)])"),
    ],
    "SOMP's zero-Y return": [("estimator.somp_baseline", "return x_hat")],
    "offgrid_refine's guards: its default config for a caller that passes "
    "none, the zero-estimate return, the cut to at most P atoms, and the "
    "Armijo backtracking with its floor": [
        ("estimator.offgrid_refine", "cfg = EstimatorConfig()"),
        ("estimator.offgrid_refine", "return D @ x_on_grid"),
        ("estimator.offgrid_refine", "order = np.argsort(energy[support])[::-1]"),
        ("estimator.offgrid_refine",
         "support = np.sort(support[order[: Phi.shape[0]]])"),
        ("estimator.offgrid_refine", "step *= _ARMIJO_SHRINK"),
        ("estimator.offgrid_refine", "rho = max(rho * _ARMIJO_SHRINK, 1e-16)"),
    ],
    "the knife-edge retry of an infeasible edge geometry": [
        ("scenario._sample_obstacle", "except GeometryInfeasibleError:"),
        ("scenario._sample_obstacle", "continue"),
    ],
    "the visibility chain's all-blocked fallback": [
        ("scenario.sample_vr", "return states"),
        ("scenario.sample_vr", "warnings.warn("),
        ("scenario.sample_vr",
         '"visibility chain produced only blocked states; forcing one "'),
        ("scenario.sample_vr", '"visible block", RuntimeWarning, stacklevel=2,'),
        ("scenario.sample_vr", "states[rng.integers(b_si)] = True"),
    ],
    "the AUC of a truth without interior breakpoints or without negatives": [
        ("segmentation.auc_score", 'warnings.warn("no interior truth breakpoints; '
         'AUC degenerates to 0.5",'),
        ("segmentation.auc_score", "RuntimeWarning, stacklevel=2)"),
        ("segmentation.auc_score", "return 0.5"),
    ],
}
ALLOWED = {key: reason for reason, keys in _KEPT.items() for key in keys}


def _traced_run(out: Path) -> None:
    """Run every experiment and CLI command under a tracer of snschan's
    frames; write the executed (file, line) pairs to out/hits.json."""
    hits: set[tuple[str, int]] = set()
    src = str(SRC)

    def trace_lines(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(src):
            return None
        return trace_lines

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace_calls)
    from snschan.cli import main
    from snschan.experiments import EXPERIMENTS, ExperimentSpec, run_experiment

    for name, exp in EXPERIMENTS.items():
        run_experiment(ExperimentSpec(
            experiment=name, sweep=list(exp.default_sweep[:2]), trials=2,
            algorithms=list(exp.kind.allowed), overrides=TINY,
            params=PARAMS.get(name, {}), seed=1))
    run_experiment(ExperimentSpec(experiment="auc_vs_snr", sweep=[5.0], trials=2,
                                  overrides=TINY, seed=1), workers=2)
    invalid = out / "invalid.json"
    invalid.write_text(json.dumps({"experiment": "no_such_experiment"}))
    for argv in (["list-experiments"], ["validate", str(EXAMPLE)],
                 ["validate", str(invalid)], ["seed-report", str(EXAMPLE)],
                 ["run", str(EXAMPLE), "--trials", "1", "--seed", "5",
                  "--algorithms", "pass,afm", "--out", str(out / "run")]):
        main(argv)
    sys.settrace(None)
    (out / "hits.json").write_text(json.dumps(sorted(hits)))


if __name__ == "__main__":
    _traced_run(Path(sys.argv[1]))
