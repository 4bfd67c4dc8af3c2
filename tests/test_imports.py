"""Import hygiene.

Importing the package, and every subcommand but `run`, loads numpy and no
part of SciPy. SciPy's modules would be about 60% of a cold `import
snschan`, which every CLI command pays. No run loads `scipy.linalg`: the
E-step and the BCRB call LAPACK and BLAS on the OpenBLAS bundled with
SciPy through ctypes, and fall back to `scipy.linalg`'s wrappers only
where no bundled OpenBLAS is found. `scipy.special` is imported where it is
first used, for the knife edge's Fresnel integrals and PASS's MCD
consistency factor. So a fully connected run, which needs neither, loads
neither and still writes its goldens' bytes, and a DHBF run loads
`scipy.special` alone. The checks read sys.modules in fresh interpreters
rather than timings, so they cannot flake.

No module but `__init__` (which re-exports) imports a name it never uses.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from snschan.experiments import _BLAS_THREAD_VARS as BLAS_THREAD_VARS

ROOT = Path(__file__).resolve().parents[1]
TINY_AUC = {"experiment": "auc_vs_snr", "sweep": [5.0], "trials": 2, "seed": 3,
            "overrides": {"N": 64, "SI_min": 16, "K": 2}}
# the specs of tests/golden/nmse_vs_distance{,_bcrb_only}.csv: fully
# connected, fully visible scenes
DISTANCE = {"experiment": "nmse_vs_distance", "sweep": [3.0, 20.0],
            "overrides": {"N": 64, "SI_min": 16}, "trials": 2, "seed": 5}
GOLDEN_FULLY_CONNECTED = {"nmse_vs_distance": DISTANCE,
                          "nmse_vs_distance_bcrb_only": dict(DISTANCE,
                                                             algorithms=["bcrb"])}

# runs `python -m snschan.cli <argv>` and, once it has exited, prints the
# scipy modules it loaded as the last line of stderr
_CLI = """
import runpy, sys
sys.argv = ["snschan", *sys.argv[1:]]
try:
    runpy.run_module("snschan.cli", run_name="__main__", alter_sys=True)
except SystemExit as done:
    code = done.code
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), file=sys.stderr)
sys.exit(code)
"""


def fresh_env() -> dict:
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_cli(*argv: str) -> tuple[int, str, list[str]]:
    """(exit code, stdout, scipy modules loaded) of one CLI command."""
    proc = subprocess.run([sys.executable, "-c", _CLI, *argv], capture_output=True,
                          text=True, env=fresh_env(), timeout=300)
    lines = proc.stderr.splitlines()
    assert lines and lines[-1].startswith("["), proc.stderr
    return proc.returncode, proc.stdout, ast.literal_eval(lines[-1])


@pytest.mark.parametrize("module", ["snschan", "snschan.cli"])
def test_import_loads_no_scipy(module):
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=fresh_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def write_spec(tmp_path, doc) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_list_experiments_loads_no_scipy():
    code, out, loaded = run_cli("list-experiments")
    assert code == 0
    assert out.splitlines()[0].startswith("nmse_vs_snr: sweep=snr_db")
    assert loaded == []


def test_validate_loads_no_scipy(tmp_path):
    code, out, loaded = run_cli("validate", write_spec(tmp_path, TINY_AUC))
    assert code == 0
    assert out.startswith("ok: auc_vs_snr sweep=[5.0] trials=2 seed=3 hash=")
    assert loaded == []


def test_seed_report_loads_no_scipy(tmp_path):
    code, out, loaded = run_cli("seed-report", write_spec(tmp_path, TINY_AUC))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 and "spawn_key=[0, 1]" in lines[1]
    assert loaded == []


def loads(loaded: list[str], package: str) -> bool:
    return any(m == package or m.startswith(package + ".") for m in loaded)


@pytest.mark.parametrize("name", sorted(GOLDEN_FULLY_CONNECTED))
def test_a_fully_connected_run_loads_no_scipy_linalg_or_special(tmp_path, name):
    out = tmp_path / "out"
    code, stdout, loaded = run_cli(
        "run", write_spec(tmp_path, GOLDEN_FULLY_CONNECTED[name]), "--out", str(out))
    assert code == 0
    assert stdout.startswith("wrote ") and f"{out}/results.csv" in stdout
    assert not loads(loaded, "scipy.linalg") and not loads(loaded, "scipy.special")
    golden = ROOT / "tests" / "golden" / f"{name}.csv"
    assert (out / "results.csv").read_text() == golden.read_text()


def test_a_dhbf_run_loads_scipy_special_but_no_scipy_linalg(tmp_path):
    # PASS's MCD factor and the knife edge's Fresnel integrals
    spec = {"experiment": "nmse_vs_snr", "sweep": [10.0], "trials": 1, "seed": 5,
            "algorithms": ["ss_absbl_mmv"],
            "overrides": {"N": 64, "SI_min": 16, "P": 16}}
    code, _, loaded = run_cli("run", write_spec(tmp_path, spec),
                              "--out", str(tmp_path / "out"))
    assert code == 0
    assert loads(loaded, "scipy.special") and not loads(loaded, "scipy.linalg")


def _unused_imports(source: str) -> list[str]:
    """Names a module binds by import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_unused_imports_detected():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "os (line 1)", "b (line 2)"]


@pytest.mark.parametrize("path", sorted(
    p.name for p in (ROOT / "src" / "snschan").glob("*.py")
    if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(path):
    source = (ROOT / "src" / "snschan" / path).read_text()
    assert _unused_imports(source) == []
