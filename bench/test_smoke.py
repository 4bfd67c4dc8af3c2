"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_smoke.py

Runs every workload at one cell per sweep value, untraced and traced, and
checks that each metric BENCHMARK.json names appears with its unit and a
finite value. Also checks that the benchmark refuses to report when the
program's sources are missing. Takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_lists_the_gated_workloads():
    assert CONFIG["workloads"] == [
        {"name": name, "why": wl.why} for name, wl in WORKLOADS.items()
        if wl.gated]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(got["value"]), metric["name"]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "seg_auc", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
