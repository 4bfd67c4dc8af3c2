"""Import hygiene: the package's import path must not load scipy.stats.

Importing scipy.stats would be the largest single cost of a cold
`import snschan`, in time and in memory, and every CLI run and pool worker
pays that cost. The check reads sys.modules in a fresh interpreter rather than
a timing, so it cannot flake.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", ["snschan", "snschan.cli"])
def test_import_does_not_load_scipy_stats(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
