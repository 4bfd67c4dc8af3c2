"""Import hygiene.

The package's import path must not load scipy.stats. Importing scipy.stats
would be the largest single cost of a cold `import snschan`, in time and in
memory, and every CLI run and pool worker pays that cost. The check reads
sys.modules in a fresh interpreter rather than a timing, so it cannot flake.

No module but `__init__` (which re-exports) imports a name it never uses.
"""

from __future__ import annotations

import ast
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
