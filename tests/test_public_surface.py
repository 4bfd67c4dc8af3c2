"""No public surface that no pipeline path reaches.

Every module-level public function or class of `snschan` (other than
`__init__`, which re-exports), and every public method or property of such
a class, must have a use: a Name or Attribute in the package's source
outside its own definition, or a use in a bench script, where the string
entries of `probe.LAYERS` count. A name that only tests reach is dead
surface: delete it or give it a caller. The check reads names, not types,
so an attribute of the same name on another class counts as a use.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "snschan"


def _refs(node: ast.AST) -> Counter:
    """The names that the Name and Attribute nodes under node refer to."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def _public_defs(tree: ast.Module, module: str):
    """(qualified name, definition node) of each checked definition."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{module}.{node.name}.{item.name}", item


def _bench_uses() -> set[str]:
    uses: set[str] = set()
    for path in (ROOT / "bench").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses |= set(_refs(tree))
        if path.name == "probe.py":
            (layers,) = [node.value for node in tree.body
                         if isinstance(node, ast.Assign)
                         and any(getattr(t, "id", None) == "LAYERS"
                                 for t in node.targets)]
            uses |= {sub.value for sub in ast.walk(layers)
                     if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}
    return uses


def unused_public_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    src_uses = sum((_refs(tree) for tree in trees.values()), Counter())
    bench_uses = _bench_uses()
    unused = []
    for module, tree in trees.items():
        for qualname, node in _public_defs(tree, module):
            outside = src_uses[node.name] - _refs(node)[node.name]
            if outside <= 0 and node.name not in bench_uses:
                unused.append(qualname)
    return unused


def test_every_public_name_has_a_use():
    assert unused_public_names() == []
