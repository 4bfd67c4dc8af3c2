"""No public surface, stored field or registry name that no pipeline path
reaches.

Every module-level public function or class of `snschan` (other than
`__init__`, which re-exports), and every public method or property of such
a class, must have a use: a Name or Attribute in the package's source
outside its own definition, or a use in a bench script, where the string
entries of `probe.LAYERS` count. A name that only tests reach is dead
surface: delete it or give it a caller. The check reads names, not types,
so an attribute of the same name on another class counts as a use.

Every field of a dataclass or NamedTuple in the package must be read: an
attribute load of its name in the package's source outside its class's
`__post_init__`, or in a bench script. A field that only its own validation
reads is stored for nothing.

Every defaulted parameter of a function in the package must be passed by
some call in the package or a bench script, by keyword or by position, to a
function of its name. An option that only tests set is dead surface.

Every name in the estimator, detector, architecture, segmentation-variant
and allocation-strategy registries must be reachable without a test: a
default row or param value of some registered experiment, a strategy of
some architecture (`pipeline._ALLOCATION`), or a string in a bench script.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

from snschan import dhbf, pipeline
from snschan.experiments import EXPERIMENTS

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


# the fields that may stay unread, each with the reason
_UNREAD_FIELDS = {
    # the per-iteration log marginal likelihood; ROADMAP items 7 and 10 give
    # it a reader (the fit log and the per-trial trace records)
    "estimator.PosteriorState.objective",
}


def _record_classes(tree: ast.Module):
    """The dataclasses and NamedTuples defined in tree."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if (any(getattr(d, "id", None) == "dataclass" for d in decorators)
                or any(getattr(b, "id", None) == "NamedTuple" for b in node.bases)):
            yield node


def _attribute_loads(node: ast.AST) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute)
                   and isinstance(sub.ctx, ast.Load))


def _bench_trees() -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "bench").glob("*.py"))]


def _bench_strings() -> set[str]:
    return {sub.value for tree in _bench_trees() for sub in ast.walk(tree)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}


def unread_fields() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    loads = sum((_attribute_loads(tree) for tree in trees.values()), Counter())
    bench_loads = set().union(*map(_attribute_loads, _bench_trees()))
    unread = []
    for module, tree in trees.items():
        for cls in _record_classes(tree):
            checks = [item for item in cls.body
                      if isinstance(item, ast.FunctionDef)
                      and item.name == "__post_init__"]
            in_checks = sum((_attribute_loads(f) for f in checks), Counter())
            for item in cls.body:
                if not (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    continue
                name = item.target.id
                if loads[name] - in_checks[name] <= 0 and name not in bench_loads:
                    unread.append(f"{module}.{cls.name}.{name}")
    return sorted(unread)


def test_every_field_has_a_reader():
    # also fails when an excepted field gains a reader or goes, so that its
    # exception goes too
    assert unread_fields() == sorted(_UNREAD_FIELDS)


def unreachable_registry_names() -> list[str]:
    reached = _bench_strings() | set(pipeline._ALLOCATION.values())
    for exp in EXPERIMENTS.values():
        reached |= set(exp.algorithms)
        reached |= {v for v in exp.params.values() if isinstance(v, str)}
    registries = {
        "estimator": pipeline.ESTIMATORS,
        "detector": pipeline.DETECTORS,
        "architecture": pipeline.ARCHITECTURES,
        "segmentation variant": pipeline.SEGMENTATION_VARIANTS,
        "allocation strategy": dhbf._ALLOCATORS,
    }
    return [f"{what} {name}" for what, names in registries.items()
            for name in names if name not in reached]


def test_every_registry_name_is_reachable():
    assert unreachable_registry_names() == []


# the defaulted parameters that no call in the package or a bench script
# passes, each with the reason
_UNPASSED_PARAMS = {
    # tests run the CLI in-process with their own argument lists
    "cli.main.argv",
    # ROADMAP item 14 decides whether bsbl_baseline stays, and how it is
    # configured if it does
    "estimator.bsbl_baseline.cfg",
}


def _functions(tree: ast.Module, module: str):
    """(qualified name, node, whether a call binds its first parameter) of
    each function defined in tree, nested ones included; a method's calls
    bind self or cls."""
    def visit(node, prefix, in_class):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                yield from visit(item, f"{prefix}{item.name}.", True)
            elif isinstance(item, ast.FunctionDef):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in item.decorator_list)
                yield f"{prefix}{item.name}", item, in_class and not static
                yield from visit(item, f"{prefix}{item.name}.", False)
            else:
                yield from visit(item, prefix, in_class)
    yield from visit(tree, f"{module}.", False)


def _calls(trees) -> dict[str, list[ast.Call]]:
    """The calls in trees, keyed by the name of the called function."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether call passes param (at that position, None if keyword-only);
    an unpacked *args or **kwargs counts as passing it."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return (any(isinstance(arg, ast.Starred) for arg in call.args)
            or len(call.args) > position)


def unpassed_params() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    calls = _calls([*trees.values(), *_bench_trees()])
    unpassed = []
    for module, tree in trees.items():
        for qualname, fn, bound in _functions(tree, module):
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params = [(a.arg, i - bound) for i, a in enumerate(positional)
                      if i >= first]
            params += [(a.arg, None) for a, d in
                       zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for param, position in params:
                if not any(_passes(call, param, position)
                           for call in calls.get(fn.name, [])):
                    unpassed.append(f"{qualname}.{param}")
    return sorted(unpassed)


def test_every_defaulted_parameter_is_passed():
    # also fails when an excepted parameter gains a caller or goes
    assert unpassed_params() == sorted(_UNPASSED_PARAMS)
