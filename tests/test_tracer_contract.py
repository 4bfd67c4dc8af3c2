"""The benchmark's layer tracer sees every stage it names.

bench/probe.py times a layer by rebinding ``snschan.<module>.<function>``
(and every other snschan binding of the same object) to a wrapper. A layer
it names must therefore exist under that name, and the program must reach it
through a module-level name at call time: a function object captured in a
table is never rebound, and its layer silently reads zero.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from snschan.experiments import ExperimentSpec, run_experiment

BENCH = Path(__file__).resolve().parents[1] / "bench"
_TINY = {"N": 64, "SI_min": 16, "P": 16}


def traced_layers() -> list[tuple[str, str]]:
    """(module, function) of each entry of probe.py's LAYERS, read with ast
    so that the benchmark's own imports stay out of this check."""
    tree = ast.parse((BENCH / "probe.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("bench/probe.py defines no LAYERS")


def test_every_traced_layer_resolves():
    layers = traced_layers()
    assert len(layers) >= 20
    for mod_name, fn_name in layers:
        mod = importlib.import_module(f"snschan.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), f"{mod_name}.{fn_name}"


_DHBF = {f"dhbf.{fn}" for fn in ("prune_subarrays", "make_allocation",
                                 "build_combiners", "simulate_reception",
                                 "decouple")}
_MEASURED = _DHBF | {"scenario.generate_scenario", "pipeline.measure_scene",
                     "pipeline.measure_power", "pipeline.estimate_channel",
                     "segmentation.pass_segment", "estimator.absbl_mmv"}

# experiment, tiny spec fields, the layers its cells must record
CELLS = [
    ("auc_vs_snr", {"sweep": [5.0], "overrides": {"N": 64, "SI_min": 16, "K": 2}},
     {"scenario.generate_scenario", "pipeline.measure_power",
      "segmentation.pass_segment", "segmentation.rfem_segment",
      "segmentation.afm_segment", "segmentation.auc_score"}),
    ("segmentation_ablation", {"overrides": _TINY}, _MEASURED),
    ("architecture_compare", {"sweep": [16], "overrides": _TINY}, _MEASURED),
]


@pytest.fixture
def probe(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("probe").Probe(tmp_path)
    tracer.install_cell_probe()
    tracer.install_layers()
    yield tracer
    tracer.remove_all()


@pytest.mark.parametrize("experiment,fields,expected", CELLS,
                         ids=[c[0] for c in CELLS])
def test_traced_cells_record_every_stage(probe, experiment, fields, expected):
    spec = ExperimentSpec(experiment=experiment, trials=1, seed=1, **fields)
    run_experiment(spec, workers=1)
    (cell,) = probe.collect()
    assert cell["error"] is None
    names = {span["name"] for span in cell["spans"]}
    assert expected <= names, sorted(expected - names)
