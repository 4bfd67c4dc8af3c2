"""Timing wrappers installed from outside the program.

The program looks up its module-level functions at call time, so replacing
``snschan.<module>.<name>`` (and every ``from .x import name`` binding of the
same object in other ``snschan`` modules) with a wrapper times each call
without touching ``src/``.

Two levels:

* the cell probe, always installed, wraps ``experiments.run_single_trial``:
  it records each (sweep value, trial) cell's wall time, its returned
  records and any exception; with a calibration interval it also times the
  host-speed kernel (``hostspeed.py``) before a cell when the last
  calibration is older than the interval, outside the cell's time, and
  records the last calibration with the cell;
* the layer tracer, installed only for traced rounds, wraps the public
  functions of ``scenario``, ``pipeline``, ``segmentation``, ``dhbf``,
  ``estimator`` and ``bcrb`` and records one span per call (name, duration,
  self time, parent span, and a few counters read from the arguments and
  the result).

Cells may run in forked pool workers, so each process appends one JSON line
per cell, with that cell's spans, to ``cells-<pid>.jsonl`` in a scratch
directory; the parent collects and removes the files after each round.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import math
import time
from pathlib import Path

import hostspeed


def _absbl_counters(args, kwargs, out):
    y = args[0] if args else kwargs["Y"]
    state = out[1]
    return {"cols": int(y.shape[1]), "p_eff": int(y.shape[0]),
            "iterations": int(state.iterations),
            "converged": bool(state.converged),
            "active_frac": len(state.active) / max(len(state.gamma), 1)}


def _estimate_counters(args, kwargs, out):
    return {"algorithm": args[1] if len(args) > 1 else kwargs["algorithm"]}


def _pass_counters(args, kwargs, out):
    return {"subarrays": int(out.n_subarrays)}


def _prune_counters(args, kwargs, out):
    seg = args[1] if len(args) > 1 else kwargs["seg"]
    n = seg.n_subarrays
    return {"pruned_frac": 1.0 - len(out) / n if n else 0.0}


def _decouple_counters(args, kwargs, out):
    rows = [obs.y.shape[0] for obs in out if obs.y.shape[0] > 0]
    return {"p_eff_sum": int(sum(rows)), "p_eff_n": len(rows)}


# (module, function, counters read from (args, kwargs, result) or None)
LAYERS = (
    ("scenario", "generate_scenario", None),
    ("pipeline", "measure_scene", None),
    ("pipeline", "measure_power", None),
    ("pipeline", "estimate_channel", _estimate_counters),
    ("pipeline", "bcrb_nmse_bound", None),
    ("segmentation", "pass_segment", _pass_counters),
    ("segmentation", "rfem_segment", None),
    ("segmentation", "afm_segment", None),
    ("segmentation", "auc_score", None),
    ("dhbf", "prune_subarrays", _prune_counters),
    ("dhbf", "make_allocation", None),
    ("dhbf", "build_combiners", None),
    ("dhbf", "simulate_reception", None),
    ("dhbf", "decouple", _decouple_counters),
    ("estimator", "absbl_mmv", _absbl_counters),
    ("estimator", "update_gamma", None),
    ("estimator", "update_p_alm", None),
    ("estimator", "bsbl_baseline", None),
    ("estimator", "offgrid_refine", None),
    ("estimator", "somp_baseline", None),
    ("bcrb", "bcrb_bound", None),
)


class Probe:
    """Installs and removes the wrappers and collects what they record."""

    def __init__(self, out_dir: Path, cal_interval_s: float | None = None):
        self.out_dir = Path(out_dir)
        self.cal_interval_s = cal_interval_s
        self.cal: float | None = None     # last calibration, kernel seconds
        self._cal_at = -math.inf
        self._stack: list[list] = []      # open spans: [name, child seconds]
        self._spans: list[dict] = []      # closed spans of the current cell
        self._patched: list[tuple] = []   # (module, attribute, original)
        self._cell_patch: list[tuple] = []

    def calibrate(self) -> float:
        self.cal = hostspeed.calibrate()
        self._cal_at = time.perf_counter()
        return self.cal

    # -- installing -----------------------------------------------------
    def _replace(self, original, wrapper) -> list[tuple]:
        """Point every snschan module binding of ``original`` at ``wrapper``."""
        done = []
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "snschan" or mod_name.startswith("snschan.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    done.append((mod, attr, original))
        return done

    def install_cell_probe(self) -> None:
        import snschan.experiments as ex

        original = ex.run_single_trial
        self._cell_patch = self._replace(original, self._cell_wrapper(original))

    def install_layers(self) -> None:
        import importlib

        for mod_name, fn_name, counters in LAYERS:
            mod = importlib.import_module(f"snschan.{mod_name}")
            original = getattr(mod, fn_name)
            wrapper = self._span_wrapper(f"{mod_name}.{fn_name}", original,
                                         counters)
            self._patched += self._replace(original, wrapper)

    def remove_layers(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def remove_all(self) -> None:
        self.remove_layers()
        for mod, attr, original in reversed(self._cell_patch):
            setattr(mod, attr, original)
        self._cell_patch = []

    # -- wrappers -------------------------------------------------------
    def _span_wrapper(self, name, fn, counters):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = probe._stack[-1][0] if probe._stack else None
            probe._stack.append([name, 0.0])
            t0 = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                dt = time.perf_counter() - t0
                _, child = probe._stack.pop()
                if probe._stack:
                    probe._stack[-1][1] += dt
                span = {"name": name, "ms": dt * 1e3,
                        "self_ms": (dt - child) * 1e3, "parent": parent}
                if counters is not None and out is not None:
                    span.update(counters(args, kwargs, out))
                probe._spans.append(span)

        return wrapper

    def _cell_wrapper(self, fn):
        probe = self

        @functools.wraps(fn)
        def wrapper(spec, sweep_idx, trial):
            probe._spans = []
            probe._stack = []
            line = {"sweep_idx": sweep_idx, "trial": trial, "records": None,
                    "error": None, "cal_ms": 0.0}
            if probe.cal_interval_s is not None:
                t_cal = time.perf_counter()
                if t_cal - probe._cal_at >= probe.cal_interval_s:
                    probe.calibrate()
                    line["cal_ms"] = (time.perf_counter() - t_cal) * 1e3
                line["cal"] = probe.cal
            t0 = time.perf_counter()
            try:
                line["records"] = fn(spec, sweep_idx, trial)
                return line["records"]
            except Exception as err:
                line["error"] = f"{type(err).__name__}: {err}"
                raise
            finally:
                line["ms"] = (time.perf_counter() - t0) * 1e3
                line["spans"] = probe._spans
                path = probe.out_dir / f"cells-{os.getpid()}.jsonl"
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(line) + "\n")

        return wrapper

    # -- collecting -----------------------------------------------------
    def collect(self) -> list[dict]:
        """Cells recorded since the last call, in (sweep, trial) order."""
        cells = []
        for path in sorted(self.out_dir.glob("cells-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                cells += [json.loads(line) for line in fh]
            path.unlink()
        cells.sort(key=lambda c: (c["sweep_idx"], c["trial"]))
        return cells
