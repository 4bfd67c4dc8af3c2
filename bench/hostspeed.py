"""The shared host's current speed, from a fixed calibration kernel.

The benchmark's host gives it a few cores of a machine that other tenants
load too. In their busy spells every kind of work here runs up to 1.8x
slower for seconds to minutes at a time, CPU time included. A run cannot
average out a spell that long, but a fixed kernel timed next to the program
slows down by the same factor: over 10 s windows of one unchanged cell, the
cell's time moved by 1.8x while its ratio to this kernel moved by about 7%.

``calibrate()`` times the kernel; ``to_ref_s()`` converts a wall time taken
between two calibrations into reference seconds, the time it would have
taken with the kernel at ``REF_S``. The kernel uses nothing from
``snschan``, so a change to the program moves the converted times exactly as
it moves the raw ones. The closer the calibrations, the better they track:
on one repeated 0.4 s cell, the spread of single cells fell from 14% to 8%
with a calibration before each cell, and to 10-11% with one every 5-10
cells. ``round_ref_s()`` therefore converts cell by cell where the cells
carry their own calibration.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# calibrate() on a 2-vCPU Intel Xeon VM, one BLAS thread, outside the
# host's busy spells; it only scales the reference seconds
REF_S = 0.0050
REPEATS = 5

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((64, 64)) + 1j * _RNG.standard_normal((64, 64))
_X = _RNG.standard_normal((64, 8)) + 1j * _RNG.standard_normal((64, 8))
_EYE = np.eye(64)


def _kernel() -> float:
    """Small complex linear algebra and an interpreted loop, the two kinds
    of work the program's cells are made of."""
    t0 = time.perf_counter()
    for _ in range(14):
        b = _A @ _A.conj().T + _EYE
        np.linalg.cholesky(b)
        np.linalg.solve(b, _X)
        acc = 0
        for i in range(3000):
            acc += i * i
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median seconds of the kernel over a few repeats."""
    return statistics.median(_kernel() for _ in range(REPEATS))


def to_ref_s(wall_s: float, cal_before: float, cal_after: float) -> float:
    """``wall_s``, measured between two calibrations, in reference seconds."""
    return wall_s * REF_S / (0.5 * (cal_before + cal_after))


def round_ref_s(cells: list[dict], wall_s: float, cal_before: float,
                cal_after: float) -> float:
    """Reference seconds of one round of ``wall_s`` (calibrations excluded).

    When every cell carries the last calibration taken before it (``cal``),
    each cell's ``ms`` is converted with that calibration and the next one,
    and the harness time around the cells with the mean of all of them.
    Otherwise the whole round is converted with ``cal_before`` and
    ``cal_after``."""
    cals = [c.get("cal") for c in cells]
    if not cells or None in cals:
        return to_ref_s(wall_s, cal_before, cal_after)
    nexts = cals[1:] + [cal_after]
    cell_s = sum(to_ref_s(c["ms"] / 1e3, a, b)
                 for c, a, b in zip(cells, cals, nexts))
    harness_s = wall_s - sum(c["ms"] for c in cells) / 1e3
    mean_cal = statistics.mean([cal_before, *cals, cal_after])
    return cell_s + to_ref_s(harness_s, mean_cal, mean_cal)
