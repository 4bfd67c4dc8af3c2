"""Dynamic hybrid beamforming receiver: RF-chain allocation, SS-SM sampling,
pilot reception, and subarray decoupling.

A chain serving several subarrays activates exactly one of them per pilot
slot, cycling through its list; within one cycle the chain reuses one random
unit-modulus analog row, masked to the active subarray and scaled to unit
norm. Decoupling gathers, per subarray, the (chain, slot) entries of the
schedule that activate it, which yields an uncoupled linear observation of
its channel block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import SystemConfig, lookup
from .segmentation import SegmentationResult


class EmptySceneError(RuntimeError):
    """Every subarray fell below the power prune threshold."""


class InfeasiblePilotError(ValueError):
    """Fewer pilot slots than subarrays on some RF chain."""


@dataclass
class RfAllocation:
    """Subarray element sets and their assignment to RF chains."""

    subarrays: list[np.ndarray]   # 0-based element indices per on-mode subarray
    classes: list[list[int]]      # per chain, indices into subarrays


@dataclass
class MeasurementPlan:
    """Per-slot combiners, the SS-SM schedule, and noise level."""

    combiners: np.ndarray        # (P, N_RF, N) complex, unit-norm rows
    schedule: np.ndarray         # (P, N_RF) int, active subarray or -1 (idle)
    alloc: RfAllocation
    noise_variance: float
    effective_pilots: np.ndarray  # per subarray, total measurements


@dataclass
class SubarrayObservations:
    """Decoupled measurements of one subarray."""

    y: np.ndarray          # (T, M)
    phi: np.ndarray        # (T, N_sub) effective combiner
    elements: np.ndarray   # 0-based element indices in the full array


def prune_subarrays(power: np.ndarray, seg: SegmentationResult,
                    eta: float) -> list[int]:
    """Indices of subarrays whose mean element power exceeds eta."""
    if eta < 0:
        raise ValueError("eta must be non-negative")
    power = np.asarray(power, dtype=float)
    on = [i for i, elems in enumerate(seg.subarrays)
          if float(np.mean(power[elems])) > eta]
    if not on:
        raise EmptySceneError("all subarrays pruned; nothing to estimate")
    return on


def mef_gaa(sizes: list[int] | np.ndarray, n_rf: int) -> list[list[int]]:
    """Max-element-first greedy allocation of subarrays to RF chains.

    Subarrays are taken in descending size order and assigned to the class
    with the fewest elements (ties to the lowest class index). With fewer
    subarrays than chains, each subarray first gets a dedicated chain and
    surplus chains are distributed round-robin in descending size order.
    """
    sizes = list(sizes)
    if not sizes or n_rf < 1:
        raise ValueError("need at least one subarray and one RF chain")
    order = sorted(range(len(sizes)), key=lambda j: (-sizes[j], j))
    classes: list[list[int]] = [[] for _ in range(n_rf)]
    n_s = len(sizes)
    if n_s <= n_rf:
        for c, j in enumerate(order):
            classes[c].append(j)
        for extra in range(n_rf - n_s):
            classes[n_s + extra].append(order[extra % n_s])
        return classes
    loads = [0] * n_rf
    for j in order:
        k = loads.index(min(loads))
        classes[k].append(j)
        loads[k] += sizes[j]
    return classes


def random_allocation(sizes: list[int] | np.ndarray, n_rf: int,
                      rng: np.random.Generator | None) -> list[list[int]]:
    """Assign every subarray to a uniformly random chain (chains may idle)."""
    if rng is None:
        raise ValueError("random allocation needs an rng")
    classes: list[list[int]] = [[] for _ in range(n_rf)]
    for j in range(len(sizes)):
        classes[int(rng.integers(n_rf))].append(j)
    return classes


# allocation strategy -> per-chain classes of (sizes, n_rf, rng)
_ALLOCATORS: dict[str, Callable[..., list[list[int]]]] = {
    "mef_gaa": lambda sizes, n_rf, rng: mef_gaa(sizes, n_rf),
    "random": random_allocation,
}


def make_allocation(seg: SegmentationResult, on_mode: list[int],
                    n_rf: int, strategy: str = "mef_gaa",
                    rng: np.random.Generator | None = None) -> RfAllocation:
    """Build an RfAllocation for the on-mode subarrays of a segmentation."""
    allocate = lookup(_ALLOCATORS, "allocation strategy", strategy)
    subarrays = [seg.subarrays[i] for i in on_mode]
    classes = allocate([len(s) for s in subarrays], n_rf, rng)
    return RfAllocation(subarrays=subarrays, classes=classes)


def build_combiners(alloc: RfAllocation, cfg: SystemConfig,
                    rng: np.random.Generator,
                    noise_variance: float) -> MeasurementPlan:
    """Draw per-slot analog combiners realizing the SS-SM schedule.

    Within each chain, one unit-modulus base row with i.i.d. U(0, 2pi) phases
    is drawn per decoupling cycle; slot p masks it to the cyclically active
    subarray and scales the row to unit l2 norm.
    """
    p_total = cfg.P
    ks = [len(cls) for cls in alloc.classes]
    if max(ks) > p_total:
        raise InfeasiblePilotError(
            f"P={p_total} pilots cannot cover a chain serving {max(ks)} subarrays"
        )
    combiners = np.zeros((p_total, len(ks), cfg.N), dtype=complex)
    schedule = np.full((p_total, len(ks)), -1, dtype=int)
    for c, cls in enumerate(alloc.classes):
        if not cls:
            continue
        elems = np.unique(np.concatenate([alloc.subarrays[j] for j in cls]))  # J_c
        masks = [np.isin(elems, alloc.subarrays[j]) for j in cls]
        for p in range(p_total):
            j = p % len(cls)
            if j == 0:
                base = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=elems.size))
            combiners[p, c, elems[masks[j]]] = base[masks[j]] / np.sqrt(masks[j].sum())
            schedule[p, c] = cls[j]
    eff = np.bincount(schedule[schedule >= 0], minlength=len(alloc.subarrays))
    sizes = np.array([s.size for s in alloc.subarrays])
    if np.any(eff[sizes > 0] < 1):
        raise InfeasiblePilotError("some on-mode subarray receives no pilot")
    return MeasurementPlan(combiners=combiners, schedule=schedule, alloc=alloc,
                           noise_variance=noise_variance, effective_pilots=eff)


def simulate_reception(H: np.ndarray, plan: MeasurementPlan,
                       rng: np.random.Generator) -> np.ndarray:
    """Received pilot symbols y[m, p, c] = (U_p (h_m + n_{m,p}))_c.

    Pilot symbols are all one; the additive noise is CN(0, sigma_n^2 I_N) per
    (subcarrier, slot), so each scalar measurement sees CN(0, sigma_n^2)
    noise thanks to the unit-norm combiner rows.
    """
    n, m = H.shape
    p_total, n_rf, n_cols = plan.combiners.shape
    if n_cols != n:
        raise ValueError("plan and channel dimensions disagree")
    y = np.empty((m, p_total, n_rf), dtype=complex)
    sigma = np.sqrt(plan.noise_variance / 2.0)
    for p in range(p_total):
        if plan.noise_variance > 0:
            noise = sigma * (rng.standard_normal((n, m))
                             + 1j * rng.standard_normal((n, m)))
        else:
            noise = 0.0
        y[:, p, :] = ((H + noise).T @ plan.combiners[p].T)
    return y


def decouple(y: np.ndarray, plan: MeasurementPlan) -> list[SubarrayObservations]:
    """Gather each subarray's measurements from the SS-SM schedule.

    Subarray j's rows are the (chain, slot) entries where the schedule
    activates it, in (chain, slot) order: one lookup per subarray, in
    allocation order. Noiseless round trips satisfy y_sub = phi @ h_sub.
    """
    if y.shape[1:] != plan.schedule.shape:
        raise ValueError("observations do not match the plan schedule")
    out: list[SubarrayObservations] = []
    for j, elems in enumerate(plan.alloc.subarrays):
        chain, slot = np.nonzero(plan.schedule.T == j)
        out.append(SubarrayObservations(
            y=y.transpose(1, 2, 0)[slot, chain],
            phi=plan.combiners[slot[:, None], chain[:, None], elems],
            elements=elems))
    return out
