"""End-to-end composition: generate, measure power, segment, allocate,
receive, decouple, estimate, score."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .bcrb import bcrb_bound
from .channel import ChannelRealization
from .config import SystemConfig, lookup
from .dhbf import (
    SubarrayObservations,
    build_combiners,
    decouple,
    make_allocation,
    prune_subarrays,
    simulate_reception,
)
from .estimator import (
    EstimatorConfig,
    PosteriorState,
    absbl_mmv,
    absbl_per_column,
    dft_codebook,
    offgrid_refine,
    somp_baseline,
)
from .segmentation import (
    SegmentationResult,
    afm_segment,
    from_breakpoints,
    pass_segment,
    rfem_segment,
)


# architecture -> RF-chain allocation strategy; None: one fully connected array
_ALLOCATION: dict[str, str | None] = {
    "dhbf_mef_gaa": "mef_gaa",
    "dhbf_random": "random",
    "fully_connected": None,
}
ARCHITECTURES = tuple(_ALLOCATION)
# detector -> segmentation of a power profile under the window w
DETECTORS: dict[str, Callable[[np.ndarray, int], SegmentationResult]] = {
    "pass": lambda profile, w: pass_segment(profile, w),
    "rfem": lambda profile, w: rfem_segment(profile),
    "afm": lambda profile, w: afm_segment(profile, fit_width=w // 2),
}


def measurement_noise_variance(H: np.ndarray, snr_db: float) -> float:
    """Noise variance giving the requested per-measurement SNR.

    With unit-norm combiner rows of i.i.d. phases, the mean measurement
    signal power equals the mean per-element channel power, so
    sigma_n^2 = mean |H|^2 * 10^(-SNR/10).
    """
    mean_power = float(np.mean(np.abs(H) ** 2))
    return mean_power * 10.0 ** (-snr_db / 10.0)


def measure_power(chan: ChannelRealization, rng: np.random.Generator,
                  snr_db: float) -> np.ndarray:
    """Per-element power profile |sum_m (h_nm + w_nm)|^2 at the given SNR."""
    sigma2 = measurement_noise_variance(chan.H, snr_db)
    # one complex array takes both draws, the real parts first, and then
    # the scaling and H in place
    y = np.empty(chan.H.shape, dtype=complex)
    y.real = rng.standard_normal(chan.H.shape)
    y.imag = rng.standard_normal(chan.H.shape)
    y *= np.sqrt(sigma2 / 2.0)
    y += chan.H
    return np.abs(y.sum(axis=1)) ** 2


def _quartered(truth: np.ndarray, n: int) -> np.ndarray:
    """The truth with every segment cut at its rounded quarter points."""
    quarters = np.round(np.arange(1, 4) * np.diff(truth)[:, None] / 4)
    return np.concatenate([truth, (truth[:-1, None] + quarters.astype(int)).ravel()])


def _fixed(split: Callable[[np.ndarray, int], np.ndarray]) -> Callable:
    """A variant that cuts the array at split(truth, N), whatever the profile."""
    return lambda profile, chan, cfg: from_breakpoints(
        split(chan.truth_breakpoints, cfg.N), cfg.N)


# segmentation variant -> segmentation from (profile, chan, cfg). pass: the
# detector's output; oracle: the ground-truth breakpoints; equal4: a uniform
# 4-way split; under: oracle with every other interior point dropped; over:
# oracle with each segment quartered.
_SEGMENTATIONS: dict[str, Callable[..., SegmentationResult]] = {
    "pass": lambda profile, chan, cfg: pass_segment(profile, cfg.SI_min),
    "oracle": _fixed(lambda truth, n: truth),
    "equal4": _fixed(lambda truth, n: np.linspace(0, n, 5).round().astype(int) + 1),
    "under": _fixed(lambda truth, n: truth[2:-1:2]),
    "over": _fixed(_quartered),
}
SEGMENTATION_VARIANTS = tuple(_SEGMENTATIONS)


@dataclass
class TrialMeasurement:
    """Everything the estimators need for one pilot-phase trial: the scene,
    each subarray's decoupled observations, the noise variance, and, per
    subarray, its DFT dictionary D (`dft_codebook`) and sensing matrix
    Psi = Phi D. The pairs are built once, with the measurement, and shared
    by every algorithm, the convergence trace and the genie-aided bound."""

    chan: ChannelRealization
    observations: list[SubarrayObservations]
    sigma2: float
    dictionaries: list[tuple[np.ndarray, np.ndarray]]


def measure_scene(
    chan: ChannelRealization,
    cfg: SystemConfig,
    rng: np.random.Generator,
    snr_db: float,
    architecture: str = "dhbf_mef_gaa",
    seg_variant: str = "pass",
    profile: np.ndarray | None = None,
) -> TrialMeasurement:
    """Run power measurement, segmentation, allocation, reception, decoupling."""
    strategy = lookup(_ALLOCATION, "architecture", architecture)
    segment = lookup(_SEGMENTATIONS, "segmentation variant", seg_variant)
    sigma2 = measurement_noise_variance(chan.H, snr_db)
    if strategy is None:
        seg = from_breakpoints([], cfg.N)
        alloc = make_allocation(seg, [0], cfg.N_RF, strategy="mef_gaa")
    else:
        if profile is None:
            profile = measure_power(chan, rng, snr_db)
        seg = segment(profile, chan, cfg)
        # twice the power-profile noise floor, capped so the strongest
        # subarray always survives at low SNR
        strongest = max(float(np.mean(profile[e])) for e in seg.subarrays)
        eta = min(2.0 * cfg.M * sigma2, 0.5 * strongest)
        on_mode = prune_subarrays(profile, seg, eta)
        alloc = make_allocation(seg, on_mode, cfg.N_RF, strategy=strategy, rng=rng)
    plan = build_combiners(alloc, cfg, rng, sigma2)
    y = simulate_reception(chan.H, plan, rng)
    obs = decouple(y, plan)
    books = [dft_codebook(o.elements.size) for o in obs]
    return TrialMeasurement(chan=chan, observations=obs, sigma2=sigma2,
                            dictionaries=[(d, o.phi @ d) for o, d in zip(obs, books)])


def _absbl(y, psi, sigma2, cfg):
    return absbl_mmv(y, psi, sigma2, cfg)


def _absbl_per_subcarrier(y, psi, sigma2, cfg):
    return absbl_per_column(y, psi, sigma2, cfg)[0], None


def _bsbl_per_subcarrier(y, psi, sigma2, cfg):
    return absbl_per_column(y, psi, sigma2, cfg, scalar_gamma=True)[0], None


def _somp(y, psi, sigma2, cfg):
    """SOMP stopped once the residual reaches the noise floor; no posterior."""
    rel_noise = np.sqrt(y.size * sigma2) / max(np.linalg.norm(y), 1e-300)
    x_hat = somp_baseline(y, psi, residual_tol=min(1.0, float(rel_noise)))
    return x_hat, None


class _Algorithm(NamedTuple):
    """How an estimator name maps onto a learner.

    learner(Y, Psi, sigma2, cfg) -> (X, PosteriorState | None) is one call
    over all subcarriers of a subarray. Only the joint learner returns its
    posterior; the per-subcarrier learners fit every subcarrier on its own,
    as one batched run, and return None. off_grid refines the selected grid
    angles afterwards.
    """

    learner: Callable
    off_grid: bool


# The learners look the estimators up by module-global name at call time,
# so a wrapper installed on a module attribute sees every call.
_ALGORITHMS: dict[str, _Algorithm] = {
    "ss_absbl_mmv": _Algorithm(_absbl, off_grid=False),
    "ss_absbl": _Algorithm(_absbl_per_subcarrier, off_grid=False),
    "ss_bsbl": _Algorithm(_bsbl_per_subcarrier, off_grid=False),
    "ss_somp": _Algorithm(_somp, off_grid=False),
    "ss_og_absbl_mmv": _Algorithm(_absbl, off_grid=True),
}
ESTIMATORS = tuple(_ALGORITHMS)


def estimate_channel(
    meas: TrialMeasurement,
    algorithm: str,
    est_cfg: EstimatorConfig | None = None,
) -> tuple[np.ndarray, list[PosteriorState | None]]:
    """Assemble the full-array estimate from per-subarray runs.

    Also returns, per subarray, the posterior of the joint learner's single
    run (None for SOMP and the per-subcarrier learners), from which the
    convergence trace is read. The receiver knows its own noise floor, so
    every learner takes the true sigma2 as a fixed input.
    """
    algo = lookup(_ALGORITHMS, "algorithm", algorithm)
    h_hat = np.zeros_like(meas.chan.H)
    states = []
    for obs, (d, psi) in zip(meas.observations, meas.dictionaries):
        x_hat, state = algo.learner(obs.y, psi, meas.sigma2, est_cfg)
        h_hat[obs.elements] = (offgrid_refine(obs.y, obs.phi, d, x_hat, est_cfg)
                               if algo.off_grid else d @ x_hat)
        states.append(state)
    return h_hat, states


def bcrb_nmse_bound(meas: TrialMeasurement) -> float:
    """Genie-aided BCRB on the NMSE of this measurement; it fits nothing.

    Subarray k's true angular coefficients X_k = D^H H[elements_k] set its
    prior V_k = diag(mean_m |X_k|^2): the per-atom variances a block-sparse
    learner that knew its prior would hold. Each observed subarray adds M
    times the trace of its posterior covariance under that prior
    (`bcrb_bound`). Elements no subarray observes (pruned subarrays) add
    their full energy ||H[e]||^2, since the BCRB of a coefficient no
    measurement reaches is its prior variance, and D is unitary. The sum is
    normalized by ||H||^2.

    The prior is drawn from this realization, so the bound holds for the
    mean NMSE over trials, not for every trial.
    """
    H = meas.chan.H
    unobserved = np.ones(H.shape[0], dtype=bool)
    total = 0.0
    for obs, (d, psi) in zip(meas.observations, meas.dictionaries):
        x = d.conj().T @ H[obs.elements]
        v_s = np.diag(np.mean(np.abs(x) ** 2, axis=1))
        total += bcrb_bound(psi, v_s, meas.sigma2, m_count=H.shape[1])
        unobserved[obs.elements] = False
    total += float(np.sum(np.abs(H[unobserved]) ** 2))
    denom = float(np.linalg.norm(H) ** 2)
    return total / denom if denom > 0 else float("nan")
