"""Spatially non-stationary near-field multi-carrier channel synthesis.

A channel realization is a superposition of paths. Each path carries a
complex gain, a reference (distance, angle) seen from the array center, and
a non-negative per-element mask that is zero outside the path's visibility
region (BS-VR) and encodes spherical-wave amplitude taper plus, for paths
obstructed by a knife edge, diffraction ripple.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .diffraction import (
    Obstacle,
    diffraction_gain,
    diffraction_geometry,
    max_diffraction_intensity,
)

IDEAL = "ideal"
NONIDEAL = "nonideal"
_MAX_RESAMPLE = 100   # Markov redraws before one visible block is forced


class MaskConfigurationError(ValueError):
    """Diffraction intensity violates the mask positivity bound."""


@dataclass
class VisibilityMask:
    """Per-element mask of one path: its weights and their support (the VR)."""

    s: np.ndarray         # non-negative weights, len N
    support: np.ndarray   # bool, len N; s == 0 outside


@dataclass
class PathParams:
    """One propagation path between a UE/scatterer and the array."""

    g: complex
    r: float
    theta: float
    kind: str = IDEAL
    obstacle: Obstacle | None = None
    t_d: float = 0.0
    mask: VisibilityMask | None = None

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise ValueError(f"path distance must be positive, got {self.r}")
        if not (-np.pi < self.theta < np.pi):
            raise ValueError(f"theta must lie in (-pi, pi), got {self.theta}")
        if self.kind not in (IDEAL, NONIDEAL):
            raise ValueError(f"unknown path kind {self.kind!r}")
        if (self.obstacle is not None) != (self.kind == NONIDEAL):
            raise ValueError("obstacle must be present iff kind is non-ideal")


@dataclass
class ChannelRealization:
    """Channel matrix, the paths it superposes and their VR breakpoints."""

    H: np.ndarray                   # (N, M) complex, column m = subcarrier m
    paths: list[PathParams]
    truth_breakpoints: np.ndarray   # 1-based, sorted, starts at 1, ends at N+1


def element_distances(r: float, theta: float, cfg: SystemConfig) -> np.ndarray:
    """Distance from the source at (r, theta) to every array element, by the
    law of cosines sqrt(r^2 + (delta_n d)^2 - 2 delta_n d r sin(theta))."""
    if r <= 0:
        raise ValueError(f"distance must be positive, got {r}")
    a = cfg.delta_n * cfg.d
    return np.sqrt(r**2 + a**2 - 2.0 * a * r * np.sin(theta))


def ideal_mask(path: PathParams, cfg: SystemConfig) -> np.ndarray:
    """Spherical-wave amplitude taper r / r_n for an unobstructed path."""
    if path.kind != IDEAL:
        raise ValueError("ideal_mask requires an ideal path")
    r_n = element_distances(path.r, path.theta, cfg)
    return path.r / r_n


def nonideal_mask(path: PathParams, cfg: SystemConfig) -> np.ndarray:
    """Mask of a knife-edge-obstructed path: (r / r_n) [t_d (sqrt(A_n)-1) + 1].

    t_d scales the diffraction ripple and must satisfy
    t_d < 1 / (1 - min_n A_n) so the mask stays positive.
    """
    if path.kind != NONIDEAL or path.obstacle is None:
        raise ValueError("nonideal_mask requires a non-ideal path with an obstacle")
    _, _, _, nu = diffraction_geometry(path.obstacle, path.theta, cfg)
    a_n = diffraction_gain(nu)
    bound = max_diffraction_intensity(a_n)
    if path.t_d >= bound:
        raise MaskConfigurationError(
            f"t_d = {path.t_d:.4g} violates the positivity bound {bound:.4g}"
        )
    r_n = element_distances(path.r, path.theta, cfg)
    return (path.r / r_n) * (path.t_d * (np.sqrt(a_n) - 1.0) + 1.0)


def _expand_blocks(states: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Repeat block states to element resolution (last block may be short)."""
    full = np.repeat(states.astype(bool), cfg.SI_min)
    return full[: cfg.N]


def sample_vr(
    path: PathParams,
    cfg: SystemConfig,
    rng: np.random.Generator,
    p_stay_visible: float = 0.8,
    p_stay_blocked: float = 0.8,
    p_init_visible: float | None = None,
    power_threshold: float = 0.1,
) -> VisibilityMask:
    """Draw the path's visibility region and build its mask.

    Ideal paths: block-level first-order Markov chain over ceil(N / SI_min)
    blocks of SI_min elements, redrawn until at least one block is visible.
    Non-ideal paths: the VR is the set of elements whose mask exceeds
    power_threshold times the mask maximum (no stochastic birth-death).
    """
    if not (0.0 <= p_stay_visible <= 1.0 and 0.0 <= p_stay_blocked <= 1.0):
        raise ValueError("Markov probabilities must lie in [0, 1]")

    if path.kind == NONIDEAL:
        s_full = nonideal_mask(path, cfg)
        support = s_full > power_threshold * np.max(s_full)
        return VisibilityMask(s=np.where(support, s_full, 0.0), support=support)

    b_si = cfg.n_blocks_si
    p_vb = 1.0 - p_stay_visible
    p_bv = 1.0 - p_stay_blocked
    if p_init_visible is None:
        p_init_visible = 0.5 if p_vb + p_bv == 0 else p_bv / (p_vb + p_bv)

    states = np.zeros(b_si, dtype=bool)
    for _ in range(_MAX_RESAMPLE):
        states[0] = rng.random() < p_init_visible
        for b in range(1, b_si):
            stay = p_stay_visible if states[b - 1] else 1.0 - p_stay_blocked
            states[b] = rng.random() < stay
        if states.any():
            break
    else:
        warnings.warn(
            "visibility chain produced only blocked states; forcing one "
            "visible block", RuntimeWarning, stacklevel=2,
        )
        states[rng.integers(b_si)] = True

    support = _expand_blocks(states, cfg)
    return VisibilityMask(s=np.where(support, ideal_mask(path, cfg), 0.0),
                          support=support)


def path_channel(path: PathParams, cfg: SystemConfig) -> np.ndarray:
    """(N, M) contribution of one path: g e^{-j k_m r} b(r, theta; f_m) .* s.

    b(r, theta; f) = exp(-j k_f (r_n - r)) / sqrt(N) is the unit-norm
    near-field array response at frequency f. The path must carry its mask.
    """
    if path.mask is None:
        raise ValueError("path has no visibility mask; draw one with sample_vr")
    r_n = element_distances(path.r, path.theta, cfg)
    k_m = np.asarray(cfg.wavenumber(cfg.subcarrier_freqs))
    # g e^{-j k_m r} exp(-j k_m (r_n - r)) / sqrt(N) = g exp(-j k_m r_n) / sqrt(N)
    phases = np.exp(-1j * np.outer(r_n, k_m))
    return (path.g / np.sqrt(cfg.N)) * phases * path.mask.s[:, None]


def breakpoints_from_masks(paths: list[PathParams], cfg: SystemConfig) -> np.ndarray:
    """1-based indices where the visible-path set changes, plus 1 and N+1."""
    supports = np.stack([p.mask.support for p in paths])
    changed = np.any(supports[:, 1:] != supports[:, :-1], axis=0)
    interior = np.flatnonzero(changed) + 2  # change between n-1 and n -> n
    return np.concatenate(([1], interior, [cfg.N + 1])).astype(int)


def assemble_channel(cfg: SystemConfig, paths: list[PathParams]) -> ChannelRealization:
    """Superpose the per-path contributions of masked paths; column m of H
    is the channel at subcarrier f_m."""
    if not paths:
        raise ValueError("assemble_channel requires at least one path")
    H = np.zeros((cfg.N, cfg.M), dtype=complex)
    for p in paths:
        H += path_channel(p, cfg)
    return ChannelRealization(H=H, paths=paths,
                              truth_breakpoints=breakpoints_from_masks(paths, cfg))
