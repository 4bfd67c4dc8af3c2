"""Spatially non-stationary near-field multi-carrier channel synthesis.

A channel realization is a superposition of paths, and a drawn scene is
three arrays over its paths: gains (one complex gain per path), masks and
distances (one row of N per path). A path's mask holds non-negative
per-element weights that are zero outside the path's visibility region
(BS-VR), so that the VR is where the mask is positive. The weights encode
spherical-wave amplitude taper plus, for paths obstructed by a knife edge,
diffraction ripple. The path's distance row holds its element distances
r_n, through which alone its angle enters.

Synthesis evaluates each path on its VR alone, where its mask is positive,
and all paths in one pass: the visible (path, element) pairs are gathered
from the masks, and each element's contributions are added in path order.
Across the uniform subcarrier grid each contribution's phase is a
geometric sequence, so every pair takes two complex exponentials, the first
subcarrier's and the step between subcarriers, whatever M is
(`assemble_channel`). The scenario sampler computes the element
distances of all its paths as one array (`element_distances`) and hands
them, and the obstructed paths' diffraction gains, to `mask_weights` (the
one mask formula), whose rows `scenario.apply_vr` cuts to their VRs, and
to the assembly; the element offsets and subcarrier grid are built once
per `SystemConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .diffraction import max_diffraction_intensity


class MaskConfigurationError(ValueError):
    """Diffraction intensity violates the mask positivity bound."""


@dataclass
class ChannelRealization:
    """Channel matrix and its truth breakpoints: where the set of paths
    whose mask is positive changes along the array."""

    H: np.ndarray                   # (N, M) complex, column m = subcarrier m
    truth_breakpoints: np.ndarray   # 1-based, sorted, starts at 1, ends at N+1


def element_distances(r, theta, cfg: SystemConfig) -> np.ndarray:
    """Distances from sources at (r, theta) to every array element, by the
    law of cosines sqrt(r^2 + (delta_n d)^2 - 2 delta_n d r sin(theta)):
    (N,) for one source, (P, N) for P-vectors r and theta."""
    r = np.asarray(r, dtype=float)[..., None]
    if np.any(r <= 0):
        raise ValueError(f"distance must be positive, got {r.ravel()}")
    # each r^2 is Python's float power of its own distance, as a per-path
    # evaluation takes it; numpy's r * r differs in about 1 of 1,100 draws
    r_sq = np.reshape([x**2 for x in r.ravel().tolist()], r.shape)
    sin = np.sin(np.asarray(theta, dtype=float))[..., None]
    a = cfg.delta_n * cfg.d
    return np.sqrt(r_sq + a**2 - 2.0 * a * r * sin)


def mask_weights(r, r_n: np.ndarray, t_d, a_n: np.ndarray | None) -> np.ndarray:
    """The masks before their VR of paths at reference distances r with
    element distances r_n (one path: floats and (N,) rows; P paths: (P, 1)
    columns and (P, N) rows): the spherical-wave taper r / r_n, and
    (r / r_n) [t_d (sqrt(A_n) - 1) + 1] for paths that a knife edge
    obstructs, which are paths with per-element diffraction gains a_n
    (None for unobstructed paths, whose t_d is not read).

    t_d scales the diffraction ripple and must satisfy
    t_d < 1 / (1 - min_n A_n) on every path so the mask stays positive.
    """
    taper = r / r_n
    if a_n is None:
        return taper
    bound = max_diffraction_intensity(a_n)
    if np.any(np.ravel(t_d) >= bound):
        raise MaskConfigurationError(
            f"t_d = {np.ravel(t_d)} violates the positivity bound {bound}")
    return taper * (t_d * (np.sqrt(a_n) - 1.0) + 1.0)


def breakpoints_from_masks(masks: np.ndarray) -> np.ndarray:
    """1-based indices where the visible-path set of the (paths, N) masks
    changes, plus 1 and N+1."""
    supports = masks > 0
    changed = np.any(supports[:, 1:] != supports[:, :-1], axis=0)
    interior = np.flatnonzero(changed) + 2  # change between n-1 and n -> n
    return np.concatenate(([1], interior, [masks.shape[1] + 1])).astype(int)


def assemble_channel(cfg: SystemConfig, gains: np.ndarray, masks: np.ndarray,
                     distances: np.ndarray) -> ChannelRealization:
    """Superpose the masked paths; column m of H is the channel at
    subcarrier f_m.

    Path p adds g e^{-j k_m r} b(r, theta; f_m) .* s, which is
    g exp(-j k_m r_n) s_n / sqrt(N), where b(r, theta; f) =
    exp(-j k_f (r_n - r)) / sqrt(N) is the unit-norm near-field array
    response at frequency f. The sum runs over the elements where s_n != 0
    only. Row p of masks is path p's mask s and row p of distances its
    element distances r_n (`element_distances`); gains[p] is its g.

    The phases come from their subcarrier recurrence: the grid
    `SystemConfig.subcarrier_freqs` is uniform, f_m = f_1 + (m - 1) B / M,
    so exp(-j k_m r_n) = exp(-j k_1 r_n) w^(m - 1) with the step
    w = exp(-j Delta_k r_n), Delta_k = 2 pi (B / M) / c. Subcarrier 1 is the
    direct formula; each next one takes one complex multiplication per
    contribution (with B = 0 the step is exactly 1). H lies within
    1e-10 max|H| of the per-subcarrier exponentials exp(-j k_m r_n): both
    are limited by the rounding of the arguments k_m r_n (about 6e4 rad at
    28 GHz and 100 m), which the recurrence incurs once and the direct
    formula once per subcarrier.
    """
    # flat indices of the visible pairs, path-major: each element's paths
    # in order, and each path's pairs in one run
    pair = np.flatnonzero(masks)
    elem = pair % cfg.N
    r_n = distances.ravel()[pair]
    k_1 = cfg.wavenumber(cfg.subcarrier_freqs[0])
    z = (np.repeat(gains / np.sqrt(cfg.N), np.count_nonzero(masks, axis=1))
         * np.exp(-1j * (r_n * k_1)) * masks.ravel()[pair])
    step = np.exp(-1j * (r_n * cfg.wavenumber(cfg.B / cfg.M))) if cfg.M > 1 else None
    H = np.empty((cfg.N, cfg.M), dtype=complex)
    for m in range(cfg.M):
        if m:
            z *= step
        # bincount adds each bin's weights in input order: path order
        H.real[:, m] = np.bincount(elem, z.real, cfg.N)
        H.imag[:, m] = np.bincount(elem, z.imag, cfg.N)
    return ChannelRealization(H=H, truth_breakpoints=breakpoints_from_masks(masks))
