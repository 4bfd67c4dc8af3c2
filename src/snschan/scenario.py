"""Random scenario sampling.

Every random draw of a scene lives here, visibility regions included
(`sample_vr`), and reads its distribution from one checked `ScenarioOptions`.
A drawn scene is three arrays over its K L paths: gains, masks and element
distances (`sample_paths`), which `channel.assemble_channel` reads as they
are. A scene exists only in memory: the experiments synthesize each one from
its cell's seed, so the same spec gives the same scenes without a stored copy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelRealization,
    assemble_channel,
    element_distances,
    mask_weights,
)
from .config import SystemConfig
from .diffraction import (
    GeometryInfeasibleError,
    Obstacle,
    diffraction_gain,
    diffraction_geometry,
    max_diffraction_intensity,
)


_THETA_RANGE = (-2.0 * np.pi / 3.0, 2.0 * np.pi / 3.0)
_D1_FRAC_RANGE = (0.3, 0.7)   # edge plane at d1 = U(0.3, 0.7) r from the array
_H_REF_LAMBDAS = 5.0          # h_ref ~ U(-5 lambda, 5 lambda)
_MAX_RESAMPLE = 100   # Markov redraws before one visible block is forced


@dataclass(frozen=True)
class ScenarioOptions:
    """Distributions used when drawing random scenarios."""

    r_range: tuple[float, float] = (10.0, 100.0)
    t_d: float = 1.0               # 0: no path is obstructed
    p_nonideal: float = 0.5        # chance that a UE's first path is obstructed
    p_stay_visible: float = 0.8
    p_stay_blocked: float = 0.8
    p_init_visible: float | None = None   # None = stationary distribution
    power_threshold: float = 0.1   # the VR threshold of obstructed paths

    def __post_init__(self) -> None:
        r_min, r_max = self.r_range
        if not 0.0 < r_min <= r_max < np.inf:
            raise ValueError("r_range must lie in (0, inf) with r_min <= r_max, "
                             f"got {self.r_range!r}")
        # sample_paths obstructs no path unless t_d > 0: a negative t_d
        # would run as t_d = 0 under its own label, and true as t_d = 1
        if isinstance(self.t_d, bool) or not 0.0 <= self.t_d < np.inf:
            raise ValueError(f"t_d must lie in [0, inf), got {self.t_d!r}")
        for name in ("p_nonideal", "p_stay_visible", "p_stay_blocked",
                     "p_init_visible"):
            value = getattr(self, name)
            if not (value is None and name == "p_init_visible"
                    or 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if not 0.0 <= self.power_threshold < 1.0:
            raise ValueError("power_threshold must lie in [0, 1), "
                             f"got {self.power_threshold!r}")

    @classmethod
    def full_visibility(cls, **kwargs) -> "ScenarioOptions":
        """No spatial non-stationarity: every path sees the whole array."""
        return cls(t_d=0.0, p_stay_visible=1.0, p_init_visible=1.0, **kwargs)


def _sample_obstacle(r: float, theta: float, cfg: SystemConfig,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw a knife edge on the path; returns its per-element Fresnel-Kirchhoff
    parameters nu_n, whose diffraction gains A_n the caller evaluates."""
    for _ in range(50):
        d1 = rng.uniform(*_D1_FRAC_RANGE) * r
        h_ref = rng.uniform(-_H_REF_LAMBDAS, _H_REF_LAMBDAS) * cfg.wavelength
        obstacle = Obstacle(h_ref=h_ref, d1_ref=d1, d2_ref=r - d1)
        try:
            return diffraction_geometry(obstacle, theta, cfg)[3]
        except GeometryInfeasibleError:
            continue
    raise GeometryInfeasibleError("could not place a knife edge on the path")


def sample_vr(cfg: SystemConfig, rng: np.random.Generator,
              opts: ScenarioOptions) -> list[bool]:
    """Draw the visibility region of a path no knife edge obstructs: the
    visible states of its ceil(N / SI_min) blocks of SI_min elements, in
    block order (`apply_vr` applies them).

    A block-level first-order Markov chain with the stay and initial
    probabilities of opts, redrawn until at least one block is visible.
    """
    b_si = cfg.n_blocks_si
    p_vb = 1.0 - opts.p_stay_visible
    p_bv = 1.0 - opts.p_stay_blocked
    p_init_visible = opts.p_init_visible
    if p_init_visible is None:
        p_init_visible = 0.5 if p_vb + p_bv == 0 else p_bv / (p_vb + p_bv)

    # one uniform per block, in block order: one rng.random(b_si) call per
    # attempt draws the same stream as one scalar call per block
    stay = (p_bv, opts.p_stay_visible)   # by the previous state
    for _ in range(_MAX_RESAMPLE):
        u = rng.random(b_si).tolist()
        states = [u[0] < p_init_visible]
        for u_b in u[1:]:
            states.append(u_b < stay[states[-1]])
        if any(states):
            return states
    warnings.warn(
        "visibility chain produced only blocked states; forcing one "
        "visible block", RuntimeWarning, stacklevel=2,
    )
    states[rng.integers(b_si)] = True
    return states


def apply_vr(weights: np.ndarray, obstructed: np.ndarray,
             states: list[list[bool]], cfg: SystemConfig,
             opts: ScenarioOptions) -> np.ndarray:
    """The masks of P paths whose masks before their VR are the rows of
    weights (P, N) (`channel.mask_weights`): each row's weights on its
    path's visibility region and zero elsewhere.

    obstructed (P,) marks the paths that a knife edge obstructs: their VR
    is the set of elements whose weight exceeds opts.power_threshold times
    the row maximum (no stochastic birth-death). The other rows take, in
    order, the block states of `states` (one `sample_vr` draw each).
    """
    support = np.empty(weights.shape, dtype=bool)
    shadowed = weights[obstructed]
    support[obstructed] = shadowed > opts.power_threshold * np.max(
        shadowed, axis=1, keepdims=True)
    # block states to element resolution (the last block may be short)
    blocks = np.array(states, dtype=bool).reshape(-1, cfg.n_blocks_si)
    support[~obstructed] = np.repeat(blocks, cfg.SI_min, axis=1)[:, : cfg.N]
    return np.where(support, weights, 0.0)


def sample_paths(cfg: SystemConfig, rng: np.random.Generator,
                 opts: ScenarioOptions = ScenarioOptions(),
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw K x L paths with gains CN(0,1) and sampled visibility regions;
    returns their gains (K L,), masks (K L, N) and element distances r_n
    (K L, N), UE by UE.

    At most one path per UE, its first, is obstructed by a knife edge; its
    diffraction intensity is min(opts.t_d, cap) with cap just below the
    geometry's positivity bound. The loop over the paths only draws, in
    path order; the per-element arrays of all paths, the knife edges'
    diffraction gains among them, are computed after it.
    """
    n_paths = cfg.K * cfg.L
    gains = np.empty(n_paths, dtype=complex)
    r, theta = np.empty(n_paths), np.empty(n_paths)
    obstructed = np.zeros(n_paths, dtype=bool)
    nu, states = [], []   # one per obstructed path; one per other path
    for i in range(n_paths):
        gains[i] = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
        r[i] = rng.uniform(*opts.r_range)
        theta[i] = rng.uniform(*_THETA_RANGE)
        if i % cfg.L == 0 and opts.t_d > 0 and rng.random() < opts.p_nonideal:
            obstructed[i] = True
            nu.append(_sample_obstacle(r[i], theta[i], cfg, rng))
        else:
            states.append(sample_vr(cfg, rng, opts))
    distances = element_distances(r, theta, cfg)
    weights = mask_weights(r[:, None], distances, 0.0, None)
    if nu:
        a_n = diffraction_gain(np.stack(nu))
        # random geometries often violate the positivity bound
        # 1/(1 - min_n A_n) for t_d > 1, since the per-element clearance
        # sweeps into deep shadow: cap just below it
        t_d = np.minimum(opts.t_d, 0.99 * max_diffraction_intensity(a_n))
        weights[obstructed] = mask_weights(r[obstructed, None], distances[obstructed],
                                           t_d[:, None], a_n)
    return gains, apply_vr(weights, obstructed, states, cfg, opts), distances


def generate_scenario(cfg: SystemConfig, rng: np.random.Generator,
                      opts: ScenarioOptions = ScenarioOptions(),
                      ) -> ChannelRealization:
    """Sample paths and assemble the channel realization."""
    return assemble_channel(cfg, *sample_paths(cfg, rng, opts))
