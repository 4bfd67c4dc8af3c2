"""Single knife-edge diffraction: Fresnel integrals, gain, per-element geometry.

The obstacle is a sharp edge between the array and the UE. Its position is
described by reference-link parameters (h_ref, d1_ref, d2_ref): clearance of
the edge above/below the line from the array reference point to the UE, and
the distances from the reference point and the UE to the edge plane. The
per-element quantities follow from closed-form geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig


def fresnel_cs(v: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Fresnel cosine and sine integrals C(v), S(v).

    C(v) = int_0^v cos(pi t^2 / 2) dt, S(v) = int_0^v sin(pi t^2 / 2) dt.
    Backed by scipy.special's vectorized Cephes rational approximations
    (absolute error well below 1e-9; validated against adaptive quadrature
    in the tests). SciPy is imported on the first call, not with the
    package: a scene without a knife edge never loads it.
    """
    from scipy import special
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("fresnel_cs requires finite input")
    # scipy returns (S, C)
    s, c = special.fresnel(v)
    return c, s


def diffraction_gain(v: np.ndarray | float) -> np.ndarray | float:
    """Knife-edge power gain A(v) = 1/4 [(1 - C - S)^2 + (C - S)^2].

    A -> 1 for v -> -inf (unobstructed), A(0) = 0.25 (grazing edge), and
    A decays monotonically for v in [0, 3].
    """
    c, s = fresnel_cs(v)
    return 0.25 * ((1.0 - c - s) ** 2 + (c - s) ** 2)


class GeometryInfeasibleError(ValueError):
    """The edge does not lie between an array element and the UE."""


@dataclass(frozen=True)
class Obstacle:
    """Knife-edge position relative to the reference link."""

    h_ref: float    # edge clearance at the reference link [m]; sign = above/below
    d1_ref: float   # reference point -> edge plane [m]
    d2_ref: float   # edge plane -> UE [m]

    def __post_init__(self) -> None:
        if self.d1_ref <= 0 or self.d2_ref <= 0:
            raise ValueError("d1_ref and d2_ref must be positive")


def diffraction_geometry(
    obstacle: Obstacle, theta: float, cfg: SystemConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-element knife-edge parameters (h_n, d1_n, d2_n, nu_n).

    theta is the angle of the UE seen from the reference point. Element n
    sits where the channel puts it, at `SystemConfig.delta_n` d along the
    array axis. The closed forms read its mirror offset delta = -delta_n d
    and q_n = d1_ref + d2_ref + delta sin(theta); d1_n carries a
    second-order expansion of the element-to-UE distance. nu_n is the
    Fresnel-Kirchhoff parameter h_n * sqrt(2 (d1_n + d2_n) / (lambda d1_n d2_n)).
    """
    h_ref, d1_ref, d2_ref = obstacle.h_ref, obstacle.d1_ref, obstacle.d2_ref
    delta = -cfg.delta_n * cfg.d
    dsin = delta * np.sin(theta)
    q = d1_ref + d2_ref + dsin
    dcos = delta * np.cos(theta)
    denom = np.sqrt(q**2 + dcos**2)

    h = (h_ref * q + d2_ref * dcos) / denom
    d2 = (d2_ref * q - h_ref * dcos) / denom
    d1 = (d1_ref + d2_ref) + dsin + dcos**2 / (2.0 * (d1_ref + d2_ref)) - d2

    if np.any(d1 <= 0) or np.any(d2 <= 0):
        raise GeometryInfeasibleError(
            "knife edge is not between the array and the UE for some element"
        )
    nu = h * np.sqrt(2.0 * (d1 + d2) / (cfg.wavelength * d1 * d2))
    return h, d1, d2, nu


def max_diffraction_intensity(a_n: np.ndarray) -> np.ndarray | float:
    """Largest t_d keeping an obstructed path's mask positive: 1 / (1 - min A_n)
    over the last axis of a_n (one value per path), inf where min A_n >= 1."""
    a_min = np.min(a_n, axis=-1)
    with np.errstate(divide="ignore"):
        return np.where(a_min < 1.0, 1.0 / (1.0 - a_min), np.inf)[()]
