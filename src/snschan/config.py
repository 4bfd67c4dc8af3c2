"""System-level configuration shared by all pipeline stages, and the one
name lookup of their registries."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class SystemConfig:
    """Array, carrier, pilot and RF-chain parameters.

    Element positions follow the centered index convention: element n
    (1-based) sits at offset ``delta_n * d`` along the array axis with
    ``delta_n = (2n - N - 1) / 2``, so the array is symmetric about the
    reference point at its geometric center.

    The config holds no seed: every random stream of an experiment derives
    from its spec's seed alone (`ExperimentSpec.seed_sequence`).
    """

    N: int = 256                 # antenna elements at the BS
    M: int = 5                   # subcarriers
    K: int = 3                   # single-antenna UEs
    L: int = 3                   # paths per UE
    fc: float = 28e9             # carrier frequency [Hz]
    B: float = 100e6             # bandwidth [Hz]
    d: float | None = None       # element spacing [m]; None = half wavelength
    c: float = SPEED_OF_LIGHT    # propagation speed [m/s]
    N_RF: int = 4                # RF chains
    P: int = 32                  # pilot symbols
    SI_min: int = 32             # minimum stationary-interval length [elements]

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        for name in ("M", "K", "L", "N_RF", "P"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.fc <= 0 or self.B < 0 or self.c <= 0:
            raise ValueError("fc and c must be positive, B non-negative")
        if not (1 <= self.SI_min <= self.N):
            raise ValueError(f"SI_min must lie in [1, N], got {self.SI_min}")
        if self.d is None:
            object.__setattr__(self, "d", self.wavelength / 2.0)
        if self.d <= 0:
            raise ValueError(f"element spacing must be positive, got {self.d}")

    @property
    def wavelength(self) -> float:
        return self.c / self.fc

    # the two grids below are built once per config and shared read-only

    @cached_property
    def delta_n(self) -> np.ndarray:
        """Centered element index offsets, (2n - N - 1)/2 for n = 1..N."""
        n = np.arange(1, self.N + 1)
        return _read_only((2 * n - self.N - 1) / 2.0)

    @cached_property
    def subcarrier_freqs(self) -> np.ndarray:
        """Uniform symmetric grid f_m = fc + B(2m - M - 1)/(2M), m = 1..M."""
        m = np.arange(1, self.M + 1)
        return _read_only(self.fc + self.B * (2 * m - self.M - 1) / (2 * self.M))

    def wavenumber(self, f: float | np.ndarray | None = None) -> float | np.ndarray:
        """k_w = 2*pi*f/c (carrier frequency when f is omitted)."""
        if f is None:
            f = self.fc
        return 2.0 * np.pi * np.asarray(f) / self.c

    @property
    def n_blocks_si(self) -> int:
        """Number of SI_min-sized blocks covering the array (last may be short)."""
        return int(np.ceil(self.N / self.SI_min))

    @property
    def aperture(self) -> float:
        """Physical array length (N - 1) * d."""
        return (self.N - 1) * self.d

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        """The config a to_dict document describes; a key that is not a
        field (such as the retired seed) is a ValueError."""
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        return cls(**data)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def lookup(table: dict, what: str, name: str):
    """table[name], or a ValueError that lists the known names."""
    if name not in table:
        raise ValueError(f"unknown {what} {name!r}; known: {list(table)}")
    return table[name]
