"""System-level configuration shared by all pipeline stages, and the one
name lookup of their registries."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
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
        for name, least in (("N", 2), ("M", 1), ("K", 1), ("L", 1),
                            ("N_RF", 1), ("P", 1), ("SI_min", 1)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        # json.load accepts NaN and Infinity, and every stage needs finite
        # values; a bool would run as 0 or 1 (fc = true is 1 Hz)
        for name, zero_ok in (("fc", False), ("B", True), ("c", False)):
            _check_real(name, getattr(self, name), zero_ok)
        if self.SI_min > self.N:
            raise ValueError(f"SI_min must lie in [1, N], got {self.SI_min}")
        if self.d is None:
            object.__setattr__(self, "d", self.wavelength / 2.0)
        _check_real("d", self.d, False)

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
        """Uniform symmetric grid f_m = fc + B(2m - M - 1)/(2M), m = 1..M.

        Channel synthesis relies on the uniform spacing B/M: it steps each
        phase from subcarrier to subcarrier (`channel.assemble_channel`)."""
        m = np.arange(1, self.M + 1)
        return _read_only(self.fc + self.B * (2 * m - self.M - 1) / (2 * self.M))

    def wavenumber(self, f: float | np.ndarray) -> float | np.ndarray:
        """k_w = 2*pi*f/c."""
        return 2.0 * np.pi * np.asarray(f) / self.c

    @property
    def n_blocks_si(self) -> int:
        """Number of SI_min-sized blocks covering the array (last may be short)."""
        return int(np.ceil(self.N / self.SI_min))


def _check_real(name: str, value, zero_ok: bool) -> None:
    """A ValueError naming the field unless value is a real number (not a
    bool) that is finite and positive, or zero where zero_ok."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not (0 < value < np.inf or zero_ok and value == 0):
        raise ValueError(f"{name} must be finite and "
                         f"{'non-negative' if zero_ok else 'positive'}, got {value!r}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def lookup(table: dict, what: str, name: str):
    """table[name], or a ValueError that lists the known names."""
    if name not in table:
        raise ValueError(f"unknown {what} {name!r}; known: {list(table)}")
    return table[name]
