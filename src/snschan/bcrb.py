"""Bayesian Cramer-Rao lower bound for the linear-Gaussian sparse model.

With prior x_m ~ CN(0, V_s) independent across the M measurement vectors,
observations y_m = Psi x_m + n_m, n ~ CN(0, sigma^2 I), the Bayesian Fisher
information is sigma^-2 Psi^H Psi + V_s^-1 per vector, and the total MSE of
the stacked coefficients is bounded by M times the trace of its inverse.
The posterior mean attains the bound exactly in this model.

The trace is evaluated in covariance form, tr V_s - ||L^-1 Psi V_s||_F^2 with
L L^H = sigma^2 I + Psi V_s Psi^H, which never inverts V_s: a coefficient
with zero prior variance is known exactly and adds nothing, so a singular
prior needs no special case. L^-1 Psi V_s is one triangular solve, LAPACK's
trtrs called through ctypes on the OpenBLAS bundled with SciPy, as
`scipy.linalg.solve_triangular` calls it and with its bytes, so the bound
imports no part of scipy.linalg (`_lower_solve`; where no bundled OpenBLAS
is found, SciPy's f2py wrapper of trtrs takes its place).

The pipeline's NMSE bound (`pipeline.bcrb_nmse_bound`) uses a genie prior:
V_s is the diagonal of per-atom variances of each subarray's true angular
coefficients, averaged over the subcarriers, so no fit enters it. The prior
comes from the realization, so the bound holds for the mean NMSE over
trials, not for every trial. A coefficient that no measurement reaches has
Fisher information V_s^-1 alone, so its bound is its prior variance: the
elements of pruned subarrays count at their full energy.
"""

from __future__ import annotations

import ctypes
from functools import cache

import numpy as np

from . import _openblas


@cache
def _lower_solve():
    """solve(chol, b): b <- L^-1 b in place, for the lower triangle L of the
    C-ordered chol (N, N) and a Fortran-ordered b (N, K). L is a Cholesky
    factor, whose diagonal is positive, so the solve never meets a
    singular L.

    This is LAPACK's trtrs as `scipy.linalg.solve_triangular` calls it on a
    C-ordered L: on the Fortran view of L, which is its transpose, upper
    and transposed. It comes from the OpenBLAS bundled with SciPy through
    ctypes (`_openblas`), or from SciPy's f2py wrapper when none is found."""
    lib = _openblas.library("scipy")
    if lib is None:
        from scipy.linalg.lapack import get_lapack_funcs
        trtrs, = get_lapack_funcs(("trtrs",), (np.zeros(1, dtype=complex),))
        return lambda chol, b: trtrs(chol.T, b, lower=0, trans=1, overwrite_b=1)
    trtrs = _openblas.function(lib, "ztrtrs_", [ctypes.c_void_p] * 10, None)

    def solve(chol, b):
        n, k = (ctypes.byref(ctypes.c_int(d)) for d in b.shape)
        trtrs(b"U", b"T", b"N", n, k, chol.ctypes.data, n, b.ctypes.data, n,
              ctypes.byref(ctypes.c_int()))
    return solve


def bcrb_bound(psi: np.ndarray, v_s: np.ndarray, sigma2: float,
               m_count: int = 1) -> float:
    """M * tr[(sigma^-2 Psi^H Psi + V_s^-1)^-1], exact for singular V_s.

    v_s is the (positive semi-definite) prior covariance of one
    measurement vector.
    """
    if sigma2 <= 0:
        raise ValueError("noise variance must be positive")
    psi = np.asarray(psi, dtype=complex)
    v_s = np.asarray(v_s, dtype=complex)
    psi_v = psi @ v_s
    chol = np.linalg.cholesky(sigma2 * np.eye(psi.shape[0]) + psi_v @ psi.conj().T)
    gain = np.array(psi_v, order="F")             # overwritten with L^-1 Psi V_s
    _lower_solve()(chol, gain)
    return float(m_count * (np.trace(v_s).real - np.linalg.norm(gain) ** 2))
