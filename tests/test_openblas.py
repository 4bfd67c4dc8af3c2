"""The E-step and the BCRB give the same bytes on either backend.

Both call LAPACK and BLAS on the OpenBLAS bundled with SciPy: through
ctypes when `_openblas` finds the library, and through SciPy's f2py
wrappers of the same routines when it finds none (an MKL or distro SciPy,
or the macOS wheel layout). The fallback is forced here by a lookup that
returns None, with the kernels' caches cleared on the way in and out.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from snschan import _openblas, bcrb, estimator
from snschan.bcrb import bcrb_bound
from snschan.estimator import EstimatorConfig, absbl_mmv, absbl_per_column

pytestmark = pytest.mark.skipif(_openblas.library("scipy") is None,
                                reason="no bundled OpenBLAS: one backend only")


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def clear_kernels():
    estimator._lapack.cache_clear()
    bcrb._lower_solve.cache_clear()


@pytest.fixture
def backends(monkeypatch):
    """run(f) -> (f() on the bundled OpenBLAS, f() on the f2py fallback)."""
    def run(f):
        clear_kernels()
        bundled = f()
        with monkeypatch.context() as patch:
            patch.setattr(_openblas, "library", lambda package: None)
            clear_kernels()
            assert estimator._lapack().__qualname__.startswith("_f2py_kernels")
            fallback = f()
        clear_kernels()
        return bundled, fallback
    yield run
    clear_kernels()


def fit_instances():
    """(Y, Psi, sigma2, cfg): full blocks with a shorter final one, one
    subcarrier and several, fewer measurements than atoms and more."""
    rng = np.random.default_rng(40)
    for p_eff, n_sub, m_count, block_size in ((20, 36, 3, 8), (24, 16, 1, 5),
                                              (9, 30, 4, 4)):
        psi = crandn(rng, p_eff, n_sub)
        x = crandn(rng, n_sub, m_count) * (rng.random(n_sub) < 0.3)[:, None]
        y = psi @ x + 0.05 * crandn(rng, p_eff, m_count)
        yield y, psi, 0.05**2, EstimatorConfig(block_size=block_size, t_ite=12)


def as_bytes(x_hat, states):
    """The estimate, and every posterior's means, variances and objective."""
    return b"".join([x_hat.tobytes()] + [
        arr.tobytes() for st in states
        for arr in (*st.history, *st.gamma, np.array(st.objective))])


def joint(*args):
    x_hat, state = absbl_mmv(*args)
    return x_hat, [state]


FITS = {"absbl_mmv": joint, "absbl_per_column": absbl_per_column,
        "absbl_per_column_scalar_gamma": partial(absbl_per_column, scalar_gamma=True)}


@pytest.mark.parametrize("fit", sorted(FITS))
def test_fits_are_the_same_bytes_on_both_backends(backends, fit):
    for y, psi, sigma2, cfg in fit_instances():
        bundled, fallback = backends(
            lambda: as_bytes(*FITS[fit](y, psi, sigma2, cfg)))
        assert bundled == fallback


def test_the_bound_is_the_same_bytes_on_both_backends(backends):
    rng = np.random.default_rng(41)
    for p_eff, n_sub in ((1, 4), (8, 6), (12, 40)):
        psi = crandn(rng, p_eff, n_sub)
        v_s = np.diag(rng.uniform(0.0, 2.0, n_sub))
        bundled, fallback = backends(lambda: bcrb_bound(psi, v_s, 0.1, m_count=3))
        assert np.float64(bundled).tobytes() == np.float64(fallback).tobytes()


def test_the_bound_is_solve_triangulars_bytes():
    # the solve it replaces, on the same factor
    from scipy.linalg import solve_triangular
    rng = np.random.default_rng(42)
    for p_eff, n_sub in ((1, 4), (8, 6), (12, 40)):
        psi = crandn(rng, p_eff, n_sub)
        v_s = np.diag(rng.uniform(0.0, 2.0, n_sub)).astype(complex)
        psi_v = psi @ v_s
        chol = np.linalg.cholesky(0.1 * np.eye(p_eff) + psi_v @ psi.conj().T)
        gain = solve_triangular(chol, psi_v, lower=True)
        want = float(3 * (np.trace(v_s).real - np.linalg.norm(gain) ** 2))
        assert bcrb_bound(psi, v_s, 0.1, m_count=3) == want


def ridged_e_step(potrf_for):
    """One E-step whose every K = B B^H + sigma2 I has no Cholesky factor,
    with each factor taken by potrf_for(potrf). B has rank 12 < P = 20 and
    sigma2 is a small negative multiple of tr(B B^H) / P, which the ridge
    outweighs tenfold."""
    rng = np.random.default_rng(43)
    n_sub, p_eff, m_count, n_runs, gamma0 = 12, 20, 2, 3, 0.7
    psi = crandn(rng, p_eff, n_sub)
    y = crandn(rng, n_runs, p_eff, m_count)
    sigma2 = -1e-13 * gamma0 * np.vdot(psi, psi).real / p_eff
    stacks = estimator._block_stacks(n_sub, 8, np.full(n_runs, gamma0))
    bind = estimator._lapack()

    def patched(*buffers):
        herk, potrf, solve = bind(*buffers)
        return herk, lambda: potrf_for(potrf), solve
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimator, "_lapack", lambda: patched)
        parts, objective = estimator._posterior(
            y, np.ascontiguousarray(psi), np.ascontiguousarray(psi.T), stacks,
            sigma2)
    return b"".join([objective.tobytes()]
                    + [arr.tobytes() for part in parts for arr in part])


def test_a_failed_factor_builds_k_again_before_the_ridge(backends):
    # a real failure leaves a partial factor in K; building K again gives
    # the bytes of a failure that never touched K
    infos = []

    def record(potrf):
        infos.append(potrf())
        return infos[-1]
    bundled, fallback = backends(lambda: ridged_e_step(record))
    assert bundled == fallback
    # each run's unridged K fails, on both backends, and its ridged K factors
    assert [bool(info) for info in infos] == [True, False] * 6
    calls = []

    def fail_unridged(potrf):
        calls.append(1)
        return 1 if len(calls) % 2 else potrf()
    assert ridged_e_step(fail_unridged) == bundled
    assert len(calls) == 2 * 3
