import numpy as np
import pytest

from snschan.bcrb import bcrb_bound


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_pd(rng, n, scale=1.0):
    a = crandn(rng, n, n)
    return scale * (a @ a.conj().T + n * np.eye(n))


class TestBcrbBound:
    def test_prior_only_limit(self):
        rng = np.random.default_rng(0)
        v = random_pd(rng, 6)
        psi = crandn(rng, 8, 6)
        huge = bcrb_bound(psi, v, sigma2=1e12, m_count=3)
        assert huge == pytest.approx(3 * np.trace(v).real, rel=1e-3)

    def test_orthonormal_closed_form(self):
        rng = np.random.default_rng(1)
        n = 8
        q, _ = np.linalg.qr(crandn(rng, n, n))
        v_scalar = 0.7
        sigma2 = 0.2
        bound = bcrb_bound(q, v_scalar * np.eye(n), sigma2, m_count=2)
        expected = 2 * n / (1 / sigma2 + 1 / v_scalar)
        assert bound == pytest.approx(expected, rel=1e-10)

    def test_monotone_in_noise_and_prior(self):
        rng = np.random.default_rng(2)
        psi = crandn(rng, 10, 6)
        v = random_pd(rng, 6)
        bounds = [bcrb_bound(psi, v, s2) for s2 in (0.01, 0.1, 1.0, 10.0)]
        assert all(a <= b + 1e-12 for a, b in zip(bounds, bounds[1:]))
        scaled = [bcrb_bound(psi, t * v, 0.5) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a <= b + 1e-12 for a, b in zip(scaled, scaled[1:]))

    def test_invariant_under_unitary_row_mixing(self):
        rng = np.random.default_rng(3)
        psi = crandn(rng, 10, 6)
        v = random_pd(rng, 6)
        q, _ = np.linalg.qr(crandn(rng, 10, 10))
        a = bcrb_bound(psi, v, 0.3)
        b = bcrb_bound(q @ psi, v, 0.3)
        assert a == pytest.approx(b, rel=1e-10)

    def test_zero_prior_variance_drops_the_column_exactly(self):
        # a coefficient with zero prior variance is known: no floor, no
        # warning, the bound of the remaining columns alone
        rng = np.random.default_rng(4)
        psi = crandn(rng, 10, 4)
        v = np.diag([1.0, 0.5, 0.0, 0.0]).astype(complex)
        reduced = bcrb_bound(psi[:, :2], v[:2, :2], 0.1, m_count=3)
        assert bcrb_bound(psi, v, 0.1, m_count=3) == pytest.approx(reduced, rel=1e-12)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            bcrb_bound(np.eye(2), np.eye(2), 0.0)

    def test_posterior_mean_attains_bound(self):
        # linear-Gaussian efficiency: E||xhat - x||^2 equals the bound
        rng = np.random.default_rng(5)
        n, p, m_count = 6, 9, 2
        psi = crandn(rng, p, n)
        v = random_pd(rng, n, scale=0.5)
        sigma2 = 0.25
        bound = bcrb_bound(psi, v, sigma2, m_count=m_count)
        chol = np.linalg.cholesky(v)
        k = sigma2 * np.eye(p) + psi @ v @ psi.conj().T
        gain = v @ psi.conj().T @ np.linalg.inv(k)
        trials = 4000
        err = 0.0
        for _ in range(trials):
            x = chol @ crandn(rng, n, m_count)
            y = psi @ x + np.sqrt(sigma2) * crandn(rng, p, m_count)
            err += np.linalg.norm(gain @ y - x) ** 2
        emp = err / trials
        assert emp == pytest.approx(bound, rel=0.05)
