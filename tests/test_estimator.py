import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import linalg as sla

import snschan.estimator as mod
from snschan.estimator import (
    EstimatorConfig,
    absbl_mmv,
    absbl_per_column,
    atom_response,
    bsbl_baseline,
    dft_codebook,
    nmse,
    offgrid_refine,
    somp_baseline,
    update_gamma,
    update_p_alm,
)


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def diverse_block_instances(count, noise_std):
    """Seeded (Phi, X, Y): block 1 of 4 is active and its entry variances
    span 100x, M=3 snapshots and 20 measurements of 32 atoms."""
    rng = np.random.default_rng(16)
    for _ in range(count):
        phi = crandn(rng, 20, 32)
        x = np.zeros((32, 3), dtype=complex)
        scale = np.sqrt(np.logspace(0, 2, 8))   # 100x variance span
        x[8:16] = crandn(rng, 8, 3) * scale[:, None]
        y = phi @ x + noise_std * crandn(rng, 20, 3)
        yield phi, x, y


def scalar_sbl_em(y, phi, sigma2, iters):
    """Independent textbook scalar SBL-EM (posterior and gamma updates) with
    the noise variance held fixed, started at the data's scale
    ||Y||_F^2 / (M ||Phi||_F^2) on every entry. With one-entry blocks the
    learned P step leaves P = 1 and scales every new gamma by the geometric
    mean of new over old gamma, which the last line of each step applies."""
    gamma = np.full(phi.shape[1], np.linalg.norm(y) ** 2
                    / (y.shape[1] * np.linalg.norm(phi) ** 2))
    mus = []
    for _ in range(iters):
        c = np.diag(gamma).astype(complex)
        k = sigma2 * np.eye(phi.shape[0]) + phi @ c @ phi.conj().T
        kinv = np.linalg.inv(k)
        mu = c @ phi.conj().T @ kinv @ y
        sig = c - c @ phi.conj().T @ kinv @ phi @ c
        new = np.abs(mu[:, 0]) ** 2 + np.real(np.diag(sig))
        gamma = new * np.exp(np.mean(np.log(new / gamma)))
        mus.append(mu.copy())
    return mus


# invalid values of every EstimatorConfig field
INVALID_CONFIG_VALUES = {
    "block_size": (0,),          # every trial divided by zero
    "t_ite": (0,),               # returned the zero estimate
    # an infinite delta1 stopped every fit at its second iteration
    "delta1": (-1e-6, float("inf")),
    # s = 0 can leave the shrunk statistics singular
    "p_shrink": (1.5, 0.0, 1e-10),
    "r_ite": (-1,),
    "delta2": (-1.0, float("inf")),
    "support_fraction": (1.5,),
}


@pytest.mark.parametrize("name", sorted(INVALID_CONFIG_VALUES))
def test_estimator_config_rejects_invalid_value(name):
    for value in INVALID_CONFIG_VALUES[name]:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            EstimatorConfig(**{name: value})


def test_every_estimator_config_field_is_checked():
    assert set(INVALID_CONFIG_VALUES) == set(EstimatorConfig.__dataclass_fields__)
    EstimatorConfig(p_shrink=1.0, r_ite=0, support_fraction=1.0, delta1=0.0)


class TestCodebook:
    def test_single_atom(self):
        D = dft_codebook(1)
        assert D.shape == (1, 1)
        assert D[0, 0] == pytest.approx(1.0)

    def test_columns_orthonormal(self):
        D = dft_codebook(32)
        gram = D.conj().T @ D
        np.testing.assert_allclose(gram, np.eye(32), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 127, 256])
    def test_equals_the_atoms_on_the_grid(self, n):
        np.testing.assert_allclose(
            dft_codebook(n), atom_response(n, 2.0 * np.arange(n) / n - 1.0),
            rtol=0, atol=1e-13)

    def test_on_grid_path_projects_to_single_atom(self):
        n = 64
        D = dft_codebook(n)
        k = 17
        h = atom_response(n, np.array([2.0 * k / n - 1.0]))[:, 0]
        proj = np.abs(D.conj().T @ h)
        assert np.argmax(proj) == k
        assert proj[k] == pytest.approx(1.0)
        mask = np.ones(n, dtype=bool)
        mask[k] = False
        assert proj[mask].max() < 1e-10


class TestUpdateGamma:
    def test_u1_reduces_to_scalar_sbl(self):
        r = np.array([[2.5 + 0j]])
        out = update_gamma(r, np.eye(1, dtype=complex), np.array([1.0]), 1)
        assert out[0] == pytest.approx(2.5)

    def test_zero_statistics_give_zero(self):
        out = update_gamma(np.zeros((4, 4), dtype=complex),
                           np.eye(4, dtype=complex), np.ones(4), 3)
        np.testing.assert_allclose(out, 0.0, atol=1e-30)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(0)
        u, m = 6, 3
        a = crandn(rng, u, u)
        r_bar = a @ a.conj().T
        p = np.eye(u) + 0.3 * np.ones((u, u))
        gamma0 = rng.uniform(0.5, 2.0, u)
        alpha2 = 7.3
        base = update_gamma(r_bar, p, gamma0, m)
        scaled = update_gamma(alpha2 * r_bar, p, alpha2 * gamma0, m)
        np.testing.assert_allclose(scaled, alpha2 * base, rtol=1e-10)

    def test_hyperprior_pools_toward_block_variance(self):
        # the MAP step is the ML step with a more snapshots whose diagonal
        # statistics carry the pooled variance tr(P^-1 R) / (M U)
        rng = np.random.default_rng(26)
        u, m, a = 5, 3, 3.0
        z = crandn(rng, u, u)
        r_bar = z @ z.conj().T
        p = np.eye(u) + 0.3 * np.ones((u, u))
        gamma0 = rng.uniform(0.5, 2.0, u)
        pooled = np.real(np.trace(np.linalg.solve(p, r_bar))) / (m * u)
        p_inv_diag = np.real(np.diag(np.linalg.inv(p)))
        augmented = r_bar + np.diag(a * pooled / p_inv_diag)
        out = update_gamma(r_bar, p, gamma0, m, prior_weight=a)
        ref = update_gamma(augmented, p, gamma0, m + a)
        np.testing.assert_allclose(out, ref, rtol=1e-10)
        # a single-entry block is its own pool
        one = update_gamma(np.array([[2.5 + 0j]]), np.eye(1, dtype=complex),
                           np.array([1.0]), 1, prior_weight=1.0)
        assert one[0] == pytest.approx(2.5)

    def test_prior_dominated_fixed_point(self):
        # R = M Q P Q must reproduce gamma exactly
        rng = np.random.default_rng(1)
        u, m = 5, 4
        gamma = rng.uniform(0.2, 3.0, u)
        a = crandn(rng, u, u)
        p = a @ a.conj().T + u * np.eye(u)
        d = np.sqrt(np.real(np.diag(p)))
        p = p / d[:, None] / d[None, :]        # unit-diagonal correlation
        q = np.sqrt(gamma)
        r_bar = m * (q[:, None] * p * q[None, :])
        out = update_gamma(r_bar, p, gamma, m)
        np.testing.assert_allclose(out, gamma, rtol=1e-9)


def shrunk(r_bar, gamma, s):
    """(1 - s) herm(Q^-1 R Q^-1) + s (tr/U) I, written out per block."""
    qi = np.diag(1.0 / np.sqrt(gamma))
    h = qi @ r_bar @ qi
    h = 0.5 * (h + h.conj().T)
    u = len(gamma)
    return (1.0 - s) * h + s * np.trace(h).real / u * np.eye(u)


def prior_factor(p, scale):
    """diag(scale)^1/2 P diag(scale)^1/2, the factor A / den of the prior."""
    root = np.sqrt(scale)
    return root[..., :, None] * p * root[..., None, :]


def logdet_per_dim(p, scale):
    """ln|A / den| / U of every block, from the returned P and scale."""
    return (np.linalg.slogdet(p)[1] + np.log(scale).sum(axis=-1)) / scale.shape[-1]


class TestUpdatePAlm:
    def test_single_block_reduces_to_unconstrained(self):
        # one block is its run's mean, so den = M and the factor is A / M
        rng = np.random.default_rng(2)
        u, m, s = 4, 3, 0.9
        a = crandn(rng, u, u)
        r_bar = a @ a.conj().T + np.eye(u)
        gamma = rng.uniform(0.5, 2.0, u)
        ((p,),), ((scale,),), _ = update_p_alm([r_bar[None]], [gamma[None]], m, s)
        np.testing.assert_allclose(prior_factor(p, scale),
                                   shrunk(r_bar, gamma, s) / m, rtol=1e-12)

    def test_m1_identity_q_returns_r(self):
        rng = np.random.default_rng(3)
        u, s = 4, 1e-9
        a = crandn(rng, u, u)
        r_bar = a @ a.conj().T + np.eye(u)
        ((p,),), ((scale,),), _ = update_p_alm([r_bar[None]], [np.ones((1, u))],
                                              1, s)
        np.testing.assert_allclose(prior_factor(p, scale), r_bar, rtol=1e-8,
                                   atol=1e-8 * np.abs(r_bar).max())

    def test_identical_blocks_share_logdet(self):
        rng = np.random.default_rng(4)
        u, m = 4, 2
        a = crandn(rng, u, u)
        r_bar = a @ a.conj().T + np.eye(u)
        gamma = np.ones(u)
        ps, scales, _ = update_p_alm([r_bar[None]] * 2, [gamma[None]] * 2, m, 0.9)
        ps, scales = [p for p, in ps], [scale for scale, in scales]
        np.testing.assert_array_equal(ps[0], ps[1])
        np.testing.assert_array_equal(scales[0], scales[1])
        # equal log-dets need no rescale: each block gets den = M
        np.testing.assert_allclose(prior_factor(ps[0], scales[0]),
                                   shrunk(r_bar, gamma, 0.9) / m, rtol=1e-12)

    def test_output_positive_definite(self):
        rng = np.random.default_rng(5)
        u, m, s = 5, 2, 0.3
        # rank-one statistics: the shrinkage alone keeps P positive definite
        v = crandn(rng, u, 1)
        (p,), _, _ = update_p_alm([(v @ v.conj().T)[None]], [np.ones((1, u))], m, s)
        assert np.linalg.eigvalsh(p).min() >= s / ((1 - s) * u + s) - 1e-12

    @pytest.mark.parametrize("s", [0.9, 1e-6])
    @pytest.mark.parametrize("faint", [False, True], ids=["plain", "faint"])
    def test_returned_factor_is_cholesky_factor_of_p(self, s, faint):
        # the factor the E-step builds K from: lower-triangular with a
        # positive real diagonal, and Lp Lp^H = P. Rank-deficient statistics
        # (2 snapshots of 8 entries) leave A near singular at s = 1e-6;
        # faint: entries whose variances sit six decades below the others
        rng = np.random.default_rng(36)
        m, u = 2, 8
        r_bars, gammas = [], []
        for n, v in ((3, u), (1, 5)):
            z = crandn(rng, n, v, m)
            r_bars.append(z @ z.conj().swapaxes(-1, -2))
            gam = rng.uniform(0.2, 3.0, (n, v))
            if faint:
                gam[:, ::2] *= 1e-6
            gammas.append(gam)
        ps, _, chols = update_p_alm(r_bars, gammas, m, s)
        for p, chol in zip(ps, chols, strict=True):
            assert chol.shape == p.shape
            np.testing.assert_array_equal(np.triu(chol, 1), 0)
            diag = np.diagonal(chol, axis1=-2, axis2=-1)
            np.testing.assert_array_equal(diag.imag, 0)
            assert np.all(diag.real > 0)
            np.testing.assert_allclose(chol @ chol.conj().swapaxes(-1, -2), p,
                                       rtol=0, atol=1e-13)

    def test_statistics_without_cholesky_factor_raise(self):
        # an all-zero block has a zero trace, so no shrinkage makes it
        # positive definite, and the step raises
        r_bars = [np.eye(4, dtype=complex)[None], np.zeros((1, 4, 4), dtype=complex)]
        with pytest.raises(mod.EstimatorDivergenceError):
            update_p_alm(r_bars, [np.ones((1, 4)), np.ones((1, 4))], 3, 0.9)

    @given(hst.integers(1, 4), hst.integers(1, 3), hst.integers(1, 8),
           hst.floats(0.0, 1.0, exclude_min=True), hst.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_properties(self, n_runs, g, u_last, s, seed):
        # R runs, each of g blocks of 8 and one (possibly short) block of
        # u_last, stacked (R, G, U, U) as the E-step holds them; full-rank
        # statistics keep the log-dets well conditioned for any s
        rng = np.random.default_rng(seed)
        m = 3
        r_bars, gammas = [], []
        for count, u in ((g, 8), (1, u_last)):
            z = crandn(rng, n_runs, count, u, 2 * u)
            r_bars.append(z @ z.conj().swapaxes(-1, -2))
            gammas.append(rng.uniform(0.2, 3.0, (n_runs, count, u)))
        ps, scales, _ = update_p_alm(r_bars, gammas, m, s)
        # one per-dimension log-det per run: an absolute 1e-12 on its log is
        # a relative 1e-12 on the geometric mean of the eigenvalues
        per_dim = np.concatenate([logdet_per_dim(p, sc)
                                  for p, sc in zip(ps, scales)], axis=-1)
        np.testing.assert_allclose(
            per_dim, np.broadcast_to(per_dim[:, :1], per_dim.shape),
            rtol=0, atol=1e-12)
        for p, sc, r_bar, gam in zip(ps, scales, r_bars, gammas):
            u = p.shape[-1]
            np.testing.assert_array_equal(p, p.conj().swapaxes(-1, -2))
            np.testing.assert_array_equal(np.diagonal(p, axis1=-2, axis2=-1), 1.0)
            assert np.linalg.eigvalsh(p).min() >= s / ((1 - s) * u + s) - 1e-12
            # the factor is A up to one positive scalar per block
            for k in np.ndindex(p.shape[:2]):
                a = shrunk(r_bar[k], gam[k], s)
                factor = prior_factor(p[k], sc[k])
                np.testing.assert_allclose(
                    factor, a * (factor[0, 0] / a[0, 0]).real, rtol=1e-10,
                    atol=1e-12 * np.abs(factor).max())
        # runs share nothing: each run's blocks alone give the same scales
        for r in range(n_runs):
            _, alone, _ = update_p_alm([rb[r] for rb in r_bars],
                                       [gm[r] for gm in gammas], m, s)
            for sc, sc_r in zip(scales, alone, strict=True):
                np.testing.assert_allclose(sc[r], sc_r, rtol=1e-12)
        # a block alone is its run's mean: den = M
        (_,), ((alone,),), _ = update_p_alm([r_bars[0][0, :1]],
                                            [gammas[0][0, :1]], m, s)
        np.testing.assert_allclose(
            alone * m, np.diag(shrunk(r_bars[0][0, 0], gammas[0][0, 0], s)).real,
            rtol=1e-12)

    @given(hst.integers(1, 5), hst.integers(1, 20), hst.integers(1, 10),
           hst.integers(0, 9), hst.integers(1, 5), hst.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_run_label_form(self, n_runs, g, u, u_last, m, seed):
        # the stacked step against the form that labels each block with its
        # run and sums each run's ln|A| by np.bincount, in the same order:
        # the same bytes, a ragged final block included
        rng = np.random.default_rng(seed)
        r_bars, gammas = [], []
        for count, v in ((g, u), (1, u_last % u)):
            if v:
                z = crandn(rng, n_runs, count, v, m)
                r_bars.append(z @ z.conj().swapaxes(-1, -2) + 0.1 * np.eye(v))
                gammas.append(rng.uniform(0.01, 3.0, (n_runs, count, v))
                              * 10.0 ** rng.integers(-8, 3))
        out = update_p_alm(r_bars, gammas, m, 0.9)
        ref = run_label_p_alm(r_bars, gammas, m, 0.9)
        for outs, refs in zip(out, ref, strict=True):
            for mine, want in zip(outs, refs, strict=True):
                np.testing.assert_array_equal(mine, want)


def run_label_p_alm(r_bars, gammas, m_count, p_shrink):
    """update_p_alm with every (run, block) pair of every stack in one flat
    vector, each labelled with its run, and each run's sum of ln|A| and of
    U taken by np.bincount over the labels."""
    ps, chols, diags, log_a, runs = [], [], [], [], []
    for r_bar, gam in zip(r_bars, gammas):
        u = r_bar.shape[-1]
        qi = 1.0 / np.maximum(np.sqrt(np.maximum(gam, 0.0)), 1e-150)
        a = (qi[..., :, None] * r_bar * qi[..., None, :]).reshape(-1, u, u)
        a += a.conj().swapaxes(-1, -2)
        a *= 0.5
        trace = a.trace(axis1=-2, axis2=-1).real
        a *= 1.0 - p_shrink
        a.reshape(-1, u * u)[:, ::u + 1] += p_shrink * (trace / u)[:, None]
        p, chol, diag, ld = mod._correlation(a)
        ps.append(p.reshape(r_bar.shape))
        chols.append(chol.reshape(r_bar.shape))
        diags.append(diag)
        log_a.append(ld)
        runs.append(np.repeat(np.arange(r_bar.shape[0]), r_bar.shape[1]))
    ld = np.concatenate(log_a)
    sizes = [len(d) for d in diags]
    u_vec = np.repeat([float(d.shape[-1]) for d in diags], sizes)
    run = np.concatenate(runs)
    bar = np.bincount(run, weights=ld)[run] / np.bincount(run, weights=u_vec)[run]
    dens = np.split(m_count * np.exp(ld / u_vec - bar), np.cumsum(sizes)[:-1])
    return ps, [(d / den[:, None]).reshape(np.shape(gam))
                for d, den, gam in zip(diags, dens, gammas)], chols


def hermitian_stack(rng, g, u, eigvals):
    """(g, u, u) Hermitian matrices with the given (g, u) eigenvalues."""
    q, _ = np.linalg.qr(crandn(rng, g, u, u))
    return (q * eigvals[:, None, :]) @ q.conj().swapaxes(-1, -2)


class TestBatchedHelpers:
    """A (G, U, U) stack gives what the per-block calls give, stacked."""

    @given(hst.integers(1, 6), hst.integers(1, 8), hst.integers(0, 2**32 - 1),
           hst.sampled_from([0.0, 3.0]))
    @settings(max_examples=40, deadline=None)
    def test_update_gamma_stack_equals_per_block(self, g, u, seed, prior):
        rng = np.random.default_rng(seed)
        m = 3
        z = crandn(rng, g, u, 2 * u)
        r_bar = z @ z.conj().swapaxes(-1, -2)
        p = hermitian_stack(rng, g, u, rng.uniform(0.2, 2.0, (g, u)))
        gamma = rng.uniform(0.2, 3.0, (g, u))
        gamma[rng.random((g, u)) < 0.2] = 0.0
        out = update_gamma(r_bar, p, gamma, m, prior_weight=prior)
        ref = np.stack([update_gamma(r_bar[k], p[k], gamma[k], m,
                                     prior_weight=prior) for k in range(g)])
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    @given(hst.integers(1, 4), hst.integers(2, 6), hst.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_update_p_alm_stacks_equal_single_blocks(self, g, u, seed):
        # a full stack plus a shorter final block, against one single-block
        # stack per block; the log-det constraint couples all of them
        rng = np.random.default_rng(seed)
        m, s = 3, 0.9
        sizes = [(g, u), (1, u - 1)]
        r_bars, gammas = [], []
        for n, v in sizes:
            z = crandn(rng, n, v, 2 * v)
            r_bars.append(z @ z.conj().swapaxes(-1, -2))
            gammas.append(rng.uniform(0.2, 3.0, (n, v)))
        out_ps, out_scales, out_chols = update_p_alm(r_bars, gammas, m, s)
        singles = [[block[None] for stack in arg for block in stack]
                   for arg in (r_bars, gammas)]
        ref_ps, ref_scales, ref_chols = update_p_alm(*singles, m, s)
        for outs, refs in ((out_ps, ref_ps), (out_scales, ref_scales),
                           (out_chols, ref_chols)):
            blocks = [block for stack in outs for block in stack]
            for mine, (ref,) in zip(blocks, refs, strict=True):
                np.testing.assert_allclose(mine, ref, rtol=1e-12, atol=1e-14)


class TestAbsblCore:
    @pytest.mark.parametrize("learner", ["absbl_mmv", "bsbl_baseline",
                                         "absbl_per_column"])
    def test_zero_start_gives_zero_at_first_iteration(self, learner):
        # a zero Y, or a zero Psi under a non-zero Y, starts at gamma0 = 0:
        # K = sigma2 I, so the fit returns the zero estimate, converged at
        # its first iteration, with that K's log marginal likelihood as its
        # one objective entry; it keeps every block, like any other fit
        rng = np.random.default_rng(7)
        phi = crandn(rng, 16, 32)
        y = crandn(rng, 16, 2)
        cfg = EstimatorConfig(block_size=8, t_ite=60)
        for psi, obs in ((phi, np.zeros_like(y)), (np.zeros_like(phi), y)):
            for sigma2 in (0.0, 0.3):
                x, states = getattr(mod, learner)(obs, psi, sigma2, cfg)
                assert np.all(x == 0)
                states = states if isinstance(states, list) else [states]
                columns = ([obs[:, m:m + 1] for m in range(2)] if len(states) > 1
                           else [obs])
                # the noise floor: 1e-12 of the largest run's energy per
                # observed scalar, or the least normal double for a zero Y
                s2 = max(sigma2, np.finfo(float).tiny,
                         *(1e-12 * np.linalg.norm(col) ** 2 / col.size
                           for col in columns))
                for st, col in zip(states, columns, strict=True):
                    assert st.converged and st.iterations == 1
                    assert st.active == [0, 1, 2, 3]
                    assert len(st.history) == 1 and np.all(st.history[0] == 0)
                    want = -col.size * np.log(s2) - np.linalg.norm(col) ** 2 / s2
                    np.testing.assert_allclose(st.objective, [want], rtol=1e-12)

    @given(hst.integers(4, 24), hst.integers(4, 40), hst.integers(2, 6),
           hst.integers(1, 8), hst.floats(1e-4, 1.0), hst.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_subcarrier_permutation_is_equivariant(self, p_eff, n_sub, m_count,
                                                   block_size, noise_std, seed):
        # the subcarriers share one prior and enter every step symmetrically,
        # so permuting the columns of Y permutes those of X and leaves the
        # iteration count. The order changes only the rounding of the sums
        # over subcarriers, which a nearly noiseless fit with a poorly
        # conditioned K lifts to ~1e-11 of the largest entry
        rng = np.random.default_rng(seed)
        psi = crandn(rng, p_eff, n_sub)
        x = crandn(rng, n_sub, m_count) * (rng.random(n_sub) < 0.3)[:, None]
        y = psi @ x + noise_std * crandn(rng, p_eff, m_count)
        perm = rng.permutation(m_count)
        cfg = EstimatorConfig(block_size=block_size)
        x_hat, state = absbl_mmv(y, psi, noise_std**2, cfg)
        x_perm, state_perm = absbl_mmv(y[:, perm], psi, noise_std**2, cfg)
        assert state_perm.iterations == state.iterations
        np.testing.assert_allclose(x_perm, x_hat[:, perm], rtol=0,
                                   atol=1e-9 * np.abs(x_hat).max())

    def test_ridged_system_without_factor_raises(self, monkeypatch):
        # a K without a Cholesky factor is ridged and factored again; when
        # the ridged K has none either, the fit raises instead of going on
        phi, _, y = next(diverse_block_instances(1, 0.05))
        _, *blas = mod._lapack()
        monkeypatch.setattr(
            mod, "_lapack", lambda: (lambda a, **kwargs: (np.zeros_like(a), 1), *blas))
        for fit in (absbl_mmv, bsbl_baseline, absbl_per_column):
            with pytest.raises(mod.EstimatorDivergenceError, match="even ridged"):
                fit(y, phi, 0.05**2)

    def test_active_lists_every_block(self):
        # a fit from a non-zero start keeps every block to its end, the
        # faint ones included, so its active set lists them all
        phi, _, y = next(diverse_block_instances(1, 0.05))
        cfg = EstimatorConfig(block_size=8, t_ite=300, delta1=0.0)
        _, joint = absbl_mmv(y, phi, 0.05**2, cfg)
        _, pooled = bsbl_baseline(y, phi, 0.05**2, cfg)
        _, columns = absbl_per_column(y, phi, 0.05**2, cfg)
        for st in [joint, pooled, *columns]:
            assert len(st.gamma) == 4
            assert st.active == [0, 1, 2, 3]

    def test_smallest_p_shrink_fits_zero_observations(self):
        # a zero Y starts at gamma0 = 0 and returns before the EM loop, so
        # neither learner reaches the P step
        rng = np.random.default_rng(36)
        phi = crandn(rng, 12, 20)
        y = np.zeros((12, 3), dtype=complex)
        cfg = EstimatorConfig(p_shrink=1e-6)
        assert np.all(absbl_mmv(y, phi, 0.0, cfg)[0] == 0)
        assert np.all(absbl_per_column(y, phi, 0.0, cfg)[0] == 0)

    def test_smallest_p_shrink_fits_every_observation(self):
        # the two Psi on which the P step's Cholesky factor failed under the
        # unit start, at p_shrink's lower bound: zero Y on the seed-16 Psi,
        # 1e-8-scaled Y on the seed-17 one. The data-scale start keeps the
        # statistics the P step shrinks at the scale of one
        cfg = EstimatorConfig(p_shrink=1e-6)
        rng = np.random.default_rng(16)
        crandn(rng, 12, 3)
        phi_16 = crandn(rng, 12, 20)
        phi_17 = crandn(np.random.default_rng(17), 12, 20)
        y_17 = 1e-8 * crandn(np.random.default_rng(17), 12, 3)
        for phi, y in ((phi_16, np.zeros((12, 3), dtype=complex)), (phi_17, y_17)):
            for sigma2 in (0.0, 1e-12):
                for fit in (absbl_mmv, absbl_per_column):
                    assert np.all(np.isfinite(fit(y, phi, sigma2, cfg)[0]))

    def test_noiseless_block_sparse_recovery(self):
        rng = np.random.default_rng(8)
        n, u = 64, 8
        q, _ = np.linalg.qr(crandn(rng, n, n))
        psi = q.conj().T
        x = np.zeros((n, 4), dtype=complex)
        for g in (1, 5):
            x[g * u:(g + 1) * u] = crandn(rng, u, 4)
        y = psi @ x
        x_hat, st = absbl_mmv(y, psi, 0.0, EstimatorConfig(block_size=u, t_ite=30))
        assert nmse(x_hat, x) < 1e-4
        assert st.iterations <= 30

    def test_scalar_sbl_equivalence_trajectory(self):
        rng = np.random.default_rng(9)
        p_eff, n = 16, 8
        phi = crandn(rng, p_eff, n)
        x = np.zeros((n, 1), dtype=complex)
        x[[2, 5]] = crandn(rng, 2, 1)
        y = phi @ x + 0.05 * crandn(rng, p_eff, 1)
        iters = 12
        cfg = EstimatorConfig(block_size=1, t_ite=iters, delta1=0.0)
        _, st = absbl_mmv(y, phi, 0.05**2, cfg)
        oracle = scalar_sbl_em(y, phi, 0.05**2, iters)
        assert len(st.history) == iters
        for mine, ref in zip(st.history, oracle):
            assert np.max(np.abs(mine - ref)) < 1e-8

    def test_posterior_blocks_hermitian_psd(self, monkeypatch):
        # every block covariance of every E-step of a fit
        rng = np.random.default_rng(10)
        phi = crandn(rng, 20, 32)
        x = np.zeros((32, 3), dtype=complex)
        x[8:16] = crandn(rng, 8, 3)
        y = phi @ x + 0.1 * crandn(rng, 20, 3)
        sigmas = []
        orig = mod._posterior

        def spy(*args):
            parts, objective = orig(*args)
            sigmas.extend(sig for part in parts
                          for sig in part.sigma.reshape(-1, *part.sigma.shape[-2:]))
            return parts, objective

        monkeypatch.setattr(mod, "_posterior", spy)
        _, st = absbl_mmv(y, phi, 0.1**2, EstimatorConfig(block_size=8))
        assert len(sigmas) >= st.iterations
        for sig in sigmas:
            np.testing.assert_allclose(sig, sig.conj().T, atol=1e-10)
            vals = np.linalg.eigvalsh(sig)
            assert vals.min() >= -1e-10 * max(vals.max(), 1e-30)

    @pytest.mark.parametrize("n_sub, n_runs, fail_cholesky, faint", [
        (16, 1, False, None), (18, 1, False, None), (18, 1, False, 1),
        (18, 1, True, None), (18, 3, False, None), (18, 3, True, None),
    ], ids=["even", "ragged", "one-faint", "ridge-fallback", "three-runs",
            "three-runs-first-ridged"])
    def test_kronecker_structure_matches_dense_posterior(
            self, monkeypatch, n_sub, n_runs, fail_cholesky, faint):
        # one E-step with fixed hyperparameters against the naive MN x MN
        # system built with Psi (x) I_M and blockdiag(C_g (x) I_M); n_sub=18
        # with u=4 leaves a short final block of 2. faint: the block whose
        # variances sit six decades below the others, which the dense E-step
        # keeps like any other
        rng = np.random.default_rng(12)
        m_count, u, p_eff = 4, 4, 12
        psi = crandn(rng, p_eff, n_sub)
        y = crandn(rng, n_runs, p_eff, m_count)
        sigma2 = 0.3
        stacks = mod._block_stacks(n_sub, u, np.ones(n_runs))
        blocks, covs = [], []                    # covs[g][r]
        for s in stacks:
            for g in range(s.gamma.shape[1]):
                u_g = s.gamma.shape[-1]
                start = s.start + g * u_g
                blocks.append(slice(start, start + u_g))
                covs.append([])
                for r in range(n_runs):
                    s.gamma[r, g] = rng.uniform(0.2, 2.0, u_g)
                    if len(blocks) - 1 == faint:
                        s.gamma[r, g] *= 1e-6
                    a = crandn(rng, u_g, u_g)
                    s.p[r, g], s.p_chol[r, g], *_ = mod._correlation(
                        a @ a.conj().T + u_g * np.eye(u_g))
                    covs[-1].append(np.sqrt(s.gamma[r, g])[:, None] * s.p[r, g]
                                    * np.sqrt(s.gamma[r, g])[None, :])
        cholesky_calls = []
        if fail_cholesky:
            real_potrf, *blas = mod._lapack()

            def fail_once(a, **kwargs):
                # run 0's unridged K; its ridged K and every other run factor
                cholesky_calls.append(1)
                if len(cholesky_calls) == 1:
                    return np.zeros_like(a), 1       # "not positive definite"
                return real_potrf(a, **kwargs)

            monkeypatch.setattr(mod, "_lapack", lambda: (fail_once, *blas))

        parts, objective = mod._posterior(y, *e_step_operands(psi), stacks, sigma2)
        assert len(cholesky_calls) == (n_runs + 1 if fail_cholesky else 0)
        mu_structured = np.concatenate(
            [part.mu.reshape(n_runs, -1, m_count) for part in parts], axis=1)

        for r in range(n_runs):
            sig_structured = [sig for part in parts for sig in part.sigma[r]]
            assert len(sig_structured) == len(blocks)
            # dense reference in the vec(X^T) ordering
            psi_big = np.kron(psi, np.eye(m_count))
            v_big = np.zeros((n_sub * m_count, n_sub * m_count), complex)
            for b, c in zip(blocks, covs):
                idx = np.arange(b.start * m_count, b.stop * m_count)
                v_big[np.ix_(idx, idx)] = np.kron(c[r], np.eye(m_count))
            y_big = y[r].flatten()               # vec(Y^T): measurement-major
            k_big = (sigma2 * np.eye(p_eff * m_count)
                     + psi_big @ v_big @ psi_big.conj().T)
            mu_big = v_big @ psi_big.conj().T @ np.linalg.solve(k_big, y_big)
            sig_big = (v_big - v_big @ psi_big.conj().T
                       @ np.linalg.solve(k_big, psi_big) @ v_big)

            np.testing.assert_allclose(mu_structured[r].flatten(), mu_big,
                                       atol=1e-10)
            # the log marginal likelihood -ln|K| - y^H K^-1 y (without the
            # constant); the ridged run reads it from its ridged K
            dense = -(np.linalg.slogdet(k_big)[1]
                      + np.vdot(y_big, np.linalg.solve(k_big, y_big)).real)
            np.testing.assert_allclose(objective[r], dense, rtol=1e-10)
            for b, sig in zip(blocks, sig_structured):
                idx = np.arange(b.start * m_count, b.stop * m_count)
                np.testing.assert_allclose(
                    sig_big[np.ix_(idx, idx)],
                    np.kron(sig, np.eye(m_count)), atol=1e-10)

    @pytest.mark.parametrize("short", range(8))
    @pytest.mark.parametrize("faint", [False, True], ids=["all-active", "faint"])
    def test_square_root_e_step_matches_covariance_form(self, short, faint):
        # for every length of the final block
        assert_matches_covariance_form(np.random.default_rng(35 + short),
                                       32 + short, n_runs=2, m_count=3,
                                       faint=faint)

    @pytest.mark.parametrize("short", range(8))
    @pytest.mark.parametrize("faint", [False, True], ids=["all-active", "faint"])
    def test_square_root_e_step_matches_covariance_form_per_column(self, short,
                                                                   faint):
        # the shape absbl_per_column fits on fc_smv_bcrb (128 atoms, 80
        # measurements): one run per subcarrier (R = 5), each with a single
        # snapshot (M = 1)
        assert_matches_covariance_form(np.random.default_rng(45 + short),
                                       128 + short, n_runs=5, m_count=1,
                                       faint=faint, p_eff=80)

    def test_longer_runs_shrink_empty_blocks_not_absorb_noise(self):
        # untied per-entry variances let a few noise-level entries hold an
        # empty block open; running longer then fits noise and gets worse.
        # Tied, the occupied block keeps the largest variance and an empty
        # one falls three decades below it (delta1 = 0: the budget, not the
        # stop, ends both runs)
        nmse_30, nmse_300 = [], []
        for phi, x, y in diverse_block_instances(20, 0.05):
            x30, _ = absbl_mmv(y, phi, 0.05**2,
                               EstimatorConfig(block_size=8, t_ite=30, delta1=0.0))
            x300, st = absbl_mmv(y, phi, 0.05**2,
                                 EstimatorConfig(block_size=8, t_ite=300,
                                                 delta1=0.0))
            nmse_30.append(nmse(x30, x))
            nmse_300.append(nmse(x300, x))
            q = [np.sqrt(gam).mean() for gam in st.gamma]
            assert np.argmax(q) == 1
            assert min(q[g] for g in (0, 2, 3)) <= 1e-3 * q[1]
        assert np.mean(nmse_300) <= np.mean(nmse_30)

    def test_bmmv_prior_shared_across_subcarriers(self):
        # the hyperparameters are per-block scalars/matrices by construction;
        # the per-subcarrier posterior covariance is one shared matrix
        rng = np.random.default_rng(13)
        phi = crandn(rng, 24, 32)
        x = np.zeros((32, 5), dtype=complex)
        x[8:16] = crandn(rng, 8, 5)
        y = phi @ x + 0.05 * crandn(rng, 24, 5)
        _, st = absbl_mmv(y, phi, 0.05**2, EstimatorConfig(block_size=8))
        for g in st.active:
            assert st.gamma[g].shape == (8,)


def distinct_support_instance(n_sub, seed=28, noise_std=0.01):
    """(Phi, Y) with M=3 columns, each with its own active block of 8; the
    noise variance is noise_std**2."""
    rng = np.random.default_rng(seed)
    phi = crandn(rng, 20, n_sub)
    x = np.zeros((n_sub, 3), dtype=complex)
    for m, g in enumerate((0, 1, 3)):
        x[g * 8:(g + 1) * 8, m] = crandn(rng, min(8, n_sub - g * 8)) * 3
    return phi, phi @ x + noise_std * crandn(rng, 20, 3)


def assert_runs_match(batched, separate):
    """absbl_per_column output against one absbl_mmv call per column."""
    x_hat, states = batched
    np.testing.assert_allclose(
        x_hat, np.concatenate([x for x, _ in separate], axis=1),
        rtol=1e-12, atol=1e-12 * np.abs(x_hat).max())
    for mine, (_, ref) in zip(states, separate, strict=True):
        assert mine.active == ref.active
        assert mine.iterations == ref.iterations
        assert mine.converged == ref.converged


class TestPerColumn:
    """One batched run over the columns equals one run per column."""

    @pytest.mark.parametrize("scalar_gamma", [False, True], ids=["absbl", "bsbl"])
    @pytest.mark.parametrize("n_sub", [32, 30], ids=["even", "ragged"])
    def test_equals_separate_runs(self, monkeypatch, n_sub, scalar_gamma):
        # each column stops on delta1 at its own iteration, so a run leaves
        # the batch while the others go on: the E-step sees the batch shrink
        phi, y = distinct_support_instance(n_sub)
        cfg = EstimatorConfig(block_size=8, t_ite=300)
        batch_sizes = []
        orig = mod._posterior

        def spy(y_runs, *args):
            batch_sizes.append(len(y_runs))
            return orig(y_runs, *args)

        with monkeypatch.context() as patch:
            patch.setattr(mod, "_posterior", spy)
            batched = absbl_per_column(y, phi, 0.01**2, cfg,
                                       scalar_gamma=scalar_gamma)
        joint = bsbl_baseline if scalar_gamma else absbl_mmv
        separate = [joint(y[:, m:m + 1], phi, 0.01**2, cfg) for m in range(3)]
        assert_runs_match(batched, separate)
        states = batched[1]
        # every run, BSBL's too, converges before the budget
        assert all(st.converged and st.iterations < cfg.t_ite for st in states)
        assert len(batch_sizes) == max(st.iterations for st in states)
        assert batch_sizes[0] == 3 and batch_sizes[-1] < 3
        assert batch_sizes == sorted(batch_sizes, reverse=True)

    def test_empty_column_stops_alone(self):
        # an empty column starts at gamma0 = 0 and never enters the EM loop,
        # so it stops at its first step with the zero estimate, also at
        # delta1 = 0, while the other columns run on: to their own stops by
        # default, and through the whole budget at delta1 = 0
        phi, y = distinct_support_instance(32)
        y[:, 1] = 0.0
        for delta1 in (EstimatorConfig.delta1, 0.0):
            cfg = EstimatorConfig(block_size=8, t_ite=300, delta1=delta1)
            batched = absbl_per_column(y, phi, 0.01**2, cfg)
            separate = [absbl_mmv(y[:, m:m + 1], phi, 0.01**2, cfg)
                        for m in range(3)]
            assert_runs_match(batched, separate)
            states = batched[1]
            assert states[1].converged and states[1].iterations == 1
            assert states[1].active == [0, 1, 2, 3]
            assert np.all(batched[0][:, 1] == 0)
            if delta1:
                assert len({st.iterations for st in states}) == 3
        assert [st.iterations for st in states[::2]] == [cfg.t_ite] * 2

    def test_ridge_fallback_stays_in_its_run(self, monkeypatch):
        # K's Cholesky factor fails for run 1's unridged K only; that run
        # alone is ridged and factored again. No run stops early, so within
        # each E-step the batched loop factors run 0, run 1 twice, then run 2
        phi, y = distinct_support_instance(32, seed=30)
        cfg = EstimatorConfig(block_size=8, t_ite=8)
        real_potrf, *blas = mod._lapack()
        calls = []

        def fail_run_1(a, **kwargs):
            calls.append(1)
            if len(calls) % 4 == 2:
                return np.zeros_like(a), 1       # "not positive definite"
            return real_potrf(a, **kwargs)

        def fail_unridged(a, **kwargs):
            # every E-step's first factor is of the unridged K
            calls.append(1)
            if len(calls) % 2 == 1:
                return np.zeros_like(a), 1
            return real_potrf(a, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(mod, "_lapack", lambda: (fail_run_1, *blas))
            batched = absbl_per_column(y, phi, 0.01**2, cfg)
        assert [st.iterations for st in batched[1]] == [8, 8, 8]
        assert len(calls) == 4 * 8
        separate = []
        for m in range(3):
            with monkeypatch.context() as patch:
                if m == 1:
                    calls.clear()
                    patch.setattr(mod, "_lapack", lambda: (fail_unridged, *blas))
                separate.append(absbl_mmv(y[:, m:m + 1], phi, 0.01**2, cfg))
        assert len(calls) == 2 * 8
        assert_runs_match(batched, separate)
        # the fallback is not a no-op, so run 1 really took it
        plain = absbl_mmv(y[:, 1:2], phi, 0.01**2, cfg)[0]
        assert not np.array_equal(batched[0][:, 1:2], plain)

    def test_columns_share_nothing(self):
        # a column's estimate does not depend on the other columns
        phi, y = distinct_support_instance(32, seed=31)
        cfg = EstimatorConfig(block_size=8)
        both, _ = absbl_per_column(y, phi, 0.01**2, cfg)
        alone, _ = absbl_per_column(y[:, :1], phi, 0.01**2, cfg)
        np.testing.assert_allclose(both[:, :1], alone, rtol=1e-12,
                                   atol=1e-12 * np.abs(alone).max())


def e_step_operands(psi):
    """Psi and its rows Psi^T, both C-ordered, as `_posterior` reads them."""
    return np.ascontiguousarray(psi), np.ascontiguousarray(psi.T)


def assert_matches_covariance_form(rng, n_sub, n_runs, m_count, faint,
                                   p_eff=20):
    """`_posterior`'s square-root E-step against the covariance form on
    Psi's columns (block products Psi_g C_g, K = (Psi C) Psi^H, left-sided
    solve_triangular): each run's mu and Sigma agree within 1e-12 of their
    largest entry. Faint: one block's variances sit six decades below the
    others in every run, one more's in run 0 only."""
    psi = crandn(rng, p_eff, n_sub)
    y = crandn(rng, n_runs, p_eff, m_count)
    sigma2 = 0.3
    stacks = mod._block_stacks(n_sub, 8, np.ones(n_runs))
    for s in stacks:
        s.gamma[...] = rng.uniform(0.2, 2.0, s.gamma.shape)
        a = crandn(rng, *s.p.shape)
        s.p[...], s.p_chol[...], *_ = mod._correlation(
            a @ a.conj().swapaxes(-1, -2) + np.eye(s.p.shape[-1]))
    if faint:
        stacks[0].gamma[:, 1] *= 1e-6          # in every run
        stacks[0].gamma[0, 2] *= 1e-6          # in run 0 only
    parts, _ = mod._posterior(y, *e_step_operands(psi), stacks, sigma2)

    cs = [mod._prior_cov(s.gamma, s.p) for s in stacks]
    cols = [slice(s.start, s.start + s.gamma[0].size) for s in stacks]
    psi_c = np.empty((n_runs, p_eff, n_sub), dtype=complex)
    for c, col in zip(cs, cols):
        n, u = c.shape[1], c.shape[-1]
        psi_c[:, :, col] = (psi[:, col].reshape(p_eff, n, u).swapaxes(0, 1)
                            @ c).swapaxes(1, 2).reshape(n_runs, p_eff, n * u)
    k_mat = psi_c @ psi.conj().T + sigma2 * np.eye(p_eff)
    for r in range(n_runs):
        chol = sla.cholesky(k_mat[r], lower=True, check_finite=False)
        w = sla.solve_triangular(chol, psi, lower=True, check_finite=False)
        y_w = sla.solve_triangular(chol, y[r], lower=True, check_finite=False)
        proj = w.conj().T @ y_w
        mus, sigmas = [], []                     # (got, want) per stack
        for part, c, col in zip(parts, cs, cols):
            n, u = c.shape[1], c.shape[-1]
            w_g = w[:, col].reshape(p_eff, n, u).swapaxes(0, 1)
            gram = w_g.conj().swapaxes(-1, -2) @ w_g
            sig = c[r] - c[r] @ gram @ c[r]
            mus.append((part.mu[r], c[r] @ proj[col].reshape(n, u, m_count)))
            sigmas.append((part.sigma[r],
                           0.5 * (sig + sig.conj().swapaxes(-1, -2))))
        for pairs in (mus, sigmas):
            scale = max(np.abs(want).max() for _, want in pairs)
            for got, want in pairs:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def kronecker_log_likelihood(psi, y, sigma2, stacks, r):
    """-ln|K| - y^H K^-1 y of run r (without the constant) from the naive
    PM x PM system K = sigma2 I + (Psi (x) I_M) blockdiag(C_g (x) I_M)
    (Psi (x) I_M)^H, y = vec(Y^T)."""
    p_eff, m_count = y.shape
    n_sub = psi.shape[1]
    v_big = np.zeros((n_sub * m_count, n_sub * m_count), complex)
    for s in stacks:
        u = s.gamma.shape[-1]
        for g in range(s.gamma.shape[1]):
            c = mod._prior_cov(s.gamma[r, g], s.p[r, g])
            idx = np.arange((s.start + g * u) * m_count,
                            (s.start + (g + 1) * u) * m_count)
            v_big[np.ix_(idx, idx)] = np.kron(c, np.eye(m_count))
    psi_big = np.kron(psi, np.eye(m_count))
    k_big = sigma2 * np.eye(p_eff * m_count) + psi_big @ v_big @ psi_big.conj().T
    y_big = y.flatten()
    return -(np.linalg.slogdet(k_big)[1]
             + np.vdot(y_big, np.linalg.solve(k_big, y_big)).real)


class TestObjectiveStop:
    """Each run stops when its log marginal likelihood changes by less than
    delta1 nats per observed scalar."""

    @pytest.mark.parametrize("learner", ["absbl_mmv", "bsbl_baseline",
                                         "absbl_per_column"])
    def test_logged_objective_is_final_e_steps_likelihood(self, monkeypatch,
                                                          learner):
        # the prior each E-step reads, copied as it enters _posterior; the
        # last copy of a run is the prior of its final E-step
        phi, y = distinct_support_instance(32)
        sigma2 = 0.01**2
        priors = []
        orig = mod._posterior

        def spy(y_runs, psi, psi_rows, stacks, s2):
            priors.append(([copy.deepcopy(s) for s in stacks], y_runs.copy()))
            return orig(y_runs, psi, psi_rows, stacks, s2)

        monkeypatch.setattr(mod, "_posterior", spy)
        cfg = EstimatorConfig(block_size=8)
        _, states = getattr(mod, learner)(y, phi, sigma2, cfg)
        states = states if isinstance(states, list) else [states]
        columns = ([y[:, m:m + 1] for m in range(3)] if len(states) > 1 else [y])
        for st, y_run in zip(states, columns, strict=True):
            # the E-steps whose batch held this run (no two runs share Y)
            steps = [(stacks, r) for stacks, y_runs in priors
                     for r, y_r in enumerate(y_runs) if np.array_equal(y_r, y_run)]
            assert len(st.objective) == len(steps) == st.iterations
            stacks, r = steps[-1]
            want = kronecker_log_likelihood(phi, y_run, sigma2, stacks, r)
            np.testing.assert_allclose(st.objective[-1], want, rtol=1e-10)

    def test_data_scale_start_takes_fewer_iterations(self, monkeypatch):
        # the start gamma0 = ||Y||_F^2 / (M ||Psi||_F^2) against the unit
        # start gamma = 1, patched here only, on the claim tests' instances
        def mean_iterations():
            return np.mean([
                absbl_mmv(y, phi, 0.05**2, EstimatorConfig(block_size=8))[1].iterations
                for phi, _, y in diverse_block_instances(40, 0.05)])

        data_start = mean_iterations()
        blocks = mod._block_stacks
        monkeypatch.setattr(mod, "_block_stacks", lambda n_sub, u, gamma0:
                            blocks(n_sub, u, np.ones_like(gamma0)))
        assert data_start < mean_iterations()

    def test_stop_rule_is_change_per_observation(self):
        # the stop fires at the first iteration whose objective changed by
        # less than delta1 P M, and delta1 = 0 runs the whole budget
        phi, _, y = next(diverse_block_instances(1, 0.05))
        _, st = absbl_mmv(y, phi, 0.05**2, EstimatorConfig(block_size=8))
        steps = np.abs(np.diff(st.objective))
        tol = EstimatorConfig.delta1 * y.size
        assert st.converged and st.iterations < EstimatorConfig.t_ite
        assert steps[-1] < tol and np.all(steps[:-1] >= tol)
        _, full = absbl_mmv(y, phi, 0.05**2, EstimatorConfig(block_size=8,
                                                             delta1=0.0))
        assert not full.converged and full.iterations == EstimatorConfig.t_ite
        assert full.objective[:st.iterations] == st.objective

    @pytest.mark.parametrize("c", [1e-3, 1e3])
    def test_stop_is_scale_free(self, c):
        # Y -> cY with sigma2 -> c^2 sigma2 scales the data-scale start, and
        # with it every iterate's prior, by c^2 and shifts the objective by
        # -2 P M ln c, so every learner stops at the same step and returns
        # c times its estimate
        phi, y = distinct_support_instance(32)
        phi_diverse, _, y_diverse = next(diverse_block_instances(1, 0.05))
        cases = [(absbl_mmv, phi_diverse, y_diverse, 0.05**2),
                 (bsbl_baseline, phi_diverse, y_diverse, 0.05**2),
                 (absbl_per_column, phi, y, 0.01**2)]
        cfg = EstimatorConfig(block_size=8, t_ite=300)
        for learner, psi, obs, sigma2 in cases:
            x_ref, ref = learner(obs, psi, sigma2, cfg)
            x_c, scaled = learner(c * obs, psi, c**2 * sigma2, cfg)
            ref = ref if isinstance(ref, list) else [ref]
            scaled = scaled if isinstance(scaled, list) else [scaled]
            for mine, want in zip(scaled, ref, strict=True):
                assert want.converged and want.iterations < cfg.t_ite
                assert ((mine.iterations, mine.converged, mine.active)
                        == (want.iterations, want.converged, want.active))
                shift = -2.0 * obs.shape[0] * want.mu.shape[1] * np.log(c)
                np.testing.assert_allclose(mine.objective,
                                           np.add(want.objective, shift),
                                           rtol=1e-9)
            np.testing.assert_allclose(x_c, c * x_ref, rtol=1e-9,
                                       atol=1e-9 * c * np.abs(x_ref).max())


class TestBsblBaseline:
    def test_zero_input(self):
        rng = np.random.default_rng(14)
        phi = crandn(rng, 12, 24)
        x, st = bsbl_baseline(np.zeros((12, 2), complex), phi, 0.0)
        assert np.all(x == 0)

    def test_uniform_blocks_match_absbl(self):
        # easy overdetermined instance: both learners recover the signal and
        # their NMSEs agree closely
        rng = np.random.default_rng(15)
        phi = crandn(rng, 64, 24)
        x = np.zeros((24, 3), dtype=complex)
        x[6:12] = crandn(rng, 6, 3)
        y = phi @ x + 0.01 * crandn(rng, 64, 3)
        cfg = EstimatorConfig(block_size=6)
        xa, _ = absbl_mmv(y, phi, 0.01**2, cfg)
        xb, _ = bsbl_baseline(y, phi, 0.01**2, cfg)
        assert abs(nmse(xa, x) - nmse(xb, x)) < 1e-3

    @staticmethod
    def _diverse_diffs(noise_std):
        diffs = []
        for phi, x, y in diverse_block_instances(100, noise_std):
            cfg = EstimatorConfig(block_size=8)
            xa, _ = absbl_mmv(y, phi, noise_std**2, cfg)
            xb, _ = bsbl_baseline(y, phi, noise_std**2, cfg)
            diffs.append(nmse(xb, x) - nmse(xa, x))
        return diffs

    def test_diverse_blocks_favor_absbl(self):
        diffs = self._diverse_diffs(0.05)
        assert np.mean(diffs) > 0

    def test_diverse_blocks_favor_absbl_at_high_noise(self):
        # at noise std 1.0 the oracle gain of per-entry over per-block
        # variances (both with the true support) is only ~3.5%, so ABSBL
        # cannot win here through better pruning alone
        diffs = self._diverse_diffs(1.0)
        assert np.mean(diffs) > 0


def test_absbl_kernel_benchmark(benchmark):
    # desk-scale ABSBL-MMV call (P=128, N=256, M=5, default config), timed
    # by pytest-benchmark; the test asserts results, never timings
    rng = np.random.default_rng(27)
    p_eff, n_sub, m_count = 128, 256, 5
    psi = crandn(rng, p_eff, n_sub) @ dft_codebook(n_sub)
    x = np.zeros((n_sub, m_count), dtype=complex)
    for g in (3, 4, 17):
        x[g * 8:(g + 1) * 8] = crandn(rng, 8, m_count)
    y = psi @ x + 0.05 * crandn(rng, p_eff, m_count)
    x_hat, _ = benchmark.pedantic(absbl_mmv, args=(y, psi, 0.05**2), rounds=3,
                                  iterations=1)
    assert np.all(np.isfinite(x_hat))
    np.testing.assert_array_equal(x_hat, absbl_mmv(y, psi, 0.05**2)[0])


def test_per_column_kernel_benchmark(benchmark):
    # the per-subcarrier learners at the fully connected fc_smv_bcrb shape
    # (P=80, N=128, M=5, default config), timed by pytest-benchmark; the
    # test asserts results, never timings
    rng = np.random.default_rng(32)
    p_eff, n_sub, m_count = 80, 128, 5
    psi = crandn(rng, p_eff, n_sub) @ dft_codebook(n_sub)
    x = np.zeros((n_sub, m_count), dtype=complex)
    for g in (2, 9):
        x[g * 8:(g + 1) * 8] = crandn(rng, 8, m_count)
    y = psi @ x + 0.05 * crandn(rng, p_eff, m_count)
    x_hat, _ = benchmark.pedantic(absbl_per_column, args=(y, psi, 0.05**2),
                                  rounds=3, iterations=1)
    assert np.all(np.isfinite(x_hat))
    separate = np.concatenate([absbl_mmv(y[:, m:m + 1], psi, 0.05**2)[0]
                               for m in range(m_count)], axis=1)
    np.testing.assert_allclose(x_hat, separate, rtol=1e-12,
                               atol=1e-12 * np.abs(separate).max())


def test_ragged_small_fit_kernel_benchmark(benchmark):
    # a small PASS-subarray fit (P=32, N=58, M=5, default config): seven
    # full blocks and a final block of 2, where the fixed cost of each EM
    # iteration dominates; timed by pytest-benchmark, the test asserts
    # results, never timings
    rng = np.random.default_rng(34)
    p_eff, n_sub, m_count = 32, 58, 5
    psi = crandn(rng, p_eff, n_sub) @ dft_codebook(n_sub)
    x = np.zeros((n_sub, m_count), dtype=complex)
    x[8:16] = crandn(rng, 8, m_count)
    x[56:58] = crandn(rng, 2, m_count)
    y = psi @ x + 0.05 * crandn(rng, p_eff, m_count)
    x_hat, state = benchmark.pedantic(absbl_mmv, args=(y, psi, 0.05**2),
                                      rounds=3, iterations=1)
    assert np.all(np.isfinite(x_hat))
    assert len(state.gamma) == 8 and state.gamma[-1].shape == (2,)
    np.testing.assert_array_equal(x_hat, absbl_mmv(y, psi, 0.05**2)[0])


class TestSomp:
    def test_single_on_grid_atom(self):
        rng = np.random.default_rng(17)
        D = dft_codebook(32)
        x = np.zeros((32, 2), dtype=complex)
        x[7] = [1.0, 2.0]
        y = D @ x
        x_hat = somp_baseline(y, D, residual_tol=1e-9)
        np.testing.assert_allclose(x_hat, x, atol=1e-10)

    def test_orthonormal_exact_support(self):
        rng = np.random.default_rng(18)
        n, k = 32, 5
        q, _ = np.linalg.qr(crandn(rng, n, n))
        psi = q
        support = rng.choice(n, size=k, replace=False)
        x = np.zeros((n, 3), dtype=complex)
        x[support] = crandn(rng, k, 3)
        y = psi @ x
        x_hat = somp_baseline(y, psi, residual_tol=1e-9)
        np.testing.assert_array_equal(np.sort(np.flatnonzero(
            np.linalg.norm(x_hat, axis=1) > 1e-9)), np.sort(support))

    def test_matches_reference_implementation(self):
        def reference_somp(y, psi, k):
            sup = []
            res = y.copy()
            for _ in range(k):
                scores = []
                for j in range(psi.shape[1]):
                    col = psi[:, j]
                    scores.append(np.linalg.norm(col.conj() @ res)
                                  / np.linalg.norm(col))
                j_star = int(np.argmax(scores))
                if j_star not in sup:
                    sup.append(j_star)
                a = psi[:, sup]
                coef = np.linalg.pinv(a) @ y
                res = y - a @ coef
            return set(sup)

        rng = np.random.default_rng(19)
        psi = crandn(rng, 64, 128)
        x = np.zeros((128, 4), dtype=complex)
        support = rng.choice(128, size=4, replace=False)
        x[support] = crandn(rng, 4, 4) * 3
        y = psi @ x
        mine = somp_baseline(y, psi, residual_tol=1e-9)
        mine_support = set(np.flatnonzero(np.linalg.norm(mine, axis=1) > 0))
        assert mine_support == reference_somp(y, psi, 4)

    def test_zero_input(self):
        rng = np.random.default_rng(20)
        psi = crandn(rng, 8, 16)
        out = somp_baseline(np.zeros((8, 2), complex), psi)
        assert np.all(out == 0)

    def test_non_finite_input_raises(self):
        # a NaN in Y returned an estimate with NaN rows, where the
        # block-sparse learners reject the same input
        rng = np.random.default_rng(21)
        psi = crandn(rng, 4, 6)
        y = crandn(rng, 4, 2)
        y[1, 0] = np.nan
        bad_psi = psi.copy()
        bad_psi[0, 3] = np.inf
        for args in ((y, psi), (crandn(rng, 4, 2), bad_psi)):
            for fit in (somp_baseline, lambda y, psi: absbl_mmv(y, psi, 0.1)):
                with pytest.raises(ValueError, match="must be finite"):
                    fit(*args)



def somp_refit_every_atom(y, psi, max_atoms, residual_tol=None):
    """SOMP as it was before the single refit: a least-squares fit on the
    support after every atom, and the residual from that fit."""
    col_norms = np.linalg.norm(psi, axis=0)
    col_norms[col_norms == 0] = 1.0
    y_norm = np.linalg.norm(y)
    x_hat = np.zeros((psi.shape[1], y.shape[1]), dtype=complex)
    support, residual = [], y.copy()
    for _ in range(max_atoms):
        corr = np.linalg.norm(psi.conj().T @ residual, axis=1) / col_norms
        corr[support] = -1.0
        support.append(int(np.argmax(corr)))
        coef, *_ = np.linalg.lstsq(psi[:, support], y, rcond=None)
        residual = y - psi[:, support] @ coef
        if residual_tol is not None and np.linalg.norm(residual) / y_norm <= residual_tol:
            break
    x_hat[support] = coef
    return x_hat, len(support)


def somp_oracle_instances():
    """60 seeded k-sparse instances (k = 1..6): random and DFT-based Psi, P
    above and below N. Half are noisy and stop on the residual at the noise
    level; half are noiseless and stop once the residual is rounding noise.
    Yields (Psi, Y, residual_tol, k)."""
    rng = np.random.default_rng(33)
    for i in range(60):
        p_eff, n_sub = [(24, 40), (40, 24), (16, 64), (64, 48)][i % 4]
        psi = crandn(rng, p_eff, n_sub)
        if i % 3 == 0:
            psi = psi @ dft_codebook(n_sub)
        k = int(rng.integers(1, 7))
        x = np.zeros((n_sub, 3), dtype=complex)
        x[rng.choice(n_sub, size=k, replace=False)] = crandn(rng, k, 3) * 3
        if i % 2:
            yield psi, psi @ x + 0.05 * crandn(rng, p_eff, 3), 0.05, k
        else:
            yield psi, psi @ x, 1e-9, k


def test_somp_single_refit_equals_refit_every_atom():
    exact = 0
    for psi, y, tol, k in somp_oracle_instances():
        expected, picked = somp_refit_every_atom(y, psi, min(psi.shape), tol)
        np.testing.assert_array_equal(somp_baseline(y, psi, tol), expected)
        exact += tol < 0.05 and picked == k
    # every noiseless instance stops on its k-th atom, short of the budget
    assert exact == 30



def test_somp_single_refit_equals_refit_every_atom_on_dependent_columns():
    # a duplicated (scaled) column and a zero column: once the support holds
    # both copies, or the zero column, the new atom adds nothing to its span
    # and the residual stays as it was
    rng = np.random.default_rng(34)
    dependent = 0
    for i in range(40):
        p_eff, n_sub = [(8, 12), (12, 8), (6, 16), (16, 10)][i % 4]
        psi = crandn(rng, p_eff, n_sub)
        if i % 3 == 0:
            psi = psi @ dft_codebook(n_sub)
        a, b, z = rng.choice(n_sub, 3, replace=False)
        psi[:, b] = psi[:, a] * (1.0 if i % 2 else 2.0)
        psi[:, z] = 0.0
        k = int(rng.integers(1, 5))
        x = np.zeros((n_sub, 3), dtype=complex)
        x[rng.choice(n_sub, size=k, replace=False)] = crandn(rng, k, 3) * 3
        y = psi @ x + 0.05 * crandn(rng, p_eff, 3)
        for tol in (None, 0.05):
            expected, _ = somp_refit_every_atom(y, psi, min(p_eff, n_sub), tol)
            np.testing.assert_array_equal(somp_baseline(y, psi, tol), expected)
            support = set(np.flatnonzero(np.linalg.norm(expected, axis=1) > 0))
            dependent += {a, b} <= support or z in support
    assert dependent >= 10


def offgrid_refine_recomputing(Y, Phi, D, x_on_grid, cfg):
    """`offgrid_refine` as it built the atoms three times and the residual
    twice per iteration, and read the start angles from the whole grid: the
    oracle for the shared builds."""

    def gradient(z, X):
        d = atom_response(n_sub, z)
        resid = Y - Phi @ d @ X
        ramp_d = np.arange(n_sub)[:, None] * d
        inner = X @ resid.conj().T @ Phi @ ramp_d
        return -2.0 * np.pi * np.real(1j * np.diag(inner))

    Y = np.asarray(Y, dtype=complex)
    n_sub = D.shape[0]
    energy = np.sum(np.abs(x_on_grid) ** 2, axis=1)
    support = np.flatnonzero(energy >= cfg.support_fraction * energy.max())
    if support.size > Phi.shape[0]:
        order = np.argsort(energy[support])[::-1]
        support = np.sort(support[order[: Phi.shape[0]]])
    z = (2.0 * np.arange(n_sub) / n_sub - 1.0)[support]
    x_prev = None
    rho = 1.0
    ramp = np.arange(n_sub)
    for _ in range(cfg.r_ite):
        a = Phi @ atom_response(n_sub, z)
        x_s, *_ = np.linalg.lstsq(a, Y, rcond=None)
        if x_prev is not None:
            change = (np.linalg.norm(x_s - x_prev)
                      / max(np.linalg.norm(x_prev), 1e-300))
            if change < cfg.delta2:
                break
        x_prev = x_s
        f0 = float(np.linalg.norm(Y - a @ x_s) ** 2)
        grad = gradient(z, x_s)
        ramped = Phi @ (ramp[:, None] * atom_response(n_sub, z))
        curv = (2.0 * np.pi**2
                * np.sum(np.abs(x_s) ** 2, axis=1)
                * np.sum(np.abs(ramped) ** 2, axis=0))
        curv = np.maximum(curv, 1e-12 * max(curv.max(), 1.0))
        direction = grad / curv
        slope = float(np.dot(grad, direction))
        if slope > 0:
            accepted = False
            step = min(rho, 1.0)
            for _ in range(mod._MAX_BACKTRACKS):
                z_try = np.clip(z - step * direction, -1.0, 1.0)
                f_try = float(np.linalg.norm(
                    Y - Phi @ atom_response(n_sub, z_try) @ x_s) ** 2)
                if f_try <= f0 - mod._ARMIJO_SLOPE * step * slope:
                    z = z_try
                    rho = step * 2.0
                    accepted = True
                    break
                step *= mod._ARMIJO_SHRINK
            if not accepted:
                rho = max(rho * mod._ARMIJO_SHRINK, 1e-16)
    a = Phi @ atom_response(n_sub, z)
    x_s, *_ = np.linalg.lstsq(a, Y, rcond=None)
    d_refined = D.copy()
    d_refined[:, support] = atom_response(n_sub, z)
    x_full = np.zeros_like(x_on_grid, dtype=complex)
    x_full[support] = x_s
    return d_refined @ x_full


class TestOffGrid:
    def _instance(self, z_true, n=32, p_eff=24, m_count=2, seed=0, noise=0.0):
        rng = np.random.default_rng(seed)
        phi = crandn(rng, p_eff, n)
        h = atom_response(n, np.asarray(z_true))
        x_true = crandn(rng, len(z_true), m_count)
        y = phi @ h @ x_true
        if noise:
            y = y + noise * crandn(rng, p_eff, m_count)
        return phi, y, h @ x_true

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            n, s, m_count, p_eff = 16, 3, 2, 12
            phi = crandn(rng, p_eff, n)
            z = rng.uniform(-0.9, 0.9, s)
            x = crandn(rng, s, m_count)
            y = crandn(rng, p_eff, m_count)
            d = atom_response(n, z)
            grad, _ = mod._residual_gradient(phi, d, y - phi @ d @ x, x)
            fd = np.zeros(s)
            eps = 1e-6
            for k in range(s):
                zp, zm = z.copy(), z.copy()
                zp[k] += eps
                zm[k] -= eps
                fp = np.linalg.norm(y - phi @ atom_response(n, zp) @ x) ** 2
                fm = np.linalg.norm(y - phi @ atom_response(n, zm) @ x) ** 2
                fd[k] = (fp - fm) / (2 * eps)
            assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-5

    def test_on_grid_truth_is_stationary(self):
        # the atom keeps its angle, so the estimate is the on-grid truth
        n = 32
        D = dft_codebook(n)
        k = 9
        phi = crandn(np.random.default_rng(22), 24, n)
        x = np.zeros((n, 2), dtype=complex)
        x[k] = [1.0, 1.5]
        y = phi @ D @ x
        h_hat = offgrid_refine(y, phi, D, x, EstimatorConfig())
        assert nmse(h_hat, D @ x) < 1e-8

    def test_half_bin_offset_improves(self):
        n = 32
        D = dft_codebook(n)
        z_true = 2.0 * 10 / n - 1.0 + 1.0 / n     # midway between grid points
        phi, y, h_true = self._instance([z_true], n=n, seed=23)
        cfg = EstimatorConfig()
        x_on, _ = absbl_mmv(y, phi @ D, 0.0,
                            EstimatorConfig(block_size=4, t_ite=40))
        h_on = D @ x_on
        h_off = offgrid_refine(y, phi, D, x_on, cfg)
        # residual shrinks by >10x relative to the refinement's own start
        # (the LS fit on the selected support at the on-grid angles)
        energy = np.sum(np.abs(x_on) ** 2, axis=1)
        sup = np.flatnonzero(energy >= cfg.support_fraction * energy.max())
        a0 = phi @ D[:, sup]
        x0, *_ = np.linalg.lstsq(a0, y, rcond=None)
        resid_start = np.linalg.norm(y - a0 @ x0)
        resid_off = np.linalg.norm(y - phi @ h_off)
        assert resid_off < 0.1 * resid_start
        # and the channel estimate improves by well over 3 dB
        assert nmse(h_off, h_true) < 0.5 * nmse(h_on, h_true)

    def test_shared_builds_keep_every_bit(self):
        # off-grid paths, noise, supports larger than P and a cut-short
        # iteration budget, against the refinement that rebuilt its atoms
        rng = np.random.default_rng(27)
        for i in range(24):
            n = int(rng.choice([16, 32, 64]))
            p_eff = int(rng.integers(n // 4, n))
            D = dft_codebook(n)
            paths = int(rng.integers(1, 5))
            z_true = rng.uniform(-0.95, 0.95, paths)
            phi = crandn(rng, p_eff, n)
            y = (phi @ atom_response(n, z_true) @ crandn(rng, paths, 2)
                 + 0.05 * crandn(rng, p_eff, 2))
            x_on = np.linalg.lstsq(phi @ D, y, rcond=None)[0]
            cfg = EstimatorConfig(r_ite=int(rng.choice([3, 50])),
                                  support_fraction=float(rng.choice([0.01, 0.15])))
            np.testing.assert_array_equal(
                offgrid_refine(y, phi, D, x_on, cfg),
                offgrid_refine_recomputing(y, phi, D, x_on, cfg))

    def test_empty_support_passthrough(self):
        n = 16
        D = dft_codebook(n)
        phi = crandn(np.random.default_rng(24), 8, n)
        x = np.zeros((n, 2), dtype=complex)
        y = np.zeros((8, 2), dtype=complex)
        np.testing.assert_array_equal(offgrid_refine(y, phi, D, x), D @ x)


class TestNmse:
    def test_identities(self):
        rng = np.random.default_rng(25)
        h = crandn(rng, 8, 3)
        assert nmse(h, h) == 0.0
        assert nmse(np.zeros_like(h), h) == pytest.approx(1.0)
        assert nmse(2 * h, h) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.ones((2, 2)), np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.ones((2, 2)), np.ones((2, 3)))
