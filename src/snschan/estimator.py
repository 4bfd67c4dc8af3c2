"""Per-subarray angular-domain channel estimation.

The on-grid estimator is a block-sparse Bayesian learner over a DFT
codebook, run jointly across subcarriers (multiple measurement vectors with
a shared block prior). Each length-U block g carries a diagonal factor Q_g =
diag(sqrt(gamma_{g,u})) for per-entry variances and a Hermitian factor P_g
for intra-block correlation; both are learned by EM. The noise variance
sigma2 is the receiver's known noise floor, an input no step updates. P_g
is the correlation matrix of the shrunk block statistics, and the P step
rescales gamma so that a run's blocks share one per-dimension log-det
(`update_p_alm`). An off-grid module then refines the selected grid angles
by alternating least squares with a fixed Armijo backtracking line search.

The per-entry variances are tied to their block: each gamma_{g,u} has an
inverse-gamma hyperprior whose mode is the block's pooled variance
gamma_bar_g = tr(P_g^-1 R_g) / (M U_g), weighted as M pseudo-snapshots, and
the gamma step is the exact MAP (EM) step under it. Untied type-II ML steps
from a handful of snapshots let a few entries of an empty block settle at
the noise level, so the block absorbs noise, and the fit worsens the longer
EM runs. Conventional BSBL (`bsbl_baseline`) keeps one variance per block,
gamma_g = gamma_bar_g, with P_g a correlation matrix; the entry point, not
the configuration, chooses it.

Because the prior is shared across subcarriers and the sensing matrix is
common, the joint posterior factorizes per subcarrier with one shared
covariance; no MN x MN system is ever formed (this equals the naive
Kronecker-structured computation, which the tests check).

Each run starts at its own data's scale: every per-entry variance of run r
starts at gamma0_r = ||Y_r||_F^2 / (M ||Psi||_F^2), and every P_g at I. That
is the one variance which, put on every atom, explains the observed energy
per snapshot: its unit is that of |Y|^2 per unit of |Psi|^2. A run whose
Y_r is all zero (or whose energy underflows), or whose Psi is zero, starts
at gamma0 = 0, where K = sigma2 I and the P step has no statistics to
factor. It never enters the EM loop: it returns the zero estimate,
converged at its first iteration, with the log marginal likelihood of that
K as its one objective entry.

Each run stops on the change of its log marginal likelihood (the log
evidence of Y) l = -M ln|K| - tr(Y^H K^-1 Y), without the constant
-P M ln pi: once one iteration moves l by less than delta1 nats per
observed scalar, |l_t - l_(t-1)| < delta1 P M, or after t_ite iterations.
The fit is scale-equivariant: Y -> cY with sigma2 -> c^2 sigma2 scales
the start, and with it every iterate's prior, by c^2 and shifts l by
-2 P M ln c, so the run takes the same steps, stops at the same iteration
and returns c times its estimate. A noiseless fit (sigma2 = 0) runs at a
noise floor relative to the data, 1e-12 of the energy per observed scalar
of its largest Y_r, which scales with them.
The E-step reads l from the Cholesky factor of K it already holds.

The learner holds its blocks stacked, not one by one. Every block but the
last has length block_size, so the blocks form at most two size groups:
the full blocks and a shorter final block. Each group keeps gamma as
(R, G, U) and P as (R, G, U, U), where R counts independent runs that
share Psi: one run for the joint learner (`absbl_mmv`), one run per column
of Y for the per-subcarrier learners (`absbl_per_column`), which the same
loop fits in one call. The runs share sigma2; each has its own objective
stop, and a run that stops keeps its last iterate while the others go on.
Groups are not padded to one length, because the pooled variance, the
log-det constraint and the shrinkage of P read the true U; the gamma and P
steps take each group's (R, G, ...) hyperparameters as one stack. No block
is ever dropped: the objective stop ends a fit long before any block's
variance falls decades below the largest, so every run keeps every block,
and a run's log-det constraint spans every block of both groups. Each
E-step builds every run's K in square-root form, takes one Cholesky factor
K = L L^H per run, and reads every block's posterior mean and covariance
from batched products of the Gram blocks of L^-1 Psi.

The square-root form: the P step hands over the Cholesky factor Lp_g of
each P_g with P_g itself (`update_p_alm`), so C_g = Q P Q = B'_g B'_g^H
with B'_g = Q_g Lp_g, and K = sigma2 I + B B^H with B_g = Psi_g B'_g. The
block products B_g cost what the products Psi_g C_g would. K comes from
one Hermitian rank-k update (BLAS herk), which writes only the lower
triangle that the Cholesky factor reads, and W = L^-1 Psi from one
right-sided triangular solve (BLAS trsm) of X L^T = Psi^T on a row-major
copy of Psi, which leaves W in place; a second one takes L^-1 Y. The
posterior means and covariances keep their formulas with C = Q P Q. Each
fit copies Psi^T once, so a block's atoms are one contiguous (U, P) slab
on which the block products run. potrf, herk and trsm come from SciPy
through `_lapack`, which imports SciPy on the first E-step, so importing
the estimator loads numpy alone. This rounds differently from the
covariance form (K = (Psi C) Psi^H by one GEMM, then left-sided solves):
the tests hold the posterior means and covariances to that form within
1e-12 of their largest entry.

SOMP (`somp_baseline`) keeps its residual orthogonal to the support by
projecting out each new atom's component off the span of the atoms before
it, and fits the coefficients by least squares once, on the final support.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

_ARMIJO_SHRINK = 0.5    # off-grid line search: step shrink per backtrack,
_ARMIJO_SLOPE = 1e-4    # sufficient-decrease slope
_MAX_BACKTRACKS = 40    # and backtracks per iteration


@cache
def _lapack():
    """LAPACK's complex Cholesky factor (potrf) and BLAS's Hermitian rank-k
    update (herk) and triangular solve (trsm), called directly: the E-step
    makes one update, one factor and two solves per run. SciPy is imported
    on the first E-step, not with the package."""
    from scipy.linalg.blas import get_blas_funcs
    from scipy.linalg.lapack import get_lapack_funcs
    like = (np.zeros(1, dtype=complex),)
    return (*get_lapack_funcs(("potrf",), like),
            *get_blas_funcs(("herk", "trsm"), like))


class EstimatorDivergenceError(RuntimeError):
    """A hyperparameter update produced non-finite or indefinite values."""


def atom_response(n_sub: int, z: np.ndarray) -> np.ndarray:
    """Array response columns exp(j pi n z) / sqrt(N) for half-wavelength spacing."""
    n = np.arange(n_sub)[:, None]
    return np.exp(1j * np.pi * n * np.atleast_1d(z)[None, :]) / np.sqrt(n_sub)


def dft_codebook(n_sub: int) -> np.ndarray:
    """The far-field DFT dictionary D (N_sub, N_sub): the atoms
    `atom_response` at the uniform sin-angle grid z_k = 2k/N - 1,
    k = 0..N-1. Its columns have unit norm and are mutually orthogonal,
    D^H D = I."""
    if n_sub < 1:
        raise ValueError("codebook needs at least one atom")
    # exp(j pi i z_k) = (-1)^i w^(i k mod N) with w = exp(j 2 pi / N): N
    # exponentials instead of N^2, each of an argument below 2 pi
    i = np.arange(n_sub)
    roots = np.exp(2j * np.pi * i / n_sub) / np.sqrt(n_sub)
    d = roots[np.outer(i, i) % n_sub]
    d[1::2] *= -1
    return d


@dataclass
class EstimatorConfig:
    """Hyperparameters of the block-sparse learner and the off-grid module.

    Neither the BSBL switch (the entry point's choice) nor the weight of the
    per-entry variances' hyperprior is a field. The weight is the snapshot
    count M of the run (see `update_gamma`), so the block's pooled variance
    weighs as much as each entry's own statistics. Nor is the start: every
    run starts at its data's scale, gamma0 = ||Y||_F^2 / (M ||Psi||_F^2) on
    every entry (0 for an all-zero Y or Psi, which returns the zero
    estimate at once), and P = I. Every run learns P_g: there is no
    frozen-P mode.
    """

    # 8 bins per block: at desk-scale subarray sizes (tens of atoms) larger
    # blocks span much of the grid and handicap every block learner
    block_size: int = 8
    t_ite: int = 30
    # stop once the log marginal likelihood changes by less than delta1 nats
    # per observed scalar (P M of them) in one iteration; 0 runs all t_ite
    delta1: float = 3e-3
    # identity shrinkage of P, in [1e-6, 1] (see _CONFIG_RULES)
    p_shrink: float = 0.9
    # off-grid module
    r_ite: int = 50
    delta2: float = 1e-6
    # of the max row energy; selecting too permissively leaves an
    # overcomplete support whose refinement valley is degenerate
    support_fraction: float = 0.15

    def __post_init__(self) -> None:
        for names, ok, rule in _CONFIG_RULES:
            for name in names:
                value = getattr(self, name)
                if not ok(value):
                    raise ValueError(f"{name} must be {rule}, got {value!r}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# (fields, test, rule) of every EstimatorConfig field; NaN fails every rule
_CONFIG_RULES = (
    (("block_size", "t_ite"), lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    (("r_ite",), lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    # json.load accepts Infinity: an infinite delta1 stopped every fit at
    # its second iteration
    (("delta1", "delta2"),
     lambda v: _is_real(v) and 0 <= v < np.inf, "a finite number >= 0"),
    # s = 0 can leave a block's shrunk statistics singular; the lower bound
    # keeps the shrink term s tr/U well above the rounding in the posterior
    # covariance. With the data-scale start a zero Y never reaches the P
    # step, and zero or tiny Y fits at 1e-6 (and at 1e-10) for every Psi
    # probed
    (("p_shrink",), lambda v: _is_real(v) and 1e-6 <= v <= 1, "a number in [1e-6, 1]"),
    (("support_fraction",), lambda v: _is_real(v) and 0 <= v <= 1,
     "a number in [0, 1]"),
)


@dataclass
class PosteriorState:
    """Converged posterior and hyperparameters of one estimator run."""

    mu: np.ndarray                        # (N_sub, M) posterior mean
    gamma: list[np.ndarray]               # per-entry variances of each block
    converged: bool
    history: list[np.ndarray]             # mu per iteration
    # log marginal likelihood -M ln|K| - tr(Y^H K^-1 Y) of each E-step
    objective: list[float]

    @property
    def iterations(self) -> int:
        """EM iterations taken: one mean per iteration in history (the zero
        start's one)."""
        return len(self.history)

    @property
    def active(self) -> list[int]:
        """Every block: no run drops one. bench/probe.py reads it for its
        active-block fraction."""
        return list(range(len(self.gamma)))


@dataclass
class _BlockStack:
    """The blocks of one length U, with their hyperparameters stacked over
    the runs and the blocks.

    Every block but the final one has length cfg.block_size, so a fit has
    at most two stacks: the full blocks and the shorter final block.
    """

    start: int            # the stack's first column of Psi
    gamma: np.ndarray     # (R, G, U) per-entry variances
    p: np.ndarray         # (R, G, U, U) intra-block correlations
    # (R, G, U, U) lower Cholesky factors of p, set with p (`_correlation`)
    p_chol: np.ndarray

    def rows(self, x: np.ndarray) -> np.ndarray:
        """The stack's rows of x (R, N_sub, ...) as a (R, G, U, ...) view."""
        _, g_count, u = self.gamma.shape
        return x[:, self.start:self.start + g_count * u].reshape(
            x.shape[0], g_count, u, *x.shape[2:])

    def cols(self, x: np.ndarray) -> np.ndarray:
        """The stack's columns of x (R, P, N_sub) as a (R, G, P, U) view."""
        _, g_count, u = self.gamma.shape
        return x[..., self.start:self.start + g_count * u].reshape(
            *x.shape[:-1], g_count, u).swapaxes(-2, -3)

    def keep_runs(self, keep: np.ndarray) -> None:
        """Drop the runs where keep is False."""
        self.gamma, self.p, self.p_chol = (
            self.gamma[keep], self.p[keep], self.p_chol[keep])


def _block_stacks(n_sub: int, u: int, gamma0: np.ndarray) -> list[_BlockStack]:
    """Contiguous blocks of length u, the final one possibly shorter, grouped
    by length, with every entry of run r at gamma0[r] (R,) and P = I (whose
    Cholesky factor is I)."""
    full, rest = divmod(n_sub, u)
    stacks = []
    for first, count, length in ((0, full, u), (full, 1, rest)):
        if count and length:
            eye = np.tile(np.eye(length, dtype=complex), (gamma0.size, count, 1, 1))
            gamma = np.tile(gamma0[:, None, None], (1, count, length))
            stacks.append(_BlockStack(start=first * u, gamma=gamma, p=eye,
                                      p_chol=eye.copy()))
    return stacks


def _prior_cov(gamma: np.ndarray, p: np.ndarray) -> np.ndarray:
    """C = Q P Q with Q = diag(sqrt(gamma)), over any leading axes."""
    root = np.sqrt(gamma)
    return root[..., :, None] * p * root[..., None, :]


class _Part(NamedTuple):
    """The E-step's output for one stack, over all its runs and blocks."""

    mu: np.ndarray        # (R, G, U, M) posterior means
    sigma: np.ndarray     # (R, G, U, U) posterior covariances


def _posterior(
    Y: np.ndarray, psi: np.ndarray, psi_rows: np.ndarray,
    stacks: list[_BlockStack], sigma2: float,
) -> tuple[list[_Part], np.ndarray]:
    """E-step of every run (Y is (R, P, M)) with its shared covariance K_r,
    from Psi (P, N_sub) and its rows psi_rows = Psi^T, both C-ordered.

    K_r is built in square-root form. With C_rg = Q P Q = B'_rg B'_rg^H,
    B'_rg = diag(sqrt(gamma_rg)) Lp_rg (Lp the stack's Cholesky factor of
    P), the block products B_rg = Psi_g B'_rg give
    K_r = sigma2 I + B_r B_r^H in one Hermitian rank-k update (herk), which
    writes the lower triangle alone: all that the Cholesky factor
    K_r = L_r L_r^H reads. Right-sided triangular solves (trsm),
    X L_r^T = Psi^T and X L_r^T = Y_r^T, give W_r = L_r^-1 Psi and
    L_r^-1 Y_r. Every block's Psi_g^H K_r^-1 Psi_g is then a Gram block
    W_rg^H W_rg and Psi^H K_r^-1 Y_r is W_r^H L_r^-1 Y_r, so
    mu_rg = C_rg Psi_g^H K_r^-1 Y_r and
    Sigma_rg = C_rg - C_rg Psi_g^H K_r^-1 Psi_g C_rg are batched products,
    with C = Q P Q.

    The block products B_rg run on the contiguous (U, P) slabs of
    psi_rows, and their rows B_r^T are the Fortran view of B_r that herk
    reads. Psi and Y_r are copied row-major, so their Fortran views are
    Psi^T and Y_r^T, which the solves overwrite in place with W_r^T and
    (L_r^-1 Y_r)^T: W_r and L_r^-1 Y_r, row-major. This rounds differently
    from the covariance form (one GEMM (Psi C) Psi^H, then left-sided
    solves): mu and Sigma agree with it within 1e-12 of their largest
    entry, which the tests check.

    The factors also give each run's log marginal likelihood (up to the
    constant -P M ln pi) l_r = -M ln|K_r| - ||L_r^-1 Y_r||_F^2: one sum of
    log-diagonals and one squared norm. A run whose K_r has no Cholesky
    factor is ridged, by 1e-12 tr(K_r) / P on the diagonal of the lower
    triangle already held, and factored again; it then takes the same solves
    and objective as every other run. A ridged K_r without a factor raises
    EstimatorDivergenceError.

    Returns one part per stack, in the order of stacks, and l (R,).
    """
    r_count, p_eff, m_count = Y.shape
    cs = [_prior_cov(s.gamma, s.p) for s in stacks]   # (R, G, U, U) each

    # rows B^T of every run; each block product is taken as Psi_g B'_g on
    # the transposed slab and copied into the rows
    b_rows = np.empty((r_count, *psi_rows.shape), dtype=complex)
    for s in stacks:
        root = np.sqrt(s.gamma)[..., :, None] * s.p_chol
        s.rows(b_rows)[...] = (
            s.rows(psi_rows[None]).swapaxes(-1, -2) @ root).swapaxes(-1, -2)
    # Psi and Y_r per run, row-major, which the solves turn into W_r and
    # L_r^-1 Y_r
    w = np.empty((r_count, *psi.shape), dtype=complex)
    w[:] = psi
    y_w = np.array(Y, order="C")
    objective = np.empty(r_count)
    potrf, herk, trsm = _lapack()
    for r in range(r_count):
        k_r = herk(1.0, b_rows[r].T, lower=1)          # Fortran-ordered
        diagonal = k_r.ravel(order="F")[::p_eff + 1]
        diagonal += sigma2
        chol, info = potrf(k_r, lower=1, clean=1)
        if info:
            # a numerically singular posterior system
            diagonal += 1e-12 * diagonal.real.sum() / p_eff
            chol, info = potrf(k_r, lower=1, clean=1)
            if info:
                raise EstimatorDivergenceError(
                    f"K of run {r} of {r_count} in this E-step has no Cholesky "
                    "factor, even ridged")
        for rhs in (w[r], y_w[r]):
            trsm(1.0, chol, rhs.T, side=1, lower=1, trans_a=1, overwrite_b=1)
        log_det = 2.0 * np.log(chol.diagonal().real).sum()
        quad = np.vdot(y_w[r], y_w[r]).real                   # ||L^-1 Y||_F^2
        objective[r] = -m_count * log_det - quad
    del b_rows      # before W's conjugate: one (R, N_sub, P) array less at peak
    left = w.conj()
    proj = left.swapaxes(-1, -2) @ y_w                    # Psi^H K^-1 Y

    parts = []
    for s, c in zip(stacks, cs):
        gram = s.cols(left).swapaxes(-1, -2) @ s.cols(w)
        sig_g = c - c @ gram @ c
        sig_g += sig_g.conj().swapaxes(-1, -2)
        sig_g *= 0.5
        parts.append(_Part(c @ s.rows(proj), sig_g))
    return parts, objective


def _inverse_weighted(r_bar: np.ndarray, p_g: np.ndarray) -> np.ndarray:
    """terms_uj = Re[(P^-1)_uj (sum_m R_m)_ju], the statistics both gamma
    steps read; Q is real, so only real parts enter."""
    return np.real(np.linalg.inv(p_g) * np.swapaxes(r_bar, -1, -2))


def _pooled_variance(terms: np.ndarray, m_count: int) -> np.ndarray:
    """Each block's pooled variance tr(P^-1 sum_m R_m) / (M U).

    This is the type-II ML variance of the block under the prior gamma P
    (one scalar per block, as in conventional BSBL).
    """
    u = terms.shape[-1]
    return np.maximum(terms.sum(axis=(-2, -1)) / (m_count * u), 0.0)


def update_gamma(r_bar: np.ndarray, p_g: np.ndarray, gamma_g: np.ndarray,
                 m_count: int, prior_weight: float = 0.0) -> np.ndarray:
    """Per-entry variance update of a block, or of a stack of equal-length
    blocks: r_bar and p_g are (..., U, U), gamma_g is (..., U).

    gamma_u = (sqrt(B^2/(4M'^2) + A'/M') + B/(2M'))^2 with
    A_u = (P^-1)_uu (sum_m R_m)_uu and
    B_u = [P^-1 W^+ (sum_m R_m)]_uu, where W^+ pseudo-inverts the diagonal
    factor W that zeroes the u-th entry of Q. Inverting the factors
    separately (rather than the singular product W P) makes the update an
    exact fixed point of the prior-dominated limit R = M Q P Q.

    With prior_weight a = 0 this is the type-II ML step: M' = M, A' = A.
    With a > 0 it is the exact MAP step under an inverse-gamma hyperprior
    on each entry, gamma_u ~ IG(shape a - 1, scale a gamma_bar) (improper
    for a = 1), whose mode is the block's pooled variance gamma_bar
    (`_pooled_variance`), recomputed from the current statistics. The log
    prior -a ln gamma_u - a gamma_bar / gamma_u adds a pseudo-snapshots
    of variance gamma_bar: M' = M + a and A'_u = A_u + a gamma_bar. The
    entries of a block then share strength, so a lone noise-level entry
    cannot hold an otherwise empty block at the noise level. For U = 1
    the mode is the entry's own ML value and the step is unchanged.
    """
    terms = _inverse_weighted(r_bar, p_g)
    own = np.diagonal(terms, axis1=-2, axis2=-1)
    a_vec = np.maximum(own, 0.0)
    sqrt_gamma = np.sqrt(np.maximum(gamma_g, 0.0))
    w_inv = np.divide(1.0, sqrt_gamma, out=np.zeros_like(sqrt_gamma),
                      where=sqrt_gamma > 0)
    # B_u = sum_{j != u} (P^-1)_{uj} R_ju / sqrt(gamma_j)
    b_vec = (terms @ w_inv[..., None])[..., 0] - own * w_inv
    m = float(m_count)
    if prior_weight > 0:
        a_vec = a_vec + prior_weight * _pooled_variance(terms, m_count)[..., None]
        m += prior_weight
    root = np.sqrt(b_vec**2 / (4.0 * m**2) + a_vec / m)
    return (root + b_vec / (2.0 * m)) ** 2


def _correlation(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                         np.ndarray]:
    """P = corr(A) = D^-1/2 A D^-1/2, D = diag(A), of Hermitian positive
    definite matrices a (..., U, U), with the lower Cholesky factor
    D^-1/2 L_A of P, diag(A) and ln|A|, all from the one Cholesky factor
    A = L_A L_A^H: P's factor costs one row scaling. This is how P and its
    factor are set, always together. A without a Cholesky factor raises
    EstimatorDivergenceError."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise EstimatorDivergenceError(
            "shrunk block statistics are not positive definite") from None
    log_a = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1).real).sum(axis=-1)
    diag = np.diagonal(a, axis1=-2, axis2=-1).real
    inv = 1.0 / np.sqrt(diag)
    u = a.shape[-1]
    p = a * (inv[..., :, None] * inv[..., None, :])   # exactly Hermitian
    p.reshape(-1, u * u)[:, ::u + 1] = 1.0
    chol *= inv[..., :, None]
    return p, chol, diag, log_a


def update_p_alm(
    r_bars: list[np.ndarray],
    gammas: list[np.ndarray],
    m_count: int,
    p_shrink: float,
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Intra-block correlations P_g, per-entry gamma scales and the lower
    Cholesky factors of P_g of the blocks, one stack per block length:
    r_bars[i] is (..., G_i, U_i, U_i) and gammas[i] is (..., G_i, U_i),
    where the leading axes index the runs and every run holds all G_i
    blocks of every stack. A single block is a stack of one, (1, U, U).

    The prior factor is A_g / den_g with the shrunk statistics
    A_g = (1 - s) herm(Q^-1 sum_m R_m Q^-1) + s (tr/U_g) I, s = p_shrink,
    and den_g = M exp(ln|A_g| / U_g - b_r), b_r = sum ln|A| / sum U over the
    blocks of run r: a run's blocks share one per-dimension log-det, and a
    lone block gets den = M. Q P Q is invariant under a diagonal rescale of
    (Q, P), so the factor is returned as P_g = corr(A_g), whose lambda_min
    is at least s / ((1 - s) U + s), and the gamma scale diag(A_g) / den_g.
    One Cholesky factor A_g = L_A L_A^H per stack gives ln|A| and P_g's own
    factor D^-1/2 L_A (D = diag(A_g); `_correlation`): lower-triangular with
    a positive real diagonal, its product with its conjugate transpose is
    P_g within rounding (1e-13 in the tests, also at s = 1e-6). The E-step
    builds K from it. A stack without a factor raises
    EstimatorDivergenceError.
    """
    factors = []   # (P, its factor, diag(A), ln|A|) of each stack
    for r_bar, gam in zip(r_bars, gammas):
        u = r_bar.shape[-1]
        qi = 1.0 / np.maximum(np.sqrt(np.maximum(gam, 0.0)), 1e-150)
        a = qi[..., :, None] * r_bar * qi[..., None, :]
        a += a.conj().swapaxes(-1, -2)     # exactly Hermitian, real diagonal
        a *= 0.5
        trace = a.trace(axis1=-2, axis2=-1).real
        a *= 1.0 - p_shrink
        np.einsum("...ii->...i", a)[...] += p_shrink * (trace / u)[..., None]
        factors.append(_correlation(a))
    ps, chols, diags, log_a = zip(*factors)
    # each run's ln|A| summed over its blocks one after another, stack after
    # stack: the last partial sum
    total = np.cumsum(np.concatenate(log_a, axis=-1), axis=-1)[..., -1]
    bar = (total / sum(d.shape[-2] * d.shape[-1] for d in diags))[..., None]
    return list(ps), [d / (m_count * np.exp(ld / d.shape[-1] - bar))[..., None]
                      for d, ld in zip(diags, log_a)], list(chols)


def _checked(Y: np.ndarray, Psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    Y = np.asarray(Y, dtype=complex)
    Psi = np.asarray(Psi, dtype=complex)
    if not (np.all(np.isfinite(Y)) and np.all(np.isfinite(Psi))):
        raise ValueError("observations and sensing matrix must be finite")
    if Y.ndim != 2 or Psi.shape[0] != Y.shape[0] or Y.shape[0] < 1:
        raise ValueError("Y and Psi shapes disagree")
    return Y, Psi


def _run_state(stacks: list[_BlockStack], r: int, converged: bool,
               history: list[np.ndarray], objective: list[float]) -> PosteriorState:
    """The posterior of run r of stacks after its last iteration, whose mean
    is the last entry of history."""
    gamma = [gam for s in stacks for gam in s.gamma[r]]
    return PosteriorState(mu=history[-1], gamma=gamma, converged=converged,
                          history=history, objective=objective)


def _sbl_runs(Y: np.ndarray, Psi: np.ndarray, sigma2: float,
              cfg: EstimatorConfig, scalar_gamma: bool) -> list[PosteriorState]:
    """Independent block-sparse learners, one per Y[r] (R, P, M), that
    share Psi and sigma2, fitted in one batched EM loop; see `absbl_mmv`.
    scalar_gamma makes every run conventional BSBL (see `bsbl_baseline`).

    Each run has its own hyperparameters and objective stop. Run r starts
    with every per-entry variance at its data's scale,
    gamma0_r = ||Y_r||_F^2 / (M ||Psi||_F^2) (the unit of |Y|^2 per unit of
    |Psi|^2), and P = I; a run with gamma0_r = 0 (an all-zero Y_r, or a
    zero Psi) returns mu = 0, converged at its first iteration, without
    entering the loop. A run that stops leaves the stacks, so every step
    works only on the runs still going.
    """
    r_count, p_eff, m_count = Y.shape
    n_sub = Psi.shape[1]
    u = cfg.block_size
    # the data-scale start: per snapshot, a prior of variance gamma0 on every
    # entry puts gamma0 ||Psi||_F^2 into ||Y_r||_F^2 / M. A zero Psi sees
    # nothing, so its runs start at 0 like those of a zero Y
    psi_energy = m_count * np.vdot(Psi, Psi).real
    y_energy = np.einsum("rpm,rpm->r", Y.conj(), Y).real
    gamma0 = y_energy / psi_energy if psi_energy > 0 else np.zeros(r_count)
    # at sigma2 = 0 a floor relative to the data keeps K positive definite
    # and the fit scale-free; the least normal double keeps a zero Y's
    # objective finite. Y may have no column
    per_scalar = y_energy.max(initial=0.0) / max(p_eff * m_count, 1)
    sigma2 = max(float(sigma2), 1e-12 * per_scalar, np.finfo(float).tiny)

    states: list[PosteriorState | None] = [None] * r_count
    # a zero start has K = sigma2 I and zero block statistics, which the P
    # step's Cholesky factor cannot take: it keeps the zero estimate, with
    # the log marginal likelihood of that K
    for r in np.flatnonzero(gamma0 == 0):
        states[r] = _run_state(
            _block_stacks(n_sub, u, np.zeros(1)), 0, True,
            [np.zeros((n_sub, m_count), dtype=complex)],
            [float(-m_count * p_eff * np.log(sigma2) - y_energy[r] / sigma2)])

    order = np.flatnonzero(gamma0 > 0)   # the original index of each run
    Y = Y[order]
    stacks = _block_stacks(n_sub, u, gamma0[order])
    histories: list[list[np.ndarray]] = [[] for _ in range(r_count)]
    objectives: list[list[float]] = [[] for _ in range(r_count)]
    # the stop's tolerance on the objective's change, in nats
    tol = cfg.delta1 * p_eff * m_count
    stop = np.zeros(order.size, dtype=bool)  # runs that stopped this step
    psi = np.ascontiguousarray(Psi)
    psi_rows = np.ascontiguousarray(Psi.T)

    for it in range(1, cfg.t_ite + 1):
        if stop.all():
            break
        if stop.any():
            keep = ~stop
            order, Y, stop = order[keep], Y[keep], stop[keep]
            for s in stacks:
                s.keep_runs(keep)
        parts, objective = _posterior(Y, psi, psi_rows, stacks, sigma2)
        mu = np.concatenate([part.mu.reshape(order.size, -1, m_count)
                             for part in parts], axis=1)
        r_bars = []
        for part in parts:
            r_bar = part.mu @ part.mu.conj().swapaxes(-1, -2)
            r_bar += m_count * part.sigma
            r_bars.append(r_bar)

        # M-step: gamma and P both read the pre-update iterate, so the P
        # update inverts the old Q (keeping gamma's shrinkage effective in
        # the composite prior Q P Q); the stacks take the new iterate last
        gammas_new = []
        for r_bar, s in zip(r_bars, stacks):
            if scalar_gamma:
                pooled = _pooled_variance(_inverse_weighted(r_bar, s.p), m_count)
                gammas_new.append(np.repeat(pooled[..., None], s.gamma.shape[-1],
                                            axis=-1))
            else:
                gammas_new.append(update_gamma(r_bar, s.p, s.gamma, m_count,
                                               prior_weight=m_count))
        new_ps, scales, new_chols = update_p_alm(
            r_bars, [s.gamma for s in stacks], m_count, cfg.p_shrink)
        for s, p_new, chol, scale, gam in zip(stacks, new_ps, new_chols,
                                              scales, gammas_new):
            # conventional BSBL's single gamma takes the mean scale
            s.p, s.p_chol = p_new, chol
            gam *= scale.mean(axis=-1, keepdims=True) if scalar_gamma else scale
        for s, gam in zip(stacks, gammas_new):
            s.gamma = gam

        if not (np.all(np.isfinite(mu))
                and all(np.all(np.isfinite(gam)) for gam in gammas_new)):
            raise EstimatorDivergenceError(
                f"non-finite update at iteration {it} (sigma2={sigma2:.3g})")

        for r, orig in enumerate(order):
            obj = objectives[orig]
            obj.append(float(objective[r]))
            stop[r] = len(obj) > 1 and abs(obj[-1] - obj[-2]) < tol
            histories[orig].append(mu[r])
            if stop[r]:
                states[orig] = _run_state(stacks, r, True, histories[orig], obj)

    for r in np.flatnonzero(~stop):
        states[order[r]] = _run_state(stacks, r, False, histories[order[r]],
                                      objectives[order[r]])
    return states


def absbl_mmv(
    Y: np.ndarray,
    Psi: np.ndarray,
    sigma2: float,
    cfg: EstimatorConfig | None = None,
) -> tuple[np.ndarray, PosteriorState]:
    """Block-sparse Bayesian recovery of X from Y = Psi X + N, jointly over
    the columns of Y (subcarriers sharing one block prior), where N has the
    known per-entry variance sigma2.

    The prior starts at the data's scale: every per-entry variance at
    gamma0 = ||Y||_F^2 / (M ||Psi||_F^2), the variance that explains the
    energy of Y per snapshot when put on every atom, and P = I. An all-zero
    Y (or Psi) gives gamma0 = 0, and the fit returns X = 0, converged at its
    first iteration, without iterating. Y -> cY with sigma2 -> c^2 sigma2
    therefore gives c X with the same iterations.

    Each iteration computes the per-subcarrier posterior with the current
    prior, then updates gamma and P (which rescales gamma per entry, see
    `update_p_alm`) with sigma2 held fixed. Every block stays in the fit.
    Stops after t_ite iterations, or when the log marginal likelihood
    -M ln|K| - tr(Y^H K^-1 Y) of the E-step changes by less than delta1 nats
    per observed scalar (delta1 P M in all); delta1 = 0 runs every
    iteration. The state's objective logs it per iteration.
    """
    Y, Psi = _checked(Y, Psi)
    cfg = EstimatorConfig() if cfg is None else cfg
    state, = _sbl_runs(Y[None], Psi, sigma2, cfg, scalar_gamma=False)
    return state.mu, state


def absbl_per_column(
    Y: np.ndarray,
    Psi: np.ndarray,
    sigma2: float,
    cfg: EstimatorConfig | None = None,
    *,
    scalar_gamma: bool = False,
) -> tuple[np.ndarray, list[PosteriorState]]:
    """Each column of Y fitted on its own (one subcarrier, no prior shared
    across subcarriers), all in one batched run with the known noise
    variance sigma2.

    Equals one `absbl_mmv` (with scalar_gamma, `bsbl_baseline`) call per
    column, up to rounding. Returns the estimates and each one's posterior.
    """
    Y, Psi = _checked(Y, Psi)
    cfg = EstimatorConfig() if cfg is None else cfg
    states = _sbl_runs(Y.T[:, :, None], Psi, sigma2, cfg, scalar_gamma)
    x_hat = np.zeros((Psi.shape[1], Y.shape[1]), dtype=complex)
    for m, state in enumerate(states):
        x_hat[:, m:m + 1] = state.mu
    return x_hat, states


def bsbl_baseline(Y: np.ndarray, Psi: np.ndarray, sigma2: float,
                  cfg: EstimatorConfig | None = None
                  ) -> tuple[np.ndarray, PosteriorState]:
    """Conventional BSBL: one variance scalar per block (Q_g = sqrt(gamma_g) I),
    jointly over the columns of Y with the known noise variance sigma2, by
    the EM loop of `absbl_mmv` run with its BSBL switch on.

    gamma_g is the block's pooled type-II ML variance and carries no
    hyperprior. P_g is learned as in ABSBL, and gamma_g takes the mean of
    ABSBL's per-entry gamma scale.
    """
    Y, Psi = _checked(Y, Psi)
    cfg = EstimatorConfig() if cfg is None else cfg
    state, = _sbl_runs(Y[None], Psi, sigma2, cfg, scalar_gamma=True)
    return state.mu, state


def somp_baseline(
    Y: np.ndarray,
    Psi: np.ndarray,
    residual_tol: float | None = None,
) -> np.ndarray:
    """Simultaneous OMP over the measurement vectors (columns of Y).

    Greedy selection by aggregate correlation, stopping once the relative
    residual norm reaches residual_tol or after min(P, N_sub) atoms. The
    residual is kept orthogonal to the support by projecting out each new
    atom's component orthogonal to the atoms before it (Gram-Schmidt,
    applied twice), so one least-squares fit on the final support gives the
    coefficients. Y and Psi must be finite, as for the block-sparse
    learners.
    """
    Y, Psi = _checked(Y, Psi)
    p_eff, n_sub = Psi.shape
    # past P atoms the support spans the whole space and the residual is
    # rounding noise, so no further atom could be chosen by its correlation
    max_atoms = min(p_eff, n_sub)
    col_norms = np.linalg.norm(Psi, axis=0)
    col_norms[col_norms == 0] = 1.0
    y_norm = np.linalg.norm(Y)
    x_hat = np.zeros((n_sub, Y.shape[1]), dtype=complex)
    if y_norm == 0:
        return x_hat
    psi_h = Psi.conj().T
    support: list[int] = []
    basis = np.zeros((max_atoms, p_eff), dtype=complex)   # orthonormal rows
    basis_h = np.zeros_like(basis)                         # their conjugates
    residual = Y.copy()
    # an atom whose component off the support's span is at rounding level,
    # relative to the atom's own norm, joins the support but not the basis:
    # normalizing that component would project a direction of pure rounding
    # noise out of the residual
    tiny = np.finfo(float).eps * max(p_eff, max_atoms)
    for k in range(max_atoms):
        corr = np.linalg.norm(psi_h @ residual, axis=1) / col_norms
        corr[support] = -1.0
        j = int(np.argmax(corr))
        support.append(j)
        q = Psi[:, j].copy()
        for _ in range(2):
            q -= basis[:k].T @ (basis_h[:k] @ q)
        norm = np.linalg.norm(q)
        if norm > tiny * col_norms[j]:
            basis[k] = q / norm
            basis_h[k] = basis[k].conj()
            residual -= np.outer(basis[k], basis_h[k] @ residual)
        if residual_tol is not None and np.linalg.norm(residual) / y_norm <= residual_tol:
            break
    coef, *_ = np.linalg.lstsq(Psi[:, support], Y, rcond=None)
    x_hat[support] = coef
    return x_hat


def _offgrid_atoms(Phi: np.ndarray, n_sub: int,
                   z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The atoms D(z) and the measured atoms Phi D(z)."""
    d = atom_response(n_sub, z)
    return d, Phi @ d


def _residual_gradient(Phi: np.ndarray, d: np.ndarray, resid: np.ndarray,
                       X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of ||Y - Phi D(z) X||_F^2 in the grid variables z,
    from the atoms d = D(z) and the residual Y - Phi D X, and the ramped
    atoms L .* D it reads.

    With atom phases exp(+j pi n z), the k-th component is
    -2 Re{ j pi [X (Y - Phi D X)^H Phi (L .* D)]_kk } where the ramp matrix L
    has columns [0..N-1].
    """
    ramped = np.arange(d.shape[0])[:, None] * d
    inner = X @ resid.conj().T @ Phi @ ramped
    return -2.0 * np.pi * np.real(1j * np.diag(inner)), ramped


def offgrid_refine(
    Y: np.ndarray,
    Phi: np.ndarray,
    D: np.ndarray,
    x_on_grid: np.ndarray,
    cfg: EstimatorConfig | None = None,
) -> np.ndarray:
    """Refine the grid angles of the significant atoms of the on-grid
    coefficients x_on_grid under the DFT dictionary D (`dft_codebook`).

    Alternates a least-squares coefficient fit on the selected atoms with a
    backtracking (Armijo) gradient step on their sin-angle positions, so the
    residual never increases on an accepted step. Returns the channel
    estimate D' X': D with the selected atoms moved, times the refitted
    coefficients, which are zero off the selected atoms.

    Each iteration builds the atoms, their measurements and the residual
    once, for the fit, the objective, the gradient and the curvature; an
    accepted step hands the atoms it tried to the next iteration.
    """
    if cfg is None:
        cfg = EstimatorConfig()
    Y = np.asarray(Y, dtype=complex)
    n_sub = D.shape[0]
    energy = np.sum(np.abs(x_on_grid) ** 2, axis=1)
    if energy.max() == 0:
        return D @ x_on_grid
    support = np.flatnonzero(energy >= cfg.support_fraction * energy.max())
    if support.size > Phi.shape[0]:
        order = np.argsort(energy[support])[::-1]
        support = np.sort(support[order[: Phi.shape[0]]])

    # the grid angles z_k = 2k/N - 1 of `dft_codebook`
    z = 2.0 * support / n_sub - 1.0
    d, a = _offgrid_atoms(Phi, n_sub, z)
    x_prev = None
    rho = 1.0
    for _ in range(cfg.r_ite):
        x_s, *_ = np.linalg.lstsq(a, Y, rcond=None)
        if x_prev is not None:
            change = (np.linalg.norm(x_s - x_prev)
                      / max(np.linalg.norm(x_prev), 1e-300))
            if change < cfg.delta2:
                break
        x_prev = x_s
        resid = Y - a @ x_s
        f0 = float(np.linalg.norm(resid) ** 2)
        grad, ramped = _residual_gradient(Phi, d, resid, x_s)
        # diagonal curvature scaling: d2f/dz_k^2 ~ 2 pi^2 ||x_k||^2
        # ||Phi (l .* d_k)||^2; the raw objective is stiff enough that plain
        # Armijo steps stall at ~1/(pi n)^2 of a grid bin
        curv = (2.0 * np.pi**2
                * np.sum(np.abs(x_s) ** 2, axis=1)
                * np.sum(np.abs(Phi @ ramped) ** 2, axis=0))
        curv = np.maximum(curv, 1e-12 * max(curv.max(), 1.0))
        direction = grad / curv
        slope = float(np.dot(grad, direction))
        if slope > 0:
            accepted = False
            step = min(rho, 1.0)
            for _ in range(_MAX_BACKTRACKS):
                z_try = np.clip(z - step * direction, -1.0, 1.0)
                d_try, a_try = _offgrid_atoms(Phi, n_sub, z_try)
                f_try = float(np.linalg.norm(Y - a_try @ x_s) ** 2)
                if f_try <= f0 - _ARMIJO_SLOPE * step * slope:
                    z, d, a = z_try, d_try, a_try
                    rho = step * 2.0
                    accepted = True
                    break
                step *= _ARMIJO_SHRINK
            if not accepted:
                rho = max(rho * _ARMIJO_SHRINK, 1e-16)

    x_s, *_ = np.linalg.lstsq(a, Y, rcond=None)
    d_refined = D.copy()
    d_refined[:, support] = d
    x_full = np.zeros_like(x_on_grid, dtype=complex)
    x_full[support] = x_s
    return d_refined @ x_full


def nmse(h_hat: np.ndarray, h_true: np.ndarray) -> float:
    """Normalized squared error ||H_hat - H||_F^2 / ||H||_F^2."""
    h_hat = np.asarray(h_hat)
    h_true = np.asarray(h_true)
    if h_hat.shape != h_true.shape:
        raise ValueError("shape mismatch")
    denom = float(np.linalg.norm(h_true) ** 2)
    if denom == 0:
        raise ValueError("reference channel has zero norm")
    return float(np.linalg.norm(h_hat - h_true) ** 2) / denom
