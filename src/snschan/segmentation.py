"""Birth-death point detection on the per-element power profile.

PASS slides a window over the power sequence, estimates robust location and
scale of each window with a reweighted minimum covariance determinant
(univariate, exact via sorted contiguous subsets), scores the trailing
element by its Mahalanobis distance, and filters the flagged elements with a
W/4-of-W/2 persistence rule. RFEM and AFM are the two reference detectors;
both flag the local maxima of their score above half its peak, through one
vectorized picker. Every segmentation, detected or fixed, gets its
breakpoints from one builder, ``from_breakpoints``, and detections are scored
against ground truth with a threshold-swept AUC.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# The chi-square numbers are float literals, so importing snschan loads no
# part of SciPy. Each is the value of the scipy.special expression that
# SciPy's chi2 distribution evaluates (ppf(p, k) is 2 * gammaincinv(k/2, p),
# cdf(x, k) is chdtr(k, x)), and a test pins every literal to its expression
# with ==. The closed forms (ndtri(...)**2, erf) are exact in theory but can
# differ in the last ulp, which would move results.
# chi2_1 0.975 quantile, 2 * gammaincinv(0.5, 0.975)
CHI2_975_1 = 5.023886187314888
SCORE_THRESHOLD = float(np.sqrt(CHI2_975_1))  # c_SD ~= 2.2414
# reweighted consistency factor, 0.975 / chdtr(3, CHI2_975_1)
_C1 = 1.1747786415645665
_VAR_FLOOR_REL = 1e-12
_PEAK_REL = 0.5   # RFEM/AFM keep local maxima above this share of the peak


@dataclass
class SegmentationResult:
    """Sorted breakpoints plus the per-element detection diagnostics.

    The program builds it only through ``from_breakpoints``, so every
    segmentation shares one breakpoint format.
    """

    breakpoints: np.ndarray     # 1-based, starts at 1, ends at N+1
    scores: np.ndarray | None = None  # per-element detector score; None if fixed
    outlier_sums: np.ndarray | None = None  # os_n (PASS only)

    @property
    def subarrays(self) -> list[np.ndarray]:
        """0-based element index sets partitioning {0..N-1}."""
        bp = self.breakpoints
        return [np.arange(bp[i] - 1, bp[i + 1] - 1) for i in range(len(bp) - 1)]

    @property
    def n_subarrays(self) -> int:
        return len(self.breakpoints) - 1

    def auc_score_sequence(self) -> np.ndarray:
        return self.outlier_sums if self.outlier_sums is not None else self.scores


def from_breakpoints(candidates: np.ndarray | list[int], n: int,
                     scores: np.ndarray | None = None,
                     outlier_sums: np.ndarray | None = None) -> SegmentationResult:
    """The segmentation of N elements at the given 1-based breakpoints.

    Candidates outside 1 < i <= N are dropped; 1 and N+1 are added, and the
    breakpoints are sorted and de-duplicated.
    """
    c = np.asarray(candidates, dtype=int)
    bp = np.unique(np.concatenate(([1], c[(c > 1) & (c <= n)], [n + 1])))
    return SegmentationResult(breakpoints=bp, scores=scores,
                              outlier_sums=outlier_sums)


def mcd_consistency_c0(h: int, w: int) -> float:
    """Raw MCD consistency factor (h/W) / P[chi2(3) < chi2_{h/W}(1)]; at
    h = W the quantile is infinite and the factor exactly 1."""
    alpha = h / w
    # the expressions of the module constants, for the same bits; SciPy is
    # imported on the first call, not with the package
    from scipy import special
    return alpha / float(special.chdtr(3, 2 * special.gammaincinv(0.5, alpha)))


def _mcd_batch(windows: np.ndarray, h: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Raw univariate MCD over each row of a (B, W) array.

    For scalars the minimum-variance h-subset is contiguous in sorted order,
    so an exhaustive scan over the W - h + 1 sorted runs is exact. Ties go to
    the smallest starting index. Returns (mu0, sigma0, srt, cs): the raw
    location and scale (B,), the sorted rows (B, W), and the running sums
    (W + 1, 2, B) of the sorted values (cs[:, 0]) and of their squares
    (cs[:, 1]), from 0, which `_reweight_batch` reads.
    """
    b, w = windows.shape
    if not (w + 2) / 2 <= h <= w:
        raise ValueError(f"h must satisfy (W+2)/2 <= h <= W, got h={h}, W={w}")
    srt = np.sort(windows, axis=1)
    # rank-major running sums, accumulated in place: step k adds the sums
    # to rank k - 1 of all rows at once, the same sequential sums as
    # np.cumsum along each row, in W short vector additions
    cs = np.empty((w + 1, 2, b))
    cs[0] = 0.0
    cs[1:, 0] = srt.T
    np.square(srt.T, out=cs[1:, 1])
    for k in range(2, w + 1):
        cs[k] += cs[k - 1]
    n_runs = w - h + 1
    sums, sqs = (cs[h:] - cs[:n_runs]).transpose(1, 0, 2)   # (n_runs, B) each
    variances = (sqs - sums**2 / h) / (h - 1)
    variances = np.maximum(variances, 0.0)            # guard roundoff
    best = np.argmin(variances, axis=0)               # first minimum
    rows = np.arange(b)
    mu0 = sums[best, rows] / h
    c0 = mcd_consistency_c0(h, w)
    sigma0 = c0 * variances[best, rows]
    return mu0, sigma0, srt, cs


def _chi2_keep(srt: np.ndarray, mu0: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """The reweighting set of each sorted row: (x - mu0)^2 / sig < chi2_0.975(1).

    Each rounded step of the test is monotone in x on either side of mu0,
    so on a sorted row the kept elements form one contiguous run.
    """
    d2 = srt - mu0[:, None]
    np.square(d2, out=d2)
    d2 /= sig[:, None]
    return d2 < CHI2_975_1


def _reweight_batch(
    windows: np.ndarray, mu0: np.ndarray, sigma0: np.ndarray,
    srt: np.ndarray, cs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Reweighted MCD mean/variance over each row given the raw estimates
    and the sorted rows and running sums of `_mcd_batch`.

    The kept elements of a sorted row are the run [lo, lo + n_keep)
    (`_chi2_keep`), so their sum and sum of squares are differences of the
    running sums at the run's ends, and the variance takes the one-pass form
    of the raw step. Against the two-pass sums over each window in its own
    order, the scores that PASS computes from these moments differ by at
    most 1e-6 max(score, 1): below 1e-7 on 2e6 windows of synthetic
    profiles with ties and flat runs, below 1e-11 on 3e6 windows of scene
    profiles. The kept sets are the same, and PASS's flags were the same
    on all of those windows. Both the raw and the reweighted variance are
    floored at a 1e-12 share of the squared row mean.
    """
    floors = np.maximum(_VAR_FLOOR_REL * np.mean(windows, axis=1) ** 2, 1e-300)
    keep = _chi2_keep(srt, mu0, np.maximum(sigma0, floors))
    n_keep = keep.sum(axis=1)
    # the element nearest mu0 lies within the raw scale, so n_keep >= 1
    lo = np.argmax(keep, axis=1)
    rows = np.arange(len(lo))
    sums, sqs = (cs[lo + n_keep, :, rows] - cs[lo, :, rows]).T
    mu = sums / n_keep
    var = _C1 * (sqs - sums**2 / n_keep) / np.maximum(n_keep - 1, 1)
    return mu, np.maximum(var, floors)


def check_window(w: int) -> None:
    """PASS's window rule: W >= 8 and divisible by 4."""
    if w < 8 or w % 4 != 0:
        raise ValueError(f"W must be >= 8 and divisible by 4, got {w}")


def pass_segment(profile: np.ndarray, w: int) -> SegmentationResult:
    """Power-adaptive subarray segmentation.

    The window covers elements n-W+1..n and tests element n, so elements
    1..W-1 inherit the first subarray. An element is accepted as a birth-death
    point iff it is flagged and the outlier sum over the next W/2 elements
    reaches W/4 (prorated near the array end); accepted points closer than
    W/4 keep the first.
    """
    p = np.asarray(profile, dtype=float)
    if p.ndim != 1:
        raise ValueError("profile must be 1-D")
    n = p.size
    if w > n:
        raise ValueError(f"window W={w} exceeds profile length N={n}")
    check_window(w)
    h = int(np.ceil(0.75 * w))   # MCD subset size

    windows = np.lib.stride_tricks.sliding_window_view(p, w)  # (N-W+1, W)
    mu_mcd, var_mcd = _reweight_batch(windows, *_mcd_batch(windows, h))

    scores = np.zeros(n)
    scores[w - 1:] = np.abs(windows[:, -1] - mu_mcd) / np.sqrt(var_mcd)
    flags = (scores > SCORE_THRESHOLD).astype(int)

    # os_n over the available suffix, with the acceptance threshold prorated
    half = w // 2
    cs = np.concatenate([[0], np.cumsum(flags)])
    idx = np.arange(n)
    os_n = cs[np.minimum(idx + half, n)] - cs[idx]
    suffix = np.minimum(half, n - idx)
    threshold = (w / 4) * suffix / half
    accepted = np.flatnonzero((flags == 1) & (os_n >= threshold)) + 1  # 1-based

    merged: list[int] = []
    for idx in accepted:
        if not merged or idx - merged[-1] >= w / 4:
            merged.append(int(idx))
    return from_breakpoints(merged, n, scores, os_n.astype(float))


def _peak_breakpoints(scores: np.ndarray, last: bool) -> np.ndarray:
    """1-based breakpoints (element + 1) at the elements 1..N-1 whose score
    exceeds half the peak and is no smaller than either neighbour's.

    The last element has -inf on its right; it can be a peak only if
    ``last`` is set.
    """
    s = scores[1:]
    right = np.append(scores[2:], -np.inf)
    peaks = (s > _PEAK_REL * scores.max()) & (s >= scores[:-1]) & (s >= right)
    if not last:
        peaks[-1] = False
    return np.flatnonzero(peaks) + 2


def rfem_segment(profile: np.ndarray) -> SegmentationResult:
    """Rising-and-falling-edges method: peaks of the first-order difference.

    The score at element n is |p_n - p_{n-1}|; local maxima above half the
    largest score become breakpoints, the last element included.
    """
    p = np.asarray(profile, dtype=float)
    n = p.size
    if n < 3:
        raise ValueError("profile too short")
    scores = np.zeros(n)
    scores[1:] = np.abs(np.diff(p))
    return from_breakpoints(_peak_breakpoints(scores, last=True), n, scores)


def afm_segment(profile: np.ndarray, fit_width: int) -> SegmentationResult:
    """Accumulation-function method: slope changes of the cumulative power.

    The score at element n is the difference of secant slopes of the
    accumulation function over fit_width elements before and after n; local
    maxima above half the largest score become breakpoints, the last element
    excluded.
    """
    p = np.asarray(profile, dtype=float)
    n = p.size
    if n < 3:
        raise ValueError("profile too short")
    if fit_width < 1:
        raise ValueError(f"fit_width must be >= 1, got {fit_width}")
    acc = np.concatenate([[0.0], np.cumsum(p)])   # acc[i] = sum of first i
    # candidate i: a new regime starts at 1-based element i+1
    i = np.arange(fit_width, n - fit_width + 1)
    scores = np.zeros(n)
    scores[i] = np.abs((acc[i + fit_width] - acc[i]) / fit_width
                       - (acc[i] - acc[i - fit_width]) / fit_width)
    return from_breakpoints(_peak_breakpoints(scores, last=False), n, scores)


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, each tie group given the mean of its ranks.

    Equal to SciPy's rankdata(x, method="average"): the ranks are exact
    integers or half-integers, so any exact computation gives the same bits.
    """
    order = np.argsort(x, kind="stable")
    srt = x[order]
    starts = np.flatnonzero(np.r_[True, srt[1:] != srt[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2, ends - starts)
    return ranks


def auc_score(scores: np.ndarray, truth_bp: np.ndarray, match_tol: int) -> float:
    """AUC of the per-element scores (N,) against the true breakpoint labels.

    Elements within +-match_tol of an interior true breakpoint are positives.
    The scores (for a detector's segmentation, its
    `SegmentationResult.auc_score_sequence`) are threshold-swept; the
    rank-based AUC equals the Mann-Whitney statistic with midrank tie
    handling. Returns max(AUC, 1 - AUC) in [0.5, 1]; degenerate truth (no
    interior breakpoints) returns 0.5. Raises ValueError if any score is
    not finite or match_tol < 0.
    """
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError("AUC scores must be finite")
    if match_tol < 0:
        raise ValueError(f"match_tol must be non-negative, got {match_tol}")
    n = scores.size
    truth_bp = np.asarray(truth_bp, dtype=int)
    interior = truth_bp[(truth_bp > 1) & (truth_bp <= n)]
    if interior.size == 0:
        warnings.warn("no interior truth breakpoints; AUC degenerates to 0.5",
                      RuntimeWarning, stacklevel=2)
        return 0.5
    # each breakpoint's +-match_tol window opens at one element and shuts
    # past another; the running count of open windows marks the positives
    opens = np.bincount(np.maximum(interior - match_tol - 1, 0), minlength=n + 1)
    shuts = np.bincount(np.minimum(interior + match_tol, n), minlength=n + 1)
    labels = np.cumsum(opens[:n] - shuts[:n]) > 0
    n_pos = int(labels.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    ranks = _midranks(scores)
    auc = (ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    return float(np.clip(max(auc, 1.0 - auc), 0.5, 1.0))
