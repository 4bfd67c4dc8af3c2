import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from snschan.config import SystemConfig
from snschan.experiments import _SEG_SCENE
from snschan.pipeline import measure_power
from snschan.scenario import ScenarioOptions, generate_scenario
from snschan.segmentation import (
    _C1,
    CHI2_975_1,
    SCORE_THRESHOLD,
    SegmentationResult,
    _chi2_keep,
    _mcd_batch,
    _midranks,
    _reweight_batch,
    afm_segment,
    auc_score,
    mcd_consistency_c0,
    pass_segment,
    rfem_segment,
)


def mcd_row(window, h):
    """Raw MCD (mu0, sigma0) of one window: a batch of one row."""
    mu0, sigma0, _, _ = _mcd_batch(np.asarray(window, dtype=float)[None, :], h)
    return mu0[0], sigma0[0]


def reweight_row(window, mu0, sigma0):
    """Reweighted MCD (mu, var) of one window from raw estimates: a batch of
    one row, read from the sorted row and running sums of `_mcd_batch`
    (whatever h it takes, h = W here)."""
    row = np.asarray(window, dtype=float)[None, :]
    _, _, srt, cs = _mcd_batch(row, row.shape[1])
    mu, var = _reweight_batch(row, np.array([mu0]), np.array([sigma0]), srt, cs)
    return mu[0], var[0]


def reference_mcd(windows, h):
    """_mcd_batch with one fresh temporary per arithmetic step, as first
    written: the byte oracle of its in-place arithmetic."""
    b, w = windows.shape
    srt = np.sort(windows, axis=1)
    cs = np.concatenate([np.zeros((b, 1)), np.cumsum(srt, axis=1)], axis=1)
    cs2 = np.concatenate([np.zeros((b, 1)), np.cumsum(srt**2, axis=1)], axis=1)
    starts = np.arange(w - h + 1)
    sums = cs[:, starts + h] - cs[:, starts]
    sqs = cs2[:, starts + h] - cs2[:, starts]
    variances = np.maximum((sqs - sums**2 / h) / (h - 1), 0.0)
    best = np.argmin(variances, axis=1)
    rows = np.arange(b)
    return sums[rows, best] / h, mcd_consistency_c0(h, w) * variances[rows, best]


def reference_reweight(windows, mu0, sigma0):
    """_reweight_batch as first written, with the final floor that
    pass_segment applied after it."""
    floors = np.maximum(1e-12 * np.mean(windows, axis=1) ** 2, 1e-300)
    sig = np.maximum(sigma0, floors)
    keep = (windows - mu0[:, None]) ** 2 / sig[:, None] < CHI2_975_1
    n_keep = keep.sum(axis=1)
    mu = np.sum(windows * keep, axis=1) / n_keep
    ss = np.sum(keep * (windows - mu[:, None]) ** 2, axis=1)
    return mu, np.maximum(_C1 * ss / np.maximum(n_keep - 1, 1), floors)


def reference_pass(profile, w):
    """PASS on the two stages above: (accepted points, scores, outlier sums)."""
    p = np.asarray(profile, dtype=float)
    n, h = p.size, int(np.ceil(0.75 * w))
    windows = np.lib.stride_tricks.sliding_window_view(p, w)
    mu, var = reference_reweight(windows, *reference_mcd(windows, h))
    scores = np.zeros(n)
    scores[w - 1:] = np.abs(windows[:, -1] - mu) / np.sqrt(var)
    flags = (scores > SCORE_THRESHOLD).astype(int)
    half = w // 2
    cs_f = np.concatenate([[0], np.cumsum(flags)])
    idx = np.arange(n)
    os_n = cs_f[np.minimum(idx + half, n)] - cs_f[idx]
    threshold = (w / 4) * np.minimum(half, n - idx) / half
    merged = []
    for i in np.flatnonzero((flags == 1) & (os_n >= threshold)) + 1:
        if not merged or i - merged[-1] >= w / 4:
            merged.append(int(i))
    return merged, scores, os_n.astype(float)


# scores of the reweighted moments against the window-order two-pass
# reference: the tolerance that `_reweight_batch` states
SCORE_RTOL = 1e-6


def power_profile(seed, n, kind):
    """A power profile of n elements: exponential values on piecewise levels,
    rounded to one decimal (ties), half flat, or near flat (a few ulps)."""
    rng = np.random.default_rng(seed)
    p = rng.exponential(size=n) * np.repeat(rng.uniform(0.1, 3.0, n // 8 + 1), 8)[:n]
    if kind == "ties":
        p = np.round(p, 1)
    elif kind == "flat_half":
        p[: n // 2] = 1.0
    elif kind == "near_flat":
        p = 1.0 + rng.integers(-3, 4, size=n) * np.finfo(float).eps
    return p


@given(st.integers(0, 2**32 - 1), st.sampled_from([8, 12, 16, 32, 64]),
       st.integers(0, 600),
       st.sampled_from(["smooth", "ties", "flat_half", "near_flat"]))
@settings(max_examples=120, deadline=None)
def test_pass_segment_matches_the_reference(seed, w, extra, kind):
    # the raw MCD and its running sums keep every bit; the reweighted scores
    # lie within SCORE_RTOL max(score, 1) of the reference, and the flags,
    # outlier sums and breakpoints are the same
    n = w + extra
    p = power_profile(seed, n, kind)
    windows = np.lib.stride_tricks.sliding_window_view(p, w)
    h = int(np.ceil(0.75 * w))
    mu0, sigma0, srt, cs = _mcd_batch(windows, h)
    for got, want in zip((mu0, sigma0), reference_mcd(windows, h), strict=True):
        assert got.tobytes() == want.tobytes()
    assert srt.tobytes() == np.sort(windows, axis=1).tobytes()
    assert cs[1:, 0].T.tobytes() == np.cumsum(srt, axis=1).tobytes()
    assert cs[1:, 1].T.tobytes() == np.cumsum(srt**2, axis=1).tobytes()
    assert not cs[0].any()
    merged, scores, os_n = reference_pass(p, w)
    res = pass_segment(p, w)
    assert res.breakpoints.tolist() == sorted({1, *merged, n + 1})
    np.testing.assert_array_equal(res.scores > SCORE_THRESHOLD,
                                  scores > SCORE_THRESHOLD)
    assert np.all(np.abs(res.scores - scores)
                  <= SCORE_RTOL * np.maximum(scores, 1.0))
    assert res.outlier_sums.tobytes() == os_n.tobytes()


def assert_one_run(keep):
    """Every row of the boolean (B, W) keep is one contiguous run of Trues
    (possibly empty)."""
    lo = np.argmax(keep, axis=1)
    hi = lo + keep.sum(axis=1)
    idx = np.arange(keep.shape[1])
    run = (idx >= lo[:, None]) & (idx < hi[:, None])
    np.testing.assert_array_equal(keep, run)


@given(st.integers(0, 2**32 - 1), st.sampled_from([8, 12, 16, 32, 64]),
       st.sampled_from(["smooth", "ties", "flat_half", "near_flat"]))
@settings(max_examples=80, deadline=None)
def test_reweighting_set_is_one_run_of_each_sorted_window(seed, w, kind):
    # PASS's own inputs: the raw estimates and floors of every window
    p = power_profile(seed, w + 200, kind)
    windows = np.lib.stride_tricks.sliding_window_view(p, w)
    mu0, sigma0, srt, _ = _mcd_batch(windows, int(np.ceil(0.75 * w)))
    floors = np.maximum(1e-12 * np.mean(windows, axis=1) ** 2, 1e-300)
    keep = _chi2_keep(srt, mu0, np.maximum(sigma0, floors))
    assert_one_run(keep)
    assert np.all(keep.any(axis=1))


@given(st.floats(-1e3, 1e3), st.floats(1e-9, 1e3), st.integers(0, 2**32 - 1),
       st.integers(0, 3))
@example(1.0, 1.0, 0, 0)
@example(0.0, 1e-300, 0, 2)
@settings(max_examples=200, deadline=None)
def test_reweighting_set_is_one_run_with_ties_at_the_chi2_edge(mu0, sig, seed, reps):
    # values on, and one ulp either side of, both ends of the chi2 interval
    # mu0 -+ sqrt(chi2 sig), repeated, plus mu0 itself and random fill
    rng = np.random.default_rng(seed)
    edge = np.sqrt(CHI2_975_1 * sig)
    ends = np.array([mu0 - edge, mu0 + edge])
    ties = np.concatenate([ends, np.nextafter(ends, -np.inf),
                           np.nextafter(ends, np.inf), [mu0]])
    row = np.concatenate([np.repeat(ties, reps + 1),
                          mu0 + edge * rng.uniform(-2, 2, size=8)])
    srt = np.sort(row)[None, :]
    assert_one_run(_chi2_keep(srt, np.array([mu0]), np.array([sig])))


class TestScipyStatsPins:
    """The chi-square numbers and midranks are computed without scipy.stats;
    they must equal its values bit for bit, or results.csv would move."""

    def test_constants(self):
        chi2 = float(stats.chi2.ppf(0.975, 1))
        assert CHI2_975_1 == chi2
        assert SCORE_THRESHOLD == float(np.sqrt(chi2))
        assert _C1 == 0.975 / float(stats.chi2.cdf(chi2, 3))

    def test_literals_equal_their_special_expressions(self):
        # the module constants are float literals, so that importing
        # snschan loads no SciPy; each is its scipy.special expression
        assert CHI2_975_1 == float(2 * special.gammaincinv(0.5, 0.975))
        assert _C1 == 0.975 / float(special.chdtr(3, CHI2_975_1))

    def test_consistency_factor_on_every_valid_h(self):
        for w in range(2, 65):
            for h in range(int(np.ceil((w + 2) / 2)), w + 1):
                alpha = h / w
                expected = 1.0 if alpha >= 1.0 else alpha / float(
                    stats.chi2.cdf(stats.chi2.ppf(alpha, 1), 3))
                assert mcd_consistency_c0(h, w) == expected, (h, w)

    @given(st.one_of(
        st.integers(1, 4).flatmap(
            lambda k: st.lists(st.integers(0, k - 1), min_size=1, max_size=64)),
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=64),
    ))
    @example([7])
    @example([3, 3, 3, 3, 3])
    @settings(max_examples=200, deadline=None)
    def test_midranks_match_rankdata(self, values):
        x = np.asarray(values, dtype=float)
        np.testing.assert_array_equal(_midranks(x), stats.rankdata(x))


def exhaustive_mcd(window, h):
    """Minimum-variance h-subset by full enumeration (any subset, not just
    contiguous runs); first minimizer in lexicographic order wins."""
    window = np.sort(np.asarray(window, dtype=float))
    best = None
    for subset in itertools.combinations(range(window.size), h):
        vals = window[list(subset)]
        var = vals.var(ddof=1)
        if best is None or var < best[0] - 1e-15:
            best = (var, vals.mean())
    c0 = mcd_consistency_c0(h, window.size)
    return best[1], c0 * best[0]


class TestMcdUnivariate:
    def test_all_equal_window(self):
        mu, sig = mcd_row(np.full(8, 3.5), 6)
        assert mu == 3.5
        assert sig == 0.0

    def test_outlier_excluded(self):
        mu, sig = mcd_row(np.array([1.0, 1.0, 1.0, 1.0, 100.0]), 4)
        assert mu == 1.0
        assert sig == 0.0

    def test_integers_window_matches_exhaustive(self):
        window = np.arange(1.0, 9.0)
        mu, sig = mcd_row(window, 5)
        mu_ref, sig_ref = exhaustive_mcd(window, 5)
        assert mu == pytest.approx(mu_ref)
        assert sig == pytest.approx(sig_ref)

    @given(st.integers(6, 10), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_on_random_windows(self, w, seed):
        rng = np.random.default_rng(seed)
        window = rng.standard_normal(w) ** 2
        h = int(np.ceil(0.75 * w))
        mu, sig = mcd_row(window, h)
        mu_ref, sig_ref = exhaustive_mcd(window, h)
        assert mu == pytest.approx(mu_ref, rel=1e-10)
        assert sig == pytest.approx(sig_ref, rel=1e-10, abs=1e-12)

    def test_h_range_enforced(self):
        with pytest.raises(ValueError):
            mcd_row(np.arange(8.0), 4)
        with pytest.raises(ValueError):
            mcd_row(np.arange(8.0), 9)


class TestReweight:
    def test_no_rejection_gives_plain_moments(self):
        window = np.array([2.0, 2.2, 1.9, 2.1, 2.05, 1.95])
        mu0, sig0 = mcd_row(window, 5)
        mu, sig = reweight_row(window, mu0, sig0)
        c1 = 0.975 / stats.chi2.cdf(stats.chi2.ppf(0.975, 1), 3)
        assert mu == pytest.approx(window.mean())
        assert sig == pytest.approx(c1 * window.var(ddof=1))

    def test_outlier_rejected_by_chi2_cutoff(self):
        window = np.array([1.0, 1.0, 1.0, 1.0, 100.0])
        mu0, sig0 = mcd_row(window, 4)
        mu, _ = reweight_row(window, mu0, sig0)
        assert mu == 1.0
        assert CHI2_975_1 == pytest.approx(5.0239, abs=1e-4)

    def test_symmetric_window_centered(self):
        window = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        mu0, sig0 = mcd_row(window, 5)
        mu, _ = reweight_row(window, mu0, sig0)
        assert mu == pytest.approx(4.0)


class TestScoreDistance:
    """PASS scores the last element of each window by its distance from the
    window's reweighted MCD mean, in units of the reweighted scale."""

    def test_center_scores_zero(self):
        # symmetric about 1 in dyadic values: the reweighted mean is exact
        window = np.array([0.5, 1.5, 0.75, 1.25, 1.0, 1.0, 1.0, 1.0])
        assert pass_segment(window, 8).scores[-1] == 0.0

    def test_unit_deviation(self):
        window = np.array([1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.0, 1.3])
        mu0, sigma0 = mcd_row(window, 6)         # h = ceil(0.75 W)
        mu, var = reweight_row(window, mu0, sigma0)
        assert pass_segment(window, 8).scores[-1] == pytest.approx(
            abs(window[-1] - mu) / np.sqrt(var), rel=1e-12)

    def test_flag_threshold_matches_chi2_quantile(self):
        assert SCORE_THRESHOLD == np.sqrt(CHI2_975_1)
        assert SCORE_THRESHOLD == pytest.approx(2.2414, abs=1e-4)


class TestPassSegment:
    def test_constant_profile_single_subarray(self):
        res = pass_segment(np.full(128, 2.0), 16)
        np.testing.assert_array_equal(res.breakpoints, [1, 129])
        assert res.n_subarrays == 1

    def test_step_profile_detected_within_tolerance(self):
        rng = np.random.default_rng(0)
        n, w = 256, 32
        hits = 0
        trials = 120
        for _ in range(trials):
            p = np.where(np.arange(1, n + 1) <= 128, 1.0, 9.0)
            snr_lin = 10 ** (15 / 10)
            noise = p / snr_lin * rng.standard_normal(n)
            profile = np.abs(p + noise)
            res = pass_segment(profile, w)
            interior = res.breakpoints[1:-1]
            if any(abs(int(c) - 129) <= w / 4 for c in interior):
                hits += 1
        assert hits / trials >= 0.95

    def test_narrow_glitch_filtered(self):
        n, w = 256, 32
        p = np.full(n, 1.0)
        p[100:100 + w // 8] = 50.0
        res = pass_segment(p, w)
        np.testing.assert_array_equal(res.breakpoints, [1, n + 1])

    def test_partition_is_exact(self):
        rng = np.random.default_rng(1)
        profile = np.abs(rng.standard_normal(200)) ** 2
        res = pass_segment(profile, 16)
        covered = np.concatenate(res.subarrays)
        np.testing.assert_array_equal(np.sort(covered), np.arange(200))

    def test_deterministic_and_scale_invariant(self):
        rng = np.random.default_rng(2)
        profile = np.abs(rng.standard_normal(180)) ** 2 + 0.1
        a = pass_segment(profile, 16)
        b = pass_segment(profile, 16)
        c = pass_segment(123.456 * profile, 16)
        np.testing.assert_array_equal(a.breakpoints, b.breakpoints)
        np.testing.assert_array_equal(a.breakpoints, c.breakpoints)
        np.testing.assert_allclose(a.scores, c.scores, rtol=1e-9)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            pass_segment(np.ones(100), 10)   # not divisible by 4
        with pytest.raises(ValueError):
            pass_segment(np.ones(100), 4)    # too small
        with pytest.raises(ValueError):
            pass_segment(np.ones(10), 16)    # longer than profile

    def test_runtime_scales_linearly_in_n(self):
        import time
        w = 32
        rng = np.random.default_rng(3)
        p1 = np.abs(rng.standard_normal(2048)) ** 2
        p2 = np.abs(rng.standard_normal(4096)) ** 2
        pass_segment(p1, w)  # warm up
        t0 = time.perf_counter()
        for _ in range(5):
            pass_segment(p1, w)
        t1 = time.perf_counter()
        for _ in range(5):
            pass_segment(p2, w)
        t2 = time.perf_counter()
        assert (t2 - t1) <= 2.3 * (t1 - t0) + 0.05


class TestBaselines:
    def test_constant_profile(self):
        p = np.full(64, 3.0)
        np.testing.assert_array_equal(rfem_segment(p).breakpoints, [1, 65])
        np.testing.assert_array_equal(afm_segment(p, fit_width=16).breakpoints,
                                      [1, 65])

    def test_noiseless_step_found_exactly(self):
        p = np.where(np.arange(1, 257) <= 128, 1.0, 9.0)
        for res in (rfem_segment(p), afm_segment(p, fit_width=16)):
            assert 129 in res.breakpoints[1:-1].tolist()

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            rfem_segment(np.ones(2))

    @given(st.integers(0, 2**32 - 1), st.integers(8, 600), st.integers(2, 64),
           st.sampled_from(["smooth", "flat_half"]))
    @settings(max_examples=200, deadline=None)
    def test_reversed_profile_gives_mirrored_breakpoints(self, seed, n,
                                                         fit_width, kind):
        # breakpoint b of the reversed profile is N + 2 - b of the profile
        # itself, on continuous profiles (as every measured one is), with or
        # without a flat half, at every fit_width >= 2 (the pipeline's is
        # W // 2 >= 4). Not tested, since it does not hold: at fit_width 1
        # AFM can break after the first element but not before the last,
        # and on profiles rounded to one decimal its secant slopes round
        # differently in the two directions and split tied peaks
        p = power_profile(seed, n, kind)
        for segment in (rfem_segment,
                        lambda q: afm_segment(q, min(fit_width, n // 2))):
            mirrored = n + 2 - segment(p[::-1]).breakpoints[::-1]
            np.testing.assert_array_equal(segment(p).breakpoints, mirrored)

    @pytest.mark.parametrize("fit_width", [0, -3])
    def test_afm_rejects_a_width_below_one(self, fit_width):
        # SI_min = 1 reaches fit_width = 0 through the detector's w // 2
        with pytest.raises(ValueError, match="fit_width"):
            afm_segment(np.arange(16.0), fit_width=fit_width)


def reference_peaks(scores, last):
    """0-based elements i >= 1 whose score exceeds half the peak and is no
    smaller than either neighbour's (-inf right of the last element, which
    counts only if `last`)."""
    n = scores.size
    thr = 0.5 * scores.max()
    out = []
    for i in range(1, n if last else n - 1):
        right = scores[i + 1] if i + 1 < n else -np.inf
        if scores[i] > thr and scores[i] >= scores[i - 1] and scores[i] >= right:
            out.append(i)
    return out


# small integer alphabets give ties and plateaus; floats mostly untied profiles
_PROFILES = st.one_of(
    st.lists(st.integers(0, 3), min_size=3, max_size=80),
    st.lists(st.floats(0.0, 1e6), min_size=3, max_size=80),
)


class TestPeakPicking:
    """RFEM and AFM flag exactly the local maxima above half the peak score;
    breakpoints are 1, the flagged elements + 1 (1-based), then N+1."""

    @given(_PROFILES)
    @example([2.0] * 12)
    @example([0.0] * 5)
    @example([0, 0, 0, 5])
    @settings(max_examples=300, deadline=None)
    def test_rfem(self, profile):
        p = np.asarray(profile, dtype=float)
        res = rfem_segment(p)
        np.testing.assert_array_equal(res.scores, np.r_[0.0, np.abs(np.diff(p))])
        peaks = reference_peaks(res.scores, last=True)
        np.testing.assert_array_equal(res.breakpoints,
                                      [1, *(i + 1 for i in peaks), p.size + 1])

    @given(_PROFILES, st.integers(1, 40))
    @example([2.0] * 12, 1)
    @example([1, 1, 3, 3, 1, 1], 2)
    # at width 1 the last element can be a peak; AFM must not flag it
    @example([0, 0, 0, 5], 1)
    @settings(max_examples=300, deadline=None)
    def test_afm(self, profile, fit_width):
        p = np.asarray(profile, dtype=float)
        n = p.size
        res = afm_segment(p, fit_width)
        acc = np.r_[0.0, np.cumsum(p)]
        expected = np.zeros(n)
        for i in range(fit_width, n - fit_width + 1):
            left = (acc[i] - acc[i - fit_width]) / fit_width
            right = (acc[i + fit_width] - acc[i]) / fit_width
            expected[i] = abs(right - left)
        np.testing.assert_array_equal(res.scores, expected)
        peaks = reference_peaks(expected, last=False)
        np.testing.assert_array_equal(res.breakpoints,
                                      [1, *(i + 1 for i in peaks), n + 1])


def pairwise_auc(scores, labels):
    """Mann-Whitney AUC by exhaustive pair counting with tie credit 0.5."""
    pos = scores[labels]
    neg = scores[~labels]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestAucScore:
    def test_perfect_separation(self):
        # positives are elements within +-1 of the interior breakpoint 5
        scores = np.array([0, 0, 0, 5, 5, 5, 0, 0, 0, 0], dtype=float)
        truth = np.array([1, 5, 11])
        assert auc_score(scores, truth, match_tol=1) == 1.0

    def test_constant_scores_uninformative(self):
        scores = np.ones(10)
        truth = np.array([1, 5, 11])
        assert auc_score(scores, truth, match_tol=1) == 0.5

    def test_matches_pairwise_oracle(self):
        scores = np.array([0.1, 0.2, 0.9, 0.8, 0.3, 0.7, 0.2, 0.1, 0.0, 0.4])
        truth = np.array([1, 4, 11])   # interior breakpoint at 4
        tol = 1
        labels = np.abs(np.arange(1, 11)[:, None] - np.array([[4]])) <= tol
        labels = labels.any(axis=1)
        expected = pairwise_auc(scores, labels)
        expected = max(expected, 1 - expected)
        assert auc_score(scores, truth, tol) == pytest.approx(expected)

    @given(st.integers(2, 60), st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_labels_mark_every_window(self, n, tol, seed):
        # overlapping windows and windows cut at either end of the array
        rng = np.random.default_rng(seed)
        truth = np.r_[1, rng.integers(2, n + 1, size=rng.integers(1, 5)), n + 1]
        scores = rng.integers(0, 4, size=n).astype(float)
        labels = np.any(np.abs(np.arange(1, n + 1)[:, None] - truth[1:-1]) <= tol,
                        axis=1)
        if labels.all():
            assert auc_score(scores, truth, tol) == 0.5
            return
        expected = pairwise_auc(scores, labels)
        assert auc_score(scores, truth, tol) == pytest.approx(
            max(expected, 1 - expected), rel=1e-12)

    def test_degenerate_truth_warns(self):
        with pytest.warns(RuntimeWarning):
            out = auc_score(np.arange(10.0), np.array([1, 11]), match_tol=1)
        assert out == 0.5

    def test_uses_outlier_sums_when_available(self):
        # zero score sequence would give 0.5; outlier sums must be preferred
        res = SegmentationResult(
            breakpoints=np.array([1, 6, 11]),
            scores=np.zeros(10),
            outlier_sums=np.array([0, 0, 0, 0, 3, 3, 1, 0, 0, 0.0]),
        )
        assert auc_score(res.auc_score_sequence(), np.array([1, 6, 11]),
                         match_tol=1) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            auc_score(np.r_[bad, np.zeros(63)], np.array([1, 20, 65]), 2)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="match_tol"):
            auc_score(np.arange(10.0), np.array([1, 5, 11]), match_tol=-1)

    def test_length_comes_from_the_scores(self):
        # a separate element count used to index past the scores
        with pytest.raises(TypeError):
            auc_score(np.zeros(10), np.array([1, 5, 11]), 1, n_elements=12)


def test_pass_segment_kernel_benchmark(benchmark):
    # PASS on one auc_vs_snr power profile (_SEG_SCENE: N=512, W=64, 5 dB),
    # timed by pytest-benchmark; the test asserts results, never timings
    cfg = SystemConfig(**_SEG_SCENE)
    rng = np.random.default_rng(43)
    chan = generate_scenario(cfg, rng, ScenarioOptions(t_d=1.5))
    profile = measure_power(chan, rng, 5.0)
    seg = benchmark.pedantic(pass_segment, args=(profile, cfg.SI_min),
                             rounds=20, iterations=1)
    again = pass_segment(profile.copy(), cfg.SI_min)
    np.testing.assert_array_equal(seg.breakpoints, again.breakpoints)
    np.testing.assert_array_equal(seg.scores, again.scores)
    assert seg.breakpoints[0] == 1 and seg.breakpoints[-1] == cfg.N + 1
    assert np.all(np.isfinite(seg.scores)) and np.all(seg.scores[:cfg.SI_min - 1] == 0)
