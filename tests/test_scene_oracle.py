"""Scene synthesis against the per-path oracle.

`generate_scenario` assembles the scene that `sample_paths` draws: the
paths' gains, masks and element distances, three arrays. Synthesis
draws path by path but computes the per-element arrays of all paths at
once, after the draws: the element distances, the diffraction gains of the
obstructed paths, the weights and the visibility regions. It draws each
visibility-chain attempt as one vector of uniforms, evaluates each path on
its visibility region only, and takes each contribution's phases from their
subcarrier recurrence. The oracle below does none of that: it computes each
path's arrays as it draws the path, draws one scalar per block, computes
the knife-edge geometry twice, and adds every path's contribution over the
whole array with one complex exponential per subcarrier (`path_channel`,
the direct formula).

The draws stay byte-exact: the gains, masks and element distances, the
truth breakpoints and the generator state equal the oracle's bytes. The
channel H is the one bounded check: it lies within 1e-10 max|H| of the
oracle's, since the recurrence and the direct formula round the phase
arguments k_m r_n (about 6e4 rad) differently. An extended-precision
evaluation of the same float64 inputs shows the recurrence is no less
accurate than the direct formula.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from snschan.channel import assemble_channel
from snschan.config import SystemConfig
from snschan.diffraction import (
    GeometryInfeasibleError,
    Obstacle,
    diffraction_gain,
    diffraction_geometry,
    max_diffraction_intensity,
)
from snschan.experiments import _SEG_SCENE
from snschan.scenario import ScenarioOptions, generate_scenario, sample_paths


def oracle_distances(r, theta, cfg):
    n = np.arange(1, cfg.N + 1)
    a = (2 * n - cfg.N - 1) / 2.0 * cfg.d
    return np.sqrt(r**2 + a**2 - 2.0 * a * r * np.sin(theta))


def path_channel(g, mask, r_n, cfg):
    """(N, M) contribution over the whole array of one path with gain g,
    mask s and element distances r_n: g exp(-j k_m r_n) s_n / sqrt(N)."""
    k_m = np.asarray(cfg.wavenumber(cfg.subcarrier_freqs))
    phases = np.exp(-1j * np.outer(r_n, k_m))
    return (g / np.sqrt(cfg.N)) * phases * mask[:, None]


def assert_h_near(got, want):
    """got within 1e-10 max|want| of want, entry by entry."""
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-10 * np.max(np.abs(want)))


def oracle_obstacle(r, theta, cfg, rng):
    for _ in range(50):
        d1 = rng.uniform(0.3, 0.7) * r
        h_ref = rng.uniform(-5.0, 5.0) * cfg.wavelength
        obstacle = Obstacle(h_ref=h_ref, d1_ref=d1, d2_ref=r - d1)
        try:
            _, _, _, nu = diffraction_geometry(obstacle, theta, cfg)
        except GeometryInfeasibleError:
            continue
        return obstacle, 0.99 * max_diffraction_intensity(
            np.asarray(diffraction_gain(nu)))
    raise GeometryInfeasibleError("could not place a knife edge on the path")


def oracle_vr(r, theta, r_n, obstacle, t_d, cfg, rng, opts):
    """The mask of a path at (r, theta) with element distances r_n, which
    obstacle obstructs with diffraction intensity t_d unless it is None."""
    if obstacle is not None:
        _, _, _, nu = diffraction_geometry(obstacle, theta, cfg)
        a_n = diffraction_gain(nu)
        s_full = (r / r_n) * (t_d * (np.sqrt(a_n) - 1.0) + 1.0)
        return np.where(s_full > opts.power_threshold * np.max(s_full), s_full, 0.0)
    b_si = cfg.n_blocks_si
    p_vb, p_bv = 1.0 - opts.p_stay_visible, 1.0 - opts.p_stay_blocked
    p_init = opts.p_init_visible
    if p_init is None:
        p_init = 0.5 if p_vb + p_bv == 0 else p_bv / (p_vb + p_bv)
    states = np.zeros(b_si, dtype=bool)
    for _ in range(100):
        states[0] = rng.random() < p_init
        for b in range(1, b_si):
            stay = opts.p_stay_visible if states[b - 1] else 1.0 - opts.p_stay_blocked
            states[b] = rng.random() < stay
        if states.any():
            break
    else:
        states[rng.integers(b_si)] = True
    support = np.repeat(states, cfg.SI_min)[: cfg.N]
    return np.where(support, r / r_n, 0.0)


def oracle_scenario(cfg, rng, opts):
    """(H, gains, masks, element distances), drawn path by path as lists
    and summed path by path over the whole array."""
    gains, masks, distances = [], [], []
    for _ in range(cfg.K):
        for l in range(cfg.L):
            g = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
            r = rng.uniform(*opts.r_range)
            theta = rng.uniform(-2.0 * np.pi / 3.0, 2.0 * np.pi / 3.0)
            obstacle = t_d = None
            if l == 0 and opts.t_d > 0 and rng.random() < opts.p_nonideal:
                obstacle, t_cap = oracle_obstacle(r, theta, cfg, rng)
                t_d = min(opts.t_d, t_cap)
            r_n = oracle_distances(r, theta, cfg)
            gains.append(g)
            masks.append(oracle_vr(r, theta, r_n, obstacle, t_d, cfg, rng, opts))
            distances.append(r_n)
    H = np.zeros((cfg.N, cfg.M), dtype=complex)
    for g, mask, r_n in zip(gains, masks, distances):
        H += path_channel(g, mask, r_n, cfg)
    return H, np.array(gains), np.stack(masks), np.stack(distances)


def synthesis(cfg, rng, opts):
    """(chan, gains, masks, element distances): generate_scenario's
    assembly of sample_paths's draw, with the draw kept."""
    scene = sample_paths(cfg, rng, opts)
    return (assemble_channel(cfg, *scene), *scene)


def outcome(make, cfg, seed, opts):
    """(error type or None, result, generator state) of one draw."""
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return None, make(cfg, rng, opts), rng.bit_generator.state
        except GeometryInfeasibleError:
            return GeometryInfeasibleError, None, rng.bit_generator.state


_VISIBILITY = {
    "markov": {},
    "sticky": {"p_stay_visible": 0.95, "p_stay_blocked": 0.6},
    "full": {"p_stay_visible": 1.0, "p_init_visible": 1.0},
    # no chain ever sees a block: every ideal path takes the forcing path
    "all_blocked": {"p_stay_visible": 1.0, "p_stay_blocked": 1.0,
                    "p_init_visible": 0.0},
}


@hst.composite
def scenes(draw):
    n = draw(hst.integers(2, 160))
    cfg = SystemConfig(N=n, SI_min=draw(hst.integers(1, n)),
                       K=draw(hst.integers(1, 4)), L=draw(hst.integers(1, 4)),
                       M=draw(hst.integers(1, 64)),
                       B=draw(hst.sampled_from([0.0, 100e6, 2e9])))
    opts = ScenarioOptions(
        t_d=draw(hst.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0])),
        p_nonideal=draw(hst.sampled_from([0.5, 1.0])),
        **_VISIBILITY[draw(hst.sampled_from(sorted(_VISIBILITY)))])
    return cfg, opts, draw(hst.integers(0, 2**32 - 1))


@given(scenes())
@settings(max_examples=150, deadline=None)
def test_generate_scenario_equals_the_per_path_oracle(scene):
    cfg, opts, seed = scene
    err, got, state = outcome(synthesis, cfg, seed, opts)
    want_err, want, want_state = outcome(oracle_scenario, cfg, seed, opts)
    assert state == want_state
    assert err is want_err
    if err is not None:
        return
    chan, *scene = got
    want_h, *want_scene = want
    assert_h_near(chan.H, want_h)
    for array, want_array in zip(scene, want_scene):   # gains, masks, distances
        assert array.dtype == want_array.dtype
        assert array.shape == want_array.shape
        assert array.tobytes() == want_array.tobytes()
    supports = want_scene[1] > 0
    edges = np.flatnonzero(np.any(supports[:, 1:] != supports[:, :-1], axis=0)) + 2
    want_truth = np.concatenate(([1], edges, [cfg.N + 1])).astype(int)
    assert chan.truth_breakpoints.tobytes() == want_truth.tobytes()


def test_seg_scene_kernel_benchmark(benchmark):
    # one auc_vs_snr scene (_SEG_SCENE: N=512, 18 paths, t_d=1.5), timed by
    # pytest-benchmark; the test asserts results, never timings
    cfg = SystemConfig(**_SEG_SCENE)
    opts = ScenarioOptions(t_d=1.5)
    chan = benchmark.pedantic(
        lambda: generate_scenario(cfg, np.random.default_rng(41), opts),
        rounds=20, iterations=1)
    want_h, want_gains, _, _ = oracle_scenario(cfg, np.random.default_rng(41), opts)
    assert len(want_gains) == 18
    assert_h_near(chan.H, want_h)


def extended_channel(cfg, gains, masks, distances):
    """H from the float64 inputs (the config, gains, masks and element
    distances), with the grid, the wavenumbers and the phases evaluated in
    extended precision."""
    ld = np.longdouble
    m = np.arange(1, cfg.M + 1)
    f_m = ld(cfg.fc) + ld(cfg.B) * (2 * m - cfg.M - 1) / (2 * ld(cfg.M))
    k_m = 2 * np.arccos(ld(-1)) * f_m / ld(cfg.c)
    H = np.zeros((cfg.N, cfg.M), dtype=np.clongdouble)
    for g, mask, r_n in zip(gains, masks, distances):
        phases = np.exp(-1j * np.outer(r_n.astype(ld), k_m).astype(np.clongdouble))
        H += (np.clongdouble(g) / np.sqrt(ld(cfg.N))) * phases * mask[:, None]
    return H


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
                    reason="longdouble is float64 here")
@pytest.mark.parametrize("overrides", [{}, {"M": 2}, {"M": 64, "B": 2e9}],
                         ids=["seg-scene", "two-subcarriers", "64-subcarriers"])
def test_recurrence_is_as_accurate_as_the_direct_formula(overrides):
    # both errors are the rounding of arguments k_m r_n of ~6e4 rad, a few
    # 1e-12 of max|H|; the recurrence's stays within 2x the direct one's
    cfg = SystemConfig(**dict(_SEG_SCENE, **overrides))
    for seed in range(4):
        scene = sample_paths(cfg, np.random.default_rng(seed),
                             ScenarioOptions(t_d=1.5))
        exact = extended_channel(cfg, *scene)
        direct = sum(path_channel(g, mask, r_n, cfg) for g, mask, r_n in zip(*scene))
        h = assemble_channel(cfg, *scene).H
        scale = np.max(np.abs(exact))
        err = np.max(np.abs(h - exact)) / scale
        direct_err = np.max(np.abs(direct - exact)) / scale
        assert 0 < direct_err < 1e-10
        assert err <= 2 * direct_err
