import numpy as np
import pytest

from snschan.channel import (
    ChannelRealization,
    assemble_channel,
    breakpoints_from_masks,
    element_distances,
    mask_weights,
)
from snschan.config import SystemConfig
from snschan.diffraction import Obstacle, diffraction_gain, diffraction_geometry
from snschan.scenario import ScenarioOptions, apply_vr, sample_vr


def ideal_mask(r, theta, cfg):
    """The mask before its VR of an unobstructed path at (r, theta): the
    taper r / r_n."""
    return mask_weights(r, element_distances(r, theta, cfg), 0.0, None)


def nonideal_mask(r, t_d, theta, obstacle, cfg):
    """The mask before its VR of a path at (r, theta) that the knife edge
    obstacle obstructs with diffraction intensity t_d."""
    _, _, _, nu = diffraction_geometry(obstacle, theta, cfg)
    return mask_weights(r, element_distances(r, theta, cfg), t_d,
                        diffraction_gain(nu))


def path_mask(weights, obstructed, cfg, rng, opts):
    """The mask of one path with the given mask before its VR: its VR drawn
    (none for an obstructed path) and applied."""
    states = [] if obstructed else [sample_vr(cfg, rng, opts)]
    return apply_vr(weights[None], np.array([obstructed]), states, cfg, opts)[0]


def euclidean_distance_oracle(r, theta, cfg):
    """Element-to-source distances from explicit 2-D coordinates."""
    source = np.array([r * np.sin(theta), r * np.cos(theta)])
    out = np.empty(cfg.N)
    for i, dn in enumerate(cfg.delta_n):
        elem = np.array([dn * cfg.d, 0.0])
        out[i] = np.linalg.norm(source - elem)
    return out


def unit_mask(cfg):
    """Full visibility with unit weights."""
    return np.ones(cfg.N)


def assemble(cfg, paths, thetas):
    """assemble_channel of paths, each a (gain, distance r, mask), with the
    element distances of each path at (r, its angle in thetas)."""
    gains, rs, masks = zip(*paths)
    return assemble_channel(
        cfg, np.array(gains, dtype=complex), np.stack(masks),
        np.stack([element_distances(r, t, cfg) for r, t in zip(rs, thetas)]))


def single_path_channel(path, theta, cfg):
    """(N, M) channel of one (gain, distance, mask) path at angle theta."""
    return assemble(cfg, [path], [theta]).H


def array_response(r, theta, cfg):
    """(N, M) near-field array response b(r, theta; f_m), read off a unit-gain,
    fully visible path, whose channel is e^{-j k_m r} b(r, theta; f_m)."""
    h = single_path_channel((1.0, r, unit_mask(cfg)), theta, cfg)
    return h * np.exp(1j * cfg.wavenumber(cfg.subcarrier_freqs) * r)


class TestSteeringVector:
    def test_center_element_has_zero_phase(self):
        # delta = 0 at the center of an odd array -> r_n = r -> unit amplitude
        cfg = SystemConfig(N=3, SI_min=1)
        b = array_response(12.0, 0.7, cfg)
        for m in range(cfg.M):
            assert b[1, m] == pytest.approx(1 / np.sqrt(3))

    def test_exact_matches_coordinate_oracle(self):
        cfg = SystemConfig(N=4, fc=28e9, SI_min=1)
        r, theta = 10.0, np.pi / 6
        d_oracle = euclidean_distance_oracle(r, theta, cfg)
        np.testing.assert_allclose(element_distances(r, theta, cfg), d_oracle,
                                   rtol=1e-12)
        k_m = cfg.wavenumber(cfg.subcarrier_freqs)
        expected = np.exp(-1j * np.outer(d_oracle - r, k_m)) / 2.0
        np.testing.assert_allclose(array_response(r, theta, cfg), expected,
                                   rtol=1e-10)

    def test_unit_norm(self):
        cfg = SystemConfig(N=64, SI_min=8)
        rng = np.random.default_rng(3)
        for _ in range(10):
            r = rng.uniform(1.0, 80.0)
            theta = rng.uniform(-1.4, 1.4)
            norms = np.linalg.norm(array_response(r, theta, cfg), axis=0)
            np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)

    def test_rejects_nonpositive_distance(self):
        cfg = SystemConfig(N=8, SI_min=2)
        with pytest.raises(ValueError):
            element_distances(0.0, 0.1, cfg)
        with pytest.raises(ValueError):
            element_distances(-3.0, 0.1, cfg)


class TestIdealMask:
    def test_center_element_is_one(self):
        cfg = SystemConfig(N=9, SI_min=3)
        mask = ideal_mask(7.0, 0.9, cfg)
        assert mask[4] == pytest.approx(1.0, abs=1e-14)

    def test_far_field_limit(self):
        cfg = SystemConfig(N=16, SI_min=4)
        r = 1e4
        mask = ideal_mask(r, 0.2, cfg)
        np.testing.assert_allclose(mask, 1.0, atol=2 * (cfg.N - 1) * cfg.d / r)

    def test_matches_direct_formula(self):
        cfg = SystemConfig(N=8, SI_min=2)
        r, theta = 5.0, 0.5
        a = cfg.delta_n * cfg.d
        expected = r / np.sqrt(r**2 + a**2 - 2 * a * r * np.sin(theta))
        np.testing.assert_allclose(ideal_mask(r, theta, cfg), expected,
                                   rtol=1e-12)

    def test_mask_times_distance_recovers_r(self):
        cfg = SystemConfig(N=32, SI_min=4)
        mask = ideal_mask(22.0, -0.8, cfg)
        r_n = element_distances(22.0, -0.8, cfg)
        np.testing.assert_allclose(mask * r_n, 22.0, rtol=1e-12)


class TestNonidealMask:
    # a path at (30 m, 0.1) past a knife edge just above it
    R = 30.0
    THETA = 0.1
    EDGE = Obstacle(h_ref=0.01, d1_ref=12.0, d2_ref=18.0)

    def test_zero_intensity_reduces_to_ideal(self):
        cfg = SystemConfig(N=16, SI_min=4)
        np.testing.assert_allclose(
            nonideal_mask(self.R, 0.0, self.THETA, self.EDGE, cfg),
            ideal_mask(self.R, self.THETA, cfg), rtol=1e-12)

    def test_unity_gain_reduces_to_ideal(self):
        # edge far below the path: A_n ~ 1 for every element
        cfg = SystemConfig(N=16, SI_min=4)
        edge = Obstacle(h_ref=-10.0, d1_ref=15.0, d2_ref=15.0)
        np.testing.assert_allclose(nonideal_mask(self.R, 0.9, 0.0, edge, cfg),
                                   ideal_mask(self.R, 0.0, cfg), rtol=2e-2)

    def test_grazing_element_factor(self):
        # with t_d = 1 the factor is sqrt(A_n); A(0) = 1/4 makes it exactly 0.5
        cfg = SystemConfig(N=64, SI_min=8)
        edge = Obstacle(h_ref=0.0, d1_ref=12.0, d2_ref=18.0)
        mask = nonideal_mask(self.R, 1.0, 0.0, edge, cfg)
        _, _, _, nu = diffraction_geometry(edge, 0.0, cfg)
        r_n = element_distances(self.R, 0.0, cfg)
        expected = (self.R / r_n) * np.sqrt(diffraction_gain(nu))
        np.testing.assert_allclose(mask, expected, rtol=1e-12)
        # nearest-to-grazing element: factor ~ sqrt(A(0)) = 0.5 up to the
        # nu quantization across the element grid
        k = int(np.argmin(np.abs(nu)))
        assert mask[k] * r_n[k] / self.R == pytest.approx(0.5, abs=6e-3)

    def test_intensity_bound_enforced(self):
        from snschan.channel import MaskConfigurationError
        cfg = SystemConfig(N=256, SI_min=32)
        edge = Obstacle(h_ref=0.05, d1_ref=12.0, d2_ref=18.0)
        with pytest.raises(MaskConfigurationError):
            nonideal_mask(self.R, 50.0, self.THETA, edge, cfg)

    def test_positive_within_bound(self):
        cfg = SystemConfig(N=128, SI_min=16)
        assert np.all(nonideal_mask(self.R, 0.99, self.THETA, self.EDGE, cfg) > 0)


class TestSampleVr:
    def test_absorbing_visible_chain(self):
        cfg = SystemConfig(N=64, SI_min=8)
        rng = np.random.default_rng(0)
        opts = ScenarioOptions(p_stay_visible=1.0, p_stay_blocked=0.0,
                               p_init_visible=1.0)
        mask = path_mask(ideal_mask(20.0, 0.0, cfg), False, cfg, rng, opts)
        assert np.all(mask > 0)

    def test_degenerate_all_blocked_warns_and_forces(self):
        cfg = SystemConfig(N=64, SI_min=8)
        rng = np.random.default_rng(0)
        opts = ScenarioOptions(p_stay_visible=1.0, p_stay_blocked=1.0,
                               p_init_visible=0.0)
        with pytest.warns(RuntimeWarning):
            mask = path_mask(ideal_mask(20.0, 0.0, cfg), False, cfg, rng, opts)
        assert np.any(mask > 0)

    def test_mean_run_length(self):
        # geometric block runs: mean visible run = SI_min / (1 - p_vv)
        cfg = SystemConfig(N=4 * 200, SI_min=4)
        rng = np.random.default_rng(7)
        weights = ideal_mask(20.0, 0.0, cfg)
        opts = ScenarioOptions(p_stay_visible=0.8, p_stay_blocked=0.8)
        runs = []
        for _ in range(500):
            mask = path_mask(weights, False, cfg, rng, opts)
            s = (mask > 0).astype(int)
            edges = np.flatnonzero(np.diff(np.concatenate([[0], s, [0]])))
            starts, ends = edges[::2], edges[1::2]
            for a, b in zip(starts, ends):
                if a > 0 and b < cfg.N:          # drop censored boundary runs
                    runs.append(b - a)
        assert np.mean(runs) == pytest.approx(5 * cfg.SI_min, rel=0.05)

    def test_nonideal_support_is_thresholded(self):
        cfg = SystemConfig(N=128, SI_min=16)
        edge = Obstacle(h_ref=0.02, d1_ref=12.0, d2_ref=18.0)
        rng = np.random.default_rng(0)
        full = nonideal_mask(30.0, 0.9, 0.1, edge, cfg)
        mask = path_mask(full, True, cfg, rng, ScenarioOptions(power_threshold=0.3))
        np.testing.assert_array_equal(
            mask, np.where(full > 0.3 * full.max(), full, 0.0))


class TestAssembleChannel:
    def _cfg(self):
        return SystemConfig(N=32, M=3, SI_min=4)

    def test_zero_masks_give_zero_channel(self):
        cfg = self._cfg()
        chan = assemble(cfg, [(1.0, 20.0, np.zeros(cfg.N))], [0.0])
        assert np.all(chan.H == 0)

    def test_superposition_linearity(self):
        cfg = self._cfg()
        rng = np.random.default_rng(5)
        paths = [(complex(*rng.standard_normal(2)), rng.uniform(10, 50),
                  unit_mask(cfg)) for _ in range(4)]
        thetas = rng.uniform(-1, 1, size=4)
        h_all = assemble(cfg, paths, thetas).H
        h_sum = sum(single_path_channel(p, t, cfg) for p, t in zip(paths, thetas))
        np.testing.assert_allclose(h_all, h_sum, rtol=1e-12)

    def test_gain_scaling_is_exact(self):
        cfg = self._cfg()
        p1 = (0.3 + 0.1j, 15.0, unit_mask(cfg))
        p2 = (3 * (0.3 + 0.1j), 15.0, unit_mask(cfg))
        np.testing.assert_allclose(3 * single_path_channel(p1, 0.4, cfg),
                                   single_path_channel(p2, 0.4, cfg), rtol=1e-12)

    def test_breakpoints_cover_support_edges(self):
        cfg = self._cfg()
        mask = np.zeros(cfg.N)
        mask[8:24] = 1.0
        chan = assemble(cfg, [(1.0, 20.0, mask)], [0.0])
        np.testing.assert_array_equal(chan.truth_breakpoints, [1, 9, 25, 33])

    def test_breakpoints_always_bracketed(self):
        cfg = self._cfg()
        rng = np.random.default_rng(11)
        for _ in range(10):
            paths = []
            for _ in range(3):
                sup = rng.random(cfg.N) < 0.5
                sup[rng.integers(cfg.N)] = True
                paths.append((1.0, rng.uniform(10, 40), sup.astype(float)))
            bp = assemble(cfg, paths, rng.uniform(-1, 1, size=3)).truth_breakpoints
            assert bp[0] == 1 and bp[-1] == cfg.N + 1
            assert np.all(np.diff(bp) > 0)
