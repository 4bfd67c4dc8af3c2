import numpy as np
import pytest
from scipy import integrate

from snschan.config import SystemConfig
from snschan.diffraction import (
    GeometryInfeasibleError,
    Obstacle,
    diffraction_gain,
    diffraction_geometry,
    fresnel_cs,
    max_diffraction_intensity,
)


def quadrature_fresnel(v):
    """Adaptive-quadrature reference for the Fresnel integrals."""
    c, _ = integrate.quad(lambda t: np.cos(np.pi * t**2 / 2), 0, v,
                          limit=200, epsabs=1e-13)
    s, _ = integrate.quad(lambda t: np.sin(np.pi * t**2 / 2), 0, v,
                          limit=200, epsabs=1e-13)
    return c, s


class TestFresnel:
    def test_zero(self):
        c, s = fresnel_cs(0.0)
        assert c == 0.0 and s == 0.0

    def test_odd_symmetry(self):
        v = np.linspace(0.1, 4.0, 17)
        c_pos, s_pos = fresnel_cs(v)
        c_neg, s_neg = fresnel_cs(-v)
        np.testing.assert_allclose(c_neg, -c_pos, rtol=1e-14)
        np.testing.assert_allclose(s_neg, -s_pos, rtol=1e-14)

    @pytest.mark.parametrize("v", [0.25, 0.5, 1.0, 1.7, 2.3, 3.9, -1.3])
    def test_against_quadrature(self, v):
        c, s = fresnel_cs(v)
        c_ref, s_ref = quadrature_fresnel(v)
        assert abs(c - c_ref) < 1e-9
        assert abs(s - s_ref) < 1e-9

    def test_known_value(self):
        c, s = fresnel_cs(1.0)
        assert c == pytest.approx(0.7799, abs=1e-4)
        assert s == pytest.approx(0.4383, abs=1e-4)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fresnel_cs(np.nan)


class TestDiffractionGain:
    def test_grazing_is_quarter(self):
        assert diffraction_gain(0.0) == pytest.approx(0.25, abs=1e-9)

    def test_unobstructed_limit(self):
        # the Cornu-spiral ripple decays like 1/(pi |v|), so A oscillates
        # around 1 with amplitude ~0.064 at v = -5
        assert diffraction_gain(-5.0) == pytest.approx(1.0, abs=1 / (np.pi * 5) + 0.01)
        assert diffraction_gain(-50.0) == pytest.approx(1.0, abs=1 / (np.pi * 50) + 1e-3)
        c, s = quadrature_fresnel(-5.0)
        a_ref = 0.25 * ((1 - c - s) ** 2 + (c - s) ** 2)
        assert diffraction_gain(-5.0) == pytest.approx(a_ref, abs=1e-9)

    def test_knife_edge_loss_at_one(self):
        a = diffraction_gain(1.0)
        assert a == pytest.approx(0.041, abs=1e-3)
        assert -10 * np.log10(a) == pytest.approx(13.9, abs=0.1)

    def test_strictly_decreasing_on_0_3(self):
        v = np.arange(0.0, 3.0 + 1e-9, 0.01)
        a = diffraction_gain(v)
        assert np.all(np.diff(a) < 0)

    def test_positive(self):
        v = np.linspace(-10, 10, 400)
        assert np.all(diffraction_gain(v) > 0)


def knife_edge_oracle(obstacle, theta, cfg):
    """nu_n from explicit 2-D coordinates of element, edge, and UE.

    Element n sits where the channel puts it, at delta_n d along the array
    axis (`SystemConfig.delta_n`).
    """
    x_elem = cfg.delta_n * cfg.d
    r_total = obstacle.d1_ref + obstacle.d2_ref
    ue = r_total * np.array([np.sin(theta), np.cos(theta)])
    u_los = np.array([np.sin(theta), np.cos(theta)])
    u_perp = np.array([np.cos(theta), -np.sin(theta)])
    edge = obstacle.d1_ref * u_los + obstacle.h_ref * u_perp
    nu = np.empty(cfg.N)
    for i, x in enumerate(x_elem):
        p = np.array([x, 0.0])
        v = ue - p
        dist = np.linalg.norm(v)
        v_hat = v / dist
        v_perp = np.array([v_hat[1], -v_hat[0]])
        h = float(np.dot(edge - p, v_perp))
        d1 = float(np.dot(edge - p, v_hat))
        d2 = dist - d1
        nu[i] = h * np.sqrt(2 * (d1 + d2) / (cfg.wavelength * d1 * d2))
    return nu


class TestDiffractionGeometry:
    def test_reference_element_recovers_reference_link(self):
        cfg = SystemConfig(N=17, SI_min=1)
        obstacle = Obstacle(h_ref=0.04, d1_ref=20.0, d2_ref=10.0)
        h, d1, d2, _ = diffraction_geometry(obstacle, 0.0, cfg)
        # delta_n = 0 at the centre element, index (N-1)/2 for odd N
        k = (cfg.N - 1) // 2
        assert h[k] == pytest.approx(obstacle.h_ref, rel=1e-12)
        assert d2[k] == pytest.approx(obstacle.d2_ref, rel=1e-12)

    def test_sign_flip_across_midpoint_for_grazing_edge(self):
        cfg = SystemConfig(N=16, SI_min=2)
        obstacle = Obstacle(h_ref=0.0, d1_ref=20.0, d2_ref=10.0)
        h, _, _, _ = diffraction_geometry(obstacle, 0.0, cfg)
        assert h[0] > 0 and h[-1] < 0

    def test_matches_coordinate_oracle(self):
        cfg = SystemConfig(N=16, fc=28e9, SI_min=2)
        obstacle = Obstacle(h_ref=0.05, d1_ref=20.0, d2_ref=10.0)
        theta = 0.3
        _, _, _, nu = diffraction_geometry(obstacle, theta, cfg)
        nu_ref = knife_edge_oracle(obstacle, theta, cfg)
        np.testing.assert_allclose(nu, nu_ref, rtol=1e-5)

    def test_infeasible_geometry_raises(self):
        cfg = SystemConfig(N=256, SI_min=32)
        # edge plane closer than the array's own extent
        obstacle = Obstacle(h_ref=0.0, d1_ref=0.2, d2_ref=0.05)
        with pytest.raises(GeometryInfeasibleError):
            diffraction_geometry(obstacle, 1.2, cfg)

    def test_intensity_bound(self):
        a = np.array([0.5, 0.8, 1.2])
        assert max_diffraction_intensity(a) == pytest.approx(2.0)
        assert max_diffraction_intensity(np.array([1.1, 1.3])) == np.inf
