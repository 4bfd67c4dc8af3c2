import numpy as np
import pytest

from snschan import scenario
from snschan.config import SystemConfig
from snschan.diffraction import diffraction_gain
from snschan.scenario import (
    ScenarioOptions,
    generate_scenario,
    sample_paths,
)


def spy(monkeypatch, name):
    """Record the arguments of each call of scenario.<name> in the list it
    returns; the calls still go through."""
    calls = []
    real = getattr(scenario, name)
    monkeypatch.setattr(scenario, name,
                        lambda *args: calls.append(args) or real(*args))
    return calls


class TestScenarioSampling:
    def test_path_counts_and_kinds(self, monkeypatch):
        cfg = SystemConfig(N=64, M=3, K=3, L=2, SI_min=8)
        rng = np.random.default_rng(0)
        vr_draws = spy(monkeypatch, "sample_vr")
        applied = spy(monkeypatch, "apply_vr")
        gains, masks, distances = sample_paths(cfg, rng,
                                               ScenarioOptions(p_nonideal=1.0))
        assert gains.shape == (cfg.K * cfg.L,)
        assert masks.shape == distances.shape == (cfg.K * cfg.L, cfg.N)
        # exactly one obstructed path per UE, its first, when p_nonideal = 1;
        # only the others draw a Markov VR
        [(_, obstructed, states, *_)] = applied
        assert obstructed.tolist() == [True, False] * cfg.K
        assert len(vr_draws) == len(states) == cfg.K

    def test_masks_attached_and_valid(self):
        cfg = SystemConfig(N=64, M=3, K=2, L=2, SI_min=8)
        rng = np.random.default_rng(1)
        for mask in sample_paths(cfg, rng)[1]:
            assert mask.shape == (cfg.N,)
            assert np.any(mask > 0)
            assert np.all(mask >= 0)

    def test_intensity_cap_respected(self, monkeypatch):
        # t_d = 1.5 frequently exceeds the geometry bound; sampled paths must
        # stay strictly below it, the bound of the gains their knife edge got
        nus = []
        draw = scenario._sample_obstacle
        monkeypatch.setattr(scenario, "_sample_obstacle",
                            lambda *args: nus.append(draw(*args)) or nus[-1])
        weights = spy(monkeypatch, "mask_weights")
        cfg = SystemConfig(N=256, M=3, K=4, L=2, SI_min=32)
        rng = np.random.default_rng(2)
        sample_paths(cfg, rng, ScenarioOptions(t_d=1.5, p_nonideal=1.0))
        [(_, _, t_d, a_n)] = [args for args in weights if args[3] is not None]
        assert t_d.shape == (cfg.K, 1)
        assert len(a_n) == len(nus) == cfg.K
        for t, gains, nu in zip(t_d.ravel(), a_n, nus):
            assert gains.tobytes() == diffraction_gain(nu).tobytes()
            a_min = float(np.min(gains))
            assert t <= 1.5
            if a_min < 1:
                assert t < 1.0 / (1.0 - a_min)

    def test_full_visibility_options(self):
        cfg = SystemConfig(N=64, M=3, K=2, L=2, SI_min=8)
        rng = np.random.default_rng(3)
        chan = generate_scenario(cfg, rng, ScenarioOptions.full_visibility())
        np.testing.assert_array_equal(chan.truth_breakpoints, [1, cfg.N + 1])

    def test_distance_pinning(self):
        # fully visible unobstructed masks are the taper r / r_n: r is 17.5
        cfg = SystemConfig(N=32, M=2, K=1, L=3, SI_min=4)
        rng = np.random.default_rng(4)
        opts = ScenarioOptions.full_visibility(r_range=(17.5, 17.5))
        _, masks, distances = sample_paths(cfg, rng, opts)
        np.testing.assert_allclose(masks * distances, 17.5, rtol=1e-12)


class TestScenarioOptions:
    # every value is checked once, when the options are built, instead of
    # running unchecked (p_init_visible, p_nonideal) or once per path
    INVALID = {
        "r_range": ((0.0, 10.0), (-1.0, -1.0), (20.0, 10.0), (1.0, float("inf")),
                    (float("nan"), float("nan"))),
        "t_d": (-1.0, -1e-300, float("nan"), float("inf"), True),
        "p_nonideal": (-1.0, 1.5, float("nan")),
        "p_stay_visible": (-0.1, 1.1, float("nan")),
        "p_stay_blocked": (-0.1, 1.1, float("nan")),
        "p_init_visible": (-0.5, 1.5, float("nan")),
        "power_threshold": (-0.1, 1.0, float("nan")),
    }

    @pytest.mark.parametrize("name", sorted(INVALID))
    def test_rejects_out_of_range_value(self, name):
        for value in self.INVALID[name]:
            with pytest.raises(ValueError, match=f"^{name} must lie in"):
                ScenarioOptions(**{name: value})

    def test_accepts_the_range_ends(self):
        for value in (0.0, 1.0):
            ScenarioOptions(p_nonideal=value, p_stay_visible=value,
                            p_stay_blocked=value, p_init_visible=value)
        ScenarioOptions(p_init_visible=None, power_threshold=0.0)
        ScenarioOptions(power_threshold=0.999)
