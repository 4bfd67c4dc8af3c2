import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snschan.channel import assemble_channel
from snschan.config import SystemConfig
from snschan.scenario import (
    ScenarioOptions,
    generate_scenario,
    sample_paths,
    scenario_from_dict,
    scenario_to_dict,
)


class TestScenarioSampling:
    def test_path_counts_and_kinds(self):
        cfg = SystemConfig(N=64, M=3, K=3, L=2, SI_min=8)
        rng = np.random.default_rng(0)
        paths, _ = sample_paths(cfg, rng, ScenarioOptions(p_nonideal=1.0))
        assert len(paths) == cfg.K * cfg.L
        nonideal = [p for p in paths if p.kind == "nonideal"]
        # exactly one non-ideal path per UE when p_nonideal = 1
        assert len(nonideal) == cfg.K

    def test_masks_attached_and_valid(self):
        cfg = SystemConfig(N=64, M=3, K=2, L=2, SI_min=8)
        rng = np.random.default_rng(1)
        for p in sample_paths(cfg, rng)[0]:
            assert p.mask is not None
            assert p.mask.support.any()
            assert np.all(p.mask.s >= 0)
            assert np.all(p.mask.s[~p.mask.support] == 0)

    def test_intensity_cap_respected(self):
        # t_d = 1.5 frequently exceeds the geometry bound; sampled paths must
        # stay strictly below it
        from snschan.diffraction import diffraction_gain, diffraction_geometry
        cfg = SystemConfig(N=256, M=3, K=4, L=2, SI_min=32)
        rng = np.random.default_rng(2)
        paths, _ = sample_paths(cfg, rng, ScenarioOptions(t_d=1.5, p_nonideal=1.0))
        for p in paths:
            if p.kind != "nonideal":
                continue
            _, _, _, nu = diffraction_geometry(p.obstacle, p.theta, cfg)
            a_min = float(np.min(diffraction_gain(nu)))
            assert p.t_d <= 1.5
            if a_min < 1:
                assert p.t_d < 1.0 / (1.0 - a_min)

    def test_full_visibility_options(self):
        cfg = SystemConfig(N=64, M=3, K=2, L=2, SI_min=8)
        rng = np.random.default_rng(3)
        chan = generate_scenario(cfg, rng, ScenarioOptions.full_visibility())
        np.testing.assert_array_equal(chan.truth_breakpoints, [1, cfg.N + 1])

    def test_distance_pinning(self):
        cfg = SystemConfig(N=32, M=2, K=1, L=3, SI_min=4)
        rng = np.random.default_rng(4)
        opts = ScenarioOptions.full_visibility(r_range=(17.5, 17.5))
        chan = generate_scenario(cfg, rng, opts)
        assert all(p.r == pytest.approx(17.5) for p in chan.paths)


class TestScenarioOptions:
    # every value is checked once, when the options are built, instead of
    # running unchecked (p_init_visible, p_nonideal) or once per path
    INVALID = {
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


class TestSerialization:
    def _scenario(self, seed=0):
        cfg = SystemConfig(N=48, M=3, K=2, L=2, SI_min=8)
        rng = np.random.default_rng(seed)
        chan = generate_scenario(cfg, rng, ScenarioOptions(p_nonideal=1.0))
        return cfg, chan

    def test_roundtrip_bit_exact(self):
        cfg, chan = self._scenario()
        doc = scenario_to_dict(cfg, chan)
        blob = json.dumps(doc)
        cfg2, chan2 = scenario_from_dict(json.loads(blob))
        assert cfg2 == cfg
        np.testing.assert_array_equal(chan.truth_breakpoints,
                                      chan2.truth_breakpoints)
        for a, b in zip(chan.paths, chan2.paths):
            assert a.g == b.g
            assert a.r == b.r and a.theta == b.theta and a.kind == b.kind
            np.testing.assert_array_equal(a.mask.s, b.mask.s)
            np.testing.assert_array_equal(a.mask.support, b.mask.support)
        # the channel matrix re-synthesizes identically from the same paths
        np.testing.assert_array_equal(chan.H, chan2.H)

    def test_double_roundtrip_stable(self):
        cfg, chan = self._scenario(1)
        doc1 = scenario_to_dict(cfg, chan)
        blob1 = json.dumps(doc1, sort_keys=True)
        _, chan2 = scenario_from_dict(json.loads(blob1))
        doc2 = scenario_to_dict(cfg, chan2)
        blob2 = json.dumps(doc2, sort_keys=True)
        assert blob1 == blob2

    @given(st.data(), st.integers(2, 96), st.integers(1, 4), st.integers(1, 3),
           st.integers(1, 3), st.sampled_from([0.0, 0.5, 1.5]), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_json_roundtrip_is_bit_exact_for_any_scene(self, data, n, m, k, l,
                                                       t_d, full, seed):
        cfg = SystemConfig(N=n, M=m, K=k, L=l,
                           SI_min=data.draw(st.integers(1, n), label="SI_min"))
        opts = ScenarioOptions.full_visibility() if full else ScenarioOptions(t_d=t_d)
        chan = generate_scenario(cfg, np.random.default_rng(seed), opts)
        cfg2, chan2 = scenario_from_dict(json.loads(json.dumps(
            scenario_to_dict(cfg, chan))))
        assert cfg2 == cfg
        assert chan2.H.tobytes() == chan.H.tobytes()
        assert chan2.truth_breakpoints.tolist() == chan.truth_breakpoints.tolist()
        for a, b in zip(chan.paths, chan2.paths, strict=True):
            assert b.mask.s.tobytes() == a.mask.s.tobytes()
            assert b.mask.support.tobytes() == a.mask.support.tobytes()

    @pytest.mark.parametrize("tamper", ["truth", "mask", "seed"])
    def test_tampered_document_is_rejected(self, tamper):
        cfg, chan = self._scenario(4)
        doc = json.loads(json.dumps(scenario_to_dict(cfg, chan)))
        if tamper == "truth":
            # a breakpoint the masks do not give must not overwrite theirs
            doc["truth_breakpoints"].insert(1, 2)
            match = "truth_breakpoints"
        elif tamper == "seed":
            # documents written while the config carried a seed
            doc["config"]["seed"] = 0
            match = "unknown config keys \\['seed'\\]"
        else:
            # a path without a mask must not be filled in with a default one
            doc["paths"][0]["mask_s"] = None
            match = "mask"
        with pytest.raises(ValueError, match=match):
            scenario_from_dict(doc)

    def test_complex_values_stored_as_pairs(self):
        cfg, chan = self._scenario(2)
        doc = scenario_to_dict(cfg, chan)
        for entry in doc["paths"]:
            assert isinstance(entry["g"], list) and len(entry["g"]) == 2

    def test_file_roundtrip(self, tmp_path):
        from snschan.scenario import load_scenario, save_scenario
        cfg, chan = self._scenario(3)
        path = tmp_path / "scene.json"
        save_scenario(str(path), cfg, chan)
        cfg2, chan2 = load_scenario(str(path))
        assert cfg2 == cfg
        np.testing.assert_array_equal(chan.H, chan2.H)
