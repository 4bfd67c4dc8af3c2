import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from snschan.config import SystemConfig
from snschan.dhbf import (
    EmptySceneError,
    InfeasiblePilotError,
    RfAllocation,
    build_combiners,
    decouple,
    make_allocation,
    mef_gaa,
    prune_subarrays,
    random_allocation,
    simulate_reception,
)
from snschan.pipeline import measurement_noise_variance
from snschan.segmentation import SegmentationResult, from_breakpoints


def seg_with_breakpoints(bp, n):
    return SegmentationResult(breakpoints=np.asarray(bp), scores=np.zeros(n))


class TestPrune:
    def test_zero_threshold_keeps_all(self):
        seg = seg_with_breakpoints([1, 5, 9], 8)
        on = prune_subarrays(np.ones(8), seg, 0.0)
        assert on == [0, 1]

    def test_noise_floor_subarray_pruned(self):
        seg = seg_with_breakpoints([1, 5, 9], 8)
        power = np.concatenate([np.full(4, 1.0), np.full(4, 10.0)])
        on = prune_subarrays(power, seg, 2.0)
        assert on == [1]

    def test_all_pruned_raises(self):
        seg = seg_with_breakpoints([1, 5, 9], 8)
        with pytest.raises(EmptySceneError):
            prune_subarrays(np.ones(8), seg, np.inf)


class TestMefGaa:
    def test_surplus_chains_dedicated(self):
        classes = mef_gaa([6, 3], 4)
        served = [j for cls in classes for j in cls]
        assert sorted(served) == [0, 0, 1, 1]
        assert all(len(cls) == 1 for cls in classes)

    def test_greedy_hand_simulation(self):
        # sizes 5,4,3,2 on two chains: {5,2} and {4,3}, 7 elements each
        classes = mef_gaa([5, 4, 3, 2], 2)
        loads = [sum([5, 4, 3, 2][j] for j in cls) for cls in classes]
        assert loads == [7, 7]
        assert classes[0] == [0, 3]
        assert classes[1] == [1, 2]

    def test_single_subarray_gets_all_chains(self):
        classes = mef_gaa([8], 2)
        assert classes == [[0], [0]]

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=8),
           st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_greedy_load_bound(self, sizes, n_rf):
        classes = mef_gaa(sizes, n_rf)
        if len(sizes) < n_rf:
            assert all(len(c) == 1 for c in classes)
            return
        loads = [sum(sizes[j] for j in cls) for cls in classes]
        assert max(loads) - min(loads) <= max(sizes)
        # against exhaustive assignment: greedy is within max(sizes) of the
        # optimal makespan
        best = min(
            max(sum(sizes[j] for j in range(len(sizes)) if assign[j] == c)
                for c in range(n_rf))
            for assign in itertools.product(range(n_rf), repeat=len(sizes))
        )
        assert max(loads) <= best + max(sizes)

    def test_every_subarray_assigned_once(self):
        classes = mef_gaa([9, 7, 5, 4, 2], 3)
        served = sorted(j for cls in classes for j in cls)
        assert served == [0, 1, 2, 3, 4]


class TestCombiners:
    def _setup(self, n=32, si=4, bp=(1, 9, 21, 33), n_rf=2, p=8, seed=0):
        cfg = SystemConfig(N=n, M=3, SI_min=si, N_RF=n_rf, P=p)
        seg = seg_with_breakpoints(list(bp), n)
        alloc = make_allocation(seg, list(range(len(bp) - 1)), n_rf)
        rng = np.random.default_rng(seed)
        plan = build_combiners(alloc, cfg, rng, noise_variance=0.01)
        return cfg, alloc, plan

    def test_rows_unit_norm(self):
        _, _, plan = self._setup()
        for p in range(plan.combiners.shape[0]):
            for c in range(plan.combiners.shape[1]):
                if plan.schedule[p, c] >= 0:
                    assert np.linalg.norm(plan.combiners[p, c]) == \
                        pytest.approx(1.0, abs=1e-12)

    def test_single_subarray_chain_always_active(self):
        cfg, alloc, plan = self._setup(bp=(1, 17, 33), n_rf=2, p=4)
        # two subarrays on two chains: every slot activates that subarray
        for c, cls in enumerate(alloc.classes):
            assert np.all(plan.schedule[:, c] == cls[0])

    def test_two_subarray_chain_alternates(self):
        cfg = SystemConfig(N=32, M=2, SI_min=4, N_RF=1, P=4)
        seg = seg_with_breakpoints([1, 17, 33], 32)
        alloc = make_allocation(seg, [0, 1], 1)
        plan = build_combiners(alloc, cfg, np.random.default_rng(0), 0.0)
        order = plan.schedule[:, 0].tolist()
        assert order == [alloc.classes[0][0], alloc.classes[0][1]] * 2
        assert plan.effective_pilots.tolist() == [2, 2]

    def test_row_support_stays_on_active_subarray(self):
        cfg, alloc, plan = self._setup()
        for p in range(plan.combiners.shape[0]):
            for c in range(plan.combiners.shape[1]):
                sub = plan.schedule[p, c]
                if sub < 0:
                    continue
                outside = np.setdiff1d(np.arange(cfg.N), alloc.subarrays[sub])
                assert np.all(plan.combiners[p, c, outside] == 0)

    def test_disjoint_supports_within_slot(self):
        # holds whenever each subarray is served by a single chain
        cfg, alloc, plan = self._setup(bp=(1, 9, 21, 33), n_rf=2)
        for p in range(plan.combiners.shape[0]):
            supports = [np.flatnonzero(plan.combiners[p, c]) for c in range(2)]
            assert np.intersect1d(supports[0], supports[1]).size == 0

    def test_infeasible_pilots_rejected(self):
        cfg = SystemConfig(N=32, M=2, SI_min=4, N_RF=1, P=2)
        seg = seg_with_breakpoints([1, 9, 17, 25, 33], 32)
        alloc = make_allocation(seg, [0, 1, 2, 3], 1)
        with pytest.raises(InfeasiblePilotError):
            build_combiners(alloc, cfg, np.random.default_rng(0), 0.0)

    def test_effective_pilot_conservation(self):
        cfg, alloc, plan = self._setup(bp=(1, 9, 21, 33), n_rf=2, p=8)
        # all chains fully scheduled: totals sum to P * N_RF
        assert plan.effective_pilots.sum() == cfg.P * cfg.N_RF


class TestReceptionAndDecoupling:
    def _scene(self, seed=0, p=8, n_rf=2, noise=0.0):
        cfg = SystemConfig(N=48, M=3, SI_min=4, N_RF=n_rf, P=p)
        seg = seg_with_breakpoints([1, 13, 33, 49], 48)
        alloc = make_allocation(seg, [0, 1, 2], n_rf)
        rng = np.random.default_rng(seed)
        plan = build_combiners(alloc, cfg, rng, noise_variance=noise)
        h = (rng.standard_normal((48, 3)) + 1j * rng.standard_normal((48, 3)))
        return cfg, alloc, plan, h, rng

    def test_noiseless_reception_is_linear_map(self):
        cfg, alloc, plan, h, rng = self._scene()
        y = simulate_reception(h, plan, rng)
        for p in range(cfg.P):
            np.testing.assert_allclose(
                y[:, p, :], (plan.combiners[p] @ h).T, atol=1e-12)

    def test_zero_channel_zero_noise(self):
        cfg, alloc, plan, h, rng = self._scene()
        y = simulate_reception(np.zeros_like(h), plan, rng)
        assert np.all(y == 0)

    def test_decoupling_roundtrip_exact(self):
        cfg, alloc, plan, h, rng = self._scene()
        y = simulate_reception(h, plan, rng)
        obs = decouple(y, plan)
        for block in obs:
            expected = block.phi @ h[block.elements]
            np.testing.assert_allclose(block.y.T, expected.T, atol=1e-12)

    def test_disjoint_path_gives_zero_observation(self):
        cfg, alloc, plan, h, rng = self._scene()
        h2 = np.zeros_like(h)
        h2[alloc.subarrays[1]] = 1.0 + 0.5j   # signal confined to subarray 1
        y = simulate_reception(h2, plan, rng)
        obs = decouple(y, plan)
        assert np.allclose(obs[0].y, 0.0)
        assert not np.allclose(obs[1].y, 0.0)

    def test_slot_permutation_invariance(self):
        cfg, alloc, plan, h, rng = self._scene()
        y = simulate_reception(h, plan, rng)
        obs_a = decouple(y, plan)
        perm = np.random.default_rng(5).permutation(cfg.P)
        plan_b = type(plan)(combiners=plan.combiners[perm],
                            schedule=plan.schedule[perm], alloc=plan.alloc,
                            noise_variance=plan.noise_variance,
                            effective_pilots=plan.effective_pilots)
        obs_b = decouple(y[:, perm, :], plan_b)
        for a, b in zip(obs_a, obs_b):
            # same (row, observation) pairs up to ordering
            key_a = np.lexsort(np.round(a.phi, 9).T.real)
            key_b = np.lexsort(np.round(b.phi, 9).T.real)
            np.testing.assert_allclose(a.phi[key_a], b.phi[key_b], atol=1e-12)
            np.testing.assert_allclose(a.y[key_a], b.y[key_b], atol=1e-12)

    @given(st.integers(8, 96), st.integers(0, 6), st.integers(1, 5),
           st.integers(4, 39), st.sampled_from(["mef_gaa", "random"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_noiseless_round_trip_in_chain_slot_order(self, n, n_cuts, n_rf, p,
                                                      strategy, seed):
        rng = np.random.default_rng(seed)
        cuts = rng.choice(np.arange(2, n + 1), size=n_cuts, replace=False)
        seg = from_breakpoints(cuts, n)
        alloc = make_allocation(seg, list(range(seg.n_subarrays)), n_rf,
                                strategy=strategy, rng=rng)
        assume(max(len(cls) for cls in alloc.classes) <= p)
        cfg = SystemConfig(N=n, M=2, SI_min=1, N_RF=n_rf, P=p)
        plan = build_combiners(alloc, cfg, rng, noise_variance=0.0)
        h = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        y = simulate_reception(h, plan, rng)
        obs = decouple(y, plan)
        assert len(obs) == len(alloc.subarrays)
        for j, block in enumerate(obs):
            # every (chain, slot) that activates j, chain-major
            rows = [(c, s) for c in range(n_rf) for s in range(p)
                    if plan.schedule[s, c] == j]
            assert len(rows) == plan.effective_pilots[j]
            np.testing.assert_array_equal(block.elements, alloc.subarrays[j])
            np.testing.assert_array_equal(
                block.y, np.array([y[:, s, c] for c, s in rows]))
            np.testing.assert_array_equal(
                block.phi, np.array([plan.combiners[s, c, block.elements]
                                     for c, s in rows]))
            assert block.y.flags.c_contiguous
            np.testing.assert_allclose(block.y, block.phi @ h[block.elements],
                                       rtol=0, atol=1e-12)

    def test_measurement_snr_calibration(self):
        # unit mean per-element energy, sigma^2 = 10^(-snr/10): the empirical
        # per-measurement SNR matches the nominal value within 0.2 dB
        cfg = SystemConfig(N=64, M=1, SI_min=8, N_RF=1, P=1)
        seg = seg_with_breakpoints([1, 65], 64)
        alloc = make_allocation(seg, [0], 1)
        rng = np.random.default_rng(42)
        snr_db = 7.0
        h = np.exp(1j * rng.uniform(0, 2 * np.pi, (64, 1)))   # |h_n| = 1
        sigma2 = measurement_noise_variance(h, snr_db)
        sig_pow, noise_pow = 0.0, 0.0
        for _ in range(10_000):
            plan = build_combiners(alloc, cfg, rng, sigma2)
            row = plan.combiners[0, 0]
            sig_pow += np.abs(row @ h[:, 0]) ** 2
            noise = np.sqrt(sigma2 / 2) * (rng.standard_normal(64)
                                           + 1j * rng.standard_normal(64))
            noise_pow += np.abs(row @ noise) ** 2
        snr_emp = 10 * np.log10(sig_pow / noise_pow)
        assert snr_emp == pytest.approx(snr_db, abs=0.2)

    def test_random_allocation_covers_all_subarrays(self):
        rng = np.random.default_rng(0)
        classes = random_allocation([4, 4, 4, 4, 4], 3, rng)
        served = sorted(j for cls in classes for j in cls)
        assert served == [0, 1, 2, 3, 4]

    def test_unknown_strategy_lists_the_known_ones(self):
        seg = seg_with_breakpoints([1, 33, 65], 64)
        with pytest.raises(ValueError, match=r"known: \['mef_gaa', 'random'\]"):
            make_allocation(seg, [0, 1], 2, strategy="greedy")
        with pytest.raises(ValueError, match="needs an rng"):
            make_allocation(seg, [0, 1], 2, strategy="random")
