"""SS-SM combiners, pilot reception and the power profile against their
oracles, bit for bit.

`build_combiners` draws each chain's base rows in one call and places them
with slot-index arrays; `simulate_reception` draws the noise of every slot in
one call and receives all slots in one batched product. The oracle below
walks the pilot slots one at a time: it draws a base row at the start of each
decoupling cycle and one noise matrix per slot. Both must give the same
bytes and leave the generator in the same state.

`measure_power` writes its two noise draws into one complex array and
scales it and adds H in place; its oracle is the formula with a fresh
temporary per step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from snschan.channel import ChannelRealization
from snschan.config import SystemConfig
from snschan.dhbf import (
    InfeasiblePilotError,
    RfAllocation,
    build_combiners,
    simulate_reception,
)
from snschan.pipeline import measure_power, measurement_noise_variance


def oracle_combiners(alloc, cfg, rng):
    """(combiners, schedule), slot by slot within each chain."""
    p_total = cfg.P
    if max(len(cls) for cls in alloc.classes) > p_total:
        raise InfeasiblePilotError("too few pilots")
    combiners = np.zeros((p_total, len(alloc.classes), cfg.N), dtype=complex)
    schedule = np.full((p_total, len(alloc.classes)), -1, dtype=int)
    for c, cls in enumerate(alloc.classes):
        if not cls:
            continue
        elems = np.unique(np.concatenate([alloc.subarrays[j] for j in cls]))
        masks = [np.isin(elems, alloc.subarrays[j]) for j in cls]
        for p in range(p_total):
            j = p % len(cls)
            if j == 0:
                base = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=elems.size))
            combiners[p, c, elems[masks[j]]] = base[masks[j]] / np.sqrt(masks[j].sum())
            schedule[p, c] = cls[j]
    eff = np.bincount(schedule[schedule >= 0], minlength=len(alloc.subarrays))
    if np.any(eff < 1):
        raise InfeasiblePilotError("some subarray receives no pilot")
    return combiners, schedule


def oracle_reception(H, combiners, noise_variance, rng):
    """y[m, p, c], one noise draw and one product per slot."""
    n, m = H.shape
    p_total, n_rf, _ = combiners.shape
    y = np.empty((m, p_total, n_rf), dtype=complex)
    sigma = np.sqrt(noise_variance / 2.0)
    for p in range(p_total):
        # drawn at noise_variance = 0 too, where it adds +-0
        noise = sigma * (rng.standard_normal((n, m))
                         + 1j * rng.standard_normal((n, m)))
        y[:, p, :] = (H + noise).T @ combiners[p].T
    return y


def channel(cfg, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((cfg.N, cfg.M)) + 1j * rng.standard_normal((cfg.N, cfg.M))


def subject(alloc, cfg, noise_variance, seed):
    """(error type or None, combiners, schedule, y, generator state)."""
    rng = np.random.default_rng(seed)
    try:
        plan = build_combiners(alloc, cfg, rng, noise_variance)
    except InfeasiblePilotError:
        return InfeasiblePilotError, None, None, None, rng.bit_generator.state
    y = simulate_reception(channel(cfg, seed + 1), plan, rng)
    return None, plan.combiners, plan.schedule, y, rng.bit_generator.state


def oracle(alloc, cfg, noise_variance, seed):
    rng = np.random.default_rng(seed)
    try:
        combiners, schedule = oracle_combiners(alloc, cfg, rng)
    except InfeasiblePilotError:
        return InfeasiblePilotError, None, None, None, rng.bit_generator.state
    y = oracle_reception(channel(cfg, seed + 1), combiners, noise_variance, rng)
    return None, combiners, schedule, y, rng.bit_generator.state


def assert_same(got, want):
    assert got[0] is want[0]
    assert got[4] == want[4]
    for a, b in zip(got[1:4], want[1:4]):
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@hst.composite
def allocations(draw):
    """An allocation of contiguous subarrays to chains serving 0-4 of them
    each (a subarray may sit on several chains, or on none)."""
    n = draw(hst.integers(2, 96))
    n_cuts = draw(hst.integers(0, min(7, n - 1)))
    cuts = sorted(draw(hst.sets(hst.integers(2, n), min_size=n_cuts,
                                max_size=n_cuts)))
    bounds = [1, *cuts, n + 1]
    subarrays = [np.arange(a - 1, b - 1) for a, b in zip(bounds, bounds[1:])]
    n_rf = draw(hst.integers(1, 5))
    classes = [draw(hst.lists(hst.integers(0, len(subarrays) - 1),
                              max_size=min(4, len(subarrays)), unique=True))
               for _ in range(n_rf)]
    if not any(classes):
        classes[0] = [0]
    cfg = SystemConfig(N=n, M=draw(hst.integers(1, 4)), SI_min=1, N_RF=n_rf,
                       P=draw(hst.integers(1, 13)))
    noise_variance = draw(hst.sampled_from([0.0, 1e-3, 0.7]))
    return RfAllocation(subarrays=subarrays, classes=classes), cfg, noise_variance


@given(allocations(), hst.integers(0, 2**32 - 2))
@settings(max_examples=200, deadline=None)
def test_measurement_equals_the_per_slot_oracle_bit_for_bit(case, seed):
    alloc, cfg, noise_variance = case
    got = subject(alloc, cfg, noise_variance, seed)
    assert_same(got, oracle(alloc, cfg, noise_variance, seed))
    if got[0] is None:
        assert got[3].flags.c_contiguous


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("noise_variance", [0.0, 0.25])
def test_every_cycle_length_with_an_idle_chain(k, noise_variance):
    # P = 7 is a multiple of no k > 1, so each chain's last cycle is cut short
    bounds = np.linspace(0, 40, 5).astype(int)
    alloc = RfAllocation(
        subarrays=[np.arange(a, b) for a, b in zip(bounds, bounds[1:])],
        classes=[list(range(k)), [], list(range(k - 1, 4))])
    cfg = SystemConfig(N=40, M=3, SI_min=1, N_RF=3, P=7)
    got = subject(alloc, cfg, noise_variance, 5)
    assert got[0] is None
    assert_same(got, oracle(alloc, cfg, noise_variance, 5))
    assert np.all(got[2][:, 1] == -1)


@given(hst.integers(1, 300), hst.integers(1, 8), hst.floats(-20.0, 60.0),
       hst.sampled_from(["dense", "half_zero", "zero"]), hst.integers(0, 2**32 - 2))
@settings(max_examples=200, deadline=None)
def test_power_profile_equals_the_formula_bit_for_bit(n, m, snr_db, kind, seed):
    H = channel(SystemConfig(N=max(n, 2), M=m, SI_min=1), seed)[:n]
    if kind == "half_zero":
        H[np.random.default_rng(seed).random(H.shape) < 0.5] = 0.0
    elif kind == "zero":
        H[:] = 0.0
    chan = ChannelRealization(H=H, truth_breakpoints=np.array([1, n + 1]))
    rng = np.random.default_rng(seed + 1)
    got = measure_power(chan, rng, snr_db)
    want_rng = np.random.default_rng(seed + 1)
    s2 = measurement_noise_variance(H, snr_db)
    a = want_rng.standard_normal(H.shape)
    b = want_rng.standard_normal(H.shape)
    want = np.abs((H + np.sqrt(s2 / 2) * (a + 1j * b)).sum(axis=1)) ** 2
    assert got.dtype == want.dtype and got.shape == want.shape == (n,)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == want_rng.bit_generator.state
