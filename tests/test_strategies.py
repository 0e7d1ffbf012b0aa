"""Allocation kernels: worked examples, conservation, optimality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ehrelay.model import SystemConfig, harvest, power_from_snr_db, sample_block
from ehrelay.strategies import STRATEGY_NAMES, Block, allocate
from oracles import block_of, brute_force_max_served, reference_draw


def run(name, h2, g2, rate=0.5, power=10.0, eta=1.0, budget=None):
    """One-draw block through ``allocate``; ``budget`` overrides the harvest.

    Returns the served mask of the single trial, the budget the kernel
    saw, and the config (with its thresholds).
    """
    h2 = np.asarray(h2, dtype=float)[None, :]
    g2 = np.asarray(g2, dtype=float)[None, :]
    config = SystemConfig(pairs=h2.shape[1], rate=rate, source_power=power, eta=eta)
    decoded, n, pr = harvest(h2, config)
    if budget is not None:
        pr = np.array([budget])
    served = allocate(name, block_of(h2, g2, config.snr_threshold), decoded, n, pr, config)
    return served[0], pr[0], config


def test_individual_off_set_zero_and_values():
    # pair 0 spends its own 10 * 0.5 - 1 = 4.0: exactly enough for need 4.0
    served, _, _ = run("individual", [0.5, 0.05], [0.25, 1e9])
    assert served.tolist() == [True, False]
    served, _, _ = run("individual", [0.5, 0.05], [0.25 * (1.0 - 1e-12), 1e9])
    assert not served[0]


def test_individual_vanishes_at_threshold():
    # own power ~1e-11 just above the decode threshold
    h2 = [0.1 + 1e-12, 0.05]
    assert not run("individual", h2, [1e9, 1.0])[0][0]
    assert run("individual", h2, [1e13, 1.0])[0][0]


def test_individual_equals_equal_for_single_pair():
    rng = np.random.default_rng(4)
    for _ in range(200):
        h2, g2 = rng.exponential(size=1), rng.exponential(size=1)
        a = run("individual", h2, g2)
        b = run("equal", h2, g2)
        assert a[0].tolist() == b[0].tolist()


def test_equal_split_example():
    # P_r = 4 split over decoded pairs {0, 2}: share 2 against need 2
    served, pr, _ = run("equal", [0.3, 0.05, 0.3], [0.5, 1e9, 0.5])
    assert pr == pytest.approx(4.0)
    assert served.tolist() == [True, False, True]
    served, _, _ = run("equal", [0.3, 0.05, 0.3], [0.5, 1e9, 0.5 * (1.0 - 1e-12)])
    assert served.tolist() == [True, False, False]


def test_equal_empty_decoding_set():
    served, pr, _ = run("equal", [0.01, 0.02], [1.0, 1.0])
    assert not served.any()
    assert pr == 0.0


def test_waterfill_worked_example():
    # budget 2, requirements (0.5, 1.0, 4.0): serve two, keep 0.5
    served, _, config = run(
        "waterfill", [0.3, 0.3, 0.3], [2.0, 1.0, 0.25], budget=2.0
    )
    assert config.snr_threshold == pytest.approx(1.0)
    assert served.tolist() == [True, True, False]
    # a budget that covers the two requirements exactly still serves both
    served, _, _ = run("waterfill", [0.3, 0.3, 0.3], [2.0, 1.0, 0.25], budget=1.5)
    assert served.tolist() == [True, True, False]


def test_waterfill_all_served():
    g2 = np.array([1.0, 2.0])
    served, pr, config = run("waterfill", [2.0, 2.0], g2)
    need = config.snr_threshold / g2
    assert pr > need.sum()
    assert served.all()


def test_waterfill_nobody_affordable():
    served, _, _ = run("waterfill", [0.11, 0.11], [0.001, 0.002])
    assert not served.any()


def test_waterfill_tie_break_ascending_index():
    # room for one requirement of 1.0 only
    served, _, _ = run("waterfill", [0.5, 0.5, 0.5], [1.0, 1.0, 1.0], budget=1.5)
    assert served.tolist() == [True, False, False]


def test_waterfill_stops_at_first_unaffordable():
    # requirements in visit order: 1.0, 2.0, 4.0 with budget 3.2:
    # 1.0 + 2.0 = 3.0 <= 3.2, stops at 4.0
    served, _, _ = run(
        "waterfill", [0.5, 0.5, 0.5], [1.0, 0.5, 0.25], budget=3.2
    )
    assert served.tolist() == [True, True, False]


def test_maxmin_single_pair_gets_everything():
    # the only decoded pair receives the whole budget 4: need 4 is covered,
    # anything above it is not
    served, pr, _ = run("maxmin", [0.5, 0.01], [0.25, 1e9])
    assert pr == 4.0
    assert served.tolist() == [True, False]
    assert not run("maxmin", [0.5, 0.01], [0.25 * (1.0 - 1e-12), 1e9])[0][0]


def test_maxmin_common_rate_value():
    # P_r = 2, sum 1/g2 = 5.5 -> common rate t = 0.5 log2(1 + 2/5.5):
    # every pair is served at target rates up to t and none above it
    t = 0.5 * math.log2(1.0 + 2.0 / 5.5)
    h2, g2 = [50.0, 50.0, 50.0], [1.0, 0.25, 2.0]
    assert run("maxmin", h2, g2, rate=t * (1.0 - 1e-9), budget=2.0)[0].all()
    assert not run("maxmin", h2, g2, rate=t * (1.0 + 1e-9), budget=2.0)[0].any()


def test_maxmin_equal_gains_match_equal_split():
    rng = np.random.default_rng(8)
    for budget in rng.exponential(3.0, size=200):
        h2 = rng.exponential(size=3)
        a = run("maxmin", h2, [1.5, 1.5, 1.5], budget=budget)
        b = run("equal", h2, [1.5, 1.5, 1.5], budget=budget)
        assert a[0].tolist() == b[0].tolist()


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_block_refuses_params_of_another_rate(name):
    config = SystemConfig(pairs=2, rate=0.5, source_power=10.0)
    other = SystemConfig(pairs=2, rate=1.0, source_power=10.0)
    h2 = np.full((1, 2), 0.5)
    block = block_of(h2, np.ones((1, 2)), other.snr_threshold)
    with pytest.raises(ValueError, match="snr_threshold"):
        allocate(name, block, *harvest(h2, config), config)


@given(
    seed=hst.integers(min_value=0, max_value=2**32 - 1),
    pairs=hst.sampled_from((1, 2, 5, 8, 20)),
    ties=hst.integers(min_value=0, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_shared_block_waterfill_matches_one_config_and_reference(seed, pairs, ties):
    # one Block serves every SNR of a group, its sort made at the first;
    # each SNR's mask and counts must equal those of a Block built
    # for that SNR alone, and the mask that of the per-draw reference.
    # Copied g2 values tie requirements exactly: ascending index decides.
    rng = np.random.default_rng(seed)
    trials = 30
    h2 = rng.exponential(size=(trials, pairs))
    g2 = rng.exponential(size=(trials, pairs))
    for _ in range(ties if pairs > 1 else 0):
        t, (i, j) = rng.integers(trials), rng.integers(pairs, size=2)
        g2[t, j] = g2[t, i]
    configs = [
        SystemConfig(pairs=pairs, rate=1.0, source_power=power_from_snr_db(snr))
        for snr in (20.0, 0.0, 10.0, 30.0)
    ]
    shared = block_of(h2, g2, configs[0].snr_threshold)
    for config in configs:
        harvested = harvest(shared.h2, config)
        served = allocate("waterfill", shared, *harvested, config)
        alone = allocate("waterfill", block_of(h2.copy(), g2.copy(), config.snr_threshold), *harvested, config)
        assert np.array_equal(served, alone)
        counts = served.sum(axis=1)  # the engine's per-trial count
        assert counts.tolist() == [sum(row) for row in served.tolist()]
        assert harvested[1].tolist() == [sum(row) for row in harvested[0].tolist()]
        for t in range(trials):
            ref = reference_draw(h2[t], g2[t], config, "waterfill")
            assert served[t].tolist() == ref.served.tolist()
            assert counts[t] == ref.served.sum()


def _row_major_waterfill_order(need, h2):
    """Sorted needs and h2 (pairs, trials) and ranks (trials, pairs), built on C-order rows."""
    trials, pairs = need.shape
    order = np.argsort(need, axis=1, kind="stable")
    order += np.arange(0, trials * pairs, pairs)[:, None]
    rank = np.empty(trials * pairs, dtype=np.min_scalar_type(pairs))
    rank[order.ravel()] = np.tile(np.arange(pairs, dtype=rank.dtype), trials)
    return (*(np.take(x, order).T for x in (need, h2)), rank.reshape(trials, pairs))


def test_block_arrays_are_column_major():
    rng = np.random.default_rng(4)
    h2, g2 = rng.exponential(size=(2, 50, 3))
    block = block_of(h2, g2, 15.0)
    for x in (block.h2, block.g2, block.need):
        assert x.shape == (50, 3) and x.flags.f_contiguous
    assert np.array_equal(block.h2, h2) and np.array_equal(block.g2, g2)
    need, sorted_h2, rank = block.waterfill_order
    assert need.flags.c_contiguous and sorted_h2.flags.c_contiguous  # one row per place
    assert rank.flags.f_contiguous


def test_refilled_block_matches_a_fresh_one():
    # one Block of capacity 40 holds a full block, then a partial one, then
    # a full one again: each time it equals a Block built for those draws,
    # in the same buffers, and every mask returned is a fresh array
    rng = np.random.default_rng(9)
    config = SystemConfig(pairs=4, rate=1.0, source_power=power_from_snr_db(15.0))
    block = Block(40, 4, config.snr_threshold)
    seen = None
    for trials in (40, 23, 40):
        h2, g2 = rng.exponential(size=(2, trials, 4))
        fresh = block_of(h2.copy(), g2.copy(), config.snr_threshold)
        block.refill(h2, g2)
        for name in ("h2", "g2", "need"):
            x = getattr(block, name)
            assert x.flags.f_contiguous and np.array_equal(x, getattr(fresh, name))
        for x, y in zip(block.waterfill_order, fresh.waterfill_order):
            assert x.flags.c_contiguous == y.flags.c_contiguous and np.array_equal(x, y)
        harvested = block.harvest(config)
        for name in STRATEGY_NAMES:
            served = allocate(name, block, *harvested, config)
            assert np.array_equal(served, allocate(name, fresh, *harvest(fresh.h2, config), config))
            for x in block._flat.values():
                assert not np.shares_memory(served, x)
        if seen is not None:
            assert all(np.shares_memory(x, y) for x, y in zip(seen, (block.h2, block.need)))
        seen = block.h2, block.need
    with pytest.raises(ValueError, match="do not fit"):
        block.refill(*rng.exponential(size=(2, 41, 4)))


@pytest.mark.parametrize("size", [40, 23])
def test_block_draw_is_sample_block_then_refill(size):
    # a full block and a partial one, each drawn into a Block that held a
    # block before: the same bits as the draws of sample_block, refilled
    config = SystemConfig(pairs=4, rate=1.0, source_power=power_from_snr_db(15.0),
                          h_variance=2.5, g_variance=0.3)
    block = Block(40, 4, config.snr_threshold)
    block.draw(3, 0, 40, config)
    block.draw(3, 1, size, config)
    want = block_of(*sample_block(3, 1, size, config), config.snr_threshold)
    for name in ("h2", "g2", "need"):
        x, y = getattr(block, name), getattr(want, name)
        assert x.shape == y.shape == (size, 4) and x.flags.f_contiguous
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
    for x, y in zip(block.waterfill_order, want.waterfill_order):
        assert np.array_equal(x, y)


def test_block_harvest_is_a_fresh_harvest():
    # the surplus goes to the scratch, but every array returned is fresh,
    # with the bits of harvest on the same h2 and no scratch
    config = SystemConfig(pairs=5, rate=1.0, source_power=1000.0, eta=0.37)
    block = Block(500, 5, config.snr_threshold)
    block.draw(6, 0, 500, config)
    want = harvest(block.h2, config)
    got = block.harvest(config)
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and np.array_equal(x, y)
        assert not any(np.shares_memory(x, buf) for buf in block._flat.values())


@pytest.mark.parametrize("pairs", [1, 2, 3, 5, 20, 300])
def test_waterfill_order_matches_row_major_construction(pairs):
    rng = np.random.default_rng(pairs)
    trials = 500
    h2, g2 = rng.exponential(size=(2, trials, pairs))
    if pairs > 1:  # rows with copied gains: ties resolve by ascending pair index
        g2[::3, 1:] = g2[::3, :1]
        g2[1::7, -1] = g2[1::7, 0]
    block = block_of(h2, g2, 15.0)
    got = block.waterfill_order
    want = _row_major_waterfill_order(15.0 / g2, h2)
    for x, y in zip(got, want):
        assert x.shape == y.shape and x.dtype == y.dtype
        assert np.array_equal(x, y)


def test_dispatch_unknown_name():
    with pytest.raises(ValueError, match="unknown strategy"):
        run("greedy", [0.5], [1.0])


@given(
    seed=hst.integers(min_value=0, max_value=2**32 - 1),
    pairs=hst.integers(min_value=1, max_value=8),
    name=hst.sampled_from(STRATEGY_NAMES),
)
@settings(max_examples=150, deadline=None)
def test_budget_conservation(seed, pairs, name):
    # the kernel's served mask is that of a per-draw allocation that
    # grants non-negative power on the decoding set only and spends at
    # most the harvested budget
    rng = np.random.default_rng(seed)
    config = SystemConfig(pairs=pairs, rate=0.5, source_power=10.0)
    h2, g2 = rng.exponential(size=pairs), rng.exponential(size=pairs)
    ref = reference_draw(h2, g2, config, name)
    assert (ref.powers >= 0.0).all()
    assert not ref.powers[~ref.decoded].any()
    assert ref.powers.sum() <= ref.budget * (1.0 + 1e-9) + 1e-12
    served, pr, _ = run(name, h2, g2)
    assert pr == pytest.approx(ref.budget, rel=1e-12)
    if pairs < 8:
        # below 8 pairs both add up the budget bit for bit, so even an
        # auction grant that lands on its requirement rounds the same way
        assert pr == ref.budget
        assert served.tolist() == ref.served.tolist()


@given(seed=hst.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_waterfill_count_optimality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    config = SystemConfig(pairs=n, rate=0.5, source_power=10.0)
    h2 = rng.exponential(size=n) + config.decode_threshold  # all decoded
    g2 = rng.exponential(size=n) + 1e-6
    served, pr, _ = run("waterfill", h2, g2)
    best = brute_force_max_served(list(config.snr_threshold / g2), pr)
    assert int(served.sum()) == best
