"""Channel model, power splitting, and harvest bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ehrelay.model import SystemConfig, harvest, power_from_snr_db, sample_block
from oracles import block_of, power_split_theta


def cfg(pairs=2, rate=2.0, power=100.0, **kw):
    return SystemConfig(pairs=pairs, rate=rate, source_power=power, **kw)


def test_power_from_snr_db():
    assert power_from_snr_db(0.0) == 1.0
    assert power_from_snr_db(30.0) == pytest.approx(1000.0)
    assert power_from_snr_db(-10.0) == pytest.approx(0.1)


@pytest.mark.parametrize(
    "rate,power,a,eps",
    [
        (2.0, 100.0, 15.0, 0.15),
        (0.5, 10.0, 1.0, 0.1),
        (2.0, 1e4, 15.0, 1.5e-3),
    ],
)
def test_derive_params(rate, power, a, eps):
    # the derived thresholds: a = 2^(2R) - 1 and epsilon = a / P_s
    p = cfg(rate=rate, power=power)
    assert p.snr_threshold == pytest.approx(a, rel=1e-12)
    assert p.decode_threshold == pytest.approx(eps, rel=1e-12)


@pytest.mark.parametrize(
    "bad",
    [
        dict(pairs=0),
        dict(pairs=2.0),
        dict(rate=0.0),
        dict(rate=-1.0),
        dict(power=0.0),
        dict(eta=0.0),
        dict(eta=1.5),
        dict(h_variance=0.0),
        dict(g_variance=(1.0, 1.0)),  # one variance per hop, not per pair
        dict(h_variance=math.inf),
    ],
)
def test_config_validation(bad):
    with pytest.raises(ValueError):
        cfg(**bad)


def test_variance_is_one_scalar_per_hop():
    c = cfg(pairs=3, h_variance=0.5, g_variance=2.0)
    assert (c.h_variance, c.g_variance) == (0.5, 2.0)
    assert c.unit_gain_thresholds == (c.decode_threshold / 0.5, c.eta * 2.0)
    assert cfg(eta=0.6, g_variance=3.0).unit_gain_thresholds[1] == 0.6 * 3.0  # may exceed 1
    assert cfg().unit_gain_thresholds == (cfg().decode_threshold, 1.0)


def test_theta_boundary_and_clamp():
    assert power_split_theta(100.0, 0.15, 15.0) == 0.0  # P h2 = a exactly
    assert power_split_theta(100.0, 0.10, 15.0) == 0.0  # below threshold
    assert power_split_theta(100.0, 1.0, 15.0) == pytest.approx(0.85)


@given(
    power=hst.floats(min_value=1e-3, max_value=1e8),
    h2=hst.floats(min_value=0.0, max_value=1e6),
    a=hst.floats(min_value=1e-6, max_value=1e4),
)
@settings(max_examples=300, deadline=None)
def test_theta_range(power, h2, a):
    theta = power_split_theta(power, h2, a)
    assert 0.0 <= theta <= 1.0
    if power * h2 > a and a / (power * h2) > 1e-15:
        # strictly below 1 whenever the detection share is representable
        assert theta < 1.0


def test_harvest_worked_example():
    c = cfg(pairs=2, rate=0.5, power=10.0)
    decoded, n, budget = harvest(np.array([[0.5, 0.05]]), c)
    assert n.tolist() == [1]
    assert decoded.tolist() == [[True, False]]
    assert budget[0] == pytest.approx(4.0)


def test_harvest_empty_set():
    c = cfg(pairs=3, rate=2.0, power=10.0)
    decoded, n, budget = harvest(np.full((1, 3), 0.1), c)
    assert n[0] == 0 and not decoded.any()
    assert budget[0] == 0.0


def test_harvest_threshold_is_strict():
    c = cfg(pairs=1, rate=0.5, power=10.0)
    assert harvest(np.array([[c.decode_threshold]]), c)[1][0] == 0


def test_harvest_increasing_in_decoded_gain():
    c = cfg(pairs=2, rate=0.5, power=10.0)
    budget = harvest(np.array([[0.5, 0.3], [0.6, 0.3]]), c)[2]
    assert budget[1] > budget[0]


def _row_major_budget(h2, config):
    """The budget as numpy sums each row of a C-order block."""
    h2 = np.ascontiguousarray(h2)
    surplus = config.eta * (config.source_power * h2 - config.snr_threshold)
    return np.where(h2 > config.decode_threshold, surplus, 0.0).sum(axis=1)


def _block_budgets(pairs):
    """(budget of a Block's column-major h2, row-major reference) over SNRs and etas."""
    h2, g2 = sample_block(11, 0, 4096, cfg(pairs=pairs))
    block = block_of(h2, g2, cfg(pairs=pairs).snr_threshold)
    for snr in (0.0, 20.0, 40.0):
        for eta in (1.0, 0.37):
            config = cfg(pairs=pairs, power=power_from_snr_db(snr), eta=eta)
            yield harvest(block.h2, config)[2], _row_major_budget(h2, config)


@pytest.mark.parametrize("pairs", [1, 2, 3, 5, 7])
def test_harvest_budget_bits_match_row_major_sum_below_eight_pairs(pairs):
    # numpy sums rows of fewer than 8 in pair order, as the column adds do;
    # the committed CSV bytes rely on it.  Only an empty row's zero differs
    # (-0.0), so both sides are compared after adding +0.0.
    for got, want in _block_budgets(pairs):
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal((got + 0.0).view(np.uint64), (want + 0.0).view(np.uint64))


@pytest.mark.parametrize("pairs", [8, 20])
def test_harvest_budget_near_row_major_sum_from_eight_pairs(pairs):
    # rows of 8 or more are summed pairwise by numpy: the last bit may move
    for got, want in _block_budgets(pairs):
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)


def test_harvest_on_column_major_block():
    c = cfg(pairs=5, power=1000.0, eta=0.5)
    h2, g2 = sample_block(2, 0, 64, c)
    block = block_of(h2, g2, c.snr_threshold)
    decoded, n, budget = harvest(block.h2, c)
    assert decoded.flags.f_contiguous
    assert n.tolist() == [sum(row) for row in decoded.tolist()]
    assert np.array_equal(decoded, h2 > c.decode_threshold)
    assert (budget[n == 0] == 0.0).all()


def test_sample_block_deterministic_per_seed():
    c = cfg(pairs=4)
    h1, g1 = sample_block(7, 0, 5, c)
    h2, g2 = sample_block(7, 0, 5, c)
    assert np.array_equal(h1, h2) and np.array_equal(g1, g2)
    h3, _ = sample_block(8, 0, 5, c)
    assert not np.array_equal(h1, h3)
    h4, _ = sample_block(7, 1, 5, c)
    assert not np.array_equal(h1, h4)


def test_sample_block_partition_invariance():
    # one block of 100 vs the same trials re-blocked: bit-identical rows
    c = cfg(pairs=3, h_variance=0.5, g_variance=0.25)
    h, g = sample_block(3, 5, 100, c)
    h2, g2 = sample_block(3, 5, 100, c)
    assert np.array_equal(h, h2) and np.array_equal(g, g2)
    assert h.shape == (100, 3)


@pytest.mark.parametrize("size", [100, 37])
def test_sample_block_into_buffers_is_numpys_exponential(size):
    # a unit exponential times the mean, drawn into the leading part of a
    # larger buffer, is rng.exponential(scale=mean) bit for bit
    c = cfg(pairs=3, h_variance=2.5, g_variance=0.3)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((4, 2))))
    want = [rng.exponential(scale=v, size=(size, 3)) for v in (2.5, 0.3)]
    buffers = np.full((2, 100 * 3), np.nan)
    out = tuple(x[: size * 3].reshape(size, 3) for x in buffers)
    got = sample_block(4, 2, size, c, out=out)
    for x, y, buf in zip(got, want, out):
        assert x is buf
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
    assert np.isnan(buffers[:, size * 3:]).all()
    for x, y in zip(sample_block(4, 2, size, c), want):
        assert x.flags.c_contiguous and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def test_harvest_scratch_changes_no_bit():
    c = cfg(pairs=5, power=1000.0, eta=0.37)
    block = block_of(*sample_block(6, 0, 500, c), c.snr_threshold)
    fresh = harvest(block.h2, c)
    scratch = np.full_like(block.h2, np.nan, order="F")
    for x, y in zip(harvest(block.h2, c, scratch=scratch), fresh):
        assert x.dtype == y.dtype and np.array_equal(x, y)
        assert not np.shares_memory(x, scratch)
    assert fresh[1].dtype == np.uint8  # the narrowest integer that holds 5


def test_sample_block_variance_scaling():
    c = cfg(pairs=2, h_variance=0.5, g_variance=2.0)
    h, g = sample_block(0, 0, 200_000, c)
    assert h.mean(axis=0) == pytest.approx([0.5, 0.5], rel=0.02)
    assert g.mean(axis=0) == pytest.approx([2.0, 2.0], rel=0.02)


def test_empirical_mean_within_one_percent():
    c = cfg(pairs=1)
    h, _ = sample_block(12, 0, 1_000_000, c)
    assert abs(h.mean() - 1.0) < 0.01


def test_empirical_decode_probability():
    c = cfg(pairs=1, rate=0.5, power=10.0)
    eps = c.decode_threshold
    h, _ = sample_block(1, 0, 1_000_000, c)
    phat = float((h > eps).mean())
    want = math.exp(-eps)
    stderr = math.sqrt(want * (1.0 - want) / h.shape[0])
    assert abs(phat - want) <= 4.0 * stderr


def test_decoding_count_distribution():
    # N is binomial(M, e^{-eps})
    c = cfg(pairs=5, rate=2.0, power=100.0)
    eps = c.decode_threshold
    h, _ = sample_block(2, 0, 400_000, c)
    n = (h > eps).sum(axis=1)
    p = math.exp(-eps)
    for k in range(6):
        want = math.comb(5, k) * p**k * (1.0 - p) ** (5 - k)
        phat = float((n == k).mean())
        stderr = math.sqrt(want * (1.0 - want) / h.shape[0])
        assert abs(phat - want) <= 4.0 * stderr + 1e-12
