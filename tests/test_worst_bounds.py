"""The water-filling worst-case upper bounds against their mpmath Bessel form.

The reference values below are frozen from ``oracles.wf_worst_upper_mp``
(30 digits): 1 - p^M (G_M(M^2 r) + M r int_0^{M-1} G_{M-1}(a(y) r) dy) /
(M-1)! with the y-integral by one mp.quad, split at its knee.
``PYTHONPATH=src python tests/oracles.py worst-upper`` prints them.  One row
is recomputed live so the table cannot drift from the oracle.  Rate 2,
eta 1.
"""

import math

import pytest

from ehrelay.analytic import wf_worst_bounds
from ehrelay.model import SystemConfig, power_from_snr_db
from oracles import wf_worst_upper_mp

REL = 1e-12

# (pairs, snr_db) -> the upper bound (both forms)
REFERENCE = {
    (2, 0.0): 1.0,
    (2, 10.0): 0.9943382785727443,
    (2, 20.0): 0.45287591757811985,
    (2, 30.0): 0.05959258680396617,
    (2, 40.0): 0.006033348176260431,
    (2, 50.0): 0.0006009537329259829,
    (2, 60.0): 6.0018137456187905e-05,
    (2, 70.0): 6.0002912503550146e-06,
    (3, 0.0): 1.0,
    (3, 10.0): 0.9994082674603761,
    (3, 20.0): 0.5417726582546432,
    (3, 30.0): 0.06889596109834024,
    (3, 40.0): 0.006799255943080012,
    (3, 50.0): 0.0006758176175059372,
    (3, 60.0): 6.751131383673759e-05,
    (3, 70.0): 6.750144272251659e-06,
    (5, 0.0): 1.0,
    (5, 10.0): 0.9999946193252824,
    (5, 20.0): 0.6953773209791368,
    (5, 30.0): 0.09588296084403117,
    (5, 40.0): 0.009440414443253197,
    (5, 50.0): 0.0009385166095166367,
    (5, 60.0): 9.37636435738869e-05,
    (5, 70.0): 9.375171004443442e-06,
    (10, 0.0): 1.0,
    (10, 10.0): 0.9999999999713495,
    (10, 20.0): 0.9021249015979002,
    (10, 30.0): 0.1683861373888897,
    (10, 40.0): 0.016779801303650758,
    (10, 50.0): 0.0016684426680540901,
    (10, 60.0): 0.0001666903350796813,
    (10, 70.0): 1.666696173218666e-05,
    (20, 0.0): 1.0,
    (20, 10.0): 1.0,
    (20, 20.0): 0.9917844464882626,
    (20, 30.0): 0.3064715785787696,
    (20, 40.0): 0.03177421228003586,
    (20, 50.0): 0.0031612469172341002,
    (20, 60.0): 0.000315834309427078,
    (20, 70.0): 3.15795055374725e-05,
}


def config(pairs, snr_db):
    return SystemConfig(pairs=pairs, rate=2.0, source_power=power_from_snr_db(snr_db))


@pytest.mark.parametrize("pairs, snr_db", sorted(REFERENCE))
def test_upper_integral_matches_mpmath(pairs, snr_db):
    got = wf_worst_bounds(config(pairs, snr_db)).upper_integral
    assert got == pytest.approx(REFERENCE[pairs, snr_db], rel=REL, abs=0.0)


@pytest.mark.parametrize("pairs, snr_db", sorted(REFERENCE))
def test_upper_closed_matches_mpmath(pairs, snr_db):
    got = wf_worst_bounds(config(pairs, snr_db)).upper_closed
    assert got == pytest.approx(REFERENCE[pairs, snr_db], rel=REL, abs=0.0)


@pytest.mark.parametrize("pairs, snr_db", sorted(REFERENCE))
def test_upper_forms_agree_at_c_zero(pairs, snr_db):
    # equal by construction; the adaptive nested quadrature they replace
    # had them 1.2e-5 relative apart at (2, 70 dB)
    b = wf_worst_bounds(config(pairs, snr_db))
    assert b.upper_closed == pytest.approx(b.upper_integral, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("pairs, snr_db", sorted(REFERENCE))
def test_quad_error_covers_the_error(pairs, snr_db):
    b = wf_worst_bounds(config(pairs, snr_db))
    want = REFERENCE[pairs, snr_db]
    for got in (b.upper_integral, b.upper_closed):
        assert abs(got - want) <= b.quad_error + 4e-16 * want


@pytest.mark.parametrize("pairs", [2, 5, 20, 171, 1024])
@pytest.mark.parametrize("snr_db", [110.0, 150.0, 200.0])
def test_bounds_ordered_far_above_70_db(pairs, snr_db):
    # no complement 1 - p^M (...) is formed, so the sandwich keeps its
    # order where the bounds fall to 1e-17
    b = wf_worst_bounds(config(pairs, snr_db))
    assert 0.0 < b.lower <= b.upper_integral
    assert b.upper_closed == pytest.approx(b.upper_integral, rel=1e-13, abs=0.0)
    assert b.quad_error < 1e-9 * b.lower


def test_reference_table_matches_live_oracle():
    pairs, snr_db = 3, 70.0
    eps = config(pairs, snr_db).decode_threshold
    live = wf_worst_upper_mp(pairs, eps, 1.0)
    assert live == pytest.approx(REFERENCE[pairs, snr_db], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("eta", [1e-300, 1e-200])
@pytest.mark.parametrize("pairs", [2, 3, 5, 20])
@pytest.mark.parametrize("snr_db", [-20.0, 30.0, 100.0])
def test_bounds_finite_at_huge_eps_over_eta(eta, pairs, snr_db):
    # the budget grid w = S eta / eps underflows to 0; (M/w) exp(-a/w) -> 0
    # there, and the bounds must not read inf * 0 = nan.  Every bound is about
    # 1, and a mean of failure probabilities must not round above it (it read
    # 1 + 2^-52 at 5 pairs) nor an upper bound below the lower (1 - 2^-52 at 3)
    c = SystemConfig(pairs=pairs, rate=2.0, source_power=power_from_snr_db(snr_db), eta=eta)
    b = wf_worst_bounds(c)
    values = (b.lower, b.upper_integral, b.upper_closed, b.quad_error)
    assert all(math.isfinite(v) for v in values)
    assert b.lower <= b.upper_integral <= 1.0
    assert b.upper_closed <= 1.0
    assert b.lower <= b.upper_integral + b.quad_error + 1e-12 * b.upper_integral
    assert b.upper_closed == pytest.approx(b.upper_integral, rel=1e-12, abs=b.quad_error)


@pytest.mark.parametrize("pairs", [2, 3, 20])
def test_bounds_finite_at_a_rate_near_the_largest_float(pairs):
    # eps/eta = 1.5e308: a(y) rate overflows, so the tail's Bessel sum is 0,
    # and the closed bound must not read M/(M-1) rate * 0 = inf * 0 = nan
    c = SystemConfig(pairs=pairs, rate=2.0, source_power=power_from_snr_db(30.0), eta=1e-310)
    b = wf_worst_bounds(c)
    assert all(0.0 <= v <= 1.0 for v in (b.lower, b.upper_integral, b.upper_closed))
    assert math.isfinite(b.quad_error) and b.lower <= b.upper_integral + b.quad_error
    assert b.upper_closed == pytest.approx(b.upper_integral, abs=b.quad_error)


@pytest.mark.parametrize("pairs", [2, 3, 20])
def test_bounds_at_a_rate_whose_budgets_near_the_largest_float(pairs):
    # eps/eta = 1.5e-305: the largest budgets w = S/rate pass 1e307, where
    # 745 w overflows and the y-rule would start at log 0.  The bounds keep
    # their order and meet the high-SNR lower form M eps (1 + 1/(M-1))
    c = SystemConfig(pairs=pairs, rate=2.0, source_power=power_from_snr_db(3000.0), h_variance=1e6)
    eps = c.unit_gain_thresholds[0]
    b = wf_worst_bounds(c)
    assert b.lower == pytest.approx(pairs * eps * (1.0 + 1.0 / (pairs - 1.0)), rel=1e-12)
    assert b.lower <= b.upper_integral + b.quad_error and b.quad_error < 1e-4 * b.lower
    assert b.upper_closed == pytest.approx(b.upper_integral, abs=b.quad_error)


@pytest.mark.parametrize("pairs", [3, 20])
def test_bounds_refuse_budgets_past_the_largest_float(pairs):
    # eps/eta = 1.5e-307: w = S/rate overflows on the grid, where f(w) ~ M/w
    # is no longer held by any float, so the bounds are refused
    c = SystemConfig(pairs=pairs, rate=2.0, source_power=power_from_snr_db(3000.0), h_variance=1e8)
    with pytest.raises(OverflowError, match="leaves the float range"):
        wf_worst_bounds(c)
