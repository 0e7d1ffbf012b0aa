"""Closed forms, bounds, and asymptotics against independent quadrature."""

import math

import numpy as np
import pytest
from scipy import integrate

from ehrelay.analytic import (
    asymptotic_outage,
    conditioned_sum_pdf,
    order_stat_diagnostics,
    outage_equal,
    outage_individual,
    outage_wf_best,
    prob_decoding_count,
    wf_worst_bounds,
)
from ehrelay.model import SystemConfig, derive_params, power_from_snr_db
from oracles import (
    outage_equal_avg_quad,
    outage_equal_best_quad,
    outage_equal_worst_quad,
    outage_individual_avg_quad,
    outage_wf_best_quad,
)


def cfg(pairs, snr_db, rate=2.0, eta=1.0):
    return SystemConfig(
        pairs=pairs, rate=rate, source_power=power_from_snr_db(snr_db), eta=eta
    )


# ---------------------------------------------------------------- kernels


def test_prob_decoding_count_single_pair():
    assert prob_decoding_count(1, 0.3, 1) == pytest.approx(math.exp(-0.3), rel=1e-14)


def test_prob_decoding_count_frozen_values():
    # M = 2, eps = 0.1 (30 dps arithmetic)
    assert prob_decoding_count(2, 0.1, 2) == pytest.approx(0.8187307530779818, rel=1e-14)
    assert prob_decoding_count(2, 0.1, 1) == pytest.approx(0.17221332991595542, rel=1e-14)
    assert prob_decoding_count(2, 0.1, 0) == pytest.approx(0.009055917006062713, rel=1e-14)


def test_prob_decoding_count_sums_to_one():
    total = math.fsum(prob_decoding_count(20, 0.1, n) for n in range(21))
    assert abs(total - 1.0) <= 1e-12


def test_prob_decoding_count_validation():
    with pytest.raises(ValueError):
        prob_decoding_count(3, 0.1, 4)
    with pytest.raises(ValueError):
        prob_decoding_count(3, -0.1, 1)


def test_conditioned_sum_pdf_exponential_case():
    for y in (0.1, 1.0, 5.0):
        assert conditioned_sum_pdf(1, 0.0, y) == pytest.approx(math.exp(-y), rel=1e-14)


def test_conditioned_sum_pdf_support():
    assert conditioned_sum_pdf(3, 0.2, 0.6) == 0.0  # y = n eps boundary
    assert conditioned_sum_pdf(3, 0.2, 0.59) == 0.0
    assert conditioned_sum_pdf(3, 0.2, 0.61) > 0.0


@pytest.mark.parametrize("n", [2, 5, 10])
def test_conditioned_sum_pdf_normalization(n):
    eps = 0.15
    val, err = integrate.quad(
        lambda y: conditioned_sum_pdf(n, eps, y), n * eps, np.inf, limit=200
    )
    assert val == pytest.approx(1.0, abs=1e-6)


# ------------------------------------------------------------ closed forms


def test_individual_matches_quadrature_oracle():
    # frozen from outage_individual_avg_quad (25 dps)
    assert outage_individual(cfg(2, 20.0)).average == pytest.approx(
        0.396683682219948, rel=1e-12
    )
    assert outage_individual(cfg(3, 30.0)).average == pytest.approx(
        0.07528009758717215, rel=1e-12
    )


def test_individual_extremes_from_marginal():
    s = outage_individual(cfg(4, 25.0))
    assert s.best == pytest.approx(s.average**4, rel=1e-12)
    assert s.worst == pytest.approx(1.0 - (1.0 - s.average) ** 4, rel=1e-12)


def test_individual_certain_outage_at_low_snr():
    # no pair can decode: the marginal rounds to 1, whose log1p is -inf
    s = outage_individual(cfg(3, -10.0))
    assert (s.average, s.best, s.worst) == (1.0, 1.0, 1.0)


def test_individual_vanishes_at_high_snr():
    assert outage_individual(cfg(1, 100.0)).average < 1e-6


def test_individual_40db_paper_anchor():
    avg = outage_individual(cfg(1, 40.0)).average
    assert 0.7e-2 <= avg <= 1.5e-2


def test_equal_matches_quadrature_oracle():
    s2 = outage_equal(cfg(2, 20.0))
    assert s2.average == pytest.approx(0.33565800379912936, rel=1e-12)
    assert s2.best == pytest.approx(0.14640586136007452, rel=1e-11)
    assert s2.worst == pytest.approx(0.5249101462381841, rel=1e-12)
    s3 = outage_equal(cfg(3, 30.0))
    assert s3.average == pytest.approx(0.036771386129574604, rel=1e-11)
    assert s3.best == pytest.approx(0.00022524974853046101, rel=1e-9)
    assert s3.worst == pytest.approx(0.1047285851347849, rel=1e-11)


def test_equal_live_oracle_cross_check():
    config = cfg(5, 25.0)
    eps = derive_params(config).decode_threshold
    s = outage_equal(config)
    assert s.average == pytest.approx(outage_equal_avg_quad(5, eps, 1.0), rel=1e-10)
    assert s.best == pytest.approx(outage_equal_best_quad(5, eps, 1.0), rel=1e-8)
    assert s.worst == pytest.approx(outage_equal_worst_quad(5, eps, 1.0), rel=1e-10)


@pytest.mark.parametrize("snr", [120.0, 200.0])
def test_complement_free_oracles_at_high_snr(snr):
    # both oracles integrate the failure probability itself; as 1 - P(success)
    # at 25 digits they kept only ~7 significant digits at 200 dB
    config = cfg(3, snr)
    eps = derive_params(config).decode_threshold
    assert outage_individual(config).average == pytest.approx(
        outage_individual_avg_quad(eps, 1.0), rel=1e-12
    )
    assert outage_equal(config).worst == pytest.approx(
        outage_equal_worst_quad(3, eps, 1.0), rel=1e-12
    )


def test_equal_reduces_to_individual_for_one_pair():
    a = outage_individual(cfg(1, 17.0))
    b = outage_equal(cfg(1, 17.0))
    assert b.average == pytest.approx(a.average, rel=1e-12)
    assert b.best == pytest.approx(a.best, rel=1e-12)
    assert b.worst == pytest.approx(a.worst, rel=1e-12)


def test_wf_best_matches_quadrature_oracle():
    assert outage_wf_best(cfg(2, 20.0)) == pytest.approx(0.1124088191149589, rel=1e-11)
    assert outage_wf_best(cfg(3, 30.0)) == pytest.approx(
        7.953001930357335e-05, rel=1e-9
    )
    config = cfg(4, 15.0)
    eps = derive_params(config).decode_threshold
    assert outage_wf_best(config) == pytest.approx(
        outage_wf_best_quad(4, eps, 1.0), rel=1e-10
    )


def test_wf_best_equals_individual_for_one_pair():
    assert outage_wf_best(cfg(1, 22.0)) == pytest.approx(
        outage_individual(cfg(1, 22.0)).average, rel=1e-12
    )


@pytest.mark.parametrize("snr", [0.0, 10.0, 20.0, 30.0, 40.0])
def test_wf_best_no_worse_than_equal_best(snr):
    config = cfg(3, snr)
    assert outage_wf_best(config) <= outage_equal(config).best + 1e-15


@pytest.mark.parametrize("maker", [outage_individual, outage_equal])
def test_metric_ordering_and_range(maker):
    for snr in (0.0, 15.0, 30.0, 45.0):
        s = maker(cfg(4, snr))
        assert 0.0 <= s.best <= s.average <= s.worst <= 1.0


@pytest.mark.parametrize("maker", [outage_individual, outage_equal])
def test_monotone_in_snr(maker):
    vals = [maker(cfg(3, snr)).average for snr in range(0, 55, 5)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_unit_variance_guard():
    config = SystemConfig(pairs=2, rate=2.0, source_power=100.0, h_variance=0.5)
    for fn in (outage_individual, outage_equal, outage_wf_best, wf_worst_bounds):
        with pytest.raises(ValueError, match="unit"):
            fn(config)


# ----------------------------------------------------------------- bounds


@pytest.mark.parametrize("m", [2, 3, 5, 10, 20])
@pytest.mark.parametrize("snr", [5.0, 20.0, 35.0])
def test_wf_worst_bound_ordering(m, snr):
    b = wf_worst_bounds(cfg(m, snr))
    assert 0.0 <= b.lower <= b.upper_integral + 1e-9
    assert b.upper_integral <= b.upper_closed + 1e-6
    assert b.upper_closed <= 1.0 + 1e-9
    assert b.quad_error < 1e-7


@pytest.mark.parametrize("m", [3, 10])
def test_wf_worst_closed_equals_integral_at_c_zero(m):
    b = wf_worst_bounds(cfg(m, 25.0), c=0.0)
    assert abs(b.upper_closed - b.upper_integral) <= 1e-6


def test_wf_worst_closed_loosens_with_c():
    lo = wf_worst_bounds(cfg(5, 25.0), c=0.0).upper_closed
    hi = wf_worst_bounds(cfg(5, 25.0), c=3.0).upper_closed
    assert hi >= lo - 1e-12


def test_wf_worst_bounds_c_validation():
    with pytest.raises(ValueError):
        wf_worst_bounds(cfg(3, 20.0), c=2.5)
    with pytest.raises(ValueError):
        wf_worst_bounds(cfg(3, 20.0), c=-0.1)


# ------------------------------------------------------------- asymptotics


def test_asymptotic_equal_average_substitution():
    # (1 + M/((M-1) eta)) eps with M = 2, eps = 1e-3
    config = SystemConfig(pairs=2, rate=0.5, source_power=1000.0)
    assert asymptotic_outage("equal", "average", config) == pytest.approx(3e-3, rel=1e-12)


def test_asymptotic_individual_average_40db():
    val = asymptotic_outage("individual", "average", cfg(1, 40.0))
    assert val == pytest.approx(1.13e-2, rel=0.01)


def test_asymptotic_warns_outside_regime():
    with pytest.warns(RuntimeWarning, match="high-SNR"):
        asymptotic_outage("individual", "average", cfg(1, 5.0))


def test_asymptotic_ratio_tends_to_one():
    for snr in (50.0, 55.0, 60.0):
        config = cfg(3, snr)
        pairs_ = [
            (outage_individual(config).average, asymptotic_outage("individual", "average", config)),
            (outage_individual(config).worst, asymptotic_outage("individual", "worst", config)),
            (outage_equal(config).average, asymptotic_outage("equal", "average", config)),
            (outage_equal(config).worst, asymptotic_outage("equal", "worst", config)),
        ]
        for exact, approx in pairs_:
            assert approx / exact == pytest.approx(1.0, abs=0.2)


def test_asymptotic_best_ratio_two_pairs():
    # best-case forms converge in 1/ln(eps); the subleading constant grows
    # with the pair count, so pin the two-pair case
    for snr in (50.0, 55.0, 60.0):
        config = cfg(2, snr)
        for exact, approx in [
            (outage_individual(config).best, asymptotic_outage("individual", "best", config)),
            (outage_equal(config).best, asymptotic_outage("equal", "best", config)),
        ]:
            assert approx / exact == pytest.approx(1.0, abs=0.2)


def test_asymptotic_equal_best_log_coefficient():
    # fit exact / eps^2 against ln(1/eps): slope must match the half-log
    # constant, 6.0 for two pairs (the doubled variant would give 12)
    eps_grid = (1e-4, 3e-5, 1e-5)
    ys = [outage_equal(cfg_eps(2, e)).best / e**2 for e in eps_grid]
    ls = [math.log(1.0 / e) for e in eps_grid]
    slope = np.polyfit(ls, ys, 1)[0]
    assert slope == pytest.approx(6.0, rel=0.05)


def cfg_eps(pairs, eps):
    # rate 2 fixes the threshold at 15; pick the power that lands on eps
    return SystemConfig(pairs=pairs, rate=2.0, source_power=15.0 / eps)


def test_asymptotic_wf_worst_is_sandwich():
    config = cfg(4, 50.0)
    lo, hi = asymptotic_outage("waterfill", "worst", config)
    assert 0.0 < lo < hi
    b = wf_worst_bounds(config)
    assert lo == pytest.approx(b.lower, rel=0.1)


def test_asymptotic_unsupported_combo():
    with pytest.raises(ValueError):
        asymptotic_outage("maxmin", "average", cfg(3, 50.0))
    with pytest.raises(ValueError):
        asymptotic_outage("waterfill", "best", cfg(3, 50.0))


def test_asymptotic_pooled_needs_two_pairs():
    with pytest.raises(ValueError):
        asymptotic_outage("equal", "average", cfg(1, 50.0))


# --------------------------------------------------------- order statistics


def test_order_stat_second_largest_mean_bound():
    for m in (3, 5, 10):
        d = order_stat_diagnostics(m, 200_000, seed=4)
        assert d.mean_second_largest < (m - 1) ** 2


def test_order_stat_largest_mean_keeps_growing():
    d = order_stat_diagnostics(4, 1_000_000, seed=4)
    assert len(d.largest_running_means) >= 4
    assert d.largest_running_means[-1] > 2.0 * d.largest_running_means[0]


def test_order_stat_cdf_matches_inverse_exponential():
    d = order_stat_diagnostics(3, 200_000, seed=4)
    assert d.cdf_max_abs_dev < 0.01


def test_order_stat_validation():
    with pytest.raises(ValueError):
        order_stat_diagnostics(1, 1000)
    with pytest.raises(ValueError):
        order_stat_diagnostics(3, 5)
