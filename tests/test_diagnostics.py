"""scripts/diagnostics.py: the paired worst-case equivalence check and the
heavy-tail diagnostics for the inverse channel gains."""

import pytest

from ehrelay.model import SystemConfig, power_from_snr_db
from oracles import load_script

diagnostics = load_script("diagnostics")
order_stat_diagnostics = diagnostics.order_stat_diagnostics


def test_equivalence_check_zero_violations():
    for m in (1, 2, 5):
        config = SystemConfig(pairs=m, rate=0.5, source_power=power_from_snr_db(20.0))
        assert diagnostics.worst_case_equivalence_check(config, 50_000, seed=3) == 0


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
