"""Heavy-tail diagnostics of scripts/diagnostics.py for the inverse channel gains."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "diagnostics", Path(__file__).resolve().parent.parent / "scripts" / "diagnostics.py"
)
diagnostics = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diagnostics)
order_stat_diagnostics = diagnostics.order_stat_diagnostics


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
