"""Bessel kernel tests against the quadrature oracle and exact identities."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ehrelay.specfun import bessel_k, gamma_exp_integral
from oracles import bessel_k_quadrature

# oracle values frozen from bessel_k_quadrature (30 dps), computed before
# the implementation existed
K0_1 = 0.42102443824070834
K1_1 = 0.6019072301972346
K5_0P1 = 38376009.995835915
K2_10 = 2.150981700693277e-05


def test_spot_values_against_frozen_oracle():
    assert bessel_k(0, 1.0) == pytest.approx(K0_1, rel=1e-12)
    assert bessel_k(1, 1.0) == pytest.approx(K1_1, rel=1e-12)
    assert bessel_k(5, 0.1) == pytest.approx(K5_0P1, rel=1e-11)
    assert bessel_k(2, 10.0) == pytest.approx(K2_10, rel=1e-11)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 25])
@pytest.mark.parametrize("x", [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0])
def test_matches_quadrature_oracle(n, x):
    want = bessel_k_quadrature(n, x)
    assert bessel_k(n, x) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("x", [1e-4, 1e-2, 0.3, 1.7, 2.0, 2.5, 30.0, 200.0])
@pytest.mark.parametrize("n", [1, 2, 7, 20, 63])
def test_recurrence_residual(n, x):
    # K_{n+1} = K_{n-1} + (2n/x) K_n
    lhs = bessel_k(n + 1, x)
    rhs = bessel_k(n - 1, x) + (2.0 * n / x) * bessel_k(n, x)
    if math.isinf(lhs):
        # documented overflow regime (large order, tiny argument)
        assert math.isinf(rhs)
        return
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


@given(
    n=hst.integers(min_value=0, max_value=30),
    lx=hst.floats(min_value=-3.0, max_value=2.0),
)
@settings(max_examples=200, deadline=None)
def test_recurrence_property(n, lx):
    x = 10.0**lx
    k_nm1 = bessel_k(n, x) if n >= 1 else bessel_k(1, x)
    if n == 0:
        # K_{-1} = K_1
        lhs = bessel_k(1, x)
        rhs = k_nm1
        assert lhs == rhs
        return
    lhs = bessel_k(n + 1, x)
    rhs = bessel_k(n - 1, x) + (2.0 * n / x) * bessel_k(n, x)
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


@pytest.mark.parametrize("n", [0, 1, 3, 10])
def test_strictly_decreasing_in_x(n):
    xs = [10.0**e for e in range(-4, 3)]
    vals = [bessel_k(n, x) for x in xs]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


def test_positive_and_underflow():
    assert bessel_k(0, 700.0) > 0.0
    assert bessel_k(0, 800.0) == 0.0  # graceful underflow past exp range


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_domain_error_argument(bad):
    with pytest.raises(ValueError):
        bessel_k(1, bad)


def test_domain_error_order():
    with pytest.raises(ValueError):
        bessel_k(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_k(1.5, 1.0)


def test_x_k1_limit():
    # x K_1(x) -> 1 as x -> 0
    for x in (1e-2, 1e-4, 1e-6):
        assert x * bessel_k(1, x) == pytest.approx(1.0, abs=20.0 * x * x)


def test_gamma_exp_integral_overflow_free():
    # K_40(1e-6) ~ 1e298 is at the top of the float range (K_41 overflows);
    # the integral at x = 2 sqrt(z) = 1e-6 must still come out as ~39!
    v = gamma_exp_integral(40, 2.5e-13)
    assert math.isfinite(v)
    assert v == pytest.approx(math.factorial(39), rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 5, 20, 64, 65, 100])
@pytest.mark.parametrize("z", [1e-300, 1e-12, 1e-3, 1.0, 100.0, 1e4])
def test_gamma_exp_integral_matches_mpmath(n, z):
    with mp.workdps(50):
        zm = mp.mpf(z)
        want = 2 * zm ** (mp.mpf(n) / 2) * mp.besselk(n, 2 * mp.sqrt(zm))
    assert gamma_exp_integral(n, z) == pytest.approx(float(want), rel=1e-12)


def test_gamma_exp_integral_zero_limit():
    # int u^{n-1} e^{-u} du = (n-1)! at z = 0, approached continuously
    for n in (1, 2, 6):
        assert gamma_exp_integral(n, 0.0) == float(math.factorial(n - 1))
        assert gamma_exp_integral(n, 1e-14) == pytest.approx(
            math.factorial(n - 1), rel=1e-5
        )
    assert gamma_exp_integral(3, math.inf) == 0.0


@pytest.mark.parametrize(
    "n,z,want",
    [
        # mpmath: quad(u**(n-1) * exp(-z/u - u), [0, inf]), 30 dps
        (1, 0.25, 0.6019072301972346),
        (2, 0.5, 0.6834847343583172),
        (4, 2.0, 3.311881404162952),
        (8, 0.1, 4968.596024834704),
    ],
)
def test_gamma_exp_integral_frozen_quadrature(n, z, want):
    assert gamma_exp_integral(n, z) == pytest.approx(want, rel=1e-10)


@given(
    n=hst.integers(min_value=1, max_value=20),
    z=hst.floats(min_value=1e-8, max_value=50.0),
)
@settings(max_examples=100, deadline=None)
def test_gamma_exp_integral_bounds(n, z):
    # integrand is dominated by u^{n-1} e^{-u}: 0 < value < (n-1)!
    v = gamma_exp_integral(n, z)
    assert 0.0 < v < math.factorial(n - 1)


@pytest.mark.parametrize("n", [1, 2, 4, 20, 100])
def test_gamma_exp_integral_array_matches_scalar_bitwise(n):
    z = np.array([0.0, 1e-300, 2.5e-13, 1e-3, 0.37, 1.0, 100.0, 1e4, 1e6, math.inf])
    got = gamma_exp_integral(n, z.reshape(2, 5))
    assert got.shape == (2, 5)
    want = [gamma_exp_integral(n, float(v)) for v in z]
    assert all(type(v) is float for v in want)
    assert got.ravel().tolist() == want


@pytest.mark.parametrize("bad", [-1.0, math.nan, [1.0, -1e-300], [0.0, math.nan]])
def test_gamma_exp_integral_domain_error(bad):
    with pytest.raises(ValueError, match="non-negative"):
        gamma_exp_integral(3, bad)
