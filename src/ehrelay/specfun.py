"""Integer-order modified Bessel functions of the second kind.

The closed-form outage expressions in this package all reduce to integrals
of the form ``int_0^inf u^(n-1) exp(-z/u - u) du = 2 z^(n/2) K_n(2 sqrt(z))``,
so K_n is needed for integer orders at roughly 1e-9 relative accuracy over
the argument range an SNR sweep produces.

Evaluation strategy:

* ``x <= 2``: ascending log series for K_0 and K_1,
* ``x > 2``: Steed's continued fraction for K_0 and K_1,
* ``n >= 2``: upward recurrence ``K_{n+1} = K_{n-1} + (2n/x) K_n``,
  stable because K_n grows with the order.

``xk_small_arg`` is the truncated small-argument expansion of
``x^n K_n(x)`` used by the high-SNR approximations.  It doubles as the
overflow-free route for the product ``x^n K_n(x)`` when K_n alone would
not be representable.
"""

from __future__ import annotations

import math
import operator

__all__ = ["MAX_ORDER", "bessel_k", "xk_small_arg", "xn_kn", "gamma_exp_integral"]

_EULER_GAMMA = 0.57721566490153286061
MAX_ORDER = 64
_SERIES_CUTOFF = 2.0
_CF_MAX_ITER = 20000
_EPS = 1e-17


def _check_order(n: int) -> int:
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"order must be an integer, got {n!r}") from None
    if n < 0:
        raise ValueError(f"order must be non-negative, got {n}")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds supported maximum {MAX_ORDER}")
    return n


def _check_argument(x: float) -> float:
    x = float(x)
    if not x > 0.0 or math.isinf(x) or math.isnan(x):
        raise ValueError(f"argument must be a finite positive real, got {x!r}")
    return x


def _k01_series(x: float) -> tuple[float, float]:
    """K_0(x), K_1(x) by the ascending series; intended for x <= 2.

    K_0 = -(ln(x/2) + gamma) I_0 + sum_{k>=1} H_k t^k / (k!)^2
    K_1 = ln(x/2) I_1 + 1/x - (x/4) sum_{k>=0} (H_k + H_{k+1} - 2 gamma)
          t^k / (k! (k+1)!)
    with t = x^2/4 and H_k the k-th harmonic number.
    """
    t = 0.25 * x * x
    lg = math.log(0.5 * x)

    i0 = 1.0
    i1s = 1.0          # I_1(x) = (x/2) * i1s
    s0 = 0.0
    s1 = 0.0
    term0 = 1.0        # t^k / (k!)^2
    term1 = 1.0        # t^k / (k! (k+1)!)
    hk = 0.0
    k = 0
    while True:
        s1 += (2.0 * hk + 1.0 / (k + 1) - 2.0 * _EULER_GAMMA) * term1
        k += 1
        term0 *= t / (k * k)
        term1 *= t / (k * (k + 1))
        hk += 1.0 / k
        i0 += term0
        i1s += term1
        s0 += hk * term0
        if term0 < _EPS * i0 and term1 < _EPS * i1s:
            break
        if k > 200:
            break
    k0 = -(lg + _EULER_GAMMA) * i0 + s0
    k1 = lg * (0.5 * x * i1s) + 1.0 / x - 0.25 * x * s1
    return k0, k1


def _k01_cf(x: float) -> tuple[float, float]:
    """K_0(x), K_1(x) by Steed's continued fraction; intended for x > 2."""
    a1 = 0.25
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = d
    delh = d
    q1 = 0.0
    q2 = 1.0
    q = a1
    c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _CF_MAX_ITER):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) < abs(s) * _EPS:
            break
    h = a1 * h
    k0 = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
    k1 = k0 * (x + 0.5 - h) / x
    return k0, k1


def bessel_k(n: int, x: float) -> float:
    """Modified Bessel function of the second kind K_n(x), integer n >= 0.

    Relative accuracy is about 1e-9 or better for x in [1e-6, 700] and
    n <= 64.  Underflows to 0.0 for very large x; may overflow to inf for
    extreme (large n, tiny x) combinations outside that range.
    """
    n = _check_order(n)
    x = _check_argument(x)
    if x <= _SERIES_CUTOFF:
        k0, k1 = _k01_series(x)
    else:
        k0, k1 = _k01_cf(x)
    if n == 0:
        return k0
    if n == 1:
        return k1
    # upward recurrence K_{m+1} = K_{m-1} + (2m/x) K_m
    km, kc = k0, k1
    for m in range(1, n):
        km, kc = kc, km + (2.0 * m / x) * kc
        if math.isinf(kc):
            return kc
    return kc


def xk_small_arg(n: int, x: float) -> float:
    """Truncated small-argument expansion of x^n K_n(x), integer n >= 1.

    Keeps the full finite sum (exact through order x^(2n-2)) plus the
    leading logarithmic term of order x^(2n):

        (1/2) sum_{l=0}^{n-1} (-1)^l ((n-l-1)!/l!) x^(2l) 2^(n-2l)
        + x^(2n) (-1)^(n+1) ln(x/2) / (2^n n!)

    For n = 1 this reduces to 1 + (x^2/2) ln(x/2).  Accurate to a relative
    error of order x^2 for n = 1 and x^(2n) for n >= 2.
    """
    n = _check_order(n)
    if n == 0:
        raise ValueError("expansion is defined for orders n >= 1")
    x = _check_argument(x)
    x2 = x * x
    total = 0.0
    coeff = 0.5 * math.factorial(n - 1) * (2.0 ** n)  # l = 0 term
    for l in range(n):
        total += coeff
        if l == n - 1:
            break
        # ratio of consecutive terms: -(x^2/4) / ((n-l-1)(l+1))
        coeff *= -x2 / (4.0 * (n - l - 1) * (l + 1))
    sign = 1.0 if n % 2 == 1 else -1.0
    qterm = sign * math.log(0.5 * x) / ((2.0 ** n) * math.factorial(n))
    return total + (x2 ** n) * qterm


def xn_kn(n: int, x: float) -> float:
    """The product x^n K_n(x) for n >= 1, kept representable for tiny x.

    When K_n(x) alone would overflow (deep small-argument regime) the
    product is evaluated through ``xk_small_arg``, whose omitted terms are
    of relative order x^(2n) and therefore negligible exactly there.
    """
    n = _check_order(n)
    if n == 0:
        raise ValueError("use bessel_k for order 0")
    x = _check_argument(x)
    if x < 1.0:
        # ln K_n(x) ~ ln(Gamma(n)/2) + n ln(2/x); stay clear of overflow
        if math.lgamma(n) - math.log(2.0) + n * math.log(2.0 / x) > 650.0:
            return xk_small_arg(n, x)
    k = bessel_k(n, x)
    if k == 0.0:
        return 0.0
    return x ** n * k


def gamma_exp_integral(n: int, z: float) -> float:
    """int_0^inf u^(n-1) exp(-z/u - u) du for integer n >= 1 and z >= 0.

    Equals 2 z^(n/2) K_n(2 sqrt(z)) for z > 0 and Gamma(n) = (n-1)! in the
    z -> 0 limit.  Appears throughout the averaged outage expressions.
    """
    n = _check_order(n)
    if n == 0:
        raise ValueError("defined for orders n >= 1")
    z = float(z)
    if z < 0.0 or math.isnan(z):
        raise ValueError(f"z must be non-negative, got {z!r}")
    if z == 0.0:
        return float(math.factorial(n - 1))
    if math.isinf(z):
        return 0.0
    # 2 z^(n/2) K_n(2 sqrt(z)) = 2^(1-n) * (2 sqrt(z))^n K_n(2 sqrt(z))
    return 2.0 ** (1 - n) * xn_kn(n, 2.0 * math.sqrt(z))
