"""The Bessel integral of the worst-case bounds, as a thin layer over scipy.

The worst-case upper bounds of :mod:`ehrelay.analytic` use
G_n(z) = int_0^inf u^(n-1) exp(-z/u - u) du = 2 z^(n/2) K_n(2 sqrt(z)).
``gamma_exp_integral`` takes G_0 = 2 K_0(x) and G_1 = x K_1(x) at
x = 2 sqrt(z) from scipy's scaled ``k0e``/``k1e`` and runs the recurrence
for K_n (DLMF 10.29.1) in G: G_{m+1} = m G_m + z G_{m-1}.  Every term is
positive, so nothing cancels, and G_1 <= ... <= G_n, so nothing overflows
unless G_n does.
"""

from __future__ import annotations

import math
import operator

from scipy import special

__all__ = ["bessel_k", "gamma_exp_integral"]


def _check_order(n: int, least: int) -> int:
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"order must be an integer, got {n!r}") from None
    if n < least:
        raise ValueError(f"order must be >= {least}, got {n}")
    return n


def bessel_k(n: int, x: float) -> float:
    """K_n(x) for integer n >= 0; underflows to 0.0 only where exp(-x) does."""
    n = _check_order(n, 0)
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError(f"argument must be a finite positive real, got {x!r}")
    return float(special.kve(n, x)) * math.exp(-x)


def gamma_exp_integral(n: int, z: float) -> float:
    """int_0^inf u^(n-1) exp(-z/u - u) du for integer n >= 1 and z >= 0.

    Equals 2 z^(n/2) K_n(2 sqrt(z)) for z > 0 and Gamma(n) = (n-1)! in the
    z -> 0 limit.
    """
    n = _check_order(n, 1)
    z = float(z)
    if z < 0.0 or math.isnan(z):
        raise ValueError(f"z must be non-negative, got {z!r}")
    if z == 0.0:
        return float(math.factorial(n - 1))
    if math.isinf(z):
        return 0.0
    x = 2.0 * math.sqrt(z)
    # exp(-x) goes in first: the scaled terms G_m exp(x) overflow at large z
    scale = math.exp(-x)
    g0, g1 = 2.0 * float(special.k0e(x)) * scale, x * float(special.k1e(x)) * scale
    for m in range(1, n):
        g0, g1 = g1, m * g1 + z * g0
    return g1
