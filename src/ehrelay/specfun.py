"""The Bessel integral of the worst-case bounds, as a thin layer over scipy.

The closed-form worst-case upper bound of :mod:`ehrelay.analytic` uses
G_n(z) = int_0^inf u^(n-1) exp(-z/u - u) du = 2 z^(n/2) K_n(2 sqrt(z)).
``gamma_exp_integral`` takes G_0 = 2 K_0(x) and G_1 = x K_1(x) at
x = 2 sqrt(z) from scipy's scaled ``k0e``/``k1e`` and runs the recurrence
for K_n (DLMF 10.29.1) in G: G_{m+1} = m G_m + z G_{m-1}, elementwise over
an array of z.  Every term is positive, so nothing cancels, and
G_1 <= ... <= G_n, so nothing overflows unless G_n does.
"""

from __future__ import annotations

import math
import operator

import numpy as np
from scipy import special

__all__ = ["gamma_exp_integral"]


def gamma_exp_integral(n: int, z: float | np.ndarray) -> float | np.ndarray:
    """int_0^inf u^(n-1) exp(-z/u - u) du for integer n >= 1 and z >= 0.

    Equals 2 z^(n/2) K_n(2 sqrt(z)) for z > 0 and Gamma(n) = (n-1)! in the
    z -> 0 limit.  Elementwise over an array ``z``; a scalar gives a float.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"order must be an integer, got {n!r}") from None
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    z = np.asarray(z, dtype=float)
    bad = z[~(z >= 0.0)]
    if bad.size:
        raise ValueError(f"z must be non-negative, got {float(bad[0])!r}")
    x = 2.0 * np.sqrt(z)
    # exp(-x) goes in first: the scaled terms G_m exp(x) overflow at large z;
    # z = 0 and z = inf give 0 * inf here and are set from their limits below
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.exp(-x)
        g0, g1 = 2.0 * special.k0e(x) * scale, x * special.k1e(x) * scale
        for m in range(1, n):
            g0, g1 = g1, m * g1 + z * g0
    g1 = np.where(np.isinf(z), 0.0, g1)
    if (z == 0.0).any():  # only then: (n-1)! overflows a float from n = 172
        g1 = np.where(z == 0.0, float(math.factorial(n - 1)), g1)
    return g1 if g1.ndim else float(g1)
