"""The Bessel integral of the worst-case bounds, as a thin layer over scipy.

The closed-form worst-case upper bound of :mod:`ehrelay.analytic` uses
H_n(z) = E[exp(-z/U)], U ~ Gamma(n, 1), that is G_n(z)/(n-1)! with
G_n(z) = int_0^inf u^(n-1) exp(-z/u - u) du = 2 z^(n/2) K_n(2 sqrt(z)).
``gamma_exp_integral`` takes G_0 = 2 K_0(x) and H_1 = G_1 = x K_1(x) at
x = 2 sqrt(z) from scipy's scaled ``k0e``/``k1e`` and runs the recurrence
for K_n (DLMF 10.29.1), G_{m+1} = m G_m + z G_{m-1}, divided by m!:
H_2 = H_1 + z G_0 and H_{m+1} = H_m + z H_{m-1}/(m (m-1)), elementwise over
an array of z.  Every term is positive, so nothing cancels, and
H_1 <= ... <= H_n <= 1, so no term overflows at any order.

``scipy.special`` is reached as an attribute of ``scipy``, which loads it
on first access: importing it costs more than the rest of the package, and
only the worst-case closed-form bound calls this function.
"""

from __future__ import annotations

import operator

import numpy as np
import scipy

__all__ = ["gamma_exp_integral"]


def gamma_exp_integral(n: int, z: float | np.ndarray) -> float | np.ndarray:
    """E[exp(-z/U)] for U ~ Gamma(n, 1), integer n >= 1 and z >= 0.

    Equals 2 z^(n/2) K_n(2 sqrt(z)) / (n-1)! for z > 0, a value in [0, 1],
    and 1 in the z -> 0 limit.  Elementwise over an array ``z``; a scalar
    gives a float.
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
    # exp(-x) goes in first: the scaled terms H_m exp(x) overflow at large z;
    # z = 0 and z = inf give 0 * inf here and are set from their limits below
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.exp(-x)
        g0, h = 2.0 * scipy.special.k0e(x) * scale, x * scipy.special.k1e(x) * scale
        if n > 1:
            h_prev, h = h, h + z * g0
        for m in range(2, n):
            h_prev, h = h, h + z * h_prev / (m * (m - 1))
    h = np.where(np.isinf(z), 0.0, np.where(z == 0.0, 1.0, h))
    return h if h.ndim else float(h)
