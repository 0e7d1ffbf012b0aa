"""Closed-form outage probabilities, bounds, and high-SNR asymptotics.

All results are for i.i.d. Rayleigh links, unit noise, and the two-phase
protocol of :mod:`ehrelay.model`, at any link variances: these scale out,
so every form reads epsilon/sigma_h^2 as epsilon and eta sigma_g^2 as eta
(``SystemConfig.unit_gain_thresholds``).  Everything is built from two
ingredients:

* the decoding-set size N is binomial with success probability
  exp(-epsilon) where epsilon = a / P_s, and
* conditioned on N = n, the decoded gains above the threshold, S = sum
  (h^2 - epsilon), are Gamma(n, 1), the relay budget is eta P_s S, and a
  pair of threshold z fails with probability 1 - exp(-z/S) given S.

Every exact outage and every bound is a binomial mixture over n of a
probability conditioned on N = n; ``_mixture`` is the one place that weights
by P(N = n).  The conditional terms are E[(1 - exp(-z/S))^k], the
probability that k such pairs all fail, which ``_fail_moment`` integrates
with no cancelling term and no clamp.

Outage metrics:

* ``average``: marginal outage probability of a (symmetric) pair,
* ``best``:    probability that even the best-positioned pair fails,
* ``worst``:   probability that some pair fails.

The water-filling worst case has no closed form; ``wf_worst_bounds``
returns a strict lower bound and one upper bound in two forms: a double
integral, and the same bound with its inner mean in closed form (a single
integral).  Both upper bounds run on fixed rules over numpy arrays: the
trapezoid grid of ``_fail_moment`` over the budget and a Gauss-Legendre
rule in log y; their error estimate is the difference to the same rules
at lower order.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .model import SystemConfig
from .specfun import gamma_exp_integral

__all__ = [
    "MAX_CLOSED_FORM_PAIRS",
    "OutageSummary",
    "WorstCaseBounds",
    "outage_individual",
    "outage_equal",
    "outage_wf_best",
    "wf_worst_bounds",
    "asymptotic_outage",
]


# Largest pair count for which the CLI evaluates "exact" and "bounds", a cost
# cap: nothing leaves float range at any M, but a point sums O(M^1.5) grid
# nodes, 0.03 to 0.3 s for the three exact forms and the bounds at M = 1024.
MAX_CLOSED_FORM_PAIRS = 1024


@dataclass(frozen=True)
class OutageSummary:
    average: float
    best: float
    worst: float


@dataclass(frozen=True)
class WorstCaseBounds:
    """Sandwich for the water-filling worst-case outage.

    lower <= truth <= upper_integral, and upper_closed is the same upper
    bound with its inner mean in closed form, equal to upper_integral up
    to quadrature error.  quad_error is an absolute error estimate of both
    upper bounds: their change when the trapezoid step doubles and when
    the Gauss-Legendre rule drops from 64 to 48 nodes.
    """

    lower: float
    upper_integral: float
    upper_closed: float
    quad_error: float


def _log_gamma_rule(n: int, log_z: float) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes t = log S for S ~ Gamma(n, 1), and the log density there.

    The rule converges geometrically on smooth, doubly-exponentially
    decaying integrands (Trefethen & Weideman, SIAM Rev. 56(3), 2014).  The
    step follows the 1/sqrt(n) width of the peak at t = log n, where the log
    density is 0; the range starts 36 nats below both that peak and the knee
    at t = log z of the function averaged.
    """
    log_n = math.log(n)
    t = np.arange(min(log_n, log_z) - 36.0, log_n + 4.0, 0.25 / math.sqrt(n))
    log_density = n * t - np.exp(t)
    return t, log_density - log_density.max()


def _fail_moment(n: int, z: float, k: int) -> float:
    """E[(1 - exp(-z/S))^k] for S ~ Gamma(n, 1): k pairs of threshold z all fail.

    On the ``_log_gamma_rule`` grid, in log space and normalized by the same
    rule on the density alone, so it never exceeds 1.
    """
    if z == 0.0:
        return 0.0
    log_z = math.log(z)
    t, log_density = _log_gamma_rule(n, log_z)
    with np.errstate(divide="ignore", over="ignore"):  # z/S leaves float range at extreme z
        log_fail = np.log(-np.expm1(-np.exp(log_z - t)))
    return float(np.exp(log_density + k * log_fail).sum() / np.exp(log_density).sum())


def _mixture(m: int, eps: float, given) -> tuple[float, ...]:
    """sum_n P(N = n) given(n) over the decoded count N ~ Binomial(m, exp(-eps)).

    ``given(n)`` is a tuple of probabilities conditioned on N = n.  The
    weights are P(N = n) relative to the most likely count, by the ratios
    P(n+1)/P(n) = (m-n) p / ((n+1) q), p = exp(-eps), q = 1 - exp(-eps),
    outward from it: none exceeds about 1 at any pair count, and each is a
    few ulps per step off (5e-14 at 1024 pairs, where log-weights from
    lgamma carry the ulp of lgamma(m+1), 1.7e-12).  Terms whose weight
    underflows to 0 are skipped.  The sum is divided by the weights' own
    total, so a mixture of probabilities never exceeds 1.
    """
    p, q = math.exp(-eps), -math.expm1(-eps)
    mode = min(m, int((m + 1) * p))
    weights = [0.0] * (m + 1)
    weights[mode] = 1.0
    for n in range(mode, m):
        weights[n + 1] = weights[n] * (m - n) * p / ((n + 1) * q)
    for n in range(mode, 0, -1):
        weights[n - 1] = weights[n] * n * q / ((m - n + 1) * p)
    # the total weight is summed in the same order as the terms it divides
    total = sum(w * np.array((1.0, *given(n))) for n, w in enumerate(weights) if w > 0.0)
    return tuple(float(v) for v in total[1:] / total[0])


def outage_individual(config: SystemConfig) -> OutageSummary:
    """Outage metrics when each pair spends only its own harvest.

    Pairs are then i.i.d., so best/worst follow from the marginal by
    independence.
    """
    eps, eta = config.unit_gain_thresholds
    (avg,) = _mixture(1, eps, lambda n: (_fail_moment(1, eps / eta, 1) if n else 1.0,))
    m = config.pairs
    worst = -math.expm1(m * math.log1p(-avg)) if avg < 1.0 else 1.0
    return OutageSummary(average=avg, best=avg**m, worst=worst)


def outage_equal(config: SystemConfig) -> OutageSummary:
    """Outage metrics for the pooled equal-power allocation.

    Given N = n each decoded pair has threshold z = n eps/eta.  The worst
    case needs all M decoded and the least of their gains, Exp(M), above
    z/S: one pair of threshold M z.
    """
    eps, eta = config.unit_gain_thresholds
    m = config.pairs

    def given(n):
        if n == 0:
            return 1.0, 1.0, 1.0
        z = n * eps / eta
        # a given pair is among the n decoded with probability n/M
        average = (m - n + n * _fail_moment(n, z, 1)) / m
        worst = _fail_moment(m, m * m * eps / eta, 1) if n == m else 1.0
        return average, _fail_moment(n, z, n), worst

    avg, best, worst = _mixture(m, eps, given)
    return OutageSummary(average=avg, best=best, worst=worst)


def outage_wf_best(config: SystemConfig) -> float:
    """Best-pair outage under water-filling (nobody gets served).

    The equal-power best case with the single-pair threshold eps/eta: the
    cheapest pair is served iff the whole budget covers its requirement.
    """
    eps, eta = config.unit_gain_thresholds
    return _mixture(config.pairs, eps, lambda n: (_fail_moment(n, eps / eta, n) if n else 1.0,))[0]


# Gauss-Legendre node counts: the y-integrals of the worst-case upper
# bounds use 64 nodes, and 48 for their error estimate
_GAUSS_NODES = (48, 64)


@functools.cache
def _gauss_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """k Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(k)


def _log_y_rule(w, pairs: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k-node Gauss-Legendre rule in log y for int_0^{M-1} dy, a row per budget w.

    Each row starts at (M-1)^2 / (745 w), capped at M-1: below it
    exp(-a(y)/w) underflows.  Where w nears the largest float, the row
    starts at the smallest normal float instead: the integrand is then near
    1 on [0, M-1], the y below add under 1e-307, and an a(y) that rounds to
    inf only zeroes its exponential.  Returns a(y) = (y+1) ((M-1)^2 + y) / y
    at the nodes, the exponent scale of the inner worst-case integral (from
    v = w / (y+1) in int_{w/M}^{w} exp(-(M-1)^2/(w-v) - 1/v) / v^2 dv), and
    the weights of dy = y d(log y).
    """
    x, weight = _gauss_legendre(k)
    start = (pairs - 1.0) ** 2 / (745.0 * np.asarray(w))
    lo = np.log(np.clip(start, sys.float_info.min, pairs - 1.0))[..., None]
    half = 0.5 * (math.log(pairs - 1.0) - lo)
    y = np.exp(lo + half * (1.0 + x))
    return (y + 1.0) * ((pairs - 1.0) ** 2 + y) / y, half * weight * y


def wf_worst_bounds(config: SystemConfig) -> WorstCaseBounds:
    """Lower/upper bounds on the water-filling worst-case outage.

    Conditioned on all pairs decoding, the worst case fails iff the budget
    (in requirement units) w = S / rate, S ~ Gamma(M, 1), falls short of
    sum_i 1/|g_i|^2.  Replacing the sum by its largest term gives the lower
    bound; by z_(M) + (M-1) z_(M-1) gives the upper bound: the mean over S
    of f(w) = 1 - exp(-M^2/w) - M q(w), q(w) = (1/w) int_0^{M-1}
    exp(-a(y)/w) dy (``upper_integral``), or with that mean taken inside
    the y-integral in closed form (``upper_closed``), the same bound.
    Raises OverflowError where the budget grid leaves the float range (a
    rate below about 55 M / 1.8e308).
    """
    m = config.pairs
    eps, eta = config.unit_gain_thresholds
    rate = eps / eta  # Gamma rate of the budget variable w

    # the knee of f sits near w = M^2, at z = M^2 rate on the log S grid; past the
    # largest float z is inf, whose log leaves the grid's start at log M - 36
    t, log_density = _log_gamma_rule(m, math.log(m * m * rate))
    density = np.exp(log_density)
    inner, tail = dict.fromkeys(_GAUSS_NODES, 0.0), dict.fromkeys(_GAUSS_NODES, 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = np.exp(t) / rate  # 0 at a huge rate
        # past the largest float a row would read f = 0 for f(w) ~ M/w, which at
        # so tiny a rate is the size of the bounds themselves
        if w[-1] == math.inf:
            raise OverflowError(f"the budget S/rate leaves the float range at rate {rate!r}")
        head = -np.expm1(-m * m / w)  # the largest requirement alone fails
        for k in _GAUSS_NODES if m > 1 else ():
            a, weight = _log_y_rule(w, m, k)
            y_sum = (np.exp(-a / w[:, None]) * weight).sum(axis=1)
            inner[k] = np.where(y_sum > 0.0, m / w * y_sum, 0.0)  # (M/w) exp(-a/w) -> 0 as w -> 0
            # closed form: the w-average of each exponential is a Bessel kernel,
            # M rate G_{M-1}/(M-1)! = M/(M-1) rate H_{M-1}
            a, weight = _log_y_rule(w[-1], m, k)
            y_sum = float(gamma_exp_integral(m - 1, a * rate) @ weight)
            # at a rate near the largest float a rate overflows, H = 0: the tail is 0, not inf * 0
            tail[k] = m / (m - 1) * rate * y_sum if y_sum else 0.0

    def mean(f: np.ndarray, step: int = 1) -> float:
        # both sums add in one order, so a mean of values <= 1 stays <= 1
        return float((density[::step] * f[::step]).sum() / density[::step].sum())

    val, head_val = mean(head - inner[64]), mean(head)
    # change at twice the trapezoid step and at 48 Gauss-Legendre nodes
    err = (
        abs(val - mean(head - inner[64], 2)) + abs(val - mean(head - inner[48]))
        + abs(head_val - mean(head, 2)) + abs(tail[64] - tail[48])
    )
    # each bound fails outright unless all M pairs decode
    decoded = (_fail_moment(m, m * rate, 1), val, head_val - tail[64], err)
    lower, upper_integral, upper_closed, err = _mixture(
        m, eps, lambda n: decoded if n == m else (1.0, 1.0, 1.0, 0.0)
    )
    if err > 1e-7:
        warnings.warn(
            f"worst-case bound quadrature achieved only {err:.2e} absolute error",
            RuntimeWarning,
            stacklevel=2,
        )
    return WorstCaseBounds(lower, upper_integral, upper_closed, quad_error=err)


def asymptotic_outage(strategy: str, metric: str, config: SystemConfig):
    """High-SNR (epsilon -> 0) outage approximations.

    Returns a float for the individual and equal-power metrics.  The
    water-filling worst case has only a sandwich; ('waterfill', 'worst')
    returns its (lower, upper) pair.  Individual allocation decays like
    log(SNR)/SNR; the pooled strategies decay like 1/SNR.
    """
    pooled = strategy == "equal" or (strategy, metric) == ("waterfill", "worst")
    if metric not in ("average", "best", "worst") or not (strategy == "individual" or pooled):
        raise ValueError(f"no asymptotic form for ({strategy!r}, {metric!r})")
    eps, eta = config.unit_gain_thresholds
    m = config.pairs
    if eps > 0.05:
        warnings.warn(
            f"({strategy}, {metric}) at {10.0 * math.log10(config.source_power):.4g} dB, "
            f"{m} pairs: epsilon/h_variance = {eps:.3g} is outside the high-SNR regime; "
            "the approximation may be poor",
            RuntimeWarning,
            stacklevel=2,
        )

    one_pair = eps * (1.0 - (2.0 / eta) * math.log(math.sqrt(eps / eta)))
    if strategy == "individual":
        if metric == "average":
            return one_pair
        if metric == "best":
            return one_pair**m
        return m * one_pair

    if m < 2:
        raise ValueError("pooled asymptotics require at least two pairs")

    if strategy == "equal":
        if metric == "average":
            return (1.0 + m / ((m - 1.0) * eta)) * eps
        if metric == "best":
            # log coefficient: the half-log form; at m = 1 it must reduce
            # to the single-pair expression, which fixes the 1/2.  The terms
            # (n/eta)^n m! / ((n-1)! n! (m-n)!) and eps^m are combined as
            # logs, so no intermediate overflows at any pair count
            log_terms = [
                n * math.log(n / eta) + math.lgamma(m + 1) - math.lgamma(n)
                - math.lgamma(n + 1) - math.lgamma(m - n + 1)
                for n in range(1, m + 1)
            ]
            top = max(log_terms)
            log_cm = top + math.log(math.fsum(math.exp(t - top) for t in log_terms))
            return eps**m - math.log(eps) * math.exp(m * math.log(eps) + log_cm)
        return eps * m * (1.0 + m / (eta * (m - 1.0)))

    # waterfill worst-case sandwich; the middle term is M/eta, kept in the
    # form the y-integral over [0, M-1] gives, which fixes its rounding
    lower = eps * m * (1.0 + 1.0 / (eta * (m - 1.0)))
    upper = eps * (m + m * (m - 1.0) / ((m - 1.0) * eta) + m * m / ((m - 1.0) * eta))
    return lower, upper
