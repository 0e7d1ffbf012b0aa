"""Closed-form outage probabilities, bounds, and high-SNR asymptotics.

All results assume unit channel variances (i.i.d. Rayleigh links), unit
noise, and the two-phase protocol of :mod:`ehrelay.model`.  Everything is
built from two ingredients:

* the decoding-set size N is binomial with success probability
  exp(-epsilon) where epsilon = a / P_s, and
* conditioned on N = n, the decoded gains above the threshold, S = sum
  (h^2 - epsilon), are Gamma(n, 1), the relay budget is eta P_s S, and a
  pair of threshold z fails with probability 1 - exp(-z/S) given S.

Every exact outage is a binomial mixture over n of E[(1 - exp(-z/S))^k],
the probability that k such pairs all fail; ``_fail_moment`` integrates it
with no cancelling term and no clamp.

Outage metrics:

* ``average``: marginal outage probability of a (symmetric) pair,
* ``best``:    probability that even the best-positioned pair fails,
* ``worst``:   probability that some pair fails.

The water-filling worst case has no closed form; ``wf_worst_bounds``
returns a strict lower bound, an upper bound as a double integral, and a
closed-form (single-integral) relaxation of it.  Both upper bounds run on
fixed rules over numpy arrays: the trapezoid grid of ``_fail_moment`` over
the budget and a Gauss-Legendre rule in log y; their error estimate is the
difference to the same rules at lower order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import SystemConfig, derive_params
from .specfun import gamma_exp_integral

__all__ = [
    "ANALYTIC_METHODS",
    "MAX_CLOSED_FORM_PAIRS",
    "OutageSummary",
    "WorstCaseBounds",
    "OrderStatDiagnostics",
    "prob_decoding_count",
    "conditioned_sum_pdf",
    "outage_individual",
    "outage_equal",
    "outage_wf_best",
    "wf_worst_bounds",
    "asymptotic_outage",
    "order_stat_diagnostics",
]


# (strategy, metric) -> analytic methods that exist for it: "exact" closed
# forms, "asymptotic" high-SNR approximations and the "bounds" sandwich.
# Monte Carlo covers every combination and is not listed.
ANALYTIC_METHODS = {
    ("individual", "average"): ("exact", "asymptotic"),
    ("individual", "best"): ("exact", "asymptotic"),
    ("individual", "worst"): ("exact", "asymptotic"),
    ("equal", "average"): ("exact", "asymptotic"),
    ("equal", "best"): ("exact", "asymptotic"),
    ("equal", "worst"): ("exact", "asymptotic"),
    ("waterfill", "best"): ("exact",),
    ("waterfill", "worst"): ("asymptotic", "bounds"),
}

# Largest pair count for which the CLI evaluates "exact" and "bounds":
# wf_worst_bounds divides by (M-1)! as a float, which overflows from
# M = 172 (the binomial weights of the exact forms overflow from M = 1030).
MAX_CLOSED_FORM_PAIRS = 171


@dataclass(frozen=True)
class OutageSummary:
    average: float
    best: float
    worst: float


@dataclass(frozen=True)
class WorstCaseBounds:
    """Sandwich for the water-filling worst-case outage.

    lower <= truth <= upper_integral <= upper_closed (the last one up to
    quadrature error; it equals upper_integral when its free parameter c
    is zero).  quad_error is an absolute error estimate of both upper
    bounds: their change when the trapezoid step doubles and when the
    Gauss-Legendre rule drops from 64 to 48 nodes.
    """

    lower: float
    upper_integral: float
    upper_closed: float
    quad_error: float


def _require_unit_variances(config: SystemConfig, what: str) -> None:
    if not config.unit_variances:
        raise ValueError(f"{what} assumes unit channel variances")


def _eps_eta(config: SystemConfig) -> tuple[float, float]:
    params = derive_params(config)
    return params.decode_threshold, config.eta


def prob_decoding_count(pairs: int, epsilon: float, n: int) -> float:
    """P(N = n): binomial with per-pair decode probability exp(-epsilon)."""
    if not 0 <= n <= pairs:
        raise ValueError(f"n must lie in [0, {pairs}], got {n}")
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    p = math.exp(-epsilon)
    q = -math.expm1(-epsilon)
    return math.comb(pairs, n) * p**n * q ** (pairs - n)


def conditioned_sum_pdf(n: int, epsilon: float, y: float) -> float:
    """Density of sum |h_i|^2 over the decoding set, given N = n >= 1.

    A shifted Gamma: f(y) = (y - n eps)^(n-1) exp(-(y - n eps)) / (n-1)!
    for y > n eps, zero otherwise (memorylessness of the exponential).
    """
    if n < 1:
        raise ValueError("defined for n >= 1")
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    u = y - n * epsilon
    if u <= 0.0:
        return 0.0
    return math.exp((n - 1) * math.log(u) - u - math.lgamma(n))


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


def outage_individual(config: SystemConfig) -> OutageSummary:
    """Outage metrics when each pair spends only its own harvest.

    Pairs are then i.i.d., so best/worst follow from the marginal by
    independence.
    """
    _require_unit_variances(config, "outage_individual")
    eps, eta = _eps_eta(config)
    avg = -math.expm1(-eps) + math.exp(-eps) * _fail_moment(1, eps / eta, 1)
    m = config.pairs
    worst = -math.expm1(m * math.log1p(-avg)) if avg < 1.0 else 1.0
    return OutageSummary(average=avg, best=avg**m, worst=worst)


def outage_equal(config: SystemConfig) -> OutageSummary:
    """Outage metrics for the pooled equal-power allocation.

    Given N = n each decoded pair has threshold z = n eps/eta.  The worst
    case needs all M decoded and the least of their gains, Exp(M), above
    z/S: one pair of threshold M z.
    """
    _require_unit_variances(config, "outage_equal")
    eps, eta = _eps_eta(config)
    m = config.pairs
    p = math.exp(-eps)
    q = -math.expm1(-eps)

    avg, best = q, q**m
    for n in range(1, m + 1):
        zn = n * eps / eta
        # a given pair is among the n decoded with weight C(M-1, n-1) p^n q^(M-n)
        avg += math.comb(m - 1, n - 1) * p**n * q ** (m - n) * _fail_moment(n, zn, 1)
        best += math.comb(m, n) * p**n * q ** (m - n) * _fail_moment(n, zn, n)
    worst = math.exp(-m * eps) * _fail_moment(m, m * m * eps / eta, 1) - math.expm1(-m * eps)
    return OutageSummary(average=avg, best=best, worst=worst)


def outage_wf_best(config: SystemConfig) -> float:
    """Best-pair outage under water-filling (nobody gets served).

    The equal-power best case with the single-pair threshold eps/eta: the
    cheapest pair is served iff the whole budget covers its requirement.
    """
    _require_unit_variances(config, "outage_wf_best")
    eps, eta = _eps_eta(config)
    m = config.pairs
    p = math.exp(-eps)
    q = -math.expm1(-eps)
    total = q**m
    for n in range(1, m + 1):
        total += math.comb(m, n) * p**n * q ** (m - n) * _fail_moment(n, eps / eta, n)
    return total


# Gauss-Legendre nodes and weights on [-1, 1]: the y-integrals of the
# worst-case upper bounds use 64 nodes, and 48 for their error estimate
_GAUSS = {k: np.polynomial.legendre.leggauss(k) for k in (48, 64)}


def _log_y_rule(w, c: float, pairs: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k-node Gauss-Legendre rule in log y for int_c^{M-1} dy, a row per budget w.

    Each row starts at (M-1)^2 / (745 w) if that is above c: below it
    exp(-a(y)/w) underflows.  Returns a(y) = (y+1) ((M-1)^2 + y) / y at the
    nodes, the exponent scale of the inner worst-case integral (from
    v = w / (y+1) in int_{w/M}^{w} exp(-(M-1)^2/(w-v) - 1/v) / v^2 dv), and
    the weights of dy = y d(log y).
    """
    x, weight = _GAUSS[k]
    lo = np.log(np.clip((pairs - 1.0) ** 2 / (745.0 * np.asarray(w)), c, pairs - 1.0))[..., None]
    half = 0.5 * (math.log(pairs - 1.0) - lo)
    y = np.exp(lo + half * (1.0 + x))
    return (y + 1.0) * ((pairs - 1.0) ** 2 + y) / y, half * weight * y


def wf_worst_bounds(config: SystemConfig, c: float = 0.0) -> WorstCaseBounds:
    """Lower/upper bounds on the water-filling worst-case outage.

    Conditioned on all pairs decoding, the worst case fails iff the budget
    (in requirement units) w = S / rate, S ~ Gamma(M, 1), falls short of
    sum_i 1/|g_i|^2.  Replacing the sum by its largest term gives the lower
    bound; by z_(M) + (M-1) z_(M-1) gives the upper bound: the mean over S
    of f(w) = 1 - exp(-M^2/w) - M q(w), q(w) = (1/w) int_0^{M-1}
    exp(-a(y)/w) dy (``upper_integral``), or with that mean taken inside
    the y-integral in closed form (``upper_closed``).  ``c`` in [0, M-1]
    trades tightness of the closed form for the validity range of its
    high-SNR reading; c = 0 reproduces ``upper_integral`` exactly.
    """
    _require_unit_variances(config, "wf_worst_bounds")
    m = config.pairs
    if not 0.0 <= c <= max(m - 1.0, 0.0):
        raise ValueError(f"c must lie in [0, {m - 1}], got {c}")
    eps, eta = _eps_eta(config)
    rate = eps / eta  # Gamma rate of the budget variable w
    fact = float(math.factorial(m - 1))
    pm = math.exp(-m * eps)
    miss = -math.expm1(-m * eps)  # P(N < M)

    lower = pm * _fail_moment(m, m * rate, 1) + miss

    # the knee of f sits near w = M^2, at z = M^2 rate on the log S grid
    t, log_density = _log_gamma_rule(m, math.log(m * m * rate))
    w, density = np.exp(t) / rate, np.exp(log_density)
    head = -np.expm1(-m * m / w)  # the largest requirement alone fails
    inner, tail = dict.fromkeys(_GAUSS, 0.0), dict.fromkeys(_GAUSS, 0.0)
    if m > 1:
        for k in _GAUSS:
            a, weight = _log_y_rule(w, 0.0, m, k)
            inner[k] = m / w * (np.exp(-a / w[:, None]) * weight).sum(axis=1)
            # closed form: the w-average of each exponential is a Bessel kernel;
            # divide by (M-1)! before scaling by rate, as rate / (M-1)! can be subnormal
            a, weight = _log_y_rule(w[-1], c, m, k)
            tail[k] = m * rate * float(gamma_exp_integral(m - 1, a * rate) @ weight / fact)

    def mean(f: np.ndarray, step: int = 1) -> float:
        return float(density[::step] @ f[::step] / density[::step].sum())

    val, head_val = mean(head - inner[64]), mean(head)
    upper_integral = pm * val + miss
    upper_closed = pm * (head_val - tail[64]) + miss
    # change at twice the trapezoid step and at 48 Gauss-Legendre nodes
    err = pm * (
        abs(val - mean(head - inner[64], 2)) + abs(val - mean(head - inner[48]))
        + abs(head_val - mean(head, 2)) + abs(tail[64] - tail[48])
    )
    if err > 1e-7:
        warnings.warn(
            f"worst-case bound quadrature achieved only {err:.2e} absolute error",
            RuntimeWarning,
            stacklevel=2,
        )
    return WorstCaseBounds(lower, upper_integral, upper_closed, quad_error=err)


def asymptotic_outage(
    strategy: str, metric: str, config: SystemConfig, c: float = 0.0
):
    """High-SNR (epsilon -> 0) outage approximations.

    Returns a float for the individual and equal-power metrics.  The
    water-filling worst case has only a sandwich; ('waterfill', 'worst')
    returns the (lower, upper) pair, with ``c`` the same knob as in
    :func:`wf_worst_bounds`.  Individual allocation decays like
    log(SNR)/SNR; the pooled strategies decay like 1/SNR.
    """
    if "asymptotic" not in ANALYTIC_METHODS.get((strategy, metric), ()):
        raise ValueError(f"no asymptotic form for ({strategy!r}, {metric!r})")
    _require_unit_variances(config, "asymptotic_outage")
    eps, eta = _eps_eta(config)
    m = config.pairs
    if eps > 0.05:
        warnings.warn(
            f"epsilon = {eps:.3g} is outside the high-SNR regime; "
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
            # to the single-pair expression, which fixes the 1/2
            cm = math.fsum(
                (n / eta) ** n
                * math.factorial(m)
                / (math.factorial(n - 1) * math.factorial(n) * math.factorial(m - n))
                for n in range(1, m + 1)
            )
            return eps**m * (1.0 - cm * math.log(eps))
        return eps * m * (1.0 + m / (eta * (m - 1.0)))

    # waterfill worst-case sandwich
    if not 0.0 <= c <= m - 1.0:
        raise ValueError(f"c must lie in [0, {m - 1}], got {c}")
    lower = eps * m * (1.0 + 1.0 / (eta * (m - 1.0)))
    upper = eps * (
        m
        + m * (m - 1.0 - c) / ((m - 1.0) * eta)
        + m * m / ((m - 1.0) * eta)
    )
    return lower, upper


@dataclass(frozen=True)
class OrderStatDiagnostics:
    """Monte Carlo witnesses for the inverse-gain order statistics.

    The requirement variables z = 1/|g|^2 are heavy tailed: the largest
    one has infinite mean (its sample mean keeps growing with the sample
    size), while the second largest has a finite mean below (M-1)^2.
    """

    mean_second_largest: float
    largest_running_means: tuple[float, ...]
    checkpoints: tuple[int, ...]
    cdf_max_abs_dev: float


def order_stat_diagnostics(
    pairs: int, samples: int, seed: int = 0
) -> OrderStatDiagnostics:
    if pairs < 2:
        raise ValueError("order statistics need at least two pairs")
    if samples < 10:
        raise ValueError("need at least 10 samples")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0))))
    g2 = rng.exponential(size=(samples, pairs))
    z = 1.0 / g2
    marginal = z[:, 0].copy()  # one coordinate, before the row sort
    z.sort(axis=1)
    second = z[:, -2]
    largest = z[:, -1]

    checkpoints = []
    n = 100
    while n < samples:
        checkpoints.append(n)
        n *= 10
    checkpoints.append(samples)
    running = tuple(float(largest[:k].mean()) for k in checkpoints)

    # empirical CDF of a single z against exp(-1/z) on a quantile grid
    zs = np.sort(marginal)
    grid = np.quantile(zs, np.linspace(0.05, 0.95, 19))
    emp = np.searchsorted(zs, grid, side="right") / samples
    dev = float(np.abs(emp - np.exp(-1.0 / grid)).max())

    return OrderStatDiagnostics(
        mean_second_largest=float(second.mean()),
        largest_running_means=running,
        checkpoints=tuple(checkpoints),
        cdf_max_abs_dev=dev,
    )
