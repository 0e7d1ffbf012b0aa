"""Independent oracles used only by the test suite.

These deliberately avoid the library code paths they are checking:

* ``bessel_k_quadrature``: high-precision numerical quadrature of the
  integral representation K_n(x) = int_0^inf exp(-x cosh t) cosh(nt) dt,
  evaluated with mpmath at elevated working precision.  No library Bessel
  routine is involved.
* ``golden_section_max``: derivative-free scalar maximizer, for checking
  best-response outputs against a direct payoff search.
* ``best_response``: the payoff-maximizing bid of one pair, branch by
  branch, for checking the auction's vectorized bid update.
* ``brute_force_max_served``: exhaustive subset enumeration for the
  maximum number of destinations servable within a power budget.
* ``outage_*_quad``: the closed-form outage probabilities recomputed by
  direct mpmath quadrature of their defining probability integrals
  (exponential first hop, Gamma-distributed pooled budget, exponential
  second hop), bypassing every Bessel identity the library uses.
* ``power_split_theta``: the power-splitting ratio of one draw, the
  scalar statement of the split behind ``ehrelay.model.harvest``.
* ``reference_draw``: a scalar, one-draw-at-a-time statement of the
  harvest and of every allocation strategy, with explicit per-pair
  powers, for cross-checking the library's batched kernels.  The auction
  reference reuses the library's price policies and bid dynamics and
  checks only the per-draw glue around them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import mpmath as mp
import numpy as np

from ehrelay.auction import (
    B_MAX,
    LN2,
    AuctionConfig,
    run_auction,
    select_price,
    winner_maximizing_price,
)


def bessel_k_quadrature(n: int, x: float, dps: int = 30) -> float:
    """K_n(x) via quadrature of its integral representation.

    The integrand exp(-x cosh t) cosh(nt) peaks near sinh(t) = n/x and
    then dies doubly exponentially; the range is truncated once the
    exponent has fallen ~140 nats below the peak (relative tail < 1e-60),
    which keeps mpmath away from absurd exponents at t -> inf.
    """
    tp = math.asinh(n / x) if n > 0 else 1.0
    peak = x * math.cosh(tp) - n * tp
    tcut = tp + 1.0
    while x * math.cosh(tcut) - n * tcut < peak + 140.0:
        tcut += 1.0
    with mp.workdps(dps):
        xm = mp.mpf(x)
        f = lambda t: mp.exp(-xm * mp.cosh(t)) * mp.cosh(n * t)
        val = mp.quad(f, [0, mp.mpf(tp), mp.mpf(tcut)])
        return float(val)


def golden_section_max(fun, lo: float, hi: float, iters: int = 200) -> float:
    """Argmax of a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
        if b - a < 1e-14 * max(1.0, abs(a) + abs(b)):
            break
    return 0.5 * (a + b)


def best_response(
    i: int, bids: np.ndarray, price: float, total_power: float, g2: np.ndarray,
    reserve: float,
) -> float:
    """Payoff-maximizing bid of pair i against the others' current bids."""
    if not price > 0.0:
        raise ValueError(f"price must be positive, got {price!r}")
    target = 1.0 / (2.0 * LN2 * price) - 1.0 / g2[i]
    if target <= 0.0:
        return 0.0
    if target >= total_power:
        return B_MAX
    others = float(np.asarray(bids, dtype=float).sum() - bids[i]) + reserve
    return target / (total_power - target) * others


def brute_force_max_served(required: list[float], budget: float) -> int:
    """Largest subset of ``required`` whose sum fits within ``budget``."""
    n = len(required)
    best = 0
    for k in range(n, 0, -1):
        if k <= best:
            break
        for combo in combinations(range(n), k):
            if sum(required[i] for i in combo) <= budget:
                best = k
                break
    return best


def _binom_pmf(m: int, n: int, eps) -> mp.mpf:
    """P(N = n) for per-pair decode probability exp(-eps)."""
    p = mp.e ** (-eps)
    return mp.binomial(m, n) * p**n * (1 - p) ** (m - n)


def _gamma_pdf(n: int, w) -> mp.mpf:
    return w ** (n - 1) * mp.e ** (-w) / mp.factorial(n - 1)


def outage_individual_avg_quad(eps: float, eta: float, dps: int = 25) -> float:
    """Marginal outage when each pair spends its own harvest.

    Success needs h > eps and g >= a/(eta P (h - eps)); integrating the
    exponential h-density against the conditional g-tail gives
    1 - int_eps^inf exp(-h - (eps/eta)/(h - eps)) dh.
    """
    with mp.workdps(dps):
        e, k = mp.mpf(eps), mp.mpf(eps) / eta
        good = mp.quad(lambda h: mp.e ** (-h - k / (h - e)), [e, mp.inf])
        return float(1 - good)


def outage_equal_avg_quad(m: int, eps: float, eta: float, dps: int = 25) -> float:
    """Marginal outage under equal split of the pooled budget.

    Conditioned on N = n the budget in threshold units is Gamma(n, 1);
    a decoded pair fails with probability 1 - E[exp(-(n eps/eta)/W)].
    Membership weight of a given pair is C(m-1, n-1) p^n q^(m-n).
    """
    with mp.workdps(dps):
        e = mp.mpf(eps)
        p = mp.e ** (-e)
        q = 1 - p
        total = q  # own first hop failed
        for n in range(1, m + 1):
            z = n * e / eta
            served = mp.quad(
                lambda w: _gamma_pdf(n, w) * mp.e ** (-z / w), [0, mp.inf]
            )
            weight = mp.binomial(m - 1, n - 1) * p**n * q ** (m - n)
            total += weight * (1 - served)
        return float(total)


def outage_equal_best_quad(m: int, eps: float, eta: float, dps: int = 25) -> float:
    """P(even the best-placed pair fails) under equal split.

    Given N = n and budget W, the n decoded pairs fail independently with
    probability 1 - exp(-(n eps/eta)/W) each; all n failing is that to the
    n-th power, averaged over the Gamma(n, 1) budget.  Pairs outside the
    decoding set are already failed, so N = 0 contributes q^m.
    """
    with mp.workdps(dps):
        e = mp.mpf(eps)
        p = mp.e ** (-e)
        q = 1 - p
        total = q**m
        for n in range(1, m + 1):
            z = n * e / eta
            allfail = mp.quad(
                lambda w: _gamma_pdf(n, w) * (1 - mp.e ** (-z / w)) ** n,
                [0, mp.inf],
            )
            total += _binom_pmf(m, n, e) * allfail
        return float(total)


def outage_equal_worst_quad(m: int, eps: float, eta: float, dps: int = 25) -> float:
    """P(some pair fails) under equal split: 1 - P(all m decode and serve)."""
    with mp.workdps(dps):
        e = mp.mpf(eps)
        z = m * e / eta
        allgood = mp.quad(
            lambda w: _gamma_pdf(m, w) * mp.e ** (-m * z / w), [0, mp.inf]
        )
        return float(1 - mp.e ** (-m * e) * allgood)


def outage_wf_best_quad(m: int, eps: float, eta: float, dps: int = 25) -> float:
    """P(nobody is served) under the greedy cheapest-first allocation.

    Nobody is served iff the whole budget cannot cover even the cheapest
    requirement: max g < (eps/eta)/W, probability (1-exp(-(eps/eta)/W))^n
    averaged over the Gamma(n, 1) budget.
    """
    with mp.workdps(dps):
        e = mp.mpf(eps)
        z = e / eta
        p = mp.e ** (-e)
        q = 1 - p
        total = q**m
        for n in range(1, m + 1):
            nofit = mp.quad(
                lambda w: _gamma_pdf(n, w) * (1 - mp.e ** (-z / w)) ** n,
                [0, mp.inf],
            )
            total += _binom_pmf(m, n, e) * nofit
        return float(total)


def power_split_theta(source_power: float, h2: float, snr_threshold: float) -> float:
    """Fraction of received power routed to the energy harvester.

    The splitter keeps just enough signal power for decoding at the target
    rate, theta = 1 - a / (P_s |h|^2).  When the channel cannot support the
    rate (theta would be at most 0) the pair is not decoded and harvests
    nothing: theta is clamped to 0.
    """
    if h2 < 0.0:
        raise ValueError("h2 must be non-negative")
    received = source_power * h2
    if received <= snr_threshold:
        return 0.0
    return 1.0 - snr_threshold / received


@dataclass(eq=False)
class ReferenceDraw:
    """One draw under one strategy: per-pair powers and the outcome.

    ``powers.sum() + leftover == budget``; a pair is served iff it is
    decoded and its power covers the requirement ``a / |g|^2``.
    """

    decoded: np.ndarray
    budget: float
    powers: np.ndarray
    leftover: float
    served: np.ndarray


def reference_draw(h2, g2, config, strategy: str, auction_opts: dict | None = None) -> ReferenceDraw:
    """Harvest and allocate one draw (length-M ``h2`` and ``g2``) pair by pair."""
    h2 = np.asarray(h2, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    a = 2.0 ** (2.0 * config.rate) - 1.0
    decoded = h2 > a / config.source_power
    surplus = config.source_power * h2 - a
    budget = config.eta * float(surplus[decoded].sum())
    idx = np.flatnonzero(decoded)
    powers = np.zeros(config.pairs)
    leftover = 0.0
    if strategy == "individual":
        powers[idx] = config.eta * surplus[idx]
    elif strategy == "equal":
        if idx.size:
            powers[idx] = budget / idx.size
    elif strategy == "waterfill":
        # descending gain, ascending index among ties; stop at the first
        # pair the remaining budget cannot cover
        leftover = budget
        for i in sorted(idx, key=lambda i: (-g2[i], i)):
            need = a / g2[i]
            if need > leftover:
                break
            powers[i] = need
            leftover -= need
    elif strategy == "maxmin":
        if idx.size:
            inv = 1.0 / g2[idx]
            powers[idx] = budget / float(inv.sum()) * inv
    elif strategy == "auction":
        opts = {"xi_fraction": 0.01, "price_margin": 0.05, "price_policy": "max-winners"}
        opts.update(auction_opts or {})
        if idx.size:
            gains = g2[idx]
            if opts["price_policy"] == "max-winners":
                price = winner_maximizing_price(gains, budget, a)
            else:
                price = select_price(gains, budget, margin=opts["price_margin"])
            state = run_auction(
                gains, budget, AuctionConfig(price=price, reserve=opts["xi_fraction"] * budget)
            )
            assert state.converged
            powers[idx] = state.allocation
            leftover = budget - float(state.allocation.sum())
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    served = decoded & (powers >= a / g2)
    return ReferenceDraw(decoded=decoded, budget=budget, powers=powers, leftover=leftover, served=served)
