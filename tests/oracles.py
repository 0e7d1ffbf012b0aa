"""Independent oracles used only by the test suite.

These deliberately avoid the library code paths they are checking:

* ``bessel_k_quadrature``: high-precision numerical quadrature of the
  integral representation K_n(x) = int_0^inf exp(-x cosh t) cosh(nt) dt,
  evaluated with mpmath at elevated working precision.  No library Bessel
  routine is involved.
* ``bessel_k``: K_n(x) from scipy's scaled ``kve``, the float Bessel
  function the quadrature above is held against.
* ``golden_section_max``: derivative-free scalar maximizer, for checking
  best-response outputs against a direct payoff search.
* ``payoff``: a pair's rate-minus-cost utility under the share rule, and
  ``best_response``, its maximizing bid, branch by branch, for checking
  the auction's bid update and its equilibrium.
* ``scalar_*`` auction routines: one auction at a time, with Python
  loops over the candidate prices, the bisection steps and the bid
  rounds, and the exact spectral radius from ``np.linalg.eigvals``; the
  reference for the library's block-batched auction.
* ``ladder_winner_price``: the max-winners price scan that scores every
  rung of every row's ladder with ``predict_allocation`` and the radius
  test on (rows, 2 pairs + 1, pairs) arrays, zero and negative rungs
  included; the bitwise reference for the library's boundary searches on
  sorted gains.
* ``brute_force_max_served``: exhaustive subset enumeration for the
  maximum number of destinations servable within a power budget.
* ``prob_decoding_count`` and ``conditioned_sum_pdf``: the two
  distribution kernels of the closed forms, the binomial decoding-set
  size and the shifted-Gamma sum of the decoded first-hop gains, in float
  arithmetic for goodness-of-fit checks against raw draws.
* ``outage_*_quad``: the closed-form outage probabilities recomputed by
  direct mpmath quadrature of their defining probability integrals
  (exponential first hop, Gamma-distributed pooled budget, exponential
  second hop), bypassing every Bessel identity the library uses.
* ``exact_outage_mp``: every exact outage from the alternating Bessel
  sums, at a working precision that absorbs their cancellation.  Run this
  file (``PYTHONPATH=src python tests/oracles.py``) to print the frozen
  table of ``tests/test_exact_forms.py``.
* ``wf_worst_upper_mp``: the water-filling worst-case upper bound from its
  Bessel-kernel form, by one mp.quad over y.  ``PYTHONPATH=src python
  tests/oracles.py worst-upper`` prints the frozen table of
  ``tests/test_worst_bounds.py``.
* ``power_split_theta``: the power-splitting ratio of one draw, the
  scalar statement of the split behind ``ehrelay.model.harvest``.
* ``reference_draw``: a scalar, one-draw-at-a-time statement of the
  harvest and of every allocation strategy, with explicit per-pair
  powers, for cross-checking the library's batched kernels.  Its auction
  branch runs the ``scalar_*`` auction routines.
* ``load_script``: a file of ``scripts/`` imported as a module, for the
  tests of the scripts' own functions.
* ``block_of``: a ``Block`` holding given draws, sized to them.
"""

from __future__ import annotations

import importlib.util
import math
import operator
import sys
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy import special

from ehrelay import auction
from ehrelay.auction import (
    _MAX_ITERATIONS, _RADIUS_LIMIT, _TOLERANCE, B_MAX, LN2, AuctionState,
)
from ehrelay.strategies import Block


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


def bessel_k(n: int, x: float) -> float:
    """K_n(x) for integer n >= 0; underflows to 0.0 only where exp(-x) does."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"order must be an integer, got {n!r}") from None
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError(f"argument must be a finite positive real, got {x!r}")
    return float(special.kve(n, x)) * math.exp(-x)


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


def payoff(
    i: int, bids: np.ndarray, price: float, total_power: float, g2: np.ndarray,
    reserve: float,
) -> float:
    """Rate-minus-cost utility of pair i under the share rule."""
    bids = np.asarray(bids, dtype=float)
    share = bids[i] / (bids.sum() + reserve) * total_power
    return 0.5 * math.log2(1.0 + share * g2[i]) - price * share


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


def _scalar_targets(price: float, g2: np.ndarray) -> np.ndarray:
    return 1.0 / (2.0 * LN2 * price) - 1.0 / g2


def _scalar_weights(price: float, total_power: float, g2: np.ndarray) -> np.ndarray:
    t = _scalar_targets(price, g2)
    rho = np.zeros_like(t)
    interior = (t > 0.0) & (t < total_power)
    rho[interior] = t[interior] / (total_power - t[interior])
    return rho


def scalar_modulus(price: float, total_power: float, g2: np.ndarray) -> float:
    """Contraction certificate mu(pi) of one auction."""
    rho = _scalar_weights(price, total_power, g2)
    n = rho.shape[0]
    return math.sqrt(n) * math.sqrt(float((rho * rho).sum())) + float(rho.max())


def eig_spectral_radius(price: float, total_power: float, g2: np.ndarray) -> float:
    """Spectral radius of the bid update's Jacobian, by ``np.linalg.eigvals``."""
    rho = _scalar_weights(price, total_power, g2)
    rho = rho[rho > 0.0]
    if rho.size <= 1:
        return 0.0
    jac = np.outer(rho, np.ones(rho.size)) - np.diag(rho)
    return float(np.abs(np.linalg.eigvals(jac)).max())


def scalar_predict(price: float, total_power: float, g2: np.ndarray, reserve: float):
    """Closed-form equilibrium allocation of one auction, or None."""
    t = _scalar_targets(price, g2)
    capped = t >= total_power
    interior = (t > 0.0) & ~capped
    demand = float(t[interior].sum())
    if demand >= total_power:
        return None
    alloc = np.zeros_like(g2)
    alloc[interior] = t[interior]
    k = int(capped.sum())
    if k:
        sigma = demand / total_power
        total_bids = (k * B_MAX + sigma * reserve) / (1.0 - sigma)
        alloc[capped] = B_MAX / (total_bids + reserve) * total_power
    return alloc


def scalar_run_auction(
    g2: np.ndarray, total_power: float, price: float, reserve: float
) -> AuctionState:
    """Bid dynamics of one auction, one synchronous round per loop pass."""
    t = _scalar_targets(price, g2)
    weights = _scalar_weights(price, total_power, g2)
    cap = np.where(t >= total_power, B_MAX, 0.0)
    bids = np.ones_like(g2)
    residual = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        new = weights * (bids.sum() - bids + reserve) + cap
        residual = float(np.abs(new - bids).max()) / max(1.0, float(np.abs(new).max()))
        bids = new
        if residual <= _TOLERANCE:
            converged = True
            break
    return AuctionState(
        bids=bids,
        allocation=bids / (bids.sum() + reserve) * total_power,
        iterations=iterations,
        converged=converged,
        residual=residual,
    )


def scalar_select_price(g2: np.ndarray, total_power: float) -> float:
    """Certified price of one auction by a scalar bisection on mu, backed off 5%."""
    lo = float((g2 / (2.0 * LN2 * (1.0 + total_power * g2))).min())
    hi = float((g2 / (2.0 * LN2)).max())
    if not scalar_modulus(hi * (1.0 - 1e-12), total_power, g2) < 1.0:
        return hi
    upper = hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if scalar_modulus(mid, total_power, g2) < 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * hi:
            break
    price = hi * 1.05
    if price >= upper:
        price = 0.5 * (hi + upper)
    while scalar_modulus(price, total_power, g2) >= 1.0:
        price = 0.5 * (price + upper)
    return price


def scalar_winner_price(g2: np.ndarray, total_power: float, snr_threshold: float) -> float:
    """Max-winners price of one auction by an ascending scan of the ladder."""
    requirement = snr_threshold / g2
    candidates = set(g2 / (2.0 * LN2 * (1.0 + total_power * g2)) * (1.0 - 1e-3))
    candidates.update(g2 / (2.0 * LN2 * (1.0 + snr_threshold)) * (1.0 - 1e-9))
    candidates.add(float((g2 / (2.0 * LN2)).max()) * (1.0 - 1e-6))
    best_price = -1.0
    best_served = -1
    for price in sorted(c for c in candidates if c > 0.0):
        if eig_spectral_radius(price, total_power, g2) >= _RADIUS_LIMIT:
            continue
        alloc = scalar_predict(price, total_power, g2, 0.01 * total_power)
        if alloc is None:
            continue
        served = int((alloc >= requirement).sum())
        if served >= best_served:
            best_served = served
            best_price = price
    if best_served < 0:
        return scalar_select_price(g2, total_power)
    return best_price


def ladder_winner_price(g2, total_power, snr_threshold: float) -> np.ndarray:
    """Max-winners price of each row of a block, every rung of the ladder scored.

    The rungs are those of ``ehrelay.auction.winner_maximizing_price``;
    each one's served count is reduced over its row's contiguous pairs,
    and a rung <= 0 (two per zero gain) is discarded after scoring.
    """
    g2, total_power, _ = auction._block(g2, total_power)
    p = total_power[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        candidates = np.concatenate([
            auction.full_budget_price(g2, p) * (1.0 - 1e-3),
            g2 / (2.0 * LN2 * (1.0 + snr_threshold)) * (1.0 - 1e-9),
            auction.quit_price(g2).max(axis=1, keepdims=True) * (1.0 - 1e-6),
        ], axis=1)
        p = p[..., None]
        alloc, usable, rho = auction.predict_allocation(candidates[..., None], p, g2[:, None])
        served = np.count_nonzero(alloc >= snr_threshold / g2[:, None], axis=-1)
    served[~(usable & (candidates > 0.0) & auction._radius_below(rho, _RADIUS_LIMIT))] = -1
    most = served.max(axis=1, keepdims=True)
    price = np.where(served == most, candidates, -np.inf).max(axis=1)
    if (fallback := most[:, 0] < 0).any():
        price[fallback] = auction.select_price(g2[fallback], total_power[fallback])
    return price


def scalar_auction_row(g2: np.ndarray, total_power: float, snr_threshold: float) -> AuctionState:
    """Price one auction at the max-winners price and run its bid dynamics,
    the relay reserving 0.01 of the budget."""
    price = scalar_winner_price(g2, total_power, snr_threshold)
    return scalar_run_auction(g2, total_power, price, 0.01 * total_power)


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


def _binom_pmf(m: int, n: int, eps) -> mp.mpf:
    """P(N = n) for per-pair decode probability exp(-eps)."""
    p = mp.e ** (-eps)
    return mp.binomial(m, n) * p**n * (1 - p) ** (m - n)


def _gamma_mean(n: int, g, knee) -> mp.mpf:
    """E[g(W)] for W ~ Gamma(n, 1), by mp.quad in u = log w.

    g is a failure probability with its knee near w = knee.  Breakpoints
    bracket that knee and the Gamma peak at u = log n, whose width is
    1/sqrt(n).  The range runs from 40 nats below both to at least 8 nats
    above the peak, where the density has fallen by e^-2900n.  mp.quad stops
    refining a panel once successive estimates agree in absolute terms, so
    the integrand is scaled to a unit maximum over the breakpoints first;
    unscaled, a value of 1e-30 passes that test at the coarsest level.
    """
    ln, lk, s = mp.log(n), mp.log(knee), 1 / mp.sqrt(n)
    pts = sorted({
        min(ln, lk) - 40, lk - 4, lk, lk + 4,
        ln - 8 * s, ln - 2 * s, ln, ln + 2 * s, ln + 8 * s, ln + 8,
    })
    lg = mp.loggamma(n)
    f = lambda u: mp.e ** (n * u - mp.e**u - lg) * g(mp.e**u)
    scale = max(f(u) for u in pts)
    return scale * mp.quad(lambda u: f(u) / scale, pts)


def outage_individual_avg_quad(eps: float, eta: float, dps: int = 25) -> float:
    """Marginal outage when each pair spends its own harvest.

    The first hop fails with probability 1 - exp(-eps); past it the surplus
    h - eps is Exp(1), and the pair fails with probability
    1 - exp(-(eps/eta)/(h - eps)).  The failure probability is integrated
    directly, so no complement cancels at high SNR.
    """
    with mp.workdps(dps):
        e = mp.mpf(eps)
        z = e / eta
        fail = _gamma_mean(1, lambda w: -mp.expm1(-z / w), z)
        return float(-mp.expm1(-e) + mp.e ** (-e) * fail)


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
            fail = _gamma_mean(n, lambda w: 1 - mp.e ** (-z / w), z)
            total += mp.binomial(m - 1, n - 1) * p**n * q ** (m - n) * fail
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
        total = (1 - mp.e ** (-e)) ** m
        for n in range(1, m + 1):
            z = n * e / eta
            allfail = _gamma_mean(n, lambda w: (1 - mp.e ** (-z / w)) ** n, z)
            total += _binom_pmf(m, n, e) * allfail
        return float(total)


def outage_equal_worst_quad(m: int, eps: float, eta: float, dps: int = 25) -> float:
    """P(some pair fails) under equal split.

    Either not all m decode, or all do and the weakest second hop misses
    the threshold m^2 eps/eta of the Gamma(m, 1) budget; both failure
    probabilities are integrated directly, with no complement.
    """
    with mp.workdps(dps):
        e = mp.mpf(eps)
        z = m * m * e / eta
        fail = _gamma_mean(m, lambda w: -mp.expm1(-z / w), z)
        return float(-mp.expm1(-m * e) + mp.e ** (-m * e) * fail)


def outage_wf_best_quad(m: int, eps: float, eta: float, dps: int = 25) -> float:
    """P(nobody is served) under the greedy cheapest-first allocation.

    Nobody is served iff the whole budget cannot cover even the cheapest
    requirement: max g < (eps/eta)/W, probability (1-exp(-(eps/eta)/W))^n
    averaged over the Gamma(n, 1) budget.
    """
    with mp.workdps(dps):
        e = mp.mpf(eps)
        z = e / eta
        total = (1 - mp.e ** (-e)) ** m
        for n in range(1, m + 1):
            nofit = _gamma_mean(n, lambda w: (1 - mp.e ** (-z / w)) ** n, z)
            total += _binom_pmf(m, n, e) * nofit
        return float(total)


def _alternating_fail_moment(n: int, z, k: int) -> mp.mpf:
    """E[(1 - exp(-z/W))^k] for W ~ Gamma(n, 1), by binomial expansion.

    sum_i C(k, i) (-1)^i E[exp(-i z/W)] with the Bessel identity
    E[exp(-x/W)] = 2 x^(n/2) K_n(2 sqrt x) / (n-1)!.  The terms cancel down
    to the size of the result, so the caller sets a working precision that
    covers it.
    """
    total = mp.mpf(1)  # i = 0: E[1]
    for i in range(1, k + 1):
        x = i * z
        bessel = 2 * x ** (mp.mpf(n) / 2) * mp.besselk(n, 2 * mp.sqrt(x))
        total += (-1) ** i * mp.binomial(k, i) * bessel / mp.factorial(n - 1)
    return total


def _best_case_mp(m: int, e, z_of) -> mp.mpf:
    """P(all m pairs fail) when each of n decoded pairs has threshold z_of(n)."""
    p = mp.e ** (-e)
    q = 1 - p
    return q**m + sum(
        mp.binomial(m, n) * p**n * q ** (m - n) * _alternating_fail_moment(n, z_of(n), n)
        for n in range(1, m + 1)
    )


# the exact forms of ehrelay.analytic, as exact_outage_mp names them
EXACT_FORMS = (
    "individual.average", "individual.best", "individual.worst",
    "equal.average", "equal.best", "equal.worst",
    "waterfill.best", "waterfill.worst.lower",
)


def exact_outage_mp(form: str, m: int, eps: float, eta: float, dps: int) -> float:
    """One of EXACT_FORMS from the alternating Bessel sums at ``dps`` digits.

    Given N = n decoded pairs the pooled budget W is Gamma(n, 1) and a pair
    of threshold z fails with probability 1 - exp(-z/W): equal split has
    z = n eps/eta per pair and its worst case one pair of threshold
    m^2 eps/eta (all m served); the water-filling best case has threshold
    eps/eta, its worst-case lower bound one pair of threshold m eps/eta.
    """
    with mp.workdps(dps):
        e = mp.mpf(eps)
        p = mp.e ** (-e)
        q = 1 - p
        if form.startswith("individual."):
            ind = q + p * _alternating_fail_moment(1, e / eta, 1)
            value = {"average": ind, "best": ind**m, "worst": 1 - (1 - ind) ** m}[form.partition(".")[2]]
        elif form == "equal.average":
            value = q + sum(
                mp.binomial(m - 1, n - 1) * p**n * q ** (m - n)
                * _alternating_fail_moment(n, n * e / eta, 1)
                for n in range(1, m + 1)
            )
        elif form == "equal.best":
            value = _best_case_mp(m, e, lambda n: n * e / eta)
        elif form == "waterfill.best":
            value = _best_case_mp(m, e, lambda n: e / eta)
        else:  # all m decoded and one pair of threshold z served
            z = {"equal.worst": m * m * e / eta, "waterfill.worst.lower": m * e / eta}[form]
            value = 1 - p**m + p**m * _alternating_fail_moment(m, z, 1)
        return float(value)


def exact_reference_dps(k: int, snr_db: float) -> int:
    """Digits for exact_outage_mp: a sum of k-th powers cancels ~k snr/10 digits."""
    return 50 + math.ceil(1.2 * k * max(snr_db, 0.0) / 10.0)


def print_exact_reference_table() -> None:
    """Print the frozen tables of tests/test_exact_forms.py (rate 2, eta 1)."""
    from ehrelay.model import SystemConfig, power_from_snr_db

    def value(form, m, snr, k):
        config = SystemConfig(pairs=m, rate=2.0, source_power=power_from_snr_db(snr))
        eps = config.decode_threshold
        return exact_outage_mp(form, m, eps, 1.0, exact_reference_dps(k, snr))

    print("REFERENCE = {")
    for m in (1, 2, 3, 5, 8):
        for snr in (0.0, 20.0, 40.0, 70.0, 110.0, 150.0, 200.0):
            row = [value(form, m, snr, m) for form in EXACT_FORMS]
            print(f"    ({m}, {snr!r}): (")
            for i in range(0, len(row), 3):
                print("        " + " ".join(f"{v!r}," for v in row[i:i + 3]))
            print("    ),")
    print("}")
    # the best cases at more pairs; from 171 pairs only the first-power
    # forms, whose sums cancel ~snr/10 digits (the best cases underflow)
    print("MANY_PAIRS_REFERENCE = {")
    for form, m, snr, k in (
        ("equal.best", 20, 30.0, 20),
        ("equal.best", 64, 40.0, 64),
        *((form, m, 40.0, 1) for m in (171, 512, 1024)
          for form in ("equal.average", "equal.worst", "waterfill.worst.lower")),
    ):
        print(f"    ({form!r}, {m}, {snr!r}): {value(form, m, snr, k)!r},")
    print("}")
    # the best cases above 171 pairs, whose alternating sums would need
    # thousands of digits, from the positive quadratures instead
    print("BEST_QUAD_REFERENCE = {")
    for m, snr in ((200, 5.0), (256, 20.0)):
        eps = SystemConfig(pairs=m, rate=2.0, source_power=power_from_snr_db(snr)).decode_threshold
        for form, oracle in (("equal.best", outage_equal_best_quad), ("waterfill.best", outage_wf_best_quad)):
            print(f"    ({form!r}, {m}, {snr!r}): {oracle(m, eps, 1.0)!r},", flush=True)
    print("}")


def wf_worst_upper_mp(m: int, eps: float, eta: float, dps: int = 30) -> float:
    """Water-filling worst-case upper bound (``upper_closed``) in mpmath.

    1 - p^M (G_M(M^2 r) + M r int_0^{M-1} G_{M-1}(a(y) r) dy) / (M-1)! with
    p = exp(-eps), r = eps/eta, a(y) = (y+1) ((M-1)^2 + y) / y and
    G_n(x) = 2 x^(n/2) K_n(2 sqrt(x)) from ``mp.besselk``.  The y-integral is
    one mp.quad split at the knee y = (M-1)^2 r, below which G_{M-1}(a(y) r)
    cuts off, and scaled to a unit maximum over the breakpoints (see
    ``_gamma_mean``).  This is also ``upper_integral``.
    """
    with mp.workdps(dps):
        e, r = mp.mpf(eps), mp.mpf(eps) / eta
        kernel = lambda n, x: 2 * x ** (mp.mpf(n) / 2) * mp.besselk(n, 2 * mp.sqrt(x))
        total = kernel(m, m * m * r)
        if m > 1:
            knee = (m - 1) ** 2 * r
            inside = {y for y in (knee / 100, knee, 100 * knee) if 0 < y < m - 1}
            pts = sorted({mp.mpf(0), mp.mpf(m - 1)} | inside)
            g = lambda y: kernel(m - 1, (y + 1) * ((m - 1) ** 2 + y) / y * r) if y > 0 else mp.mpf(0)
            scale = max(g(y) for y in pts)
            total += m * r * scale * mp.quad(lambda y: g(y) / scale, pts)
        return float(1 - mp.e ** (-m * e) * total / mp.factorial(m - 1))


def print_worst_upper_table() -> None:
    """Print the frozen table of tests/test_worst_bounds.py (rate 2, eta 1)."""
    from ehrelay.model import SystemConfig, power_from_snr_db

    print("REFERENCE = {")
    for m in (2, 3, 5, 10, 20):
        for snr in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0):
            config = SystemConfig(pairs=m, rate=2.0, source_power=power_from_snr_db(snr))
            eps = config.decode_threshold
            print(f"    ({m}, {snr!r}): {wf_worst_upper_mp(m, eps, 1.0)!r},", flush=True)
    print("}")


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

    ``powers.sum() <= budget``; a pair is served iff it is decoded and its
    power covers the requirement ``a / |g|^2``.
    """

    decoded: np.ndarray
    budget: float
    powers: np.ndarray
    served: np.ndarray


def reference_draw(h2, g2, config, strategy: str) -> ReferenceDraw:
    """Harvest and allocate one draw (length-M ``h2`` and ``g2``) pair by pair."""
    h2 = np.asarray(h2, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    a = 2.0 ** (2.0 * config.rate) - 1.0
    decoded = h2 > a / config.source_power
    surplus = config.source_power * h2 - a
    budget = config.eta * float(surplus[decoded].sum())
    idx = np.flatnonzero(decoded)
    powers = np.zeros(config.pairs)
    if strategy == "individual":
        powers[idx] = config.eta * surplus[idx]
    elif strategy == "equal":
        if idx.size:
            powers[idx] = budget / idx.size
    elif strategy == "waterfill":
        # descending gain, ascending index among ties; stop at the first
        # pair the remaining budget cannot cover
        remaining = budget
        for i in sorted(idx, key=lambda i: (-g2[i], i)):
            need = a / g2[i]
            if need > remaining:
                break
            powers[i] = need
            remaining -= need
    elif strategy == "maxmin":
        if idx.size:
            inv = 1.0 / g2[idx]
            powers[idx] = budget / float(inv.sum()) * inv
    elif strategy == "auction":
        if idx.size:
            state = scalar_auction_row(g2[idx], budget, a)
            assert state.converged
            powers[idx] = state.allocation
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    served = decoded & (powers >= a / g2)
    return ReferenceDraw(decoded=decoded, budget=budget, powers=powers, served=served)


def load_script(name: str):
    """The module of ``scripts/<name>.py`` in this checkout."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def block_of(h2, g2, snr_threshold: float) -> Block:
    """A Block of capacity ``len(h2)`` holding the draws ``h2`` and ``g2``, (trials, pairs)."""
    block = Block(len(h2), np.shape(h2)[1], snr_threshold)
    block.refill(h2, g2)
    return block


if __name__ == "__main__":
    # PYTHONPATH=src python tests/oracles.py [exact | worst-upper]
    table = sys.argv[1] if len(sys.argv) > 1 else "exact"
    {"exact": print_exact_reference_table, "worst-upper": print_worst_upper_table}[table]()
