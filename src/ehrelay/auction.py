"""Share auction for the harvested relay budget.

The relay announces a unit price ``pi`` and a reserve bid ``xi``; each
decoded pair i submits a bid b_i and receives the budget share

    P_i = b_i / (sum_j b_j + xi) * P_r.

Pair i's payoff is its second-hop rate minus the cost of the power it
buys, U_i = (1/2) log2(1 + P_i |g_i|^2) - pi * P_i.  The payoff is
maximized at the interior target P_i = T_i = 1/(2 ln2 pi) - 1/|g_i|^2,
which yields the best-response bid

    b_i = T_i / (P_r - T_i) * (sum_{j != i} b_j + xi)

whenever 0 < T_i < P_r (bid 0 when priced out, a large cap when the pair
would buy the whole budget).  Synchronous best-response dynamics contract
to the unique fixed point whenever

    mu(pi) = sqrt(N) * sqrt(sum_i rho_i^2) + max_i rho_i < 1,

with rho_i = T_i / (P_r - T_i); ``select_price`` finds the cheapest price
with that certificate and backs it off by a safety margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DerivedParams

__all__ = [
    "B_MAX",
    "LN2",
    "AuctionConfig",
    "AuctionState",
    "interior_target",
    "quit_price",
    "full_budget_price",
    "payoff",
    "response_weights",
    "contraction_modulus",
    "iteration_spectral_radius",
    "predict_allocation",
    "run_auction",
    "select_price",
    "winner_maximizing_price",
    "allocate_auction",
]

LN2 = math.log(2.0)
B_MAX = 1e12  # stand-in for an unbounded bid when T_i >= P_r


@dataclass(frozen=True)
class AuctionConfig:
    """Fixed parameters of one auction instance.

    price:          unit power price pi > 0 announced by the relay
    reserve:        relay reserve bid xi > 0
    tolerance:      relative sup-norm stop for the bid iteration
    max_iterations: iteration cap for the best-response dynamics
    """

    price: float
    reserve: float
    tolerance: float = 1e-10
    max_iterations: int = 500

    def __post_init__(self) -> None:
        if not (math.isfinite(self.price) and self.price > 0.0):
            raise ValueError(f"price must be positive, got {self.price!r}")
        if not (math.isfinite(self.reserve) and self.reserve > 0.0):
            raise ValueError(f"reserve must be positive, got {self.reserve!r}")
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError("tolerance must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(eq=False)
class AuctionState:
    """Result of running the bid dynamics."""

    bids: np.ndarray
    allocation: np.ndarray
    iterations: int
    converged: bool
    residual: float


def interior_target(price: float, g2) -> np.ndarray:
    """Power a pair would buy if the share rule placed no cap: T_i."""
    return 1.0 / (2.0 * LN2 * price) - 1.0 / np.asarray(g2, dtype=float)


def quit_price(g2) -> np.ndarray:
    """Price above which a pair bids nothing: |g|^2 / (2 ln2)."""
    return np.asarray(g2, dtype=float) / (2.0 * LN2)


def full_budget_price(g2, total_power: float) -> np.ndarray:
    """Price below which a pair wants the entire budget."""
    g2 = np.asarray(g2, dtype=float)
    return g2 / (2.0 * LN2 * (1.0 + total_power * g2))


def _shares(bids: np.ndarray, total_power: float, reserve: float) -> np.ndarray:
    return bids / (bids.sum() + reserve) * total_power


def payoff(
    i: int, bids: np.ndarray, price: float, total_power: float, g2: np.ndarray,
    reserve: float,
) -> float:
    """Rate-minus-cost utility of pair i under the share rule."""
    bids = np.asarray(bids, dtype=float)
    share = bids[i] / (bids.sum() + reserve) * total_power
    return 0.5 * math.log2(1.0 + share * g2[i]) - price * share


def response_weights(price: float, total_power: float, g2) -> np.ndarray:
    """Sensitivities rho_i = T_i / (P_r - T_i) of the interior responses.

    Pairs on the quit branch (T_i <= 0) and the full-budget branch
    (T_i >= P_r) bid constants, so their responses have zero sensitivity
    to the other bids.
    """
    t = interior_target(price, g2)
    rho = np.zeros_like(t)
    interior = (t > 0.0) & (t < total_power)
    rho[interior] = t[interior] / (total_power - t[interior])
    return rho


def contraction_modulus(price: float, total_power: float, g2) -> float:
    """Certificate mu(pi); the dynamics contract when mu < 1."""
    rho = response_weights(price, total_power, g2)
    n = rho.shape[0]
    return math.sqrt(n) * math.sqrt(float((rho * rho).sum())) + float(rho.max())


def iteration_spectral_radius(price: float, total_power: float, g2) -> float:
    """Exact modulus of the synchronous update.

    For a fixed price the branch of every pair is bid-independent, so the
    update is affine in the bids and converges iff the spectral radius of
    its Jacobian (over the interior pairs) is below one.  The contraction
    certificate upper-bounds this by roughly a factor sqrt(N).
    """
    rho = response_weights(price, total_power, g2)
    rho = rho[rho > 0.0]
    if rho.size <= 1:
        return 0.0
    jac = np.outer(rho, np.ones(rho.size)) - np.diag(rho)
    return float(np.abs(np.linalg.eigvals(jac)).max())


def predict_allocation(
    price: float, total_power: float, g2, reserve: float
) -> np.ndarray | None:
    """Closed-form equilibrium allocation for a convergent price.

    Interior pairs end up with exactly their target T_i; full-budget pairs
    bid the cap and split what the interior demand leaves.  Returns None
    when the interior demand alone exceeds the budget (no equilibrium of
    this structure; the dynamics do not settle).
    """
    g2 = np.asarray(g2, dtype=float)
    t = interior_target(price, g2)
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


def run_auction(g2, total_power: float, config: AuctionConfig) -> AuctionState:
    """Synchronous best-response dynamics from the all-ones bid vector.

    Stops when the sup-norm bid change falls below
    ``tolerance * max(1, ||b||_inf)`` or after ``max_iterations`` rounds.
    The returned allocation applies the share rule to the final bids.
    """
    g2 = np.asarray(g2, dtype=float)
    if g2.ndim != 1 or g2.size < 1:
        raise ValueError("g2 must be a non-empty 1-D array")
    if not total_power > 0.0:
        raise ValueError("total_power must be positive")
    # best response b_i = rho_i (sum_{j != i} b_j + xi) + cap_i: interior
    # pairs scale the others' bids, full-budget pairs bid the constant
    # B_MAX, priced-out pairs bid 0
    weights = response_weights(config.price, total_power, g2)
    cap = np.where(interior_target(config.price, g2) >= total_power, B_MAX, 0.0)
    bids = np.ones_like(g2)
    residual = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        new = weights * (bids.sum() - bids + config.reserve) + cap
        residual = float(np.abs(new - bids).max()) / max(1.0, float(np.abs(new).max()))
        bids = new
        if residual <= config.tolerance:
            converged = True
            break
    return AuctionState(
        bids=bids,
        allocation=_shares(bids, total_power, config.reserve),
        iterations=iterations,
        converged=converged,
        residual=residual,
    )


def select_price(g2, total_power: float, margin: float = 0.05) -> float:
    """Cheapest price with a contraction certificate, plus a safety margin.

    Bisects over (min_i full_budget_price, max_i quit_price) for the
    smallest price with mu < 1 (mu -> 0 at the quit price of the best
    pair, so a certified price exists) and returns the threshold scaled
    by ``1 + margin``, kept strictly below the upper endpoint so the best
    pair stays in the market.  If the scaled price lands on an
    uncertified pocket (the modulus is only piecewise monotone once pairs
    start capping), it is nudged toward the upper endpoint until
    certified.
    """
    g2 = np.asarray(g2, dtype=float)
    if g2.ndim != 1 or g2.size < 1:
        raise ValueError("g2 must be a non-empty 1-D array")
    if not total_power > 0.0:
        raise ValueError("total_power must be positive")
    if margin < 0.0:
        raise ValueError("margin must be non-negative")
    lo = float(full_budget_price(g2, total_power).min())
    hi = float(quit_price(g2).max())
    if not contraction_modulus(hi * (1.0 - 1e-12), total_power, g2) < 1.0:
        # cannot happen for finite inputs: near the quit price only the
        # best pair is active with a vanishing weight
        return hi
    upper = hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if contraction_modulus(mid, total_power, g2) < 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * hi:
            break
    price = hi * (1.0 + margin)
    if price >= upper:
        price = 0.5 * (hi + upper)
    while contraction_modulus(price, total_power, g2) >= 1.0:
        # mu -> 0 as the price approaches the best pair's quit price
        price = 0.5 * (price + upper)
    return price


def winner_maximizing_price(
    g2,
    total_power: float,
    snr_threshold: float,
    *,
    radius_limit: float = 0.93,
) -> float:
    """Price that maximizes the number of served pairs at equilibrium.

    The served count is piecewise constant in the price, changing only
    where a pair's equilibrium grant crosses its requirement or a pair
    enters/leaves the full-budget branch, so it suffices to scan a ladder
    of candidate prices:

    - just below each pair's full-budget price (pair i enters capped),
    - each price where an interior pair's target equals its requirement,
    - just below the highest quit price (everyone priced out but the best
      pair; with every active pair capped the split matches equal shares).

    Candidates whose dynamics are not comfortably convergent (exact
    spectral radius >= radius_limit, or interior demand exceeding the
    budget) are discarded.  Ties go to the higher price: it sells less
    power for the same service.  Falls back to the certified price when
    no candidate survives.
    """
    g2 = np.asarray(g2, dtype=float)
    if g2.ndim != 1 or g2.size < 1:
        raise ValueError("g2 must be a non-empty 1-D array")
    if not total_power > 0.0:
        raise ValueError("total_power must be positive")
    if not 0.0 < radius_limit < 1.0:
        raise ValueError("radius_limit must lie in (0, 1)")
    requirement = snr_threshold / g2
    candidates = set(full_budget_price(g2, total_power) * (1.0 - 1e-3))
    # T_i(pi) = requirement_i at pi = g2_i / (2 ln2 (1 + snr_threshold))
    candidates.update(g2 / (2.0 * LN2 * (1.0 + snr_threshold)))
    candidates.add(float(quit_price(g2).max()) * (1.0 - 1e-6))
    reserve_fraction = 0.01  # ranking only; xi shifts capped shares by O(xi/B_MAX)
    best_price = -1.0
    best_served = -1
    for price in sorted(c for c in candidates if c > 0.0):
        if iteration_spectral_radius(price, total_power, g2) >= radius_limit:
            continue
        alloc = predict_allocation(price, total_power, g2, reserve_fraction * total_power)
        if alloc is None:
            continue
        served = int((alloc >= requirement).sum())
        if served >= best_served:
            best_served = served
            best_price = price
    if best_served < 0:
        return select_price(g2, total_power)
    return best_price


def allocate_auction(
    g2: np.ndarray,
    decoded: np.ndarray,
    budget: np.ndarray,
    params: DerivedParams,
    *,
    xi_fraction: float = 0.01,
    price_margin: float = 0.05,
    price_policy: str = "max-winners",
    tolerance: float = 1e-10,
    max_iterations: int = 500,
) -> tuple[np.ndarray, np.ndarray]:
    """Auction allocation for a block of draws, one auction per trial.

    ``g2`` and ``decoded`` have shape (trials, pairs), ``budget`` shape
    (trials,).  In each trial the decoded pairs bid for the budget P_r:
    the relay reserves ``xi = xi_fraction * P_r`` and prices the budget by
    policy, "max-winners" scanning for the price serving the most pairs,
    "certified" taking the cheapest contraction-certified price (scaled by
    ``1 + price_margin``).  Pairs priced out of the market get nothing;
    the unsold remainder stays at the relay.  Returns the served mask and
    the leftover budget per trial.
    """
    if price_policy not in ("max-winners", "certified"):
        raise ValueError(f"unknown price_policy {price_policy!r}")
    served = np.zeros_like(decoded)
    leftover = np.zeros(budget.shape[0])
    for t in np.flatnonzero(decoded.any(axis=1)):
        idx = np.flatnonzero(decoded[t])
        gains = g2[t, idx]
        pr = float(budget[t])
        if price_policy == "max-winners":
            price = winner_maximizing_price(gains, pr, params.snr_threshold)
        else:
            price = select_price(gains, pr, margin=price_margin)
        auction = run_auction(
            gains,
            pr,
            AuctionConfig(
                price=price,
                reserve=xi_fraction * pr,
                tolerance=tolerance,
                max_iterations=max_iterations,
            ),
        )
        if not auction.converged:
            raise RuntimeError(
                f"auction did not converge in {max_iterations} iterations "
                f"(residual {auction.residual:.3e}); the price certificate "
                "should make this impossible"
            )
        served[t, idx] = auction.allocation >= params.snr_threshold / gains
        leftover[t] = pr - float(auction.allocation.sum())
    return served, leftover
