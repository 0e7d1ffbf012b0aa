"""Relay power-allocation strategies as batched kernels.

Every kernel works on one block of draws: ``h2`` and ``g2`` have shape
(trials, pairs), and ``decoded``, ``n`` and ``budget`` are the output of
:func:`ehrelay.model.harvest`.  It returns the served mask (trials, pairs)
and the budget each trial leaves unspent at the relay (trials,).

Pair i is served iff it is in the decoding set and its granted power
covers the requirement ``a / |g_i|^2`` (equivalently, its received SNR
clears the threshold).  The comparison is done in requirement form so
that a strategy granting exactly the requirement is served regardless of
rounding.
"""

from __future__ import annotations

import numpy as np

from .auction import allocate_auction
from .model import DerivedParams, SystemConfig

__all__ = ["allocate", "STRATEGY_NAMES"]

STRATEGY_NAMES = ("individual", "equal", "waterfill", "maxmin", "auction")


def _individual(h2, g2, decoded, n, budget, config, params):
    """Each pair spends exactly the energy its own first hop harvested.

    Distributed operation: no pooling, p_i = eta * (P_s |h_i|^2 - a) on the
    decoding set.
    """
    p = config.eta * (config.source_power * h2 - params.snr_threshold)
    return decoded & (p >= params.snr_threshold / g2), np.zeros(h2.shape[0])


def _equal(h2, g2, decoded, n, budget, config, params):
    """Pooled budget split evenly over the decoding set."""
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.where(n > 0, budget / np.maximum(n, 1), 0.0)
    return decoded & (share[:, None] >= params.snr_threshold / g2), np.zeros(h2.shape[0])


def _waterfill(h2, g2, decoded, n, budget, config, params):
    """Greedy allocation maximizing the number of served destinations.

    Decoded pairs are visited in ascending requirement a / |g|^2 (ties by
    ascending pair index); each is granted exactly its requirement while
    the remaining budget suffices, and the rest stays at the relay.
    Serving cheapest-first makes the served count the maximum achievable
    within the budget.
    """
    need = np.where(decoded, params.snr_threshold / g2, np.inf)
    order = np.argsort(need, axis=1, kind="stable")
    sorted_need = np.take_along_axis(need, order, axis=1)
    served_sorted = np.cumsum(sorted_need, axis=1) <= budget[:, None]
    served = np.zeros_like(decoded)
    np.put_along_axis(served, order, served_sorted, axis=1)
    leftover = budget - np.where(served_sorted, sorted_need, 0.0).sum(axis=1)
    return served & decoded, leftover


def _maxmin(h2, g2, decoded, n, budget, config, params):
    """Max-min fair allocation: every decoded pair gets the same rate.

    The optimum equalizes received SNRs, p_i = (budget / sum_j 1/|g_j|^2)
    / |g_i|^2, and spends the whole budget, so all decoded pairs succeed
    or none do.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_sum = np.where(decoded, 1.0 / g2, 0.0).sum(axis=1)
        common_snr = np.where(n > 0, budget / np.where(inv_sum > 0, inv_sum, 1.0), 0.0)
    return decoded & (common_snr >= params.snr_threshold)[:, None], np.zeros(h2.shape[0])


_KERNELS = {
    "individual": _individual,
    "equal": _equal,
    "waterfill": _waterfill,
    "maxmin": _maxmin,
}


def allocate(
    name: str,
    h2: np.ndarray,
    g2: np.ndarray,
    decoded: np.ndarray,
    n: np.ndarray,
    budget: np.ndarray,
    config: SystemConfig,
    params: DerivedParams,
    *,
    auction_opts: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Served mask and leftover budget of strategy ``name`` on one block.

    ``auction_opts`` are keyword options of
    :func:`ehrelay.auction.allocate_auction`; other strategies ignore them.
    """
    if name == "auction":
        return allocate_auction(g2, decoded, budget, params, **(auction_opts or {}))
    if name not in _KERNELS:
        raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}")
    return _KERNELS[name](h2, g2, decoded, n, budget, config, params)
