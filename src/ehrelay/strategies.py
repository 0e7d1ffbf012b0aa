"""Relay power-allocation strategies as batched kernels.

Every kernel works on one :class:`Block` of draws (``h2`` and ``g2`` of
shape (trials, pairs), stored column-major) and on ``decoded``, ``n`` and
``budget``, the output of :func:`ehrelay.model.harvest` at one SNR.  It
returns the served mask (trials, pairs).

Pair i is served iff it is in the decoding set and its granted power
covers the requirement ``a / |g_i|^2`` (equivalently, its received SNR
clears the threshold).  The comparison is done in requirement form so
that a strategy granting exactly the requirement is served regardless of
rounding.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .auction import allocate_auction
from .model import SystemConfig

__all__ = ["Block", "allocate", "STRATEGY_NAMES"]

STRATEGY_NAMES = ("individual", "equal", "waterfill", "maxmin", "auction")


class Block:
    """One block of draws and what its allocations share at every SNR: ``need = a / g2``.

    ``h2``, ``g2`` and ``need`` are (trials, pairs), stored column-major."""

    def __init__(self, h2: np.ndarray, g2: np.ndarray, snr_threshold: float) -> None:
        self.h2, self.g2 = np.asfortranarray(h2), np.asfortranarray(g2)
        self.snr_threshold = snr_threshold
        self.need = snr_threshold / self.g2

    @cached_property
    def waterfill_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ascending need, ties by ascending pair index: needs and ``h2`` in that
        order, pairs-major (pairs, trials), and each pair's place (trials, pairs)."""
        trials, pairs = self.need.shape
        order = np.argsort(self.need, axis=1, kind="stable").T.copy()  # (pairs, trials)
        order *= trials
        order += np.arange(trials)  # flat column-major index
        rank = np.empty(trials * pairs, dtype=np.min_scalar_type(pairs))
        rank[order] = np.arange(pairs, dtype=rank.dtype)[:, None]
        need, h2 = (np.take(x.T.ravel(), order) for x in (self.need, self.h2))
        return need, h2, rank.reshape(pairs, trials).T


def _individual(block, decoded, n, budget, config):
    """Each pair spends exactly the energy its own first hop harvested.

    Distributed operation: no pooling, p_i = eta * (P_s |h_i|^2 - a) on the
    decoding set.
    """
    p = config.eta * (config.source_power * block.h2 - config.snr_threshold)
    return decoded & (p >= block.need)


def _equal(block, decoded, n, budget, config):
    """Pooled budget split evenly over the decoding set (empty sets serve no one)."""
    share = budget / np.maximum(n, 1)
    return decoded & (share[:, None] >= block.need)


def _waterfill(block, decoded, n, budget, config):
    """Greedy allocation maximizing the number of served destinations.

    Decoded pairs are visited in ascending requirement a / |g|^2 (ties by
    ascending pair index); each is granted exactly its requirement while
    the remaining budget suffices, and the rest stays at the relay.
    Serving cheapest-first makes the served count the maximum achievable
    within the budget.  In the block's order, undecoded pairs add nothing to
    the prefix sums (row adds, as a sequential cumsum); a decoded pair is
    served iff its place lies in the prefix the budget covers.
    """
    need, h2, rank = block.waterfill_order
    spent = need * (h2 > config.decode_threshold)
    for k in range(1, spent.shape[0]):
        np.add(spent[k - 1], spent[k], out=spent[k])
    covered = (spent <= budget).sum(axis=0, dtype=rank.dtype)
    return decoded & (rank < covered[:, None])


def _maxmin(block, decoded, n, budget, config):
    """Max-min fair allocation: every decoded pair gets the same rate.

    The optimum equalizes received SNRs, p_i = (budget / sum_j 1/|g_j|^2)
    / |g_i|^2, and spends the whole budget, so all decoded pairs succeed
    or none do.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_sum = np.where(decoded, 1.0 / block.g2, 0.0).sum(axis=1)
        common_snr = np.where(n > 0, budget / np.where(inv_sum > 0, inv_sum, 1.0), 0.0)
    return decoded & (common_snr >= config.snr_threshold)[:, None]


_KERNELS = {
    "individual": _individual,
    "equal": _equal,
    "waterfill": _waterfill,
    "maxmin": _maxmin,
}


def allocate(
    name: str, block: Block, decoded: np.ndarray, n: np.ndarray, budget: np.ndarray,
    config: SystemConfig, *, price_policy: str = "max-winners",
) -> np.ndarray:
    """Served mask (in pair order) of strategy ``name`` on one block, at
    the SNR of ``config`` and the block's threshold ``a``.

    ``price_policy`` is the auction's (see
    :func:`ehrelay.auction.allocate_auction`); other strategies ignore it.
    """
    if config.snr_threshold != block.snr_threshold:
        raise ValueError(f"snr_threshold {config.snr_threshold!r} is not the block's {block.snr_threshold!r}")
    if name == "auction":
        return allocate_auction(block.g2, decoded, budget, block.snr_threshold, price_policy=price_policy)
    if name not in _KERNELS:
        raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}")
    return _KERNELS[name](block, decoded, n, budget, config)
