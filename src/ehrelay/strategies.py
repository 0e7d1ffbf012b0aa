"""Relay power-allocation strategies as batched kernels.

Every kernel works on one :class:`Block` of draws (``h2`` and ``g2`` of
shape (trials, pairs), stored column-major) and on ``decoded``, ``n`` and
``budget``, the output of :func:`ehrelay.model.harvest` at one SNR.  It
returns the served count K of each trial, (trials,) in the dtype of ``n``:
every outage metric is a function of K, so the engine reduces it alone.
Which of two pairs of equal need water-filling serves is not part of K, so
no kernel fixes a tie order.

Pair i is served iff it is in the decoding set and its granted power
covers the requirement ``a / |g_i|^2`` (equivalently, its received SNR
clears the threshold).  The comparison is done in requirement form so
that a strategy granting exactly the requirement is served regardless of
rounding.
"""

from __future__ import annotations

import numpy as np

from .auction import allocate_auction
from .model import SystemConfig, harvest, sample_block

__all__ = ["Block", "allocate", "STRATEGY_NAMES"]


class Block:
    """One block of draws and what its allocations share at every SNR: ``need = a / g2``.

    ``h2``, ``g2`` and ``need`` are (trials, pairs), stored column-major.  The
    Block owns flat buffers with room for ``capacity`` trials, allocated on
    first use and kept across :meth:`refill`; a block of fewer trials is laid
    out as the leading part of each, exactly as a block of its own size.  Its
    kernels overwrite one scratch buffer, so a Block serves one thread at a
    time; every count they return is a fresh array.  Water-filling's sort by
    need is made once per block, in whatever order its ties come, since the
    count does not depend on it.
    """

    def __init__(self, capacity: int, pairs: int, snr_threshold: float) -> None:
        self.capacity, self.pairs, self.snr_threshold = capacity, pairs, snr_threshold
        self._flat: dict[str, np.ndarray] = {}

    def _buffer(self, name: str, trials: int, dtype=np.float64) -> np.ndarray:
        """The first ``trials * pairs`` elements of buffer ``name``, flat."""
        if name not in self._flat:
            self._flat[name] = np.empty((self.capacity, self.pairs), dtype).reshape(-1)
        return self._flat[name][: trials * self.pairs]

    def draw(self, seed: int, block_index: int, size: int, config: SystemConfig) -> None:
        """Hold the draws of :func:`ehrelay.model.sample_block` for these arguments.

        They are drawn C-order into the buffers of the water-filling order,
        which :meth:`refill` drops after copying them column-major."""
        out = tuple(self._buffer(x, size).reshape(size, self.pairs) for x in ("sorted_h2", "sorted_need"))
        self.refill(*sample_block(seed, block_index, size, config, out=out))

    def refill(self, h2: np.ndarray, g2: np.ndarray) -> None:
        """Hold the draws ``h2`` and ``g2``, (trials, pairs) with trials <= capacity."""
        trials = len(h2)
        if trials > self.capacity or np.shape(h2)[1] != self.pairs:
            raise ValueError(f"{np.shape(h2)} draws do not fit a block of {self.capacity} x {self.pairs}")
        self.h2, self.g2, self.need, self.scratch = (
            self._buffer(x, trials).reshape(self.pairs, trials).T for x in ("h2", "g2", "need", "scratch")
        )
        np.copyto(self.h2, h2)
        np.copyto(self.g2, g2)
        np.divide(self.snr_threshold, self.g2, out=self.need)
        self._order = None

    def harvest(self, config: SystemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`ehrelay.model.harvest` on the held ``h2`` at ``config``, its surplus in the scratch."""
        return harvest(self.h2, config, scratch=self.scratch)

    @property
    def waterfill_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Needs and ``h2`` in ascending need, pairs-major (pairs, trials).

        Made on first use after each :meth:`refill`.  Water-filling counts in
        this order, and its count does not depend on the order among equal
        needs, so the sort's tie order is not part of the result."""
        if self._order is None:
            trials, pairs = self.need.shape
            # flat column-major index, in the scratch that the kernels overwrite anyway;
            # any sort would do, and at 5 pairs the default one is no faster
            order = self._buffer("scratch", trials).view(np.int64).reshape(pairs, trials)
            np.copyto(order, np.argsort(self.need, axis=1, kind="stable").T)
            order *= trials
            order += np.arange(trials)
            # mode "clip" writes straight into out; every index is in range
            self._order = tuple(
                np.take(x.T.reshape(-1), order, mode="clip",
                        out=self._buffer(f"sorted_{name}", trials).reshape(pairs, trials))
                for name, x in (("need", self.need), ("h2", self.h2))
            )
        return self._order


def _individual(block, decoded, n, budget, config):
    """Each pair spends exactly the energy its own first hop harvested.

    Distributed operation: no pooling, p_i = eta * (P_s |h_i|^2 - a) on the
    decoding set.
    """
    p = np.multiply(block.h2, config.source_power, out=block.scratch)
    p -= config.snr_threshold
    p *= config.eta
    return (decoded & (p >= block.need)).sum(axis=1, dtype=n.dtype)


def _equal(block, decoded, n, budget, config):
    """Pooled budget split evenly over the decoding set (empty sets serve no one)."""
    share = budget / np.maximum(n, 1)
    return (decoded & (share[:, None] >= block.need)).sum(axis=1, dtype=n.dtype)


def _waterfill(block, decoded, n, budget, config):
    """Greedy allocation maximizing the number of served destinations.

    Decoded pairs are visited in ascending requirement a / |g|^2; each is
    granted exactly its requirement while the remaining budget suffices,
    and the rest stays at the relay.  Serving cheapest-first makes the
    served count the maximum achievable within the budget.  In the block's
    order, undecoded pairs add nothing to the prefix sums (row adds, as a
    sequential cumsum), and the count is that of the decoded places whose
    prefix sum the budget covers.  Pairs of equal need add equal needs, so
    the prefix sums at the decoded places, and the count, are the same in
    any order among them.
    """
    need, h2 = block.waterfill_order
    live = h2 > config.decode_threshold
    spent = np.multiply(need, live, out=block.scratch.T)
    for k in range(1, spent.shape[0]):
        np.add(spent[k - 1], spent[k], out=spent[k])
    live &= spent <= budget
    return live.sum(axis=0, dtype=n.dtype)


def _maxmin(block, decoded, n, budget, config):
    """Max-min fair allocation: every decoded pair gets the same rate.

    The optimum equalizes received SNRs, p_i = (budget / sum_j 1/|g_j|^2)
    / |g_i|^2, and spends the whole budget, so all decoded pairs succeed
    or none do: the count is n or 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        block.scratch.fill(0.0)
        inv_sum = np.divide(1.0, block.g2, out=block.scratch, where=decoded).sum(axis=1)
        common_snr = np.where(n > 0, budget / np.where(inv_sum > 0, inv_sum, 1.0), 0.0)
    return np.where(common_snr >= config.snr_threshold, n, 0)


_KERNELS = {
    "individual": _individual,
    "equal": _equal,
    "waterfill": _waterfill,
    "maxmin": _maxmin,
    "auction": lambda block, decoded, n, budget, config: allocate_auction(
        block.g2, decoded, budget, block.snr_threshold
    ).astype(n.dtype),
}
STRATEGY_NAMES = tuple(_KERNELS)


def allocate(
    name: str, block: Block, decoded: np.ndarray, n: np.ndarray, budget: np.ndarray, config: SystemConfig
) -> np.ndarray:
    """Served count per trial, (trials,) in the dtype of ``n``, of strategy
    ``name`` on one block, at the SNR of ``config`` and the block's
    threshold ``a``."""
    if config.snr_threshold != block.snr_threshold:
        raise ValueError(f"snr_threshold {config.snr_threshold!r} is not the block's {block.snr_threshold!r}")
    if name not in _KERNELS:
        raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}")
    return _KERNELS[name](block, decoded, n, budget, config)
