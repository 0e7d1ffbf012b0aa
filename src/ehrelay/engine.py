"""Monte Carlo outage engine.

Trials are grouped into blocks of ``BLOCK_SIZE``; block ``b`` draws its
channels from a dedicated substream keyed by ``(seed, b)`` (see
:func:`ehrelay.model.sample_block`), and per-block statistics are reduced
in block order.  Estimates are therefore bit-identical for any worker
count and any assignment of blocks to workers.  The block size is part
of that stream partition (it fixes which trial each draw belongs to), so
it is a constant rather than an argument.

The unit of work is a sweep group: configs that differ only in source
power (SNR), evaluated under several strategies on the same draws.  Per
block, on (trials, pairs) arrays, :func:`ehrelay.model.sample_block`
draws the channels once into a :class:`ehrelay.strategies.Block`, which
stores them column-major and keeps what no SNR changes (the requirements,
sorted once for water-filling); :func:`ehrelay.model.harvest` finds the
decoding sets and budgets once per SNR, and :func:`ehrelay.strategies.allocate`
the served mask once per (SNR, strategy), all on common channel realisations.
Every per-trial sum over pairs is a few contiguous column adds.

A pair is in outage iff it is not served.  Per-trial metrics are the
outage fraction, the all-pairs-fail event (the best-positioned pair
failed), the some-pair-fails event (the worst-positioned pair failed),
and the number of served destinations.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .model import SystemConfig, harvest, sample_block
from .strategies import STRATEGY_NAMES, Block, allocate

__all__ = [
    "OutageReport",
    "BLOCK_SIZE",
    "MAX_WORKERS",
    "run_experiment",
    "run_group",
]

BLOCK_SIZE = 16384
# most worker threads a group may ask for: the pool starts one per block up to
# this many, so a huge count would start that many threads for nothing
MAX_WORKERS = 256


@dataclass(frozen=True)
class OutageReport:
    """Aggregated Monte Carlo estimates.

    ``average`` is the mean per-pair outage fraction; ``best``/``worst``
    are the all-fail and any-fail trial frequencies.  Standard errors are
    binomial for the Bernoulli events and sample-based for the averaged
    fraction and the success count (pairs within a trial are correlated
    through the shared budget).
    """

    strategy: str
    trials: int
    seed: int
    average: float
    average_stderr: float
    best: float
    best_stderr: float
    worst: float
    worst_stderr: float
    mean_success: float
    mean_success_stderr: float


@dataclass
class _Accumulator:
    trials: int = 0
    frac_sum: float = 0.0
    frac_sq_sum: float = 0.0
    all_fail: int = 0
    any_fail: int = 0
    success_sum: float = 0.0
    success_sq_sum: float = 0.0

    def add_block(self, counts: np.ndarray, pairs: int) -> None:
        # the count moments are exact integer sums over the histogram of counts;
        # the fractions keep the float sums over the trials that set their bits
        frac = 1.0 - counts / pairs
        hist = np.bincount(counts, minlength=pairs + 1)
        k = np.arange(pairs + 1)
        self.trials += counts.shape[0]
        self.frac_sum += float(frac.sum())
        self.frac_sq_sum += float((frac * frac).sum())
        self.all_fail += int(hist[0])
        self.any_fail += counts.shape[0] - int(hist[pairs])
        self.success_sum += float(hist @ k)
        self.success_sq_sum += float(hist @ (k * k))

    def merge(self, other: "_Accumulator") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def _sample_stderr(total: float, total_sq: float, n: int) -> float:
    if n < 2:
        return math.nan
    var = max(total_sq - total * total / n, 0.0) / (n - 1)
    return math.sqrt(var / n)


def _binomial_stderr(count: int, n: int) -> float:
    p = count / n
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def run_group(
    configs: list[SystemConfig],
    strategies: tuple[str, ...],
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    price_policy: str = "max-winners",
) -> dict[tuple[int, str], OutageReport]:
    """Estimate the outage metrics of every (config, strategy) on shared draws.

    ``configs`` may differ only in source power (SNR), which is checked:
    every block's channels depend on (seed, block, pairs, variances) alone
    and its requirement order on the rate, so both serve the whole group.
    Block b covers trials [b * BLOCK_SIZE, ...); each block reduces to one
    partial sum per (config, strategy), and the partials are merged in
    block order, so the reports do not depend on ``workers``.  The auction
    prices by ``price_policy`` (see :func:`ehrelay.auction.allocate_auction`).
    Returns the report of each (config index, strategy).
    """
    for name, value in (("trials", trials), ("workers", workers)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be <= {MAX_WORKERS}")
    for strategy in strategies:
        if strategy not in STRATEGY_NAMES:
            raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGY_NAMES}")
    pairs = configs[0].pairs
    shared = replace(configs[0], source_power=1.0)
    if any(replace(c, source_power=1.0) != shared for c in configs):
        raise ValueError("configs of one group must share pairs, rate, eta and variances")

    def one_block(b: int) -> dict[tuple[int, str], _Accumulator]:
        size = min(BLOCK_SIZE, trials - b * BLOCK_SIZE)
        block = Block(*sample_block(seed, b, size, configs[0]), configs[0].snr_threshold)
        partials = {}
        for i, config in enumerate(configs):
            harvested = harvest(block.h2, config)
            for s in strategies:
                served = allocate(s, block, *harvested, config, price_policy=price_policy)
                partials[i, s] = acc = _Accumulator()
                acc.add_block(served.sum(axis=1), pairs)
        return partials

    totals = {(i, s): _Accumulator() for i in range(len(configs)) for s in strategies}
    n_blocks = (trials + BLOCK_SIZE - 1) // BLOCK_SIZE
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for partials in (map if workers == 1 else pool.map)(one_block, range(n_blocks)):
            for key, partial in partials.items():
                totals[key].merge(partial)
    return {(i, s): _report(s, seed, acc) for (i, s), acc in totals.items()}


def _report(strategy: str, seed: int, acc: _Accumulator) -> OutageReport:
    t = acc.trials
    return OutageReport(
        strategy=strategy,
        trials=t,
        seed=seed,
        average=acc.frac_sum / t,
        average_stderr=_sample_stderr(acc.frac_sum, acc.frac_sq_sum, t),
        best=acc.all_fail / t,
        best_stderr=_binomial_stderr(acc.all_fail, t),
        worst=acc.any_fail / t,
        worst_stderr=_binomial_stderr(acc.any_fail, t),
        mean_success=acc.success_sum / t,
        mean_success_stderr=_sample_stderr(acc.success_sum, acc.success_sq_sum, t),
    )


def run_experiment(
    config: SystemConfig,
    strategy: str,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    price_policy: str = "max-winners",
) -> OutageReport:
    """Estimate the outage metrics of ``strategy`` over ``trials`` draws:
    :func:`run_group` on the one-config group."""
    return run_group(
        [config], (strategy,), trials, seed,
        workers=workers, price_policy=price_policy,
    )[0, strategy]
