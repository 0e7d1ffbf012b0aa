"""Monte Carlo outage engine.

Trials are grouped into blocks of ``BLOCK_SIZE``; block ``b`` draws its
channels from a dedicated substream keyed by ``(seed, b)`` (see
:func:`ehrelay.model.sample_block`) and reduces to integer histograms of
served counts, whose sums do not depend on their order, so estimates are
bit-identical for any worker count and any assignment of blocks to
workers.  The block size is part of that stream partition (it fixes
which trial each draw belongs to), so it is a constant, not an argument.

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
from dataclasses import dataclass, replace

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
    histogram of served counts per (config, strategy), summed as integers,
    so the reports do not depend on ``workers``.  The auction prices by
    ``price_policy`` (see :func:`ehrelay.auction.allocate_auction`).
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

    def one_block(b: int) -> np.ndarray:
        size = min(BLOCK_SIZE, trials - b * BLOCK_SIZE)
        block = Block(*sample_block(seed, b, size, configs[0]), configs[0].snr_threshold)
        counts = np.empty((len(configs), len(strategies), pairs + 1), dtype=np.int64)
        for i, config in enumerate(configs):
            harvested = harvest(block.h2, config)
            for j, s in enumerate(strategies):
                served = allocate(s, block, *harvested, config, price_policy=price_policy)
                counts[i, j] = np.bincount(served.sum(axis=1), minlength=pairs + 1)
        return counts

    n_blocks = (trials + BLOCK_SIZE - 1) // BLOCK_SIZE
    with ThreadPoolExecutor(max_workers=workers) as pool:
        totals = sum((map if workers == 1 else pool.map)(one_block, range(n_blocks)))
    return {(i, s): _report(s, seed, totals[i, j])
            for i in range(len(configs)) for j, s in enumerate(strategies)}


def _report(strategy: str, seed: int, counts: np.ndarray) -> OutageReport:
    """Every estimate from ``counts[k]``, the trials that served k of M pairs."""
    pairs = len(counts) - 1
    k = np.arange(pairs + 1)
    t = int(counts.sum())
    served, served_sq = int(k @ counts), int((k * k) @ counts)  # exact integer moments
    total = float(served)
    var = max(float(served_sq) - total * total / t, 0.0) / (t - 1) if t > 1 else math.nan
    success_stderr = math.sqrt(var / t)
    all_fail, any_fail = int(counts[0]), t - int(counts[pairs])
    return OutageReport(
        strategy=strategy,
        trials=t,
        seed=seed,
        # the outage fraction 1 - k/M: one rounding of its exact mean; the stderr over M
        average=(pairs * t - served) / (pairs * t),
        average_stderr=success_stderr / pairs,
        best=all_fail / t,
        best_stderr=_binomial_stderr(all_fail, t),
        worst=any_fail / t,
        worst_stderr=_binomial_stderr(any_fail, t),
        mean_success=served / t,
        mean_success_stderr=success_stderr,
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
