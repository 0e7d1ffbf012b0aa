"""Monte Carlo outage engine.

Trials are grouped into blocks of ``BLOCK_SIZE``; block ``b`` draws its
channels from a dedicated substream keyed by ``(seed, b)`` (see
:func:`ehrelay.model.sample_block`) and reduces to integer histograms of
served counts, whose sums do not depend on their order, so estimates are
bit-identical for any worker count and any assignment of blocks to
workers.  The block size is part of that stream partition (it fixes
which trial each draw belongs to), so it is a constant, not an argument.

The unit of work is a sweep group: configs that differ only in source
power (SNR), evaluated under several strategies on the same draws.  The
calling thread runs blocks itself, next to at most ``workers - 1`` helper
threads (none for a one-block group).  Each thread owns one
:class:`ehrelay.strategies.Block` and one running histogram and takes the
next block index from one shared counter; per block it calls
``Block.draw`` once, ``Block.harvest`` once per SNR and
:func:`ehrelay.strategies.allocate` once per (SNR, strategy), whose
per-trial served counts go straight into the histogram.  A Block keeps
its buffers from one block to the next, so drawing and harvesting
allocate no block-sized float array after a thread's first block.  The
auction still does: it copies the decoded pairs' gains per SNR, and its
price scan allocates temporaries per chunk, in chunks of near-equal rows.

A pair is in outage iff it is not served.  Per-trial metrics are the
outage fraction, the all-pairs-fail event (the best-positioned pair
failed), the some-pair-fails event (the worst-positioned pair failed),
and the number of served destinations: each a function of the served
count K alone, so K is all a kernel returns, and which of two tied pairs
is served does not matter.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .model import SystemConfig
from .strategies import STRATEGY_NAMES, Block, allocate

__all__ = [
    "OutageReport",
    "BLOCK_SIZE",
    "MAX_WORKERS",
    "run_experiment",
    "run_group",
]

BLOCK_SIZE = 16384
# most worker threads a group may ask for: the caller and up to this many - 1
# helper threads run blocks (no more threads than blocks), so a huge count
# would start that many threads for nothing
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
) -> dict[tuple[int, str], OutageReport]:
    """Estimate the outage metrics of every (config, strategy) on shared draws.

    ``configs`` may differ only in source power (SNR), which is checked:
    every block's channels depend on (seed, block, pairs, variances) alone
    and its requirement order on the rate, so both serve the whole group.
    Block b covers trials [b * BLOCK_SIZE, ...); each block reduces to one
    histogram of served counts per (config, strategy), summed as integers,
    so the reports do not depend on ``workers``.  Returns the report of each
    (config index, strategy).

    ``workers`` threads run blocks, the caller included: it starts
    ``min(workers, n_blocks) - 1`` helper threads, so a one-block group or
    ``workers=1`` runs on the caller alone.  Each thread draws the blocks it
    takes into its own Block and harvests each once per config.  An
    exception in any thread stops every thread from taking another block
    and is raised here once the helpers have finished.
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

    n_blocks = (trials + BLOCK_SIZE - 1) // BLOCK_SIZE
    lock = threading.Lock()
    taken = 0  # blocks handed out; n_blocks or more stops every thread
    histograms: list[np.ndarray] = []  # each thread's running sum
    errors: list[BaseException] = []

    def work() -> None:
        nonlocal taken
        block = Block(min(BLOCK_SIZE, trials), pairs, configs[0].snr_threshold)
        histogram = np.zeros((len(configs), len(strategies), pairs + 1), dtype=np.int64)
        histograms.append(histogram)
        try:
            while True:
                with lock:
                    b, taken = taken, taken + 1
                if b >= n_blocks:
                    return
                block.draw(seed, b, min(BLOCK_SIZE, trials - b * BLOCK_SIZE), configs[0])
                for i, config in enumerate(configs):
                    harvested = block.harvest(config)
                    for j, s in enumerate(strategies):
                        histogram[i, j] += np.bincount(allocate(s, block, *harvested, config), minlength=pairs + 1)
        except BaseException as exc:
            with lock:
                taken = n_blocks
            errors.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(min(workers, n_blocks) - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    totals = sum(histograms)
    return {(i, s): _report(s, seed, totals[i, j])
            for i in range(len(configs)) for j, s in enumerate(strategies)}


def _report(strategy: str, seed: int, counts: np.ndarray) -> OutageReport:
    """Every estimate from ``counts[k]``, the trials that served k of M pairs."""
    pairs = len(counts) - 1
    k = np.arange(pairs + 1)
    t = int(counts.sum())
    served, served_sq = int(k @ counts), int((k * k) @ counts)  # exact integer moments
    # the variance of the mean as one rounding of an exact rational: t s2 - s1^2 >= 0
    success_stderr = math.sqrt((t * served_sq - served * served) / (t * t * (t - 1))) if t > 1 else math.nan
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
) -> OutageReport:
    """Estimate the outage metrics of ``strategy`` over ``trials`` draws:
    :func:`run_group` on the one-config group."""
    return run_group([config], (strategy,), trials, seed, workers=workers)[0, strategy]
