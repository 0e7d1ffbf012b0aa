"""Monte Carlo outage engine.

Trials are grouped into fixed-size blocks; block ``b`` draws its channels
from a dedicated substream keyed by ``(seed, b)`` (see
:func:`ehrelay.model.sample_block`), and per-block statistics are reduced
in block order.  Estimates are therefore bit-identical for any worker
count and any assignment of blocks to workers.

Each block runs three layers on (trials, pairs) arrays:
:func:`ehrelay.model.sample_block` draws the channels,
:func:`ehrelay.model.harvest` finds the decoding sets and relay budgets,
and :func:`ehrelay.strategies.allocate` returns the served mask and the
leftover budget.  A pair is in outage iff it is not served.  Per-trial
metrics are the outage fraction, the all-pairs-fail event (the
best-positioned pair failed), the some-pair-fails event (the
worst-positioned pair failed), and the number of served destinations.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import SystemConfig, derive_params, harvest, sample_block
from .strategies import STRATEGY_NAMES, allocate

__all__ = [
    "OutageReport",
    "DEFAULT_BLOCK_SIZE",
    "run_experiment",
    "worst_case_equivalence_check",
]

DEFAULT_BLOCK_SIZE = 16384


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
    mean_leftover: float


@dataclass
class _Accumulator:
    trials: int = 0
    frac_sum: float = 0.0
    frac_sq_sum: float = 0.0
    all_fail: int = 0
    any_fail: int = 0
    success_sum: float = 0.0
    success_sq_sum: float = 0.0
    leftover_sum: float = 0.0

    def add_block(self, counts: np.ndarray, leftover: np.ndarray, pairs: int) -> None:
        frac = 1.0 - counts / pairs
        self.trials += counts.shape[0]
        self.frac_sum += float(frac.sum())
        self.frac_sq_sum += float((frac * frac).sum())
        self.all_fail += int((counts == 0).sum())
        self.any_fail += int((counts < pairs).sum())
        self.success_sum += float(counts.sum())
        self.success_sq_sum += float((counts.astype(float) ** 2).sum())
        self.leftover_sum += float(leftover.sum())


def _sample_stderr(total: float, total_sq: float, n: int) -> float:
    if n < 2:
        return math.nan
    var = max(total_sq - total * total / n, 0.0) / (n - 1)
    return math.sqrt(var / n)


def _binomial_stderr(count: int, n: int) -> float:
    p = count / n
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def run_experiment(
    config: SystemConfig,
    strategy: str,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
    auction_opts: dict | None = None,
) -> OutageReport:
    """Estimate the outage metrics of ``strategy`` over ``trials`` draws.

    Block b covers trials [b * block_size, ...) and is computed entirely
    from its own substream; per-block partial sums are reduced in block
    order, so the report does not depend on ``workers``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if strategy not in STRATEGY_NAMES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGY_NAMES}")
    params = derive_params(config)
    n_blocks = (trials + block_size - 1) // block_size

    def one_block(b: int):
        h2, g2 = sample_block(seed, b, min(block_size, trials - b * block_size), config)
        decoded, n, budget = harvest(h2, config, params)
        served, leftover = allocate(
            strategy, h2, g2, decoded, n, budget, config, params, auction_opts=auction_opts
        )
        return served.sum(axis=1), leftover

    acc = _Accumulator()
    if workers == 1:
        for counts, leftover in map(one_block, range(n_blocks)):
            acc.add_block(counts, leftover, config.pairs)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for counts, leftover in pool.map(one_block, range(n_blocks)):
                acc.add_block(counts, leftover, config.pairs)

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
        mean_leftover=acc.leftover_sum / t,
    )


def worst_case_equivalence_check(
    config: SystemConfig, trials: int, seed: int, *, block_size: int = DEFAULT_BLOCK_SIZE
) -> int:
    """Count trials where water-filling and max-min disagree on the
    worst-pair outage event.

    Both fail some pair iff the budget cannot cover every decoded pair's
    requirement, so the count should be zero.
    """
    params = derive_params(config)
    n_blocks = (trials + block_size - 1) // block_size
    mismatches = 0
    for b in range(n_blocks):
        size = min(block_size, trials - b * block_size)
        h2, g2 = sample_block(seed, b, size, config)
        harvested = harvest(h2, config, params)
        wf, _ = allocate("waterfill", h2, g2, *harvested, config, params)
        mm, _ = allocate("maxmin", h2, g2, *harvested, config, params)
        wf_worst = wf.sum(axis=1) < config.pairs
        mm_worst = mm.sum(axis=1) < config.pairs
        mismatches += int((wf_worst != mm_worst).sum())
    return mismatches
