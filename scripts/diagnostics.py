"""Sanity experiments that do not fit the sweep CSV format.

* paired check that the water-filling and max-min worst-case outage
  events coincide draw by draw, on the engine's blocks of draws (exit
  code 1 if any draw disagrees),
* heavy-tail diagnostics for the inverse channel gains: the second
  largest has a finite mean, the largest does not.
"""

import argparse
from dataclasses import dataclass

import numpy as np

from ehrelay.engine import BLOCK_SIZE
from ehrelay.model import SystemConfig, power_from_snr_db
from ehrelay.strategies import Block, allocate


def worst_case_equivalence_check(config: SystemConfig, trials: int, seed: int) -> int:
    """Count trials where water-filling and max-min disagree on the
    worst-pair outage event.

    The trials are the engine's: block b draws trials [b * BLOCK_SIZE, ...)
    from its (seed, b) substream.  Both strategies fail some pair iff the
    budget cannot cover every decoded pair's requirement, so the count
    should be zero.
    """
    mismatches = 0
    block = Block(min(BLOCK_SIZE, trials), config.pairs, config.snr_threshold)
    for b in range((trials + BLOCK_SIZE - 1) // BLOCK_SIZE):
        block.draw(seed, b, min(BLOCK_SIZE, trials - b * BLOCK_SIZE), config)
        harvested = block.harvest(config)
        wf, mm = (
            allocate(s, block, *harvested, config) < config.pairs
            for s in ("waterfill", "maxmin")
        )
        mismatches += int((wf != mm).sum())
    return mismatches


@dataclass(frozen=True)
class OrderStatDiagnostics:
    """Monte Carlo witnesses for the inverse-gain order statistics.

    The requirement variables z = 1/|g|^2 are heavy tailed: the largest
    one has infinite mean (its sample mean keeps growing with the sample
    size), while the second largest has a finite mean below (M-1)^2.
    """

    mean_second_largest: float
    largest_running_means: tuple[float, ...]
    checkpoints: tuple[int, ...]
    cdf_max_abs_dev: float


def order_stat_diagnostics(
    pairs: int, samples: int, seed: int = 0
) -> OrderStatDiagnostics:
    if pairs < 2:
        raise ValueError("order statistics need at least two pairs")
    if samples < 10:
        raise ValueError("need at least 10 samples")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0))))
    g2 = rng.exponential(size=(samples, pairs))
    z = 1.0 / g2
    marginal = z[:, 0].copy()  # one coordinate, before the row sort
    z.sort(axis=1)
    second = z[:, -2]
    largest = z[:, -1]

    checkpoints = []
    n = 100
    while n < samples:
        checkpoints.append(n)
        n *= 10
    checkpoints.append(samples)
    running = tuple(float(largest[:k].mean()) for k in checkpoints)

    # empirical CDF of a single z against exp(-1/z) on a quantile grid
    zs = np.sort(marginal)
    grid = np.quantile(zs, np.linspace(0.05, 0.95, 19))
    emp = np.searchsorted(zs, grid, side="right") / samples
    dev = float(np.abs(emp - np.exp(-1.0 / grid)).max())

    return OrderStatDiagnostics(
        mean_second_largest=float(second.mean()),
        largest_running_means=running,
        checkpoints=tuple(checkpoints),
        cdf_max_abs_dev=dev,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--snr-db", type=float, default=20.0)
    parser.add_argument("--trials", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = SystemConfig(
        pairs=args.pairs, rate=2.0, source_power=power_from_snr_db(args.snr_db)
    )
    bad = worst_case_equivalence_check(config, args.trials, args.seed)
    print(f"worst-case equivalence: {bad} violations in {args.trials} trials")

    diag = order_stat_diagnostics(args.pairs, samples=200_000, seed=args.seed)
    print(f"mean second-largest inverse gain: {diag.mean_second_largest:.3f} "
          f"(finite-mean bound {(args.pairs - 1) ** 2})")
    print("running mean of the largest at increasing sample sizes:")
    for n, value in zip(diag.checkpoints, diag.largest_running_means):
        print(f"  {n:>9d}: {value:.2f}")
    print(f"max CDF deviation of the inverse-gain marginal: "
          f"{diag.cdf_max_abs_dev:.4f}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
