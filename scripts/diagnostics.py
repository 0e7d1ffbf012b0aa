"""Sanity experiments that do not fit the sweep CSV format.

* paired check that the water-filling and max-min worst-case outage
  events coincide draw by draw (exit code 1 if any draw disagrees),
* heavy-tail diagnostics for the inverse channel gains: the second
  largest has a finite mean, the largest does not.
"""

import argparse

from ehrelay.analytic import order_stat_diagnostics
from ehrelay.engine import worst_case_equivalence_check
from ehrelay.model import SystemConfig, power_from_snr_db


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
