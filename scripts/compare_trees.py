"""Byte-compare sweeps of this checkout against another checkout.

Usage: python scripts/compare_trees.py OTHER_ROOT [--quick]

A speed-up must not change results.  The committed ``results/*.csv``
cover the figure presets only; this script runs a fixed list of other
sweeps through each tree's ``ehrelay.cli.run_sweep`` and ``write_csv``:

* the auction under both price policies at 3, 9, 20 and 40 pairs, a
  20000-trial auction sweep that fills a whole 16384-trial block, and the
  max-winners auction at 64 and 128 pairs with unit link variances, and
  at 130 and 256 pairs, where numpy adds up a row of bids as two halves;
* the four batched strategies at 1, 2, 7, 8, 12 and 30 pairs, 0-40 dB,
  eta 0.61, with every analytic row, and again at the success-count
  figure's link variances 1/16 and rate 0.5 (1, 2, 7 and 20 pairs).

Each tree runs in its own interpreter that imports ``ehrelay`` from that
tree's ``src/`` (the two run side by side).  The script prints each
sweep's outcome; for a sweep that differs, its first differing row, the
count of differing rows per (metric, method) and the largest relative
change in ``value`` and in ``stderr``.  It exits 1 on any difference, 0
when every sweep is byte-identical.
``--quick`` runs a reduced list in a few seconds.
"""

import argparse
import dataclasses
import io
import json
import math
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_METRICS = ("average", "best", "worst", "success")
_BATCHED = ("individual", "equal", "waterfill", "maxmin")
# the auction at the success-count figure's channel statistics
_SUCCESS_CHANNELS = dict(rate=0.5, h_variance=0.0625, g_variance=0.0625)
_AUCTION = dict(_SUCCESS_CHANNELS, strategies=("auction",), metrics=_METRICS)

# sweep name -> SweepSpec fields
SWEEPS = {
    **{
        f"auction-{policy}": dict(
            _AUCTION, pairs=(3, 9, 20, 40), snr_db=(5.0, 10.0, 15.0, 20.0, 30.0),
            trials=4000, seed=5, price_policy=policy,
        )
        for policy in ("max-winners", "certified")
    },
    "auction-full-block": dict(_AUCTION, pairs=(20,), snr_db=(15.0,), trials=20_000, seed=6),
    "auction-large": dict(
        rate=0.5, pairs=(64, 128), snr_db=(10.0, 20.0, 30.0), strategies=("auction",),
        metrics=_METRICS, trials=1000, seed=9,
    ),
    "auction-wide": dict(
        rate=0.5, pairs=(130, 256), snr_db=(10.0, 20.0), strategies=("auction",),
        metrics=_METRICS, trials=200, seed=10,
    ),
    "batched": dict(
        pairs=(1, 2, 7, 8, 12, 30), snr_db=tuple(float(s) for s in range(0, 41, 5)),
        strategies=_BATCHED, metrics=_METRICS, eta=0.61, trials=20_000, seed=7, mode="all",
    ),
    "batched-scaled": dict(
        _SUCCESS_CHANNELS, pairs=(1, 2, 7, 20), snr_db=tuple(float(s) for s in range(0, 41, 5)),
        strategies=_BATCHED, metrics=_METRICS, eta=0.61, trials=20_000, seed=8, mode="all",
    ),
}
QUICK = {
    "auction-quick": dict(_AUCTION, pairs=(3, 9), snr_db=(10.0, 20.0), trials=300, seed=5),
    "batched-quick": dict(
        pairs=(1, 8), snr_db=(0.0, 20.0, 40.0), strategies=_BATCHED, metrics=_METRICS,
        eta=0.61, trials=300, seed=7, mode="all",
    ),
    "batched-scaled-quick": dict(
        _SUCCESS_CHANNELS, pairs=(1, 8), snr_db=(10.0, 25.0, 40.0), strategies=_BATCHED,
        metrics=_METRICS, eta=0.61, trials=300, seed=8, mode="all",
    ),
}


def emit(root: Path, names: list[str]) -> None:
    """Child process: print the CSV text of each named sweep as JSON."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import ehrelay.cli as cli

    if Path(cli.__file__).resolve().parent != src / "ehrelay":
        raise SystemExit(f"ehrelay imported from {cli.__file__}, not from {src}")
    # out-of-regime asymptotic warnings say nothing about equality
    warnings.simplefilter("ignore")
    sweeps = {**SWEEPS, **QUICK}
    out = {}
    for name in names:
        buf = io.StringIO(newline="")
        cli.write_csv(cli.run_sweep(dataclasses.replace(cli.SweepSpec(), **sweeps[name])), buf)
        out[name] = buf.getvalue()
    json.dump(out, sys.stdout)


def _relative_change(here: str, other: str) -> float:
    """|here - other| / |other| of two CSV fields: 0 if their text is equal,
    inf against 0, nan or an empty field on one side only."""
    if here == other:
        return 0.0
    try:
        a, b = float(here), float(other)
    except ValueError:
        return math.inf
    change = abs(a - b) / abs(b) if b else math.inf
    return math.inf if math.isnan(change) else change


def differences(here: list[str], other: list[str]) -> tuple[Counter, dict[str, float]]:
    """The CSV lines of one sweep from two trees, header first, compared row by
    row: the count of differing rows per (metric, method) of this tree's row,
    and the largest relative change in ``value`` and in ``stderr``."""
    columns = here[0].split(",")
    counts: Counter = Counter()
    largest = {"value": 0.0, "stderr": 0.0}
    for x, y in zip(here[1:], other[1:]):
        if x == y:
            continue
        a, b = (dict(zip(columns, line.split(","))) for line in (x, y))
        counts[a["metric"], a["method"]] += 1
        for column in largest:
            largest[column] = max(largest[column], _relative_change(a[column], b[column]))
    return counts, largest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare with")
    parser.add_argument("--quick", action="store_true", help="run the reduced sweep list")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    names = list(QUICK if args.quick else SWEEPS)
    if args.emit:
        emit(args.other, names)
        return 0
    if not (args.other / "src" / "ehrelay").is_dir():
        parser.error(f"no ehrelay sources under {args.other / 'src'}")

    roots = (ROOT, args.other)
    children = [
        subprocess.Popen(
            [sys.executable, __file__, str(root), "--emit"] + ["--quick"] * args.quick,
            stdout=subprocess.PIPE, text=True,
        )
        for root in roots
    ]
    outputs = [child.communicate()[0] for child in children]
    for root, child in zip(roots, children):
        if child.returncode:
            print(f"sweeps failed in {root} (exit {child.returncode})")
            return 1
    mine, theirs = (json.loads(text) for text in outputs)
    same = True
    for name in names:
        a, b = mine[name].splitlines(), theirs[name].splitlines()
        diff = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)
        if diff is None and len(a) == len(b):
            print(f"{name}: {len(a) - 1} rows identical")
            continue
        same = False
        if diff is None:
            print(f"{name}: {len(a) - 1} rows here, {len(b) - 1} in {args.other}")
        else:
            print(f"{name}: first difference at row {diff}\n  here:  {a[diff]}\n  other: {b[diff]}")
            counts, largest = differences(a, b)
            print("  differing rows by (metric, method): "
                  + ", ".join(f"{metric},{method} {n}" for (metric, method), n in sorted(counts.items())))
            print(f"  largest relative change: value {largest['value']:.3g}, stderr {largest['stderr']:.3g}")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
