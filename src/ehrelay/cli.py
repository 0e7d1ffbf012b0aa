"""Command line sweep runner.

Runs outage sweeps over SNR grids and writes one CSV row per
(snr, pairs, strategy, metric, method) combination.  Method ``mc`` is the
Monte Carlo estimate with its standard error; ``ANALYTIC_ROWS`` lists the
closed-form, high-SNR and bound row groups of each strategy.

Sweeps are configured by flat ``key = value`` files, a named preset, or
flags; flags override the file/preset.  Output is byte-deterministic for
a fixed sweep: rows are ordered snr, then pairs, then strategy, then
metric, then method, floats are written with ``repr``, and the Monte
Carlo engine itself is reproducible for any worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import os
import stat
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .analytic import (
    MAX_CLOSED_FORM_PAIRS,
    MAX_QUAD_ERROR,
    asymptotic_outage,
    outage_equal,
    outage_individual,
    outage_wf_best,
    wf_worst_bounds,
)
from .engine import BLOCK_SIZE, MAX_WORKERS, run_group
from .model import SystemConfig, power_from_snr_db
from .strategies import STRATEGY_NAMES

__all__ = [
    "CLIError",
    "SweepSpec",
    "PRESETS",
    "parse_config",
    "dump_config",
    "run_sweep",
    "write_csv",
    "main",
]

_OUTAGE_METRICS = ("average", "best", "worst")
METRIC_NAMES = (*_OUTAGE_METRICS, "success")
MODES = ("mc", "exact", "asymptotic", "bounds", "all")
CSV_COLUMNS = ("snr_db", "pairs", "strategy", "metric", "method", "value", "stderr", "trials", "seed")

MAX_SNR_POINTS = 10_000  # most points an SNR range may expand to
# an exponential draw -log U of a positive double U lies below 745 times its mean, so with
# eta <= 1 a relay budget sum_i eta (P_s |h_i|^2 - a) stays below this times pairs P_s h_variance
BUDGET_DRAW_BOUND = 1024


class _Inaccurate(ArithmeticError):
    """An analytic value too far from its form to be written; the message says how far."""


def _written_bounds(bounds):
    """The three worst-case bound rows, refused past MAX_QUAD_ERROR of quadrature error."""
    if bounds.quad_error > MAX_QUAD_ERROR:
        raise _Inaccurate(f"has quadrature error {bounds.quad_error:.2e}, above {MAX_QUAD_ERROR:.0e}")
    return bounds.lower, bounds.upper_integral, bounds.upper_closed


class _Group(NamedTuple):
    metrics: tuple[str, ...]  # the metrics it covers
    labels: tuple[str, ...]  # the rows it writes, in order
    pairs: tuple[int, float]  # the fewest and the most pairs it takes
    form: Callable  # (point, metric) -> the value of each label


# (strategy, group) -> the analytic method group, each strategy's groups in CSV row
# order; Monte Carlo covers every (strategy, metric) and is not listed.  The pooled
# asymptotics divide by M - 1, so they take two pairs; the equal-power best case adds
# M terms one by one (0.16 s at 10^5 pairs), so its group stops there.  point(f, *args)
# is f(*args, config), evaluated once per sweep point.  The functions are looked up in
# this module at call time, so a substituted module attribute takes effect.
ANALYTIC_ROWS = {
    ("individual", "exact"): _Group(_OUTAGE_METRICS, ("exact",), (1, MAX_CLOSED_FORM_PAIRS),
        lambda point, metric: (getattr(point(outage_individual), metric),)),
    ("individual", "asymptotic"): _Group(_OUTAGE_METRICS, ("asymptotic",), (1, math.inf),
        lambda point, metric: (point(asymptotic_outage, "individual", metric),)),
    ("equal", "exact"): _Group(_OUTAGE_METRICS, ("exact",), (1, MAX_CLOSED_FORM_PAIRS),
        lambda point, metric: (getattr(point(outage_equal), metric),)),
    ("equal", "asymptotic"): _Group(_OUTAGE_METRICS, ("asymptotic",), (2, 100_000),
        lambda point, metric: (point(asymptotic_outage, "equal", metric),)),
    ("waterfill", "exact"): _Group(("best",), ("exact",), (1, MAX_CLOSED_FORM_PAIRS),
        lambda point, metric: (point(outage_wf_best),)),
    ("waterfill", "asymptotic"): _Group(("worst",), ("asymptotic-lower", "asymptotic-upper"), (2, math.inf),
        lambda point, metric: point(asymptotic_outage, "waterfill", metric)),
    ("waterfill", "bounds"): _Group(("worst",), ("bound-lower", "bound-upper-integral", "bound-upper-closed"),
        (1, MAX_CLOSED_FORM_PAIRS),
        lambda point, metric: _written_bounds(point(wf_worst_bounds))),
}


class CLIError(Exception):
    """Configuration or validation failure; maps to exit code 2."""


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: the cartesian product of snr_db x pairs x strategies x
    metrics, evaluated with the methods selected by ``mode``."""

    pairs: tuple[int, ...] = (2,)
    rate: float = 2.0
    eta: float = 1.0
    snr_db: tuple[float, ...] = (30.0,)
    strategies: tuple[str, ...] = ("equal",)
    metrics: tuple[str, ...] = ("average",)
    trials: int = 100_000
    seed: int = 0
    mode: str = "mc"
    h_variance: float = 1.0
    g_variance: float = 1.0


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_snr(text: str) -> tuple[float, ...]:
    """Either ``start:stop:step`` (inclusive) or a comma list of dB values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("expected start:stop:step")
        start, stop, step = (_parse_float(p) for p in parts)
        if step <= 0:
            raise ValueError("step must be positive")
        if stop < start:
            raise ValueError("stop must be >= start")
        intervals = (stop - start) / step + 1e-9
        if not intervals < MAX_SNR_POINTS:  # also catches an infinite count
            raise ValueError(f"step too small: more than {MAX_SNR_POINTS} grid points")
        return tuple(start + i * step for i in range(math.floor(intervals) + 1))
    values = tuple(_parse_float(p) for p in text.split(","))
    if not values:
        raise ValueError("empty grid")
    return values


def _parse_pairs(text: str) -> tuple[int, ...]:
    values = tuple(_parse_int(p) for p in text.split(","))
    for v in values:
        if v < 1:
            raise ValueError("pair counts must be >= 1")
    return values


def _parse_choice(valid: tuple[str, ...], kind: str):
    def parse(text: str) -> str:
        if text not in valid:
            raise ValueError(f"unknown {kind} {text!r}; expected one of {', '.join(valid)}")
        return text

    return parse


def _parse_names(valid: tuple[str, ...], kind: str):
    choice = _parse_choice(valid, kind)
    return lambda text: tuple(choice(p.strip()) for p in text.split(","))


_PARSERS = {
    "pairs": _parse_pairs,
    "rate": _parse_float,
    "eta": _parse_float,
    "snr_db": _parse_snr,
    "strategies": _parse_names(STRATEGY_NAMES, "strategy"),
    "metrics": _parse_names(METRIC_NAMES, "metric"),
    "trials": _parse_int,
    "seed": _parse_int,
    "mode": _parse_choice(MODES, "mode"),
    "h_variance": _parse_float,
    "g_variance": _parse_float,
    "distance_source_relay": _parse_float,
    "distance_relay_destination": _parse_float,
    "path_loss_exponent": _parse_float,
}
_DISTANCE_KEYS = ("distance_source_relay", "distance_relay_destination")


def parse_config(text: str) -> SweepSpec:
    """Parse flat ``key = value`` config text; errors carry line numbers.

    ``#`` starts a comment.  Link variances may be given directly
    (``h_variance`` / ``g_variance``) or via distances and a path-loss
    exponent (default 3), but not both ways at once.
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise CLIError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, val = key.strip(), val.strip()
        if key not in _PARSERS:
            raise CLIError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise CLIError(f"line {lineno}: duplicate key {key!r} (first set on line {lines[key]})")
        try:
            values[key] = _PARSERS[key](val)
        except ValueError as exc:
            raise CLIError(f"line {lineno}: invalid value for {key}: {val!r} ({exc})") from None
        lines[key] = lineno

    has_distance = any(k in values for k in _DISTANCE_KEYS)
    if has_distance:
        missing = [k for k in _DISTANCE_KEYS if k not in values]
        if missing:
            raise CLIError(f"line {lines[next(k for k in _DISTANCE_KEYS if k in values)]}: "
                           f"{missing[0]} is required when the other distance is given")
        for vk in ("h_variance", "g_variance"):
            if vk in values:
                raise CLIError(f"line {lines[vk]}: {vk} conflicts with distance-based variances")
        alpha = values.pop("path_loss_exponent", 3.0)
        distances = [values.pop(k) for k in _DISTANCE_KEYS]
        if min(distances) <= 0:
            raise CLIError("distances must be positive")
        for key, variance, distance in zip(_DISTANCE_KEYS, ("h_variance", "g_variance"), distances):
            try:
                values[variance] = float(distance) ** -alpha
            except OverflowError:
                raise CLIError(
                    f"line {lines[key]}: {key} {distance!r} to the power {-alpha!r} overflows"
                ) from None
    elif "path_loss_exponent" in values:
        raise CLIError(f"line {lines['path_loss_exponent']}: path_loss_exponent requires distances")

    return SweepSpec(**values)


def dump_config(spec: SweepSpec) -> str:
    """Canonical config text; ``parse_config(dump_config(s)) == s``."""
    lines = []
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        lines.append(f"{field.name} = {text}")
    return "\n".join(lines) + "\n"


# relay and destinations 2 m out, quartic path loss
_SUCCESS_VARIANCE = 2.0**-4.0

PRESETS = {
    "fig-individual-vs-equal": SweepSpec(
        pairs=(2, 3),
        rate=2.0,
        snr_db=tuple(float(s) for s in range(0, 41, 5)),
        strategies=("individual", "equal"),
        metrics=("average", "best", "worst"),
        trials=1_000_000,
        seed=1,
        mode="all",
    ),
    "fig-wf-bounds": SweepSpec(
        pairs=(5,),
        rate=2.0,
        snr_db=tuple(float(s) for s in range(0, 41, 5)),
        strategies=("waterfill",),
        metrics=("worst",),
        trials=1_000_000,
        seed=1,
        mode="all",
    ),
    "fig-success-count": SweepSpec(
        pairs=(20,),
        rate=0.5,
        snr_db=(10.0, 15.0, 20.0, 25.0),
        strategies=STRATEGY_NAMES,
        metrics=("success",),
        trials=2000,
        seed=1,
        mode="mc",
        h_variance=_SUCCESS_VARIANCE,
        g_variance=_SUCCESS_VARIANCE,
    ),
}


def _validate_spec(spec: SweepSpec) -> tuple[dict[tuple[float, int], SystemConfig], dict]:
    """Refuse a bad sweep; returns its config for each (snr, pairs) and its
    analytic plan (see _analytic_plan)."""
    if not spec.pairs:
        raise CLIError("pairs must be positive integers")
    if not spec.snr_db:
        raise CLIError("snr_db grid is empty")
    if spec.trials < 1:
        raise CLIError("trials must be >= 1")
    if spec.seed < 0:
        raise CLIError("seed must be non-negative")
    if 2.0 * spec.rate >= sys.float_info.max_exp:
        raise CLIError(f"rate {spec.rate!r} too large: 2^(2 rate) overflows")
    # numpy refuses an array of more bytes than its index type counts (sys.maxsize),
    # so a block of draws that large would fail at its first draw
    rows, widest = min(BLOCK_SIZE, spec.trials), max(spec.pairs)
    if spec.mode in ("mc", "all") and widest > sys.maxsize // 8 // rows:
        raise CLIError(
            f"{widest} pairs: a block of draws ({rows} x {widest} floats) has more bytes than numpy can address"
        )
    configs = {}
    for snr in spec.snr_db:
        try:
            power = power_from_snr_db(snr)
        except OverflowError:
            raise CLIError(f"snr {snr!r} dB overflows the source power") from None
        for pairs in spec.pairs:
            try:
                config = configs[snr, pairs] = SystemConfig(
                    pairs=pairs,
                    rate=spec.rate,
                    source_power=power,
                    eta=spec.eta,
                    h_variance=spec.h_variance,
                    g_variance=spec.g_variance,
                )
            except ValueError as exc:
                raise CLIError(str(exc)) from None
            # the closed forms take the log of epsilon/eta at unit variances, the budget's
            # Gamma rate; it rounds to 0 when 2^(2 rate) - 1 or epsilon underflows, to inf
            # at a tiny eta, and either way at extreme variances
            eps, eta = config.unit_gain_thresholds
            ratio = eps / eta if eta else math.inf
            if not 0.0 < ratio < math.inf:
                raise CLIError(
                    f"snr {snr!r} dB, rate {spec.rate!r}, eta {spec.eta!r}: "
                    f"(epsilon/h_variance)/(eta g_variance) = {ratio!r} is not a positive finite float"
                )
            # a quotient, not a product: a pair count too large for a float is refused too
            most_pairs = sys.float_info.max / BUDGET_DRAW_BOUND / power / spec.h_variance
            if spec.mode in ("mc", "all") and pairs > most_pairs:
                raise CLIError(
                    f"snr {snr!r} dB, {pairs} pairs, h_variance {spec.h_variance!r}: the relay budget can "
                    f"overflow a float ({BUDGET_DRAW_BOUND} pairs P_s h_variance exceeds the largest float)"
                )
    if spec.mode not in MODES:
        raise CLIError(f"unknown mode {spec.mode!r}")
    for s in spec.strategies:
        if s not in STRATEGY_NAMES:
            raise CLIError(f"unknown strategy {s!r}")
    for m in spec.metrics:
        if m not in METRIC_NAMES:
            raise CLIError(f"unknown metric {m!r}")
    # a repeated value would repeat its rows and its Monte Carlo; 0 and -0.0 are one SNR
    for key in ("pairs", "snr_db", "strategies", "metrics"):
        values = getattr(spec, key)
        if len(set(values)) < len(values):
            repeated = next(v for i, v in enumerate(values) if v in values[:i])
            raise CLIError(f"{key} repeats {repeated!r}")

    plan = _analytic_plan(spec)
    if spec.mode in ("exact", "asymptotic", "bounds"):
        for s in spec.strategies:
            for m in spec.metrics:
                if (s, spec.mode) not in ANALYTIC_ROWS or m not in ANALYTIC_ROWS[s, spec.mode].metrics:
                    raise CLIError(f"no {spec.mode} method for strategy {s!r}, metric {m!r}")
        for (pairs, s, _), groups in plan.items():
            if not groups:  # the mode's group for s takes more pairs
                least = ANALYTIC_ROWS[s, spec.mode].pairs[0]
                raise CLIError(f"pairs {pairs} is below {least}, the fewest pair count of the {s} {spec.mode} rows")
    for (pairs, s, _), groups in plan.items():
        for group in groups:
            if pairs > (most := ANALYTIC_ROWS[s, group].pairs[1]):
                raise CLIError(
                    f"pairs {pairs} exceeds {most}, the largest pair count of the {s} {group} rows"
                )
    return configs, plan


def _analytic_plan(spec: SweepSpec) -> dict:
    """(pairs, strategy, metric) -> the ANALYTIC_ROWS groups the sweep writes
    there, in row order: those the mode selects that cover the metric and
    take at least that many pairs."""
    return {
        (pairs, s, m): [
            group
            for (strategy, group), rows in ANALYTIC_ROWS.items()
            if strategy == s and m in rows.metrics and spec.mode in ("all", group) and pairs >= rows.pairs[0]
        ]
        for pairs in spec.pairs
        for s in spec.strategies
        for m in spec.metrics
    }


def _mc_value(report, metric: str) -> tuple[float, float]:
    name = "mean_success" if metric == "success" else metric
    return getattr(report, name), getattr(report, f"{name}_stderr")


def run_sweep(spec: SweepSpec, *, workers: int = 1) -> list[dict]:
    """Evaluate the sweep; returns CSV rows in deterministic order."""
    configs, plan = _validate_spec(spec)
    # analytic values first, once per point: one that overflows refuses the sweep before any draw
    analytic = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for (snr, pairs), config in configs.items():
            point = functools.cache(lambda f, *args, config=config: f(*args, config))
            for (p, s, m), groups in plan.items():
                for group in groups if p == pairs else ():
                    try:
                        values = analytic[snr, p, s, m, group] = ANALYTIC_ROWS[s, group].form(point, m)
                    except OverflowError:
                        raise CLIError(
                            f"the {group} {s} {m} outage at snr {snr!r} dB, {p} pairs overflows"
                        ) from None
                    except _Inaccurate as e:
                        raise CLIError(f"the {group} {s} {m} outage at snr {snr!r} dB, {p} pairs {e}") from None
                    bad = [v for v in values if not math.isfinite(v)]
                    if bad:
                        raise CLIError(
                            f"the {group} {s} {m} outage at snr {snr!r} dB, {p} pairs is {bad[0]!r}, "
                            "not a finite float"
                        )
                    # a positive probability below the normal floats has lost its digits
                    if group in ("exact", "bounds") and min(values) < sys.float_info.min:
                        raise CLIError(
                            f"the {group} {s} {m} outage at snr {snr!r} dB, {p} pairs underflows: "
                            f"{min(values)!r} lies below the smallest normal float"
                        )
    # the closed forms' warnings, re-issued so that they name run_sweep's caller
    for w in caught:
        warnings.warn(w.message, stacklevel=2)
    # Monte Carlo reports by pair count, then by (snr index, strategy)
    mc = {}
    if spec.mode in ("mc", "all"):
        for pairs in spec.pairs:
            mc[pairs] = run_group(
                [configs[snr, pairs] for snr in spec.snr_db],
                spec.strategies,
                spec.trials,
                spec.seed,
                workers=workers,
            )

    rows: list[dict] = []

    def add(snr, pairs, strategy, metric, method, value, stderr=None, trials=None):
        fields = (repr(float(snr)), str(pairs), strategy, metric, method, repr(float(value)),
                  "" if stderr is None else repr(float(stderr)),
                  "" if trials is None else str(trials), str(spec.seed))
        rows.append(dict(zip(CSV_COLUMNS, fields, strict=True)))

    for i, snr in enumerate(spec.snr_db):
        for pairs in spec.pairs:
            for strategy in spec.strategies:
                report = mc[pairs][i, strategy] if mc else None
                for metric in spec.metrics:
                    if report is not None:
                        value, stderr = _mc_value(report, metric)
                        add(snr, pairs, strategy, metric, "mc", value, stderr, report.trials)
                    for group in plan[pairs, strategy, metric]:
                        values = analytic[snr, pairs, strategy, metric, group]
                        for label, value in zip(ANALYTIC_ROWS[strategy, group].labels, values, strict=True):
                            add(snr, pairs, strategy, metric, label, value)
    return rows


def write_csv(rows: list[dict], stream) -> None:
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        stream.write(",".join(row[c] for c in CSV_COLUMNS) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehrelay",
        description="Outage sweeps for an energy-harvesting multi-pair relay.",
    )
    parser.add_argument("--config", type=Path, help="flat key = value sweep file")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="named sweep preset")
    parser.add_argument("--snr", help="SNR grid, start:stop:step or comma list (dB)")
    parser.add_argument("--pairs", help="comma list of pair counts")
    parser.add_argument("--strategy", help="comma list of strategies")
    parser.add_argument("--metric", help="comma list of metrics")
    parser.add_argument("--trials", help="Monte Carlo trials per point")
    parser.add_argument("--seed", help="Monte Carlo seed")
    parser.add_argument("--rate", help="target rate (bits/s/Hz)")
    parser.add_argument("--eta", help="harvesting efficiency")
    parser.add_argument("--mode", help=f"which methods to evaluate: {', '.join(MODES)}")
    parser.add_argument("--out", type=Path, help="CSV output path (default stdout)")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=f"threads that run Monte Carlo blocks, the calling thread included, 1 to {MAX_WORKERS}",
    )
    parser.add_argument(
        "--dump-config", action="store_true", help="print the resolved sweep and exit"
    )
    return parser


# flag -> SweepSpec field, parsed like the config key of that name
_FLAG_KEYS = {"snr": "snr_db", "strategy": "strategies", "metric": "metrics"} | {
    k: k for k in ("pairs", "trials", "seed", "rate", "eta", "mode")}


def _open_out(path: Path | None):
    """The CSV stream: ``path`` opened for appending, or stdout.

    Opened before the sweep runs, so an unwritable path is refused before
    any channel is drawn; ``_write`` empties a regular file once the rows
    exist (appends then land at its start).
    """
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "a", newline="")
    except OSError as exc:
        raise CLIError(f"cannot write {path}: {exc}") from None


def _write(stream, path: Path | None, write: Callable[[], object]) -> None:
    """Run ``write``, then close the ``--out`` file (``path``) or flush stdout.

    A regular file is emptied first, once the rows exist, so a sweep refused
    before leaves it as it was.  A failed write, flush or close (a full disk,
    a closed pipe) is refused naming the destination; the file is closed
    anyway, and the process's stdout is pointed at os.devnull (as the Python
    docs advise for SIGPIPE) so that the flush at exit does not fail again.
    """
    try:
        if path is not None and stat.S_ISREG(os.fstat(stream.fileno()).st_mode):
            stream.truncate(0)
        write()
        stream.flush() if path is None else stream.close()
    except OSError as exc:
        if path is not None:
            with contextlib.suppress(OSError):
                stream.close()
        elif stream is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
        raise CLIError(f"cannot write {'standard output' if path is None else path}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None and args.preset is not None:
            raise CLIError("--config and --preset are mutually exclusive")
        if args.config is not None:
            try:
                text = args.config.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise CLIError(f"cannot read {args.config}: {exc}") from None
            spec = parse_config(text)
        elif args.preset is not None:
            spec = PRESETS[args.preset]
        else:
            spec = SweepSpec()

        updates: dict[str, object] = {}
        for flag, field in _FLAG_KEYS.items():
            raw = getattr(args, flag)
            if raw is not None:
                try:
                    updates[field] = _PARSERS[field](raw)
                except ValueError as exc:
                    raise CLIError(f"invalid --{flag}: {exc}") from None
        spec = dataclasses.replace(spec, **updates)

        if not 1 <= args.workers <= MAX_WORKERS:
            raise CLIError(f"--workers must be between 1 and {MAX_WORKERS}")
        if args.dump_config:
            _validate_spec(spec)
            _write(sys.stdout, None, lambda: sys.stdout.write(dump_config(spec)))
            return 0

        with _open_out(args.out) as stream:
            rows = run_sweep(spec, workers=args.workers)
            _write(stream, args.out, lambda: write_csv(rows, stream))
        return 0
    except (CLIError, MemoryError) as exc:  # a block too large to allocate is bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
