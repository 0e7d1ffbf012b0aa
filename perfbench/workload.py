"""One benchmark workload in a fresh process: preset sweeps, checked.

Usage (normally started by ``run.py``)::

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --out RESULT.json

The process imports ``ehrelay`` from the checkout's ``src/``, resolves the
preset named by the workload with the sweep seed replaced, prints
``ready`` (the parent times set-up up to that line), then runs the sweep
through ``ehrelay.cli.run_sweep``/``write_csv`` with ``workers=2``.

* ``--trace 0``: repeated untraced sweeps, one at a time, while the next
  one still fits in ``--seconds`` (at least one).  A preset in
  ``SERIAL_PRESETS`` is swept one SNR after another, each part timed on
  its own, and each sweep is pinned to the next CPU in turn; the joined
  rows are checked as one sweep.
* ``--trace 1``: one untraced sweep, then one traced sweep of the same
  spec; spans go to a gzipped CSV beside ``--out``.

Every sweep's CSV is checked against ``results/<preset>.csv``.  The
result JSON holds the wall times, the check outcome per sweep and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import csvcheck
import spantrace

WORKERS = 2
# Presets whose sweep runs on one thread for many seconds.  They are
# timed one SNR at a time, each sweep on the next CPU in turn, so that the
# fastest time of each part is one that other tenants' load on a CPU did
# not slow (see README.md, "Steadiness and bounds").
SERIAL_PRESETS = frozenset({"fig-success-count"})
REFERENCE_SEED = 1
ROOT = Path(__file__).resolve().parent.parent


def load_cli(root: Path = ROOT):
    """Import ``ehrelay.cli`` from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "ehrelay" / "cli.py").is_file():
        raise FileNotFoundError(f"no ehrelay sources under {src}")
    sys.path.insert(0, str(src))
    import ehrelay.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "ehrelay").resolve():
        raise ImportError(f"ehrelay imported from {cli.__file__}, not from {src}")
    return cli


def _csv_text(cli, rows) -> str:
    buf = io.StringIO(newline="")
    cli.write_csv(rows, buf)
    return buf.getvalue()


def _points(spec):
    """Single-point specs in the order ``run_sweep`` emits them."""
    for snr in spec.snr_db:
        for pairs in spec.pairs:
            for strategy in spec.strategies:
                yield dataclasses.replace(spec, snr_db=(snr,), pairs=(pairs,), strategies=(strategy,))


def sweep_rows(cli, spec) -> tuple[list[dict], list[str]]:
    """Rows of ``run_sweep`` and errors.

    If the whole sweep raises, every point is run on its own so one
    failing point (exit code 2 or 3 in the CLI) does not hide the others;
    a failed point contributes no rows, and the check counts it missing.
    """
    try:
        return cli.run_sweep(spec, workers=WORKERS), []
    except Exception:
        errors = [traceback.format_exc()]
    rows = []
    for point in _points(spec):
        try:
            rows.extend(cli.run_sweep(point, workers=WORKERS))
        except Exception:
            errors.append(f"{point.snr_db}, {point.pairs}, {point.strategies}:\n{traceback.format_exc()}")
    return rows, errors


def sweep(cli, spec) -> tuple[bytes, float, list[str]]:
    """CSV bytes, wall seconds from sweep start to bytes, and errors."""
    start = time.perf_counter()
    rows, errors = sweep_rows(cli, spec)
    data = _csv_text(cli, rows).encode()
    return data, time.perf_counter() - start, errors


def checked(data: bytes, ref: bytes, seed: int) -> dict:
    attempted, failed = csvcheck.check_csv(data.decode(), ref.decode(), seed, REFERENCE_SEED)
    return {
        "attempted": attempted,
        "failed": len(failed),
        "failures": [{"point": list(k), "reason": v} for k, v in sorted(failed.items(), key=str)][:20],
    }


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def timed_parts(spec, serial: bool) -> list:
    """The parts a sweep is timed in: the whole spec, or one per SNR.

    ``run_sweep`` emits rows SNR by SNR, so the parts' rows, joined in
    order, are the whole sweep's rows.
    """
    if not serial:
        return [spec]
    return [dataclasses.replace(spec, snr_db=(snr,)) for snr in spec.snr_db]


def run_untraced(cli, spec, ref: bytes, seconds: float, serial: bool) -> dict:
    """Sweeps one after another while the next one fits in ``seconds``.

    Each sweep runs its parts back to back and then writes the CSV;
    ``splits`` holds, per sweep, the seconds of each part and of the
    CSV writing, in that order.
    """
    parts = timed_parts(spec, serial)
    cpus = sorted(os.sched_getaffinity(0))
    splits, checks, errors = [], [], []
    start = time.perf_counter()
    while True:
        if serial:
            os.sched_setaffinity(0, {cpus[len(splits) % len(cpus)]})
        rows, split = [], []
        for part in parts:
            t0 = time.perf_counter()
            part_rows, errs = sweep_rows(cli, part)
            split.append(time.perf_counter() - t0)
            rows.extend(part_rows)
            errors.extend(errs)
        t0 = time.perf_counter()
        data = _csv_text(cli, rows).encode()
        split.append(time.perf_counter() - t0)
        splits.append(split)
        checks.append(checked(data, ref, spec.seed))
        if time.perf_counter() - start + statistics.median(map(sum, splits)) > seconds:
            break
    os.sched_setaffinity(0, cpus)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "walls": [sum(split) for split in splits],
        "splits": splits,
        "checks": checks,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
    }


def run_traced(cli, spec, ref: bytes, spans_path: Path | None = None) -> dict:
    """One untraced and one traced sweep; per-layer metrics from the latter."""
    cpu0 = _cpu_s()
    plain, wall, errors = sweep(cli, spec)
    cpu = _cpu_s() - cpu0
    tracer = spantrace.Tracer()
    tracer.install()
    try:
        traced, traced_wall, traced_errors = sweep(cli, spec)
    finally:
        tracer.uninstall()
    metrics = spantrace.layer_metrics(tracer, rows=traced.count(b"\n") - 1)
    metrics["process.cpu_s"] = (cpu, "s")
    metrics["trace.overhead_s"] = (traced_wall - wall, "s")
    checks = [checked(plain, ref, spec.seed), checked(traced, ref, spec.seed)]
    if traced != plain:
        checks[1]["failed"] = checks[1]["attempted"]
        checks[1]["failures"].insert(0, {"point": [], "reason": "traced CSV bytes differ from untraced"})
    if spans_path is not None:
        tracer.write_spans(spans_path)
    return {
        "walls": [wall],
        "traced_wall": traced_wall,
        "checks": checks,
        "errors": errors + traced_errors,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "warnings": tracer.warnings,
        "spans": len(tracer.spans),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="one benchmark workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    cli = load_cli()
    spec = dataclasses.replace(cli.PRESETS[args.workload], seed=args.seed)
    print("ready", flush=True)

    ref = (ROOT / "results" / f"{args.workload}.csv").read_bytes()
    if args.trace:
        result = run_traced(cli, spec, ref, args.out.with_suffix(".spans.csv.gz"))
    else:
        result = run_untraced(cli, spec, ref, args.seconds, args.workload in SERIAL_PRESETS)
    result["versions"] = {"numpy": sys.modules["numpy"].__version__, "scipy": sys.modules["scipy"].__version__}
    args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
