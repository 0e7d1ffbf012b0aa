"""Preset-sweep benchmark for ehrelay.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig-success-count --seed 1 \\
        --seconds 60 --trace 0

Each workload is one figure preset of ``ehrelay.cli.PRESETS`` run through
the public ``run_sweep``/``write_csv`` API in a fresh process with
``workers=2`` (see ``workload.py``), one sweep at a time; ``--seed``
replaces the preset's sweep seed (the presets use 1).  Every CSV is
checked against ``results/<preset>.csv`` (see ``csvcheck.py``).

Set-up is timed separately: several fresh interpreters are started one
after another, each importing ``ehrelay.cli`` and resolving the preset;
``setup_s`` is the median of those and of the workload process's own
start.  ``wall_s`` adds up, over the parts a sweep is timed in (the
whole sweep, or each SNR of it, then the CSV writing), the fastest time
of that part in the run: on a shared host other tenants only ever slow
a part down, so the fastest is the closest to the program's own cost
and varies least from run to run.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (sweep points) and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of one
traced sweep with ``--trace 1``.  The line before it records the
environment.  Full results (and, when traced, the spans) are written
under ``perfbench/out/``.

Exit code 2, with no result printed, when the checkout lacks the
program or its reference CSVs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import WORKERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("fig-individual-vs-equal", "fig-wf-bounds", "fig-success-count")
SETUP_PROBES = 4
DEADLINE_S = 170.0

_PROBE = """\
import dataclasses, sys
sys.path.insert(0, sys.argv[1])
import ehrelay.cli
dataclasses.replace(ehrelay.cli.PRESETS[sys.argv[2]], seed=int(sys.argv[3]))
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, trace: int) -> dict:
    """Where and how the run was made; numpy/scipy versions come from the
    workload process, which imports them."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "workers": WORKERS,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "loadavg_start": _loadavg(),
    }


def _await_ready(proc: subprocess.Popen, start: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        raise RuntimeError(f"set-up failed: expected 'ready', got {line!r}")
    return time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting an interpreter to the preset resolved."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _PROBE, str(ROOT / "src"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    ) as proc:
        elapsed = _await_ready(proc, start)
        if proc.wait(timeout=30) != 0:
            raise RuntimeError("set-up probe failed")
    return elapsed


def run_workload(workload: str, seed: int, seconds: float, trace: int, out: Path,
                 deadline: float) -> tuple[float, dict]:
    """Start ``workload.py``; its set-up time and its result JSON."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    ) as proc:
        try:
            setup = _await_ready(proc, start)
            code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if code != 0:
        raise RuntimeError(f"workload process exited with {code}")
    return setup, json.loads(out.read_text())


def _points(result: dict) -> tuple[int, int]:
    """Sweep points attempted and failed over every sweep of the run."""
    return sum(c["attempted"] for c in result["checks"]), sum(c["failed"] for c in result["checks"])


def end_to_end_metrics(result: dict, setups: list[float]) -> dict:
    attempted, failed = _points(result)
    return {
        "wall_s": {"value": sum(map(min, zip(*result["splits"]))), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "passed_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
    }


def summary(result: dict, metrics: dict) -> dict:
    attempted, failed = _points(result)
    return {
        "correct": failed == 0 and not result["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the sweep seed must be >= 0")
    return seed


def main() -> int:
    parser = argparse.ArgumentParser(description="ehrelay preset-sweep benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=_seed, default=1, help="sweep seed (the presets use 1)")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    missing = [p for p in ("src/ehrelay/cli.py", f"results/{args.workload}.csv") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed, args.trace)
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    setup, result = run_workload(args.workload, args.seed, args.seconds, args.trace, out, deadline)
    setups.append(setup)

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = end_to_end_metrics(result, setups)
    env.update(result.pop("versions"))
    env["loadavg_end"] = _loadavg()
    env["setup_samples_s"] = setups
    env["wall_samples_s"] = result["walls"]
    result["environment"] = env
    result["metrics"] = metrics
    out.write_text(json.dumps(result, indent=1))

    for err in result["errors"]:
        print(err, file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(summary(result, metrics)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
