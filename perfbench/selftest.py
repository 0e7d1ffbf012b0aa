"""Fast self-test of the benchmark itself, on two tiny sweeps.

Usage, from the root of a checkout (about ten seconds on 2 cores)::

    python3 perfbench/selftest.py

It checks that

* every metric declared in ``BENCHMARK.json`` is emitted with its unit,
  and nothing else;
* a CSV with one changed digit fails its sweep point, so the passed
  fraction drops below 1 (at the reference seed and at another seed);
* at another seed the seed-independent rows and the Monte Carlo rows
  within tolerance pass;
* a sweep run one SNR at a time writes the same CSV bytes as a whole
  sweep;
* the traced sweep writes the same CSV bytes as the untraced one;
* two traced sweeps give identical call and iteration counts;
* a sweep point that raises fails alone, without aborting the others.

Exit code 0 when every check passes, 1 otherwise.  Timings are never
checked: they are the benchmark's job, not the test's.
"""

from __future__ import annotations

import dataclasses
import json
import re

import csvcheck
import run
import workload

FAILURES: list[str] = []

# exact counts that must repeat from one traced sweep to the next
COUNT_SUFFIXES = (".calls", ".iterations", ".trials", ".rows", ".warnings", ".mb")


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def declared(kind: str) -> dict[str, str]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def emitted(metrics: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in metrics.items()}


def mutate_digit(text: str, method: str) -> str:
    """``text`` with the last digit of the first ``method`` row's value changed."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) == len(csvcheck.COLUMNS) and fields[4] == method:
            value = fields[5]
            digit = re.search(r"\d(?=\D*$)", value)
            pos = digit.start()
            fields[5] = value[:pos] + str((int(value[pos]) + 1) % 10) + value[pos + 1:]
            lines[i] = ",".join(fields)
            return "".join(lines)
    raise ValueError(f"no {method} row")


def check_sweep(cli, name: str, spec, mutate_methods: tuple[str, ...]) -> None:
    ref, _, errors = workload.sweep(cli, spec)
    expect(not errors, f"{name}: reference sweep runs")

    untraced = workload.run_untraced(cli, spec, ref, seconds=0.0, serial=True)
    e2e = run.end_to_end_metrics(untraced, setups=[0.5])
    expect(emitted(e2e) == declared("end_to_end"), f"{name}: end-to-end metrics and units match BENCHMARK.json")
    expect(e2e["passed_frac"]["value"] == 1.0, f"{name}: the sweep run one SNR at a time passes its own check")

    first = workload.run_traced(cli, spec, ref)
    second = workload.run_traced(cli, spec, ref)
    expect(emitted(first["per_layer"]) == declared("per_layer"), f"{name}: per-layer metrics and units match BENCHMARK.json")
    expect(all(c["failed"] == 0 for c in first["checks"]), f"{name}: traced CSV bytes equal the untraced ones")
    counts = [k for k in first["per_layer"] if k.endswith(COUNT_SUFFIXES)]
    diff = [k for k in counts if first["per_layer"][k]["value"] != second["per_layer"][k]["value"]]
    expect(not diff, f"{name}: {len(counts)} counts repeat across two traced sweeps {diff or ''}")

    text = ref.decode()
    for method in mutate_methods:
        attempted, failed = csvcheck.check_csv(mutate_digit(text, method), text, spec.seed, workload.REFERENCE_SEED)
        expect(len(failed) == 1 and attempted > 1, f"{name}: one changed digit in a {method} row fails exactly its point")
        broken = dict(untraced, checks=[{"attempted": attempted, "failed": len(failed)}])
        expect(run.end_to_end_metrics(broken, [0.5])["passed_frac"]["value"] < 1.0,
               f"{name}: ... and drops passed_frac below 1")

    other = dataclasses.replace(spec, seed=spec.seed + 1)
    data, _, _ = workload.sweep(cli, other)
    attempted, failed = csvcheck.check_csv(data.decode(), text, other.seed, workload.REFERENCE_SEED)
    expect(not failed, f"{name}: seed {other.seed} agrees with seed {spec.seed} ({attempted} points) {failed or ''}")
    non_mc = [m for m in mutate_methods if m != "mc"]
    if non_mc:
        attempted, failed = csvcheck.check_csv(mutate_digit(data.decode(), non_mc[0]), text, other.seed,
                                               workload.REFERENCE_SEED)
        expect(len(failed) == 1, f"{name}: at seed {other.seed} a changed {non_mc[0]} row still fails")


def check_isolation(cli, spec) -> None:
    ref, _, _ = workload.sweep(cli, spec)
    original = cli.outage_equal

    def broken(config):
        if config.pairs == 3:
            raise RuntimeError("injected failure")
        return original(config)

    cli.outage_equal = broken
    try:
        data, _, errors = workload.sweep(cli, spec)
    finally:
        cli.outage_equal = original
    attempted, failed = csvcheck.check_csv(data.decode(), ref.decode(), spec.seed, workload.REFERENCE_SEED)
    want = {k for k in failed if k[1] == "3" and k[2] == "equal"}
    expect(bool(errors) and set(failed) == want and len(want) == len(spec.snr_db),
           f"a raising point fails alone ({len(failed)} of {attempted} points failed)")


def main() -> int:
    cli = workload.load_cli()
    closed_forms = cli.SweepSpec(
        pairs=(2, 3), rate=2.0, snr_db=(10.0, 30.0), strategies=("individual", "equal", "waterfill"),
        metrics=("average", "best", "worst"), trials=40_000, seed=1, mode="all",
    )
    auction = cli.SweepSpec(
        pairs=(6,), rate=0.5, snr_db=(20.0,), strategies=cli.STRATEGY_NAMES, metrics=("success",),
        trials=100, seed=1, mode="mc", h_variance=2.0**-4, g_variance=2.0**-4,
    )
    check_sweep(cli, "closed-forms", closed_forms, ("mc", "exact", "bound-lower"))
    check_sweep(cli, "auction", auction, ("mc",))
    check_isolation(cli, closed_forms)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
