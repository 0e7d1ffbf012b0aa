"""The committed reference CSVs in results/ still come out of the presets.

Each preset is narrowed to a few SNR points and run with its own trials
and seed; the rows must equal those points' rows of
``results/<preset>.csv`` byte for byte.  One case keeps two SNRs, so the
engine's sharing of each block's draws across the SNRs of a sweep group
is checked against the committed rows too.
``scripts/reproduce_figures.py`` regenerates the files.

The committed numbers must also agree with the analysis they illustrate:
each Monte Carlo row with its closed form and bounds, and water-filling's
served count with every other strategy's.
"""

import csv
import dataclasses
import io
from pathlib import Path

import pytest

from ehrelay.cli import PRESETS, run_sweep, write_csv

RESULTS = Path(__file__).resolve().parent.parent / "results"


@pytest.mark.parametrize(
    "name, snr_db",
    [
        ("fig-individual-vs-equal", 30.0),
        ("fig-wf-bounds", 30.0),
        pytest.param("fig-wf-bounds", (25.0, 30.0), id="fig-wf-bounds-25.0-30.0"),
        ("fig-success-count", 10.0),
        ("fig-success-count", 25.0),
    ],
)
def test_preset_point_matches_committed_csv(name, snr_db):
    assert set(PRESETS) == {"fig-individual-vs-equal", "fig-wf-bounds", "fig-success-count"}
    snr_db = snr_db if isinstance(snr_db, tuple) else (snr_db,)
    buf = io.StringIO(newline="")
    write_csv(run_sweep(dataclasses.replace(PRESETS[name], snr_db=snr_db), workers=2), buf)
    header, *rows = (RESULTS / f"{name}.csv").read_bytes().decode().splitlines(keepends=True)
    snrs = {repr(s) for s in snr_db}
    want = header + "".join(r for r in rows if r.split(",", 1)[0] in snrs)
    assert len(want) > len(header)
    assert buf.getvalue() == want


def _rows(name):
    """Rows of ``results/<name>.csv`` keyed by (snr_db, pairs, strategy, metric, method)."""
    with open(RESULTS / f"{name}.csv", newline="") as f:
        return {tuple(r[k] for k in ("snr_db", "pairs", "strategy", "metric", "method")): r
                for r in csv.DictReader(f)}


# (method of an analytic row, the side of it the Monte Carlo must lie on: +1
# at or above, -1 at or below, 0 either)
_ANALYTIC_SIDES = {"exact": 0, "bound-lower": 1, "bound-upper-integral": -1, "bound-upper-closed": -1}


@pytest.mark.parametrize("name", ["fig-individual-vs-equal", "fig-wf-bounds"])
def test_committed_monte_carlo_agrees_with_the_analysis(name):
    # within 4 stderr of the closed form (the largest |z| committed is 3.33,
    # at 30 dB for individual average); on the far side of a bound by at most
    # as much.  An estimate of 0 or 1 has no stderr: the analytic value must
    # then lie within 5 / trials of it.
    rows = _rows(name)
    checked = 0
    for key, mc in rows.items():
        if key[4] != "mc":
            continue
        value, stderr, trials = float(mc["value"]), float(mc["stderr"]), int(mc["trials"])
        for method, side in _ANALYTIC_SIDES.items():
            analytic = rows.get(key[:4] + (method,))
            if analytic is None:
                continue
            gap = value - float(analytic["value"])
            slack = 4.0 * stderr if stderr > 0.0 else 5.0 / trials
            if side >= 0:
                assert gap >= -slack, (key, method)
            if side <= 0:
                assert gap <= slack, (key, method)
            checked += 1
    assert checked > 0


def test_committed_waterfill_serves_at_least_every_other_strategy():
    # water-filling serves the most pairs the budget allows on every draw,
    # so its mean served count is at least each other strategy's
    rows = _rows("fig-success-count")
    points = {key[:2] for key in rows}
    assert len(points) == len(PRESETS["fig-success-count"].snr_db)
    for snr, pairs in points:
        success = {s: float(rows[snr, pairs, s, "success", "mc"]["value"])
                   for s in PRESETS["fig-success-count"].strategies}
        assert all(success["waterfill"] >= v for v in success.values()), (snr, success)
