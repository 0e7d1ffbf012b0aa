"""The committed reference CSVs in results/ still come out of the presets.

Each preset is narrowed to a few SNR points and run with its own trials
and seed; the rows must equal those points' rows of
``results/<preset>.csv`` byte for byte.  One case keeps two SNRs, so the
engine's sharing of each block's draws across the SNRs of a sweep group
is checked against the committed rows too.
``scripts/reproduce_figures.py`` regenerates the files.
"""

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
