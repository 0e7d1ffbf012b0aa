"""scripts/compare_trees.py: byte comparison of sweeps between two checkouts."""

import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from oracles import load_script

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_trees.py"


def _compare(other: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(other), "--quick"],
        capture_output=True, text=True, timeout=300,
    )


def test_tree_matches_itself():
    run = _compare(ROOT)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.count("identical") == 3


def test_changed_draws_are_reported(tmp_path):
    # a copy that keys each block's substream off another seed draws other channels
    shutil.copytree(ROOT / "src" / "ehrelay", tmp_path / "src" / "ehrelay")
    model = tmp_path / "src" / "ehrelay" / "model.py"
    text = model.read_text()
    assert text.count("SeedSequence((seed, block_index))") == 1
    model.write_text(text.replace("SeedSequence((seed, block_index))", "SeedSequence((seed + 1, block_index))"))
    run = _compare(tmp_path)
    assert run.returncode == 1, run.stdout + run.stderr
    assert run.stdout.count("first difference at row") == 3
    # other draws move Monte Carlo rows only; every analytic row stays identical
    summaries = [line for line in run.stdout.splitlines() if "differing rows by (metric, method): " in line]
    assert len(summaries) == 3
    for line in summaries:
        for entry in line.split(": ", 1)[1].split(", "):
            key, n = entry.split()
            assert key.endswith(",mc") and int(n) > 0
    assert run.stdout.count("  largest relative change: value ") == 3


def test_differences_count_rows_by_metric_and_method():
    header = "snr_db,pairs,strategy,metric,method,value,stderr,trials,seed"
    here = [
        header,
        "0.0,2,equal,average,mc,0.5,0.01,100,1",
        "0.0,2,equal,average,exact,0.25,,,1",
        "0.0,2,equal,best,mc,0.2,0.004,100,1",
        "5.0,2,equal,average,mc,0.4,0.02,100,1",
    ]
    other = [
        header,
        "0.0,2,equal,average,mc,0.5,0.01,100,1",
        "0.0,2,equal,average,exact,0.2,,,1",
        "0.0,2,equal,best,mc,0.2,0.005,100,1",
        "5.0,2,equal,average,mc,0.5,0.02,100,1",
    ]
    counts, largest = load_script("compare_trees").differences(here, other)
    assert counts == Counter({("average", "exact"): 1, ("best", "mc"): 1, ("average", "mc"): 1})
    assert largest == pytest.approx({"value": 0.25, "stderr": 0.2}, rel=1e-12)
