"""scripts/compare_trees.py: byte comparison of sweeps between two checkouts."""

import shutil
import subprocess
import sys
from pathlib import Path

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
