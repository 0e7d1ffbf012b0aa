"""Check a sweep CSV against the committed reference for its preset.

A sweep point is one (snr_db, pairs, strategy); it passes when its rows
match the reference point's rows:

* at the reference seed, byte for byte;
* at another seed, rows whose method does not depend on the seed
  (``exact``, ``asymptotic*``, ``bound-*``) match byte for byte apart
  from the ``seed`` column, which must hold the run's seed;
* ``mc`` rows agree within 5 combined standard errors, plus 1/trials
  where either standard error is zero, with every other column equal.

Points missing from the output, points the reference lacks, and points
with the wrong rows all fail; one failing point never hides another.
"""

from __future__ import annotations

import math

COLUMNS = ("snr_db", "pairs", "strategy", "metric", "method", "value", "stderr", "trials", "seed")
SIGMAS = 5.0


def split_points(text: str) -> tuple[str, dict[tuple, list[tuple[str, dict]]]]:
    """Header line and ``point -> [(raw line, row)]`` in file order.

    ``write_csv`` joins fields with bare commas and no field contains one,
    so a line splits on commas."""
    lines = text.splitlines()
    header = lines[0] if lines else ""
    points: dict[tuple, list[tuple[str, dict]]] = {}
    for line in lines[1:]:
        fields = line.split(",")
        row = dict(zip(COLUMNS, fields)) if len(fields) == len(COLUMNS) else {}
        key = (row.get("snr_db"), row.get("pairs"), row.get("strategy"))
        points.setdefault(key, []).append((line, row))
    return header, points


def _mc_agrees(row: dict, ref: dict) -> bool:
    try:
        value, se, trials = float(row["value"]), float(row["stderr"]), int(row["trials"])
        ref_value, ref_se = float(ref["value"]), float(ref["stderr"])
    except ValueError:
        return False
    if not all(math.isfinite(x) for x in (value, se, ref_value, ref_se)) or trials < 1:
        return False
    tol = SIGMAS * math.hypot(se, ref_se)
    if se == 0.0 or ref_se == 0.0:
        tol += 1.0 / trials
    return abs(value - ref_value) <= tol


def _row_ok(line: str, row: dict, ref_line: str, ref: dict, seed: int, ref_seed: int) -> bool:
    if seed == ref_seed:
        return line == ref_line
    if not row or row["seed"] != str(seed):
        return False
    if row["method"] != "mc":
        return all(row[c] == ref[c] for c in COLUMNS if c != "seed")
    same = ("snr_db", "pairs", "strategy", "metric", "method", "trials")
    return all(row[c] == ref[c] for c in same) and _mc_agrees(row, ref)


def check_csv(text: str, ref_text: str, seed: int, ref_seed: int) -> tuple[int, dict[tuple, str]]:
    """Number of points attempted (those of either file) and the failing
    ones with a reason."""
    header, got = split_points(text)
    ref_header, ref = split_points(ref_text)
    keys = ref.keys() | got.keys()
    failed: dict[tuple, str] = {}
    for key in keys:
        if header != ref_header:
            failed[key] = "header differs"
        elif key not in got:
            failed[key] = "missing from output"
        elif key not in ref:
            failed[key] = "not in reference"
        elif len(got[key]) != len(ref[key]):
            failed[key] = f"{len(got[key])} rows, reference has {len(ref[key])}"
        else:
            for (line, row), (ref_line, ref_row) in zip(got[key], ref[key]):
                if not _row_ok(line, row, ref_line, ref_row, seed, ref_seed):
                    failed[key] = f"row differs: {line!r} vs reference {ref_line!r}"
                    break
    if seed == ref_seed and not failed and text != ref_text:
        failed = dict.fromkeys(keys, "file bytes differ outside the rows (order or line ends)")
    return len(keys), failed
