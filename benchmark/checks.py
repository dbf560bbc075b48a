"""Correctness checks on a run's report files, with the standard library only.

Three kinds of check:

* strict parsing: every CSV has its expected header, one field per column and
  a value of the column's type in every cell (no ``nan`` or ``inf``); every
  JSON file parses with ``NaN``/``Infinity`` rejected;
* invariants that hold on any seed: no catchment failed, every (catchment,
  scheme, level) cell is present, coverage lies in [0, 1], and the crowd
  comparison's relative difference is >= -1e-12 (convexity of the interval
  score, acceptance criterion 01);
* drift: the largest relative difference between the non-timing values of
  ``metrics.csv``/``wisdom.csv`` and a reference copy.  Identical outputs
  give exactly 0.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

# outputs compared by drift; timing columns are left out
DRIFT_FILES = ("metrics.csv", "wisdom.csv")
TIMING_COLUMNS = ("seconds",)
DRIFT_TOLERANCE = 1e-9
RD_FLOOR = -1e-12
# central-interval levels scored per scheme (ensflow.evaluate.INTERVAL_ALPHAS)
N_LEVELS = 5

# column kinds: s = text, f = finite float, f? = finite float or empty, i = integer
SCHEMAS = {
    "metrics.csv": {
        "catchment": "s",
        "scheme": "s",
        "alpha": "f",
        "coverage": "f",
        "width": "f",
        "score": "f",
        "crossings": "i",
        "seconds": "f",
    },
    "wisdom.csv": {
        "catchment": "s",
        "scheme": "s",
        "alpha": "f",
        "ais_out": "f",
        "aais_in": "f",
        "relative_difference": "f",
        "ri_min": "f?",
        "ri_median": "f?",
        "ri_max": "f?",
        "n_members": "i",
        "n_excluded": "i",
    },
    "rankings.csv": {"catchment": "s", "alpha": "f", "scheme": "s", "rank": "i"},
    "timing.csv": {"catchment": "s", "scheme": "s", "seconds": "f"},
}

_FLOAT = re.compile(r"-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
_INT = re.compile(r"-?\d+")


class CheckError(ValueError):
    """An output file breaks a check; the message names the file and the cell."""


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def load_json_strict(path: Path):
    try:
        return json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckError(f"{path.name}: {exc}") from exc


def _parse_cell(kind: str, text: str, where: str):
    if kind == "s":
        return text
    if kind == "f?" and text == "":
        return None
    if kind == "i":
        if not _INT.fullmatch(text):
            raise CheckError(f"{where}: expected an integer, got {text!r}")
        return int(text)
    if not _FLOAT.fullmatch(text):
        raise CheckError(f"{where}: expected a finite number, got {text!r}")
    return float(text)


def read_csv_strict(path: Path) -> list[dict]:
    """Rows of a known report CSV as dicts of typed cells."""
    schema = SCHEMAS[path.name]
    with open(path, newline="") as fh:
        reader = csv.reader(fh, strict=True)
        try:
            header = next(reader)
            rows = list(reader)
        except (csv.Error, StopIteration) as exc:
            raise CheckError(f"{path.name}: unreadable CSV: {exc!r}") from exc
    if tuple(header) != tuple(schema):
        raise CheckError(f"{path.name}: header {header} != {list(schema)}")
    out = []
    for number, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise CheckError(f"{path.name}:{number}: {len(row)} fields, expected {len(header)}")
        out.append(
            {
                name: _parse_cell(kind, text, f"{path.name}:{number}:{name}")
                for (name, kind), text in zip(schema.items(), row)
            }
        )
    return out


def check_outputs(out_dir: Path, catchments: list[str], schemes: tuple[str, ...]) -> None:
    """Strict parse plus seed-independent invariants; raises CheckError."""
    out_dir = Path(out_dir)
    if (out_dir / "failures.csv").exists():
        raise CheckError(f"failures.csv present: {(out_dir / 'failures.csv').read_text()!r}")
    tables = {name: read_csv_strict(out_dir / name) for name in SCHEMAS}
    summary = load_json_strict(out_dir / "summary.json")
    if summary.get("failures") != 0:
        raise CheckError(f"summary.json reports {summary.get('failures')!r} failures")

    numbered = [s for s in schemes if not s.startswith("basic-")]
    expected = {
        "metrics.csv": len(catchments) * len(schemes),
        "wisdom.csv": len(catchments) * len(numbered),
    }
    for name, cells in expected.items():
        rows = tables[name]
        if len(rows) != cells * N_LEVELS:
            raise CheckError(f"{name}: {len(rows)} rows, expected {cells * N_LEVELS}")
        seen = {(r["catchment"], r["scheme"]) for r in rows}
        wanted = {(c, s) for c in catchments for s in (schemes if name == "metrics.csv" else numbered)}
        if seen != wanted:
            raise CheckError(f"{name}: (catchment, scheme) cells {sorted(seen ^ wanted)} missing or extra")
    for r in tables["metrics.csv"]:
        if not 0.0 <= r["coverage"] <= 1.0 or r["crossings"] < 0:
            raise CheckError(f"metrics.csv: impossible row {r}")
    for r in tables["wisdom.csv"]:
        if r["relative_difference"] < RD_FLOOR:
            raise CheckError(
                f"wisdom.csv: relative_difference {r['relative_difference']!r} < {RD_FLOOR} at "
                f"{r['catchment']}/{r['scheme']}/{r['alpha']}"
            )


def _rows_without_timing(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh, strict=True))
    keep = [i for i, name in enumerate(rows[0]) if name not in TIMING_COLUMNS] if rows else []
    return [[row[i] for i in keep] for row in rows]


def strip_timing(src: Path, dst: Path) -> None:
    """Copy a report CSV without its timing columns (how references are stored)."""
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows(_rows_without_timing(src))


def _relative_difference(a: str, b: str) -> float:
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf  # text or empty cell changed
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def output_drift(out_dir: Path, reference_dir: Path) -> float:
    """Largest relative difference over every non-timing cell of DRIFT_FILES.

    A changed row count, header or text cell makes the drift infinite.
    """
    worst = 0.0
    for name in DRIFT_FILES:
        ours = _rows_without_timing(Path(out_dir) / name)
        theirs = _rows_without_timing(Path(reference_dir) / name)
        if len(ours) != len(theirs) or (ours and ours[0] != theirs[0]):
            return math.inf
        for row_a, row_b in zip(ours[1:], theirs[1:]):
            if len(row_a) != len(row_b):
                return math.inf
            for a, b in zip(row_a, row_b):
                worst = max(worst, _relative_difference(a, b))
    return worst
