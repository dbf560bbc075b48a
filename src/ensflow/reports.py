"""A run directory: each report file's name, row type, header and parser; :func:`write_run` and :func:`read_run`.

``metrics.csv`` holds ``MetricsRecord``s, ``wisdom.csv`` ``WisdomRow``s, ``timing.csv`` (catchment, stage, seconds)
per stage entered, ``failures.csv`` ``CatchmentFailure``s (there only when a catchment was skipped), ``rankings.csv``
each scheme's rank per (catchment, level), and ``summary.json`` the score statistics, the average ranks, each
calibration, the failure count and the ``kernels`` that ran.  The ranks and statistics follow from ``metrics.csv``,
and :func:`read_run` refuses files that disagree: a directory ``write_run`` wrote reads back equal to its result.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from pathlib import Path
from typing import NamedTuple

from .evaluate import MetricsRecord, WisdomRecord, rank_schemes, summarize
from .timeseries import read_csv, write_csv

METRICS, WISDOM, TIMING, FAILURES = "metrics.csv", "wisdom.csv", "timing.csv", "failures.csv"
RANKINGS, SUMMARY = "rankings.csv", "summary.json"
TIMING_HEADER, RANKING_HEADER = ("catchment", "scheme", "seconds"), ("catchment", "alpha", "scheme", "rank")
KERNEL_KEYS = ("gr2m_loop", "sampler", "scoring")  # summary.json: the path that ran the loop, sampler, scoring


class CatchmentFailure(NamedTuple):
    """A skipped catchment: a ``failures.csv`` row, the header its first three fields, and its stage timing."""

    catchment: str
    stage: str
    message: str
    timing: tuple[tuple[str, float], ...] = ()  # every stage entered, the failing one timed up to its raise


WisdomRow = namedtuple("WisdomRow", ("catchment", "scheme", *WisdomRecord._fields))  # what a worker sends of a level


class CalibrationRecord(NamedTuple):
    """Calibration outcome of one calibrated catchment; psrf is inf when every attempt's chains were degenerate."""

    psrf: float
    converged: bool
    restarts: int
    seconds: float  # the catchment's ``calibrate`` stage


class ExperimentResult(NamedTuple):
    records: list[MetricsRecord]
    wisdom: list[WisdomRow]
    failures: list[CatchmentFailure]
    calibration: dict[str, CalibrationRecord]
    timing: list[tuple[str, str, float]]  # (catchment, stage, seconds) for every stage entered, in run order
    kernels: dict[str, str]  # KERNEL_KEYS -> "compiled" or "python"

    @property
    def exit_code(self) -> int:
        return 0 if self.records else 2


def _rankings(records: list[MetricsRecord]) -> tuple[list[tuple], list[dict]]:
    """Competition ranks per (catchment, level) across the schemes present, and each scheme's average per level."""
    schemes = sorted({r.scheme for r in records})
    scores = {(r.catchment, r.scheme, r.alpha): r.score for r in records}
    rows, averages = [], []
    for alpha in sorted({r.alpha for r in records}):
        complete = [c for c in sorted({r.catchment for r in records}) if all((c, s, alpha) in scores for s in schemes)]
        if complete:
            ranks, average = rank_schemes([[scores[c, s, alpha] for s in schemes] for c in complete])
            rows += [(c, alpha, s, ranks[i, j]) for i, c in enumerate(complete) for j, s in enumerate(schemes)]
            averages += [{"alpha": alpha, "scheme": s, "rank": float(average[j])} for j, s in enumerate(schemes)]
    return rows, averages


def _summary(result: ExperimentResult, average_ranks: list[dict]) -> dict:
    return {
        "schemes": summarize(result.records),
        "average_ranks": average_ranks,
        # strict JSON has no NaN or Infinity: the PSRF of degenerate chains is null
        "calibration": {cid: {**cal._asdict(), "psrf": cal.psrf if math.isfinite(cal.psrf) else None}
                        for cid, cal in result.calibration.items()},
        "failures": len(result.failures),
        **result.kernels,
    }


def write_run(result: ExperimentResult, out_dir: str | Path) -> None:
    """Write every report file of ``result`` into ``out_dir``, made if need be; a non-finite summary value (a NaN
    calibration time, say) raises ``ValueError`` before any file is written."""
    out = Path(out_dir)
    rankings, average_ranks = _rankings(result.records)
    summary = json.dumps(_summary(result, average_ranks), indent=2, sort_keys=True, allow_nan=False) + "\n"
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / METRICS, MetricsRecord._fields, result.records)
    (out / SUMMARY).write_text(summary)
    write_csv(out / RANKINGS, RANKING_HEADER, rankings)
    write_csv(out / WISDOM, WisdomRow._fields, result.wisdom)
    write_csv(out / TIMING, TIMING_HEADER, result.timing)
    if result.failures:
        write_csv(out / FAILURES, CatchmentFailure._fields[:3], (failure[:3] for failure in result.failures))
    else:  # an earlier run's file would contradict summary.json's "failures": 0
        (out / FAILURES).unlink(missing_ok=True)


def read_run(out_dir: str | Path) -> ExperimentResult:
    """The result whose report files ``out_dir`` holds.  A missing file raises ``OSError``; a bad header or row, a
    non-finite or repeated ``metrics.csv`` cell, a ``summary.json`` that is not strict JSON or lacks a key, and
    files that disagree raise ``ValueError`` naming the file (a row by ``file:line``)."""
    out, cells = Path(out_dir), set()

    def metrics_row(row: list[str]) -> MetricsRecord:
        numbers = [float(row[i]) for i in (2, 3, 4, 5, 7)]
        if not all(map(math.isfinite, numbers)):
            raise ValueError(f"non-finite number in {','.join(row)}")
        if (cell := (row[0], row[1], numbers[0])) in cells:
            raise ValueError(f"repeated (catchment, scheme, alpha) cell {','.join(row[:3])}")
        cells.add(cell)
        return MetricsRecord(*cell, *numbers[1:4], int(row[6]), numbers[4])

    def wisdom_row(row: list[str]) -> WisdomRow:  # an empty ri_* cell is None
        return WisdomRow(*row[:2], *(None if cell == "" else float(cell) for cell in row[2:-2]), *map(int, row[-2:]))

    def strict(constant: str):
        raise ValueError(f"{constant} is not strict JSON")

    records = list(read_csv(out / METRICS, MetricsRecord._fields, metrics_row))
    wisdom = list(read_csv(out / WISDOM, WisdomRow._fields, wisdom_row))
    timing = list(read_csv(out / TIMING, TIMING_HEADER, lambda row: (row[0], row[1], float(row[2]))))
    failures = []
    if (out / FAILURES).exists():  # a skipped catchment's timing.csv rows are its failure's timing
        parse = lambda row: CatchmentFailure(*row, tuple((stage, s) for c, stage, s in timing if c == row[0]))
        failures = list(read_csv(out / FAILURES, CatchmentFailure._fields[:3], parse))
    rankings, average_ranks = _rankings(records)
    if list(read_csv(out / RANKINGS, RANKING_HEADER, list)) != [list(map(str, row)) for row in rankings]:
        raise ValueError(f"{out / RANKINGS}: not the ranks of {out / METRICS}")
    path = out / SUMMARY
    try:
        doc = json.loads(path.read_text(), parse_constant=strict)
        calibration = {cid: CalibrationRecord(**{**cal, "psrf": math.inf if cal["psrf"] is None else cal["psrf"]})
                       for cid, cal in doc["calibration"].items()}
        result = ExperimentResult(records, wisdom, failures, calibration, timing, {k: doc[k] for k in KERNEL_KEYS})
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: not a run summary: {type(exc).__name__}: {exc}") from None
    if (expected := _summary(result, average_ranks)) != doc:
        wrong = sorted(key for key in expected.keys() | doc.keys() if expected.get(key) != doc.get(key))
        raise ValueError(f"{path}: {', '.join(wrong)} not what the other files give")
    return result
