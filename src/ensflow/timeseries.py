"""Catchment time series: daily ingestion, monthly aggregation, period splitting.

Daily records come in as one CSV per catchment with columns
``date,precip_mm,pet_mm,flow_mm`` (ISO dates, empty field = missing value).
Everything downstream of ingestion works on calendar-month totals in mm.
:func:`write_csv` and :func:`read_csv` hold the CSV format that this file and
every report file share.
"""

from __future__ import annotations

import calendar
import csv
import datetime as dt
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VARIABLES = ("precipitation", "potential_evaporation", "streamflow")

CSV_HEADER = ("date", "precip_mm", "pet_mm", "flow_mm")


@dataclass(frozen=True)
class DailyRecord:
    """One day of catchment forcing and response; ``None`` marks a missing value."""

    date: dt.date
    precipitation: float | None
    potential_evaporation: float | None
    streamflow: float | None


@dataclass(frozen=True)
class MonthlySeries:
    """Aligned monthly totals (mm/month) for one catchment.

    ``origin`` is the (year, month) of the first entry.  The constructor
    enforces alignment (equal lengths, a real calendar origin); value-level
    screening (negatives, non-finite entries) is the job of
    :func:`validate_series`, so that defective series can be represented,
    inspected and rejected with a report instead of dying on construction.
    """

    origin: tuple[int, int]
    precipitation: np.ndarray
    potential_evaporation: np.ndarray
    streamflow: np.ndarray

    def __post_init__(self) -> None:
        for name in VARIABLES:
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        lengths = {getattr(self, name).shape for name in VARIABLES}
        if lengths != {(self.n,)}:
            raise ValueError(f"variables must be 1-d and share one length, got {lengths}")
        if self.n < 1:
            raise ValueError("series must contain at least one month")
        year, month = self.origin
        if not 1 <= month <= 12:
            raise ValueError(f"origin month must be in 1..12, got {month}")
        if int(year) != year:
            raise ValueError(f"origin year must be integral, got {year}")

    @property
    def n(self) -> int:
        return int(np.asarray(self.precipitation).shape[0])


@dataclass(frozen=True)
class PeriodPartition:
    """Contiguous split of ``n_total`` months into warm-up and three periods.

    ``warmup`` months initialise model states and are never scored.  The next
    ``n1`` months calibrate the model, the following ``n2`` train error
    models, and the final ``n3`` months are held out for testing.
    """

    warmup: int
    n1: int
    n2: int
    n3: int

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        for name in ("n1", "n2", "n3"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def n_total(self) -> int:
        return self.warmup + self.n1 + self.n2 + self.n3

    # absolute slices into the full monthly series
    @property
    def t0(self) -> slice:
        return slice(0, self.warmup)

    @property
    def t1(self) -> slice:
        return slice(self.warmup, self.warmup + self.n1)

    @property
    def t2(self) -> slice:
        return slice(self.warmup + self.n1, self.warmup + self.n1 + self.n2)

    @property
    def t3(self) -> slice:
        return slice(self.warmup + self.n1 + self.n2, self.n_total)

    # slices into a simulated series that starts right after warm-up
    @property
    def sim_t1(self) -> slice:
        return slice(0, self.n1)

    @property
    def sim_t2(self) -> slice:
        return slice(self.n1, self.n1 + self.n2)

    @property
    def sim_t3(self) -> slice:
        return slice(self.n1 + self.n2, self.n1 + self.n2 + self.n3)

    def one_based(self) -> dict[str, tuple[int, int]]:
        """Inclusive 1-based month ranges, convenient for reports."""
        w, a, b = self.warmup, self.n1, self.n2
        return {
            "T0": (1, w) if w else (0, 0),
            "T1": (w + 1, w + a),
            "T2": (w + a + 1, w + a + b),
            "T3": (w + a + b + 1, self.n_total),
        }


def partition(n_total: int, warmup: int, n_calibration: int, n_training: int) -> PeriodPartition:
    """Split ``n_total`` months; the test period takes the remainder.

    Raises ``ValueError`` unless all four resulting periods tile
    ``1..n_total`` exactly with ``n1, n2, n3 >= 1`` and ``warmup >= 0``.
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if n_calibration < 1 or n_training < 1:
        raise ValueError("calibration and training periods need at least one month each")
    n3 = n_total - warmup - n_calibration - n_training
    if n3 < 1:
        raise ValueError(
            f"no test months left: n_total={n_total} minus warmup={warmup}, "
            f"calibration={n_calibration}, training={n_training} leaves {n3}"
        )
    return PeriodPartition(warmup, n_calibration, n_training, n3)


@dataclass(frozen=True)
class VariableReport:
    zeros: int
    negatives: int
    non_finite: int
    first_bad_index: int | None


@dataclass(frozen=True)
class SeriesReport:
    """Outcome of value-level screening; ``accepted`` iff nothing negative or non-finite."""

    variables: dict[str, VariableReport]
    accepted: bool


def validate_series(series: MonthlySeries) -> SeriesReport:
    """Screen a monthly series for unusable values.

    Zeros are legitimate (dry months) and only counted.  Negative or
    non-finite values make the series unusable; the report carries the first
    offending index per variable.
    """
    reports: dict[str, VariableReport] = {}
    accepted = True
    for name in VARIABLES:
        values = getattr(series, name)
        finite = np.isfinite(values)
        negative = finite & (values < 0.0)
        bad = negative | ~finite
        first_bad = int(np.argmax(bad)) if bad.any() else None
        reports[name] = VariableReport(
            zeros=int(np.count_nonzero(finite & (values == 0.0))),
            negatives=int(np.count_nonzero(negative)),
            non_finite=int(np.count_nonzero(~finite)),
            first_bad_index=first_bad,
        )
        if first_bad is not None:
            accepted = False
    return SeriesReport(variables=reports, accepted=accepted)


def write_csv(path: str | Path, header: tuple[str, ...], rows: Iterable[Sequence]) -> None:
    """Write ``header`` then ``rows``: the one CSV format of every ensflow file.

    A ``float`` cell (numpy ``float64`` included) is written as
    ``repr(float(v))``, so it reads back bit for bit, and ``None`` as an empty
    cell; any other cell is written as :mod:`csv` writes it.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, float) else "" if v is None else v for v in row] for row in rows
        )


def read_csv(path: str | Path, header: tuple[str, ...], parse: Callable[[list[str]], object]) -> Iterator:
    """Yield ``parse(row)`` for each row of a CSV written by :func:`write_csv`.

    Raises ``ValueError`` naming the path when the header is not ``header``,
    and naming ``path:line`` when a row has the wrong number of fields or
    ``parse`` raises ``ValueError`` on it.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = tuple(next(reader, ()))
        if found != header:
            raise ValueError(f"{path}: expected header {','.join(header)}, got {','.join(found)}")
        for line, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}:{line}: expected {len(header)} fields, got {len(row)}")
            try:
                parsed = parse(row)
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: {exc}") from None
            yield parsed


def _daily_record(row: list[str]) -> DailyRecord:
    values = [float(field) if field != "" else None for field in row[1:]]
    return DailyRecord(dt.date.fromisoformat(row[0]), values[0], values[1], values[2])


def read_daily_csv(path: str | Path) -> list[DailyRecord]:
    """Read one catchment's daily CSV; empty fields become ``None``."""
    return list(read_csv(path, CSV_HEADER, _daily_record))


def write_daily_csv(path: str | Path, records: list[DailyRecord]) -> None:
    rows = ((r.date.isoformat(), r.precipitation, r.potential_evaporation, r.streamflow) for r in records)
    write_csv(path, CSV_HEADER, rows)


def infer_span(records: list[DailyRecord]) -> tuple[int, int]:
    """Largest calendar-year range fully inside the record's date range.

    Months with partial daily coverage at the edges are rejected rather than
    trimmed silently, so the span only starts at a January 1st and ends at a
    December 31st.
    """
    if not records:
        raise ValueError("empty daily record")
    first, last = records[0].date, records[-1].date
    start = first.year if (first.month, first.day) == (1, 1) else first.year + 1
    end = last.year if (last.month, last.day) == (12, 31) else last.year - 1
    if end < start:
        raise ValueError(f"no complete calendar year between {first} and {last}")
    return start, end


def aggregate_daily_to_monthly(records: list[DailyRecord], span: tuple[int, int]) -> MonthlySeries:
    """Sum daily values to calendar-month totals over ``span`` (inclusive years).

    Every day of every month inside the span must be present with no missing,
    negative or non-finite value, and no monthly total may overflow; the first
    violation is reported with its date or month.
    Uses exactly-rounded summation so monthly totals do not depend on the
    order daily values happen to be stored in.
    """
    first_year, last_year = span
    if last_year < first_year:
        raise ValueError(f"span end {last_year} before start {first_year}")
    by_date: dict[dt.date, DailyRecord] = {}
    previous: dt.date | None = None
    for rec in records:
        if previous is not None and rec.date <= previous:
            raise ValueError(f"daily dates must be strictly increasing, broken at {rec.date}")
        previous = rec.date
        by_date[rec.date] = rec

    n_months = (last_year - first_year + 1) * 12
    totals = {name: np.empty(n_months) for name in VARIABLES}
    index = 0
    for year in range(first_year, last_year + 1):
        for month in range(1, 13):
            days = calendar.monthrange(year, month)[1]
            buckets: dict[str, list[float]] = {name: [] for name in VARIABLES}
            for day in range(1, days + 1):
                date = dt.date(year, month, day)
                rec = by_date.get(date)
                if rec is None:
                    raise ValueError(f"no daily record for {date}")
                for name in VARIABLES:
                    value = getattr(rec, name)
                    if value is None:
                        raise ValueError(f"missing {name} on {date}")
                    if not math.isfinite(value) or value < 0.0:
                        raise ValueError(f"bad {name} value {value!r} on {date}")
                    buckets[name].append(value)
            for name in VARIABLES:
                try:
                    totals[name][index] = math.fsum(buckets[name])
                except OverflowError:
                    raise ValueError(f"{name} total overflows in {year}-{month:02d}") from None
            index += 1
    return MonthlySeries(
        origin=(first_year, 1),
        precipitation=totals["precipitation"],
        potential_evaporation=totals["potential_evaporation"],
        streamflow=totals["streamflow"],
    )


def load_catchment(path: str | Path, span: tuple[int, int] | None = None) -> MonthlySeries:
    """Read a daily CSV and aggregate it over ``span`` (inferred when omitted)."""
    records = read_daily_csv(path)
    if span is None:
        span = infer_span(records)
    return aggregate_daily_to_monthly(records, span)
