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
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VARIABLES = ("precipitation", "potential_evaporation", "streamflow")

CSV_HEADER = ("date", "precip_mm", "pet_mm", "flow_mm")


@dataclass(frozen=True)
class MonthlySeries:
    """Aligned monthly totals (mm/month) for one catchment.

    ``origin`` is the (year, month) of the first entry.  The constructor
    enforces alignment (equal lengths, a real calendar origin) only; value
    screening (negative and non-finite days, overflowing totals) happens in
    :func:`load_catchment`, so a series built in code may hold any float.
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
    models, and the final ``n3`` months are held out for testing.  Every
    problem is reported in one ``ValueError``.
    """

    warmup: int
    n1: int
    n2: int
    n3: int

    def __post_init__(self) -> None:
        problems = [f"warmup must be >= 0, got {self.warmup}"] if self.warmup < 0 else []
        for name in ("n1", "n2", "n3"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1, got {getattr(self, name)}")
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def n_total(self) -> int:
        return self.warmup + self.n1 + self.n2 + self.n3

    # absolute slices into the full monthly series
    @property
    def t1(self) -> slice:
        return slice(self.warmup, self.warmup + self.n1)

    @property
    def t2(self) -> slice:
        return slice(self.warmup + self.n1, self.warmup + self.n1 + self.n2)

    @property
    def t3(self) -> slice:
        return slice(self.warmup + self.n1 + self.n2, self.n_total)


def partition(n_total: int, warmup: int, n_calibration: int, n_training: int) -> PeriodPartition:
    """Split ``n_total`` months; the test period takes the remainder.

    Raises ``ValueError`` unless all four resulting periods tile
    ``1..n_total`` exactly with ``n1, n2, n3 >= 1`` and ``warmup >= 0``
    (:class:`PeriodPartition` checks all but ``n3``).
    """
    n3 = n_total - warmup - n_calibration - n_training
    if n3 < 1:
        raise ValueError(
            f"no test months left: n_total={n_total} minus warmup={warmup}, "
            f"calibration={n_calibration}, training={n_training} leaves {n3}"
        )
    return PeriodPartition(warmup, n_calibration, n_training, n3)


def write_csv(path: str | Path, header: tuple[str, ...], rows: Iterable[Sequence]) -> None:
    """Write ``header`` then ``rows``: the one CSV format of every ensflow file.

    The cells go to :mod:`csv` as they are, and its formatting is the format: a
    ``float`` (numpy ``float64`` included) as ``repr(float(v))``, which reads
    back bit for bit, ``None`` as an empty cell, anything else as ``str(v)``.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


def _daily_row(row: list[str]) -> tuple:
    """A daily CSV row as (date, precipitation, evaporation, streamflow); an empty field is ``None``."""
    try:
        return dt.date.fromisoformat(row[0]), float(row[1]), float(row[2]), float(row[3])
    except ValueError:  # an empty field, or a bad number or date that the lines below name
        values = [float(field) if field != "" else None for field in row[1:]]
        return dt.date.fromisoformat(row[0]), *values


def _day_fault(date: dt.date, expected_day: int, values: tuple[float | None, ...]) -> str:
    """A faulty day's first fault in date order: a missing earlier day in its month, then a missing or bad value."""
    if date.day != expected_day:
        return f"no daily record for {date.replace(day=expected_day)}"
    for name, value in zip(VARIABLES, values):
        if value is None:
            return f"missing {name} on {date}"
        if not 0.0 <= value < math.inf:  # negative, infinite or NaN
            return f"bad {name} value {value!r} on {date}"


def load_catchment(path: str | Path) -> MonthlySeries:
    """Read a daily CSV once and sum its days to calendar-month totals over its whole calendar years.

    The months read are those of the longest run of whole calendar years
    between the file's first and last dates.  Dates must increase strictly
    through the file, every day of those years must be present with no
    missing, negative or non-finite value, and no month's total may overflow;
    the first violation is reported with its date or month.  A month's total
    is one ``math.fsum`` of its days, exactly rounded whatever their order.
    """
    # (year, month) -> [first fault or None, precipitation days, evaporation days, streamflow days]
    months: dict[tuple[int, int], list] = defaultdict(lambda: [None, [], [], []])
    first = last = disorder = None
    inf = math.inf
    for date, p, e, q in read_csv(path, CSV_HEADER, _daily_row):
        if last is None:
            first = date
        elif date <= last:
            disorder = disorder or f"daily dates must be strictly increasing, broken at {date}"
        last = date
        if disorder:
            continue  # reported below; the rest of the file is still parsed
        month = months[date.year, date.month]
        try:
            clean = 0.0 <= p < inf and 0.0 <= e < inf and 0.0 <= q < inf
        except TypeError:  # a missing value
            clean = False
        # while it has no fault, the month holds days 1, 2, ... without a gap
        if month[0] is None and (not clean or date.day != len(month[1]) + 1):
            month[0] = _day_fault(date, len(month[1]) + 1, (p, e, q))
        month[1].append(p)
        month[2].append(e)
        month[3].append(q)

    if first is None:
        raise ValueError("empty daily record")
    start = first.year if (first.month, first.day) == (1, 1) else first.year + 1
    end = last.year if (last.month, last.day) == (12, 31) else last.year - 1
    if end < start:
        raise ValueError(f"no complete calendar year between {first} and {last}")
    if disorder:
        raise ValueError(disorder)
    totals: tuple[list[float], ...] = ([], [], [])
    for year in range(start, end + 1):
        for number in range(1, 13):
            # a month without rows is a month whose first day is missing
            fault, *columns = months.get((year, number), (None, [], [], []))
            if fault is None and len(columns[0]) < calendar.monthrange(year, number)[1]:
                fault = f"no daily record for {dt.date(year, number, len(columns[0]) + 1)}"
            if fault is not None:
                raise ValueError(fault)
            for name, days, column in zip(VARIABLES, columns, totals):
                try:
                    column.append(math.fsum(days))
                except OverflowError:
                    raise ValueError(f"{name} total overflows in {year}-{number:02d}") from None
    return MonthlySeries((start, 1), *(np.array(column) for column in totals))
