"""Catchment time series: daily ingestion, monthly aggregation, period splitting.

Daily records come in as one CSV per catchment with columns
``date,precip_mm,pet_mm,flow_mm`` (ISO dates, empty field = missing value).
:func:`load_catchment` sums a file to calendar-month totals in mm in one walk
over the calendar, holding only the current month's days, and everything
downstream of ingestion works on those totals; :func:`write_daily`, its
inverse, spreads each total over its month's days and writes the file one
month at a time, with the bytes :func:`write_csv` would give it.
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

_DAYS = tuple(f"{day:02d}" for day in range(1, 32))


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
        if not 1 <= month <= 12 or int(month) != month:
            raise ValueError(f"origin month must be in 1..12, got {month}")
        if int(year) != year:
            raise ValueError(f"origin year must be integral, got {year}")
        object.__setattr__(self, "origin", (int(year), int(month)))  # a float or numpy year would reach calendar

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
    ``1..n_total`` exactly with ``n1, n2, n3 >= 1`` and ``warmup >= 0``:
    a missing test period is named here, with the months it is cut from,
    and :class:`PeriodPartition` checks the four periods.
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


def write_daily(path: str | Path, series: MonthlySeries) -> None:
    """Write ``series`` as a daily CSV, each monthly total spread evenly over its days, one month per string.

    Each day gets ``total / days`` and the last day the closure ``max(total - daily * (days - 1), 0.0)``, so the
    days sum back to the total as closely as floating point allows (the product is correctly rounded, as the sum
    of the ``days - 1`` equal values would be).  A row is ``date,p,e,q`` with floats as ``repr``: the bytes of
    :func:`write_csv` given ``CSV_HEADER`` and one row per day.
    """
    year, month = series.origin
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for totals in zip(*(getattr(series, name).tolist() for name in VARIABLES)):
            days = calendar.monthrange(year, month)[1]
            prefix = dt.date(year, month, 1).isoformat()[:-2]
            daily = [total / days for total in totals]
            tail = ",%r,%r,%r\r\n" % tuple(daily)  # the first days - 1 rows share it
            closure = ",%r,%r,%r\r\n" % tuple(max(total - d * (days - 1), 0.0) for total, d in zip(totals, daily))
            fh.write("".join([prefix + day + tail for day in _DAYS[: days - 1]]) + prefix + _DAYS[days - 1] + closure)
            year, month = (year + 1, 1) if month == 12 else (year, month + 1)


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


def load_catchment(path: str | Path) -> MonthlySeries:
    """Read a daily CSV in one walk over the calendar and sum its days to calendar-month totals over its whole years.

    The months read are those of the longest run of whole calendar years
    between the file's first and last dates.  Dates must increase strictly
    through the file.  From 1 January of the first whole year the walk
    expects each day in turn and keeps only the current month's days; a
    month's total is one ``math.fsum`` of its days, exactly rounded whatever
    their order, taken when the month ends.  The first fault in date order (a
    missing day, a missing, negative or non-finite value, or a month's total
    that overflows) is reported with its date or month if it lies in the
    whole years; faults in the trimmed partial years are not reported.
    """
    days: tuple[list[float], ...] = ([], [], [])  # the current month's
    totals: tuple[list[float], ...] = ([], [], [])
    precipitation, evaporation, streamflow = days
    first = last = disorder = fault = None  # fault: (its year, its message)
    inf, one_day = math.inf, dt.timedelta(days=1)
    for date, p, e, q in read_csv(path, CSV_HEADER, _daily_row):
        if last is None:
            first, start = date, date.year if (date.month, date.day) == (1, 1) else date.year + 1
            expected = dt.date(start, 1, 1)
        elif date <= last:
            disorder = disorder or f"daily dates must be strictly increasing, broken at {date}"
        last = date
        if disorder or fault or date < expected:
            continue  # the rest of the file is still parsed: a bad row anywhere is reported first
        if date != expected:
            fault = expected.year, f"no daily record for {expected}"
            continue
        try:
            clean = 0.0 <= p < inf and 0.0 <= e < inf and 0.0 <= q < inf
        except TypeError:  # a missing value
            clean = False
        if not clean:
            name, value = next((n, v) for n, v in zip(VARIABLES, (p, e, q)) if v is None or not 0.0 <= v < inf)
            fault = date.year, f"missing {name} on {date}" if value is None else f"bad {name} value {value!r} on {date}"
            continue
        precipitation.append(p)
        evaporation.append(e)
        streamflow.append(q)
        expected = date + one_day
        if expected.day == 1:  # the month is whole
            for name, month, column in zip(VARIABLES, days, totals):
                try:
                    column.append(math.fsum(month))
                except OverflowError:
                    fault = date.year, f"{name} total overflows in {date.year}-{date.month:02d}"
                    break
                month.clear()

    if first is None:
        raise ValueError("empty daily record")
    end = last.year if (last.month, last.day) == (12, 31) else last.year - 1
    if end < start:
        raise ValueError(f"no complete calendar year between {first} and {last}")
    if disorder:
        raise ValueError(disorder)
    if fault and fault[0] <= end:
        raise ValueError(fault[1])
    n_months = 12 * (end - start + 1)  # the walk may have summed months of the trimmed last year
    return MonthlySeries((start, 1), *(np.array(column[:n_months]) for column in totals))
