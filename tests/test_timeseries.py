"""Ingestion, aggregation and period-splitting behaviour."""

import calendar
import datetime as dt
import math
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ensflow.experiment import SyntheticSpec, generate_synthetic
from ensflow.timeseries import (
    CSV_HEADER,
    VARIABLES,
    MonthlySeries,
    PeriodPartition,
    load_catchment,
    partition,
    read_csv,
    write_csv,
    write_daily,
)


def daily_year(year=1990, p=2.0, e=1.0, q=0.5):
    """One calendar year of daily rows (date, precipitation, evaporation, streamflow)."""
    rows = []
    date = dt.date(year, 1, 1)
    while date.year == year:
        rows.append((date, p, e, q))
        date += dt.timedelta(days=1)
    return rows


def write_records(path, rows):
    write_csv(path, CSV_HEADER, ((date.isoformat(), *values) for date, *values in rows))
    return path


def load_rows(tmp_path, rows):
    """Monthly totals of ``rows`` through a daily CSV, as a run ingests them."""
    return load_catchment(write_records(tmp_path / "c.csv", rows))


def daily_parse(row):
    return (dt.date.fromisoformat(row[0]), *(float(field) if field != "" else None for field in row[1:]))


class TestMonthlySeries:
    def test_arrays_coerced_to_float(self):
        series = MonthlySeries((2000, 1), [1, 2], [3, 4], [5, 6])
        assert series.precipitation.dtype == np.float64
        assert series.n == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share one length"):
            MonthlySeries((2000, 1), [1.0, 2.0], [1.0], [1.0, 2.0])

    def test_bad_origin_month_rejected(self):
        with pytest.raises(ValueError, match="origin month"):
            MonthlySeries((2000, 13), [1.0], [1.0], [1.0])

    @pytest.mark.parametrize("year", [np.int64(2000), 2000.0])
    def test_origin_kept_as_plain_ints(self, tmp_path, year):
        # a numpy year made calendar.monthrange return numpy ints, and write_daily then wrote np.float64(...)
        # cells; a float year made write_daily raise
        totals = np.linspace(10.0, 33.0, 24)
        plain, odd = (MonthlySeries(origin, totals, totals / 2, totals / 3) for origin in ((2000, 1), (year, 1.0)))
        assert odd.origin == (2000, 1) and {type(part) for part in odd.origin} == {int}
        write_daily(tmp_path / "plain.csv", plain)
        write_daily(tmp_path / "odd.csv", odd)
        assert (tmp_path / "odd.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        loaded = load_catchment(tmp_path / "odd.csv")
        assert loaded.origin == (2000, 1) and np.array_equal(loaded.precipitation, plain.precipitation)

    def test_synthetic_catchment_from_a_numpy_start_year_reads_back(self, tmp_path):
        generate_synthetic(SyntheticSpec(n_months=24, start_year=np.int64(2000)), tmp_path, "a")
        assert load_catchment(tmp_path / "a.csv").origin == (2000, 1)

    def test_fractional_origin_rejected(self):
        with pytest.raises(ValueError, match="origin year must be integral"):
            MonthlySeries((2000.5, 1), [1.0], [1.0], [1.0])
        with pytest.raises(ValueError, match="origin month"):
            MonthlySeries((2000, 1.5), [1.0], [1.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one month"):
            MonthlySeries((2000, 1), [], [], [])

    def test_nan_allowed_at_construction(self):
        # value screening is load_catchment's job, not the constructor's
        series = MonthlySeries((2000, 1), [np.nan], [1.0], [1.0])
        assert math.isnan(series.precipitation[0])


class TestPartition:
    def test_slices_tile_the_series(self):
        split = partition(444, 12, 144, 144)
        assert (split.warmup, split.n1, split.n2, split.n3) == (12, 144, 144, 144)
        idx = np.arange(444)
        stitched = np.concatenate([idx[: split.warmup], idx[split.t1], idx[split.t2], idx[split.t3]])
        assert np.array_equal(stitched, idx)

    def test_simulation_slices_offset_by_warmup(self):
        split = partition(444, 12, 144, 144)
        # a simulated series starts at the first post-warmup month
        shifted = [(s.start - split.warmup, s.stop - split.warmup) for s in (split.t1, split.t2, split.t3)]
        assert shifted == [(0, 144), (144, 288), (288, 432)]

    def test_one_based_ranges(self):
        split = partition(444, 12, 144, 144)
        # inclusive 1-based month ranges are (start + 1, stop)
        assert [(s.start + 1, s.stop) for s in (split.t1, split.t2, split.t3)] == [(13, 156), (157, 300), (301, 444)]
        assert split.warmup == 12  # T0 is (1, 12)

    def test_zero_warmup_allowed(self):
        split = partition(30, 0, 10, 10)
        assert split.t1 == slice(0, 10)
        assert split.n3 == 10

    def test_no_test_months_left(self):
        with pytest.raises(ValueError, match="no test months"):
            partition(300, 12, 144, 144)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            partition(300, -1, 100, 100)

    def test_empty_calibration_rejected(self):
        with pytest.raises(ValueError):
            partition(300, 12, 0, 144)

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            PeriodPartition(0, 1, 1, 0)

    def test_every_problem_reported_at_once(self):
        with pytest.raises(ValueError) as excinfo:
            PeriodPartition(-2, 0, 1, 0)
        assert str(excinfo.value) == "warmup must be >= 0, got -2; n1 must be >= 1, got 0; n3 must be >= 1, got 0"


class TestValidateSeries:
    """Value screening happens on ingest: a loaded series is finite and non-negative."""

    def test_clean_series_accepted(self, tmp_path):
        series = load_rows(tmp_path, daily_year(1990, p=10.0, e=10.0, q=10.0))
        assert series.n == 12
        assert all(np.isfinite(getattr(series, name)).all() for name in ("precipitation", "streamflow"))

    def test_zeros_counted_not_rejected(self, tmp_path):
        series = load_rows(tmp_path, daily_year(1990, p=0.0, e=0.0, q=0.0))
        assert np.count_nonzero(series.streamflow == 0.0) == 12

    def test_negative_rejected_with_index(self, tmp_path):
        rows = daily_year(1990)
        rows[120] = (rows[120][0], 2.0, 1.0, -0.5)  # 1 May, month index 4
        with pytest.raises(ValueError, match="bad streamflow value -0.5 on 1990-05-01"):
            load_rows(tmp_path, rows)

    def test_nan_and_inf_rejected(self, tmp_path):
        for index, column, name in ((0, 1, "precipitation"), (212, 2, "potential_evaporation")):
            for bad in (math.nan, math.inf):
                rows = daily_year(1990)
                rows[index] = tuple(bad if i == column else v for i, v in enumerate(rows[index]))
                with pytest.raises(ValueError, match=f"bad {name} value {bad!r} on {rows[index][0]}"):
                    load_rows(tmp_path, rows)


class TestDailyCsv:
    def test_round_trip(self, tmp_path):
        rows = daily_year()
        rows[5] = (rows[5][0], None, 1.0, 0.5)
        path = write_records(tmp_path / "c1.csv", rows)
        assert list(read_csv(path, CSV_HEADER, daily_parse)) == rows

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,rain,pet,flow\n2000-01-01,1,1,1\n")
        with pytest.raises(ValueError, match="expected header"):
            load_catchment(path)

    def test_field_count_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,precip_mm,pet_mm,flow_mm\n2000-01-01,1,1\n")
        with pytest.raises(ValueError, match="expected 4 fields"):
            load_catchment(path)

    @pytest.mark.parametrize(
        "row", ["2000-01-02,1,x,1", "2000-02-30,1,1,1", "2000-01-02,1,,x"], ids=["number", "date", "after-empty"]
    )
    def test_bad_row_named_by_its_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"date,precip_mm,pet_mm,flow_mm\n2000-01-01,1,1,1\n{row}\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:3: ")):
            load_catchment(path)

    def test_values_survive_exactly(self, tmp_path):
        # repr round-trip keeps full float precision
        value = 1.2345678901234567
        path = write_records(tmp_path / "c1.csv", [(dt.date(2000, 1, 1), value, 0.0, 0.0)])
        assert next(read_csv(path, CSV_HEADER, daily_parse))[1] == value


class TestInferSpan:
    def test_exact_years(self, tmp_path):
        assert load_rows(tmp_path, daily_year(1990)).origin == (1990, 1)

    def test_partial_edges_trimmed_to_full_years(self, tmp_path):
        rows = (
            [(dt.date(1989, 12, 30), 1, 1, 1), (dt.date(1989, 12, 31), 1, 1, 1)]
            + daily_year(1990)
            + [(dt.date(1991, 1, 1), 1, 1, 1)]
        )
        series = load_rows(tmp_path, rows)
        assert (series.origin, series.n) == ((1990, 1), 12)

    def test_no_full_year(self, tmp_path):
        with pytest.raises(ValueError, match="no complete calendar year"):
            load_rows(tmp_path, [(dt.date(1990, 3, 1), 1, 1, 1)])

    def test_empty(self, tmp_path):
        with pytest.raises(ValueError, match="empty daily record"):
            load_rows(tmp_path, [])


class TestAggregation:
    def test_monthly_totals(self, tmp_path):
        series = load_rows(tmp_path, daily_year(1990, p=2.0, e=1.0, q=0.5))
        assert series.n == 12
        assert series.origin == (1990, 1)
        # January has 31 days, February 1990 has 28
        assert series.precipitation[0] == pytest.approx(62.0)
        assert series.precipitation[1] == pytest.approx(56.0)
        assert series.streamflow[0] == pytest.approx(15.5)

    def test_leap_february(self, tmp_path):
        series = load_rows(tmp_path, daily_year(1992, p=1.0))
        assert series.precipitation[1] == pytest.approx(29.0)

    def test_missing_day_reported(self, tmp_path):
        rows = daily_year(1990)
        del rows[40]
        with pytest.raises(ValueError, match="no daily record for 1990-02-10"):
            load_rows(tmp_path, rows)

    def test_missing_value_reported_with_date(self, tmp_path):
        rows = daily_year(1990)
        rows[3] = (rows[3][0], 1.0, None, 1.0)
        with pytest.raises(ValueError, match="missing potential_evaporation on 1990-01-04"):
            load_rows(tmp_path, rows)

    def test_negative_value_rejected(self, tmp_path):
        # with the overflow case, every monthly total that passes is finite and
        # non-negative
        for bad in (-1.0, math.nan, math.inf):
            rows = daily_year(1990)
            rows[0] = (rows[0][0], bad, 1.0, 1.0)
            with pytest.raises(ValueError, match="bad precipitation"):
                load_rows(tmp_path, rows)
        rows = daily_year(1990)
        for i in (40, 41):
            rows[i] = (rows[i][0], 1.0, 1.0, 1e308)
        with pytest.raises(ValueError, match="streamflow total overflows in 1990-02"):
            load_rows(tmp_path, rows)

    def test_unordered_dates_rejected(self, tmp_path):
        rows = daily_year(1990)
        rows[1], rows[2] = rows[2], rows[1]
        with pytest.raises(ValueError, match="strictly increasing, broken at 1990-01-02"):
            load_rows(tmp_path, rows)

    def test_order_independent_totals(self, tmp_path):
        # fsum makes the monthly sum exactly rounded, so any storage order
        # of equal daily values gives the identical total
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 30.0, size=31)
        rows = [(dt.date(1990, 1, d + 1), values[d], 1.0, 1.0) for d in range(31)]
        total = load_rows(tmp_path, rows + daily_year(1990)[31:]).precipitation[0]
        assert total == math.fsum(values)
        assert total == math.fsum(values[::-1])


class TestLoadCatchment:
    def test_load_with_inferred_span(self, tmp_path):
        path = write_records(tmp_path / "c.csv", daily_year(1990) + daily_year(1991))
        series = load_catchment(path)
        assert series.n == 24
        assert series.origin == (1990, 1)


# deterministic and bounded, so tier-1 stays reproducible and quick
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00") | st.sampled_from(',"\r\n'))
CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.none(),
    TEXT,
)


class TestCsvProperties:
    @PROPERTY
    @given(rows=st.lists(st.tuples(CELL, CELL, CELL), max_size=12))
    def test_write_read_round_trip(self, rows):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "t.csv"
            write_csv(path, ("a", "b", "c"), rows)
            back = list(read_csv(path, ("a", "b", "c"), list))
        assert len(back) == len(rows)
        for row, texts in zip(rows, back):
            for cell, text in zip(row, texts):
                if cell is None:
                    assert text == ""
                elif isinstance(cell, float):  # bit for bit, -0.0 included
                    assert float(text).hex() == float(cell).hex()
                else:
                    assert text == cell


# The per-day writer that write_daily replaced, kept verbatim as the oracle of its bytes.


def per_day_rows(series: MonthlySeries):
    """Daily CSV rows: each monthly total spread uniformly over its days, the repeated value formatted once.

    The last day takes the closure residual so the daily values sum back to
    the monthly total as closely as floating point allows.
    """
    year, month = series.origin
    columns = [getattr(series, name).tolist() for name in VARIABLES]
    for t in range(series.n):
        days = calendar.monthrange(year, month)[1]
        prefix = dt.date(year, month, 1).isoformat()[:-2]
        per_day, last_day = [], []
        for values in columns:
            daily = values[t] / days
            per_day.append(repr(daily))
            last_day.append(repr(max(values[t] - math.fsum([daily] * (days - 1)), 0.0)))
        for day in range(1, days):
            yield (f"{prefix}{day:02d}", *per_day)
        yield (f"{prefix}{days}", *last_day)
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)


# zero, subnormals, totals whose repr takes an exponent, totals up to 1e300, and negative ones, whose last day the
# clamp sets to 0.0; -0.0 aside, where the oracle's fsum of -0.0s is 0.0 and leaves "-0.0" on the last day, not "0.0"
TOTAL = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-07, 1e16, 1e300, -1.0]),
    st.floats(0.0, 2.2250738585072014e-308),
    st.floats(-1e300, 1e300).filter(lambda total: math.copysign(1.0, total) == 1.0 or total != 0.0),
)
FEBRUARIES = st.sampled_from([(1900, 2), (2000, 2), (2004, 2)])  # 1900 is no leap year, 2000 and 2004 are


class TestDailyWriter:
    @PROPERTY
    @given(
        origin=FEBRUARIES | st.tuples(st.integers(1, 9998), st.integers(1, 12)),
        totals=st.lists(st.tuples(TOTAL, TOTAL, TOTAL), min_size=1, max_size=14),
    )
    @example(origin=(1900, 2), totals=[(0.0, 5e-324, 1e300)])
    @example(origin=(2000, 2), totals=[(1e-07, 1e16, -3.0)])
    @example(origin=(2004, 2), totals=[(1.0, 0.1, 2.5e-320)] * 13)
    def test_bytes_equal_the_per_day_writer(self, origin, totals):
        series = MonthlySeries(origin, *np.array(totals).T)
        with tempfile.TemporaryDirectory() as scratch:
            expected, got = Path(scratch) / "rows.csv", Path(scratch) / "months.csv"
            write_csv(expected, CSV_HEADER, per_day_rows(series))
            write_daily(got, series)
            assert got.read_bytes() == expected.read_bytes()


# The record-based ingest that load_catchment replaced, kept verbatim as the oracle of its monthly totals and messages.


@dataclass(frozen=True)
class DailyRecord:
    """One day of catchment forcing and response; ``None`` marks a missing value."""

    date: dt.date
    precipitation: float | None
    potential_evaporation: float | None
    streamflow: float | None


def _daily_record(row: list[str]) -> DailyRecord:
    values = [float(field) if field != "" else None for field in row[1:]]
    return DailyRecord(dt.date.fromisoformat(row[0]), values[0], values[1], values[2])


def infer_span(records: list[DailyRecord]) -> tuple[int, int]:
    if not records:
        raise ValueError("empty daily record")
    first, last = records[0].date, records[-1].date
    start = first.year if (first.month, first.day) == (1, 1) else first.year + 1
    end = last.year if (last.month, last.day) == (12, 31) else last.year - 1
    if end < start:
        raise ValueError(f"no complete calendar year between {first} and {last}")
    return start, end


def aggregate_daily_to_monthly(records: list[DailyRecord], span: tuple[int, int]) -> MonthlySeries:
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


def record_based_load(path) -> MonthlySeries:
    records = list(read_csv(path, CSV_HEADER, _daily_record))
    return aggregate_daily_to_monthly(records, infer_span(records))


def outcome(load, path):
    """The monthly totals ``load`` gives, or its message."""
    try:
        series = load(path)
    except ValueError as exc:
        return str(exc)
    return series.origin, [getattr(series, name) for name in VARIABLES]


# a fault drawn on top of the head and tail cuts, at a drawn row and field of the daily file
FAULTS = ("none", "drop", "blank", "-1", "nan", "inf", "swap", "overflow")


def with_fault(rows: list[list[str]], fault: str, at: int, field: int) -> list[list[str]]:
    """``rows`` (the fields of each daily row) with ``fault`` at row ``at`` modulo their number.

    ``drop`` deletes the row, ``swap`` swaps it with the next, ``blank``, ``-1``, ``nan`` and ``inf`` write into its
    ``field``, and ``overflow`` writes 1e308 into ``field`` and every later field of the row and the next, so
    two days can overflow their month's total in one or more columns.
    """
    if not rows or fault == "none":
        return rows
    i = at % len(rows)
    if fault == "drop":
        del rows[i]
    elif fault == "swap":
        rows[i : i + 2] = rows[i : i + 2][::-1]
    elif fault == "overflow":
        for row in rows[i : i + 2]:
            row[field:] = ["1e308"] * (len(row) - field)
    else:
        rows[i][field] = "" if fault == "blank" else fault
    return rows


class TestIngestProperties:
    @PROPERTY
    @given(
        start_year=st.integers(1896, 2004),  # the 1900 and 2000 Februaries, and ordinary leap years
        n_months=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
        head=st.integers(0, 45),  # days cut from the start and end: partial edge months
        tail=st.integers(0, 45),
        fault=st.sampled_from(FAULTS),
        at=st.integers(0, 2**16),
        field=st.integers(1, 3),
    )
    # a nan on 11 January 1990 or 11 January 1992, in a trimmed edge year, is not reported: 1991 or 1990-1991 load
    @example(start_year=1990, n_months=30, seed=0, head=10, tail=0, fault="nan", at=0, field=2)
    @example(start_year=1990, n_months=30, seed=0, head=0, tail=0, fault="nan", at=740, field=2)
    # evaporation and streamflow both overflow in February 1990: evaporation, the first in VARIABLES, is reported
    @example(start_year=1990, n_months=24, seed=0, head=0, tail=0, fault="overflow", at=40, field=2)
    # the few drawn examples that reach a fault in the whole years miss these: the last day of the whole years
    # dropped, a blank field, and an infinite streamflow on the last day of the file
    @example(start_year=1990, n_months=30, seed=0, head=0, tail=0, fault="drop", at=729, field=1)
    @example(start_year=1990, n_months=24, seed=0, head=0, tail=0, fault="blank", at=400, field=3)
    @example(start_year=1990, n_months=24, seed=0, head=0, tail=0, fault="inf", at=729, field=3)
    def test_totals_and_messages_equal_the_record_based_path(
        self, start_year, n_months, seed, head, tail, fault, at, field
    ):
        with tempfile.TemporaryDirectory() as scratch:
            path, _ = generate_synthetic(SyntheticSpec(n_months=n_months, seed=seed, start_year=start_year), scratch)
            header, *lines = path.read_text().splitlines()
            rows = [line.split(",") for line in lines[head : max(head, len(lines) - tail)]]
            rows = with_fault(rows, fault, at, field)
            path.write_text("\n".join([header, *map(",".join, rows)]) + "\n")
            expected, got = outcome(record_based_load, path), outcome(load_catchment, path)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got[0] == expected[0]
            assert all(np.array_equal(a, b) for a, b in zip(got[1], expected[1]))
