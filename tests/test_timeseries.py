"""Ingestion, aggregation and period-splitting behaviour."""

import datetime as dt
import math
import re

import numpy as np
import pytest

from ensflow.timeseries import (
    DailyRecord,
    MonthlySeries,
    PeriodPartition,
    aggregate_daily_to_monthly,
    infer_span,
    load_catchment,
    partition,
    read_daily_csv,
    validate_series,
    write_daily_csv,
)


def make_series(n=12, origin=(1990, 1), fill=10.0):
    values = np.full(n, fill)
    return MonthlySeries(origin, values.copy(), values.copy(), values.copy())


def daily_year(year=1990, p=2.0, e=1.0, q=0.5):
    records = []
    date = dt.date(year, 1, 1)
    while date.year == year:
        records.append(DailyRecord(date, p, e, q))
        date += dt.timedelta(days=1)
    return records


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

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one month"):
            MonthlySeries((2000, 1), [], [], [])

    def test_nan_allowed_at_construction(self):
        # value screening is validate_series' job, not the constructor's
        series = MonthlySeries((2000, 1), [np.nan], [1.0], [1.0])
        assert math.isnan(series.precipitation[0])


class TestPartition:
    def test_slices_tile_the_series(self):
        split = partition(444, 12, 144, 144)
        assert (split.warmup, split.n1, split.n2, split.n3) == (12, 144, 144, 144)
        idx = np.arange(444)
        stitched = np.concatenate([idx[split.t0], idx[split.t1], idx[split.t2], idx[split.t3]])
        assert np.array_equal(stitched, idx)

    def test_simulation_slices_offset_by_warmup(self):
        split = partition(444, 12, 144, 144)
        # a simulated series starts at the first post-warmup month
        assert split.sim_t1 == slice(0, 144)
        assert split.sim_t2 == slice(144, 288)
        assert split.sim_t3 == slice(288, 432)

    def test_one_based_ranges(self):
        split = partition(444, 12, 144, 144)
        assert split.one_based() == {
            "T0": (1, 12),
            "T1": (13, 156),
            "T2": (157, 300),
            "T3": (301, 444),
        }

    def test_zero_warmup_allowed(self):
        split = partition(30, 0, 10, 10)
        assert split.t0 == slice(0, 0)
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


class TestValidateSeries:
    def test_clean_series_accepted(self):
        report = validate_series(make_series())
        assert report.accepted
        assert all(v.first_bad_index is None for v in report.variables.values())

    def test_zeros_counted_not_rejected(self):
        series = make_series(fill=0.0)
        report = validate_series(series)
        assert report.accepted
        assert report.variables["streamflow"].zeros == 12

    def test_negative_rejected_with_index(self):
        series = make_series()
        series.streamflow[4] = -0.5
        report = validate_series(series)
        assert not report.accepted
        assert report.variables["streamflow"].negatives == 1
        assert report.variables["streamflow"].first_bad_index == 4
        assert report.variables["precipitation"].first_bad_index is None

    def test_nan_and_inf_rejected(self):
        series = make_series()
        series.precipitation[0] = np.nan
        series.potential_evaporation[7] = np.inf
        report = validate_series(series)
        assert not report.accepted
        assert report.variables["precipitation"].non_finite == 1
        assert report.variables["potential_evaporation"].first_bad_index == 7


class TestDailyCsv:
    def test_round_trip(self, tmp_path):
        records = daily_year()
        records[5] = DailyRecord(records[5].date, None, 1.0, 0.5)
        path = tmp_path / "c1.csv"
        write_daily_csv(path, records)
        back = read_daily_csv(path)
        assert back == records

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,rain,pet,flow\n2000-01-01,1,1,1\n")
        with pytest.raises(ValueError, match="expected header"):
            read_daily_csv(path)

    def test_field_count_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,precip_mm,pet_mm,flow_mm\n2000-01-01,1,1\n")
        with pytest.raises(ValueError, match="expected 4 fields"):
            read_daily_csv(path)

    @pytest.mark.parametrize("row", ["2000-01-02,1,x,1", "2000-02-30,1,1,1"], ids=["number", "date"])
    def test_bad_row_named_by_its_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"date,precip_mm,pet_mm,flow_mm\n2000-01-01,1,1,1\n{row}\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:3: ")):
            read_daily_csv(path)

    def test_values_survive_exactly(self, tmp_path):
        # repr round-trip keeps full float precision
        value = 1.2345678901234567
        records = [DailyRecord(dt.date(2000, 1, 1), value, 0.0, 0.0)]
        path = tmp_path / "c1.csv"
        write_daily_csv(path, records)
        assert read_daily_csv(path)[0].precipitation == value


class TestInferSpan:
    def test_exact_years(self):
        assert infer_span(daily_year(1990)) == (1990, 1990)

    def test_partial_edges_trimmed_to_full_years(self):
        records = (
            [DailyRecord(dt.date(1989, 12, 30), 1, 1, 1), DailyRecord(dt.date(1989, 12, 31), 1, 1, 1)]
            + daily_year(1990)
            + [DailyRecord(dt.date(1991, 1, 1), 1, 1, 1)]
        )
        assert infer_span(records) == (1990, 1990)

    def test_no_full_year(self):
        records = [DailyRecord(dt.date(1990, 3, 1), 1, 1, 1)]
        with pytest.raises(ValueError, match="no complete calendar year"):
            infer_span(records)

    def test_empty(self):
        with pytest.raises(ValueError):
            infer_span([])


class TestAggregation:
    def test_monthly_totals(self):
        series = aggregate_daily_to_monthly(daily_year(1990, p=2.0, e=1.0, q=0.5), (1990, 1990))
        assert series.n == 12
        assert series.origin == (1990, 1)
        # January has 31 days, February 1990 has 28
        assert series.precipitation[0] == pytest.approx(62.0)
        assert series.precipitation[1] == pytest.approx(56.0)
        assert series.streamflow[0] == pytest.approx(15.5)

    def test_leap_february(self):
        series = aggregate_daily_to_monthly(daily_year(1992, p=1.0), (1992, 1992))
        assert series.precipitation[1] == pytest.approx(29.0)

    def test_missing_day_reported(self):
        records = daily_year(1990)
        del records[40]
        with pytest.raises(ValueError, match="no daily record for 1990-02-10"):
            aggregate_daily_to_monthly(records, (1990, 1990))

    def test_missing_value_reported_with_date(self):
        records = daily_year(1990)
        records[3] = DailyRecord(records[3].date, 1.0, None, 1.0)
        with pytest.raises(ValueError, match="1990-01-04"):
            aggregate_daily_to_monthly(records, (1990, 1990))

    def test_negative_value_rejected(self):
        # with the overflow case, every monthly total that passes is finite and
        # non-negative, so a loaded series always passes validate_series
        for bad in (-1.0, math.nan, math.inf):
            records = daily_year(1990)
            records[0] = DailyRecord(records[0].date, bad, 1.0, 1.0)
            with pytest.raises(ValueError, match="bad precipitation"):
                aggregate_daily_to_monthly(records, (1990, 1990))
        records = daily_year(1990)
        for i in (40, 41):
            records[i] = DailyRecord(records[i].date, 1.0, 1.0, 1e308)
        with pytest.raises(ValueError, match="streamflow total overflows in 1990-02"):
            aggregate_daily_to_monthly(records, (1990, 1990))

    def test_unordered_dates_rejected(self):
        records = daily_year(1990)
        records[1], records[2] = records[2], records[1]
        with pytest.raises(ValueError, match="strictly increasing"):
            aggregate_daily_to_monthly(records, (1990, 1990))

    def test_order_independent_totals(self):
        # fsum makes the monthly sum exactly rounded, so any storage order
        # of equal daily values gives the identical total
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 30.0, size=31)
        records_a = [
            DailyRecord(dt.date(1990, 1, d + 1), values[d], 1.0, 1.0) for d in range(31)
        ]
        total = aggregate_daily_to_monthly(
            records_a + daily_year(1990)[31:], (1990, 1990)
        ).precipitation[0]
        assert total == math.fsum(values)


class TestLoadCatchment:
    def test_load_with_inferred_span(self, tmp_path):
        path = tmp_path / "c.csv"
        write_daily_csv(path, daily_year(1990) + daily_year(1991))
        series = load_catchment(path)
        assert series.n == 24
        assert series.origin == (1990, 1)

    def test_load_with_explicit_span(self, tmp_path):
        path = tmp_path / "c.csv"
        write_daily_csv(path, daily_year(1990) + daily_year(1991))
        series = load_catchment(path, span=(1991, 1991))
        assert series.n == 12
        assert series.origin == (1991, 1)
