"""The run directory: every report file written by ``write_run`` and read back equal by ``read_run``."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ensflow.evaluate import INTERVAL_ALPHAS, MetricsRecord
from ensflow.reports import (
    KERNEL_KEYS, CalibrationRecord, CatchmentFailure, ExperimentResult, WisdomRow, concat, read_run, write_run,
)
from test_experiment import hand_built_result

FILES = ("metrics.csv", "wisdom.csv", "timing.csv", "failures.csv", "rankings.csv", "summary.json")


def record(**kw):
    base = dict(catchment="c01", scheme="5", alpha=0.05, coverage=0.9375, width=12.5, score=17.25, crossings=0,
                seconds=1.5)
    return MetricsRecord(**{**base, **kw})


def write_records(out, records):
    """A run directory of ``records`` and their schemes' timing rows: no wisdom, failure or calibration rows."""
    timing = list(dict.fromkeys((r.catchment, r.scheme, r.seconds) for r in records))
    write_run(ExperimentResult(records, [], [], {}, timing, dict.fromkeys(KERNEL_KEYS, "python")), out)


def files(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestMetricsReader:
    def test_csv_round_trip_exact(self, tmp_path):
        records = [
            record(),
            record(catchment="c02", scheme="basic-linear", alpha=0.2, coverage=1.0 / 3.0, width=math.pi, crossings=2),
        ]
        write_records(tmp_path, records)
        assert read_run(tmp_path).records == records

    def test_repeated_cell_rejected(self, tmp_path):
        # one (catchment, scheme, alpha) cell is one row; another scheme or level of it is not a repeat
        records = [record(), record(scheme="6"), record(alpha=0.1), record(score=3.0)]
        write_records(tmp_path, records)
        with pytest.raises(ValueError) as excinfo:
            read_run(tmp_path)
        path = tmp_path / "metrics.csv"
        assert str(excinfo.value) == f"{path}:5: repeated (catchment, scheme, alpha) cell c01,5,0.05"
        write_records(tmp_path, records[:3])
        assert read_run(tmp_path).records == records[:3]

    @pytest.mark.parametrize("name", ["metrics.csv", "wisdom.csv", "timing.csv", "failures.csv", "rankings.csv"])
    def test_header_checked(self, tmp_path, name):
        write_run(hand_built_result(), tmp_path)
        (tmp_path / name).write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match=f"{name}: expected header"):
            read_run(tmp_path)


class TestSummaryFile:
    def test_ends_in_a_newline_and_refuses_nan_before_writing(self, tmp_path):
        write_run(hand_built_result(), tmp_path / "run")
        text = (tmp_path / "run" / "summary.json").read_text()
        assert text.endswith("}\n") and json.loads(text)["calibration"]["c1"]["psrf"] == 1.05
        nan_seconds = hand_built_result()
        assert nan_seconds.timing[1] == ("c1", "calibrate", 2.5)
        nan_seconds.timing[1] = ("c1", "calibrate", math.nan)
        with pytest.raises(ValueError):
            write_run(nan_seconds, tmp_path / "nan")
        assert not (tmp_path / "nan").exists()

    def test_calibration_seconds_are_the_timing_row(self, tmp_path):
        # held once, in timing.csv: an edited calibrate row no longer matches summary.json's seconds
        write_run(hand_built_result(), tmp_path)
        timing = (tmp_path / "timing.csv").read_text()
        (tmp_path / "timing.csv").write_text(timing.replace("c1,calibrate,2.5", "c1,calibrate,999.0"))
        with pytest.raises(ValueError, match="summary.json: calibration not what the other files give"):
            read_run(tmp_path)

    def test_calibration_without_a_calibrate_row_refused(self, tmp_path):
        write_run(hand_built_result(), tmp_path / "run")
        timing = (tmp_path / "run" / "timing.csv").read_text()
        (tmp_path / "run" / "timing.csv").write_text(timing.replace("c1,calibrate,2.5\n", ""))
        message = "summary.json: calibration of c1 has no calibrate row in timing.csv"
        with pytest.raises(ValueError, match=message):
            read_run(tmp_path / "run")
        result = hand_built_result()
        del result.timing[1]
        with pytest.raises(ValueError, match=message):
            write_run(result, tmp_path / "none")
        assert not (tmp_path / "none").exists()

    def test_two_alphas_of_one_level_label_refused(self, tmp_path):
        # 0.05 and 0.0500000001 both print as level 95: summary.json would hold one of the two cells
        records = [record(), record(catchment="c02", alpha=0.0500000001, score=5.0)]
        message = "metrics.csv: scheme 5: alphas 0.05 and 0.0500000001 both label level 95"
        with pytest.raises(ValueError, match=message):
            write_records(tmp_path / "none", records)
        assert not (tmp_path / "none").exists()
        write_records(tmp_path / "run", [records[0], records[1]._replace(alpha=0.05)])
        for name, cell in (("metrics.csv", "c02,5,0.05,"), ("rankings.csv", "c02,0.05,")):
            path = tmp_path / "run" / name
            path.write_text(path.read_text().replace(cell, cell.replace("0.05", "0.0500000001")))
        with pytest.raises(ValueError, match=message):
            read_run(tmp_path / "run")

    def test_holds_the_results_kernels_not_this_hosts(self, tmp_path):
        result = hand_built_result()
        for kernels in (dict.fromkeys(KERNEL_KEYS, "python"), dict.fromkeys(KERNEL_KEYS, "compiled")):
            write_run(result._replace(kernels=kernels), tmp_path)
            summary = json.loads((tmp_path / "summary.json").read_text())
            assert {key: summary[key] for key in KERNEL_KEYS} == kernels

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_constant_refused(self, tmp_path, constant):
        write_run(hand_built_result(), tmp_path)
        path = tmp_path / "summary.json"
        path.write_text(path.read_text().replace('"seconds": 2.5', f'"seconds": {constant}'))
        with pytest.raises(ValueError, match=f"{path}: not a run summary: ValueError: {constant} is not strict JSON"):
            read_run(tmp_path)

    @pytest.mark.parametrize("key", ["calibration", "failures", *KERNEL_KEYS])
    def test_missing_key_named_with_the_path(self, tmp_path, key):
        write_run(hand_built_result(), tmp_path)
        path = tmp_path / "summary.json"
        summary = json.loads(path.read_text())
        del summary[key]
        path.write_text(json.dumps(summary))
        with pytest.raises(ValueError, match=f"{path}: (not a run summary: KeyError: '{key}'|{key} not what)"):
            read_run(tmp_path)

    @pytest.mark.parametrize("text", ["", "{", "[]", '{"calibration": {"c1": [1.05]}}', '{"calibration": 3}'])
    def test_not_a_summary_named_with_the_path(self, tmp_path, text):
        write_run(hand_built_result(), tmp_path)
        (tmp_path / "summary.json").write_text(text)
        with pytest.raises(ValueError, match=f"{tmp_path / 'summary.json'}: not a run summary"):
            read_run(tmp_path)


class TestRunDirectory:
    @pytest.mark.parametrize("name", ["metrics.csv", "wisdom.csv", "timing.csv", "rankings.csv", "summary.json"])
    def test_missing_file_named(self, tmp_path, name):
        write_run(hand_built_result(), tmp_path)
        (tmp_path / name).unlink()
        with pytest.raises(OSError, match=name):
            read_run(tmp_path)

    def test_metrics_seconds_are_the_timing_row(self, tmp_path):
        # a metrics.csv seconds cell repeats its (catchment, scheme) row of timing.csv
        write_run(hand_built_result(), tmp_path)
        metrics = (tmp_path / "metrics.csv").read_text()
        (tmp_path / "metrics.csv").write_text(metrics.replace("4.0,1,2.0", "4.0,1,9.0"))
        with pytest.raises(ValueError, match=r"metrics.csv:4: seconds 9.0 is not the timing.csv row of c2,1"):
            read_run(tmp_path)

    def test_files_that_disagree_refused(self, tmp_path):
        write_run(hand_built_result(), tmp_path)
        rankings = (tmp_path / "rankings.csv").read_text()
        (tmp_path / "rankings.csv").write_text(rankings.replace("c1,0.05,1,1", "c1,0.05,1,2"))
        with pytest.raises(ValueError, match="rankings.csv: not the ranks of"):
            read_run(tmp_path)
        (tmp_path / "rankings.csv").write_text(rankings)
        (tmp_path / "failures.csv").unlink()  # summary.json still counts one failure
        with pytest.raises(ValueError, match="summary.json: failures not what the other files give"):
            read_run(tmp_path)

    def test_a_run_without_failures_removes_an_earlier_failures_file(self, tmp_path):
        write_run(hand_built_result(), tmp_path)
        without = hand_built_result()
        without.failures.clear()
        write_run(without, tmp_path)
        assert "failures.csv" not in files(tmp_path) and read_run(tmp_path) == without

    def test_exit_code_follows_the_rows(self):
        result = hand_built_result()
        assert result.exit_code == 0
        result.records.clear()
        assert result.exit_code == 2


ASCII = st.text(alphabet='ab1 ,"\n\r\'', max_size=6)  # commas, quotes and line breaks need quoting
IDS = st.text(alphabet="ab1-", min_size=1, max_size=3)
FLOATS = st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 5e-324, 0.1, 1.0 / 3.0]) | st.floats(-1e300, 1e300)
OPTIONAL = st.none() | FLOATS
SECONDS = st.lists(st.tuples(ASCII, FLOATS), max_size=3)


@st.composite
def results(draw):
    """A result a run could give: catchments in order, each scored (with its cells) or failed, and its timing rows in
    order, the seconds of a scored catchment's schemes and calibration read from its rows."""
    records, wisdom, failures, calibration, timing = [], [], [], {}, []
    for cid in sorted(draw(st.lists(IDS, unique=True, max_size=4))):
        stages = draw(SECONDS)
        if draw(st.booleans()):  # failed: a worker failure has no stages
            timing += [(cid, stage, seconds) for stage, seconds in stages]
            failures.append(CatchmentFailure(cid, "worker" if not stages else stages[-1][0], draw(ASCII)))
            continue
        cells = draw(st.lists(st.tuples(IDS, st.sampled_from(INTERVAL_ALPHAS)), unique=True, max_size=4))
        calibrated = draw(st.booleans())
        stages += [("calibrate", draw(FLOATS))] * calibrated + [(scheme, draw(FLOATS)) for scheme in
                                                                dict.fromkeys(scheme for scheme, _ in cells)]
        timing += [(cid, stage, seconds) for stage, seconds in stages]
        seconds = dict(stages)  # a scheme's (or calibrate's) row comes last
        records += [MetricsRecord(cid, scheme, alpha, *draw(st.tuples(FLOATS, FLOATS, FLOATS)),
                                  draw(st.integers(0, 9)), seconds[scheme]) for scheme, alpha in cells]
        for scheme, alpha in cells[: draw(st.integers(0, len(cells)))]:  # a numbered scheme's level
            numbers = draw(st.tuples(FLOATS, FLOATS, FLOATS, OPTIONAL, OPTIONAL, OPTIONAL))  # ri_* may be None
            wisdom.append(WisdomRow(cid, scheme, alpha, *numbers, draw(st.integers(0, 9)), draw(st.integers(0, 9))))
        if calibrated:
            psrf = draw(st.sampled_from([math.inf, 1.05]) | FLOATS)
            calibration[cid] = CalibrationRecord(psrf, draw(st.booleans()), draw(st.integers(0, 5)))
    kernels = {key: draw(st.sampled_from(["compiled", "python"])) for key in KERNEL_KEYS}
    return ExperimentResult(records, wisdom, failures, calibration, timing, kernels)


def tricky_result():
    """Every case the property must cover, in one result."""
    result = hand_built_result()
    result.records[0] = result.records[0]._replace(coverage=-0.0, width=1e-300)
    result.calibration["c2"] = CalibrationRecord(math.inf, False, 2)
    result.timing.insert(6, ("c2", "calibrate", -0.0))  # after c2's ingest row
    result.failures.append(CatchmentFailure("c4", "worker", "BrokenProcessPool: a, \"b\"\r\nc\nd"))
    return result


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(results())
@example(hand_built_result())
@example(tricky_result())
def test_write_read_write_round_trip(result):
    with tempfile.TemporaryDirectory() as scratch:
        first, second = Path(scratch, "first"), Path(scratch, "second")
        write_run(result, first)
        back = read_run(first)
        assert back == result and repr(back) == repr(result)  # repr tells -0.0 from 0.0
        write_run(back, second)
        assert files(second) == files(first)
        assert set(files(first)) == set(FILES) - ({"failures.csv"} if not result.failures else set())


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(results())
@example(hand_built_result())
@example(tricky_result())
def test_a_result_is_the_concat_of_its_catchments_run_directories(result):
    # the oracle of per-catchment shards: each catchment's part of a result, written and read back on its own
    ids = sorted({row[0] for name in ("records", "wisdom", "failures", "timing") for row in getattr(result, name)})
    rows = lambda name, cid: [row for row in getattr(result, name) if row[0] == cid]
    parts = [
        ExperimentResult(rows("records", cid), rows("wisdom", cid), rows("failures", cid),
                         {c: cal for c, cal in result.calibration.items() if c == cid}, rows("timing", cid),
                         result.kernels)
        for cid in ids
    ]
    with tempfile.TemporaryDirectory() as scratch:
        for i, part in enumerate(parts):
            write_run(part, Path(scratch, str(i)))
        back = concat([read_run(Path(scratch, str(i))) for i in range(len(parts))], result.kernels)
    assert back == result and repr(back) == repr(result)
