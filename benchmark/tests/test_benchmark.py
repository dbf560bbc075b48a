"""Self-test of the benchmark at toy size: generators, checks and the traced run.

    python3 -m pytest benchmark/tests -q
"""

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from checks import (  # noqa: E402
    DRIFT_TOLERANCE,
    CheckError,
    check_outputs,
    load_json_strict,
    output_drift,
    strip_timing,
)
from tracing import Tracer, layer_metrics, traced_run  # noqa: E402
from workloads import WORKLOADS, experiment_config, write_inputs  # noqa: E402

from ensflow.experiment import run_experiment  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def tiny_run(request, tmp_path_factory):
    """One toy-size run_experiment call per workload, at the reference seed."""
    workload = WORKLOADS[request.param].tiny()
    base = tmp_path_factory.mktemp(request.param)
    write_inputs(workload, 0, base / "inputs")
    config = experiment_config(workload, base / "inputs", base / "out")
    result = run_experiment(config)
    return workload, config, base, result


def _rewrite_cell(path: Path, row: int, column: str, value: str) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][rows[0].index(column)] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_tiny_workload_passes_every_check(tiny_run):
    workload, config, base, result = tiny_run
    assert sorted(p.stem for p in (base / "inputs").glob("*.csv")) == workload.catchment_ids()
    assert result.failures == []
    check_outputs(base / "out", workload.catchment_ids(), config.schemes)


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    workload = WORKLOADS["calib-batch"].tiny()
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        write_inputs(workload, seed, tmp_path / name)
    for cid in workload.catchment_ids():
        first, again, other = ((tmp_path / d / f"{cid}.csv").read_bytes() for d in "abc")
        assert first == again
        assert first != other


def test_second_seed_passes_invariants(tmp_path):
    workload = WORKLOADS["paper-catchment"].tiny()
    write_inputs(workload, 1, tmp_path / "inputs")
    config = experiment_config(workload, tmp_path / "inputs", tmp_path / "out")
    assert run_experiment(config).failures == []
    check_outputs(tmp_path / "out", workload.catchment_ids(), config.schemes)


def test_drift_flags_a_tampered_reference(tiny_run, tmp_path):
    _, _, base, _ = tiny_run
    reference = tmp_path / "reference"
    reference.mkdir()
    for name in ("metrics.csv", "wisdom.csv"):
        strip_timing(base / "out" / name, reference / name)
    assert output_drift(base / "out", reference) == 0.0

    score = float(next(csv.DictReader(open(reference / "metrics.csv")))["score"])
    _rewrite_cell(reference / "metrics.csv", 1, "score", repr(score * (1 + 1e-6)))
    drift = output_drift(base / "out", reference)
    assert DRIFT_TOLERANCE < drift == pytest.approx(1e-6, rel=1e-3)

    _rewrite_cell(reference / "metrics.csv", 1, "scheme", "tampered")
    assert output_drift(base / "out", reference) == math.inf


@pytest.mark.parametrize(
    ("name", "column", "value"),
    [
        ("wisdom.csv", "relative_difference", "-1e-9"),
        ("metrics.csv", "score", "nan"),
        ("metrics.csv", "crossings", "1.5"),
    ],
)
def test_invariant_checks_reject_bad_outputs(tiny_run, tmp_path, name, column, value):
    workload, config, base, _ = tiny_run
    if name == "wisdom.csv" and not any(s[0].isdigit() for s in config.schemes):
        pytest.skip("no numbered scheme, no wisdom rows")
    out = tmp_path / "out"
    shutil.copytree(base / "out", out)
    _rewrite_cell(out / name, 1, column, value)
    with pytest.raises(CheckError):
        check_outputs(out, workload.catchment_ids(), config.schemes)


def test_strict_json_rejects_non_standard_constants(tmp_path):
    path = tmp_path / "summary.json"
    for text in ('{"psrf": NaN}', '{"psrf": Infinity}', '{"psrf": -Infinity}'):
        path.write_text(text)
        with pytest.raises(CheckError):
            load_json_strict(path)


def test_traced_run_reproduces_untraced_outputs_and_every_layer(tiny_run):
    workload, config, base, _ = tiny_run
    tracer = Tracer()
    traced_config = experiment_config(workload, base / "inputs", base / "traced", workers=1)
    run = traced_run(traced_config, tracer)
    assert output_drift(base / "traced", base / "out") == 0.0

    layers = layer_metrics(tracer, run, {"wall_s": 1.0, "cpu_s": 1.0}, workload.workers)
    names = {m["name"] for m in SPEC["per_layer"]}
    if set(config.schemes) == {"basic-linear", "basic-quantile", "1", "2", "3", "4", "5", "6"}:
        assert names <= set(layers)
        # per catchment: scheme 4 fits m = 20 sisters, schemes 5, 6 and basic-quantile one model each
        assert layers["regress.lp_count"] == workload.n_catchments * (20 + 1 + 1 + 1) * 10
    else:
        assert "regress.lp_count" not in layers
    assert ("trace.overhead_s" in layers) == (workload.workers == 1)
    assert 0.0 <= layers["trace.tracer_cost_s"] < layers["trace.total_s"]
    spans = tracer.spans
    assert all(s["end"] >= s["start"] for s in spans)
    assert {s["catchment"] for s in spans if s["name"] == "calibrate.calibrate_catchment"} == set(
        workload.catchment_ids()
    )


def test_instrument_restores_the_modules():
    from ensflow import ensemble, experiment
    from tracing import TracedRun, instrument

    before = (experiment.load_catchment, experiment._process_catchment, ensemble.train_error_model)
    with instrument(Tracer(), TracedRun()):
        assert experiment.load_catchment is not before[0]
    assert (experiment.load_catchment, experiment._process_catchment, ensemble.train_error_model) == before


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        {"name": "outer", "catchment": None, "parent": None, "start": 0.0, "end": 10.0},
        {"name": "inner", "catchment": None, "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "inner", "catchment": None, "parent": 0, "start": 5.0, "end": 7.0},
    ]
    assert tracer.self_seconds() == {"outer": 5.0, "inner": 5.0}


def test_benchmark_json_lists_these_workloads():
    assert {listed["name"] for listed in SPEC["workloads"]} <= set(WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "paper-catchment", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
