"""The benchmark's traced run reaches ensflow through module attributes, and those must stay.

``benchmark/tracing.py`` swaps each hooked ``(module, attribute)`` for a
span-opening wrapper, and probes ``calibration_objective(series, split)``.  A
function renamed, no longer imported by the module the hook names, or called
another way makes a ``--trace 1`` run crash, which the benchmark reports as an
incorrect run.  These tests read ``tracing.py`` as it is and never change it.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

import ensflow
from ensflow.experiment import SyntheticSpec, synthesize_monthly
from ensflow.timeseries import partition

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("ensflow_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_hooked_attribute_resolves_on_ensflow():
    tracing = load_tracing()
    hooks = tracing._hooks(tracing.TracedRun())
    assert hooks
    for module, attribute in hooks:
        assert module.__name__.startswith(f"{ensflow.__name__}."), module
        assert callable(getattr(module, attribute, None)), f"{module.__name__}.{attribute} is gone"


def test_objective_probe_calls_calibration_objective_with_series_and_split():
    tracing = load_tracing()
    series = synthesize_monthly(SyntheticSpec(n_months=84, seed=3))[0]
    run = tracing.TracedRun(calibrated=[(series, partition(84, 12, 48, 12))])
    tracer = tracing.Tracer()
    microseconds = tracing.objective_probe(run, tracer)
    assert math.isfinite(microseconds) and microseconds > 0.0
    assert [span["name"] for span in tracer.spans] == ["calibrate.objective_probe"]
    assert np.isfinite(tracing.calibration_objective(series, partition(84, 12, 48, 12))(400.0, 0.9))
