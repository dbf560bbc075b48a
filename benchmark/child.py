"""Subprocess entry points of the benchmark, started by ``run.py``.

``setup``   imports ensflow and writes the workload's daily CSVs, then prints
            the seconds that took as JSON.  Each set-up runs in a fresh
            process so that the import is paid every time.
``measure`` times ``run_experiment`` calls over those CSVs (``--trace 0``), or
            one untraced call plus the traced run (``--trace 1``), and writes
            ``measure.json`` into the run directory.  Its own resource usage
            covers only itself and its pool workers.

BLAS and OpenMP thread counts are pinned to 1 before numpy loads; pool
workers inherit the setting.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import WORKLOADS, experiment_config, write_inputs  # noqa: E402


def setup(args) -> None:
    start = time.perf_counter()
    import ensflow  # noqa: F401  (the import is part of set-up)

    write_inputs(WORKLOADS[args.workload], args.seed, Path(args.out))
    print(json.dumps({"seconds": time.perf_counter() - start}))


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def timed_call(config) -> dict:
    """One run_experiment call: wall and CPU seconds, failures, or the crash."""
    from ensflow.experiment import run_experiment

    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    try:
        result = run_experiment(config)
        failures, error = [f"{f.catchment}: {f.stage}: {f.message}" for f in result.failures], None
    except Exception:  # a crash loses every catchment of the call; report it, do not stop
        failures, error = None, traceback.format_exc()
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "cpu_s": _cpu_seconds() - cpu_start,
        "out_dir": config.output_dir,
        "failures": failures,
        "error": error,
    }


def measure(args) -> None:
    import numpy
    import scipy

    workload = WORKLOADS[args.workload]
    run_dir = Path(args.run_dir)
    inputs = run_dir / "inputs"
    calls: list[dict] = []
    report: dict = {}
    if args.trace == 0:
        start = time.perf_counter()
        while True:
            calls.append(timed_call(experiment_config(workload, inputs, run_dir / f"call{len(calls)}")))
            # stop before a call that would end past --seconds; always make one
            if calls[-1]["error"] or time.perf_counter() - start + calls[-1]["wall_s"] > args.seconds:
                break
    else:
        from tracing import COMPUTED_COUNTS, Tracer, layer_metrics, traced_run

        calls.append(timed_call(experiment_config(workload, inputs, run_dir / "call0")))
        tracer = Tracer()
        try:
            run = traced_run(experiment_config(workload, inputs, run_dir / "traced", workers=1), tracer)
            report["layers"] = layer_metrics(tracer, run, calls[0], workload.workers)
        except Exception:  # the traced path broke; the untraced result still stands
            report["trace_error"] = traceback.format_exc()
        report["traced_dir"] = str(run_dir / "traced")
        (run_dir / "trace.json").write_text(
            json.dumps({"computed_counts": COMPUTED_COUNTS, "spans": tracer.spans}, indent=1) + "\n"
        )

    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    config = experiment_config(workload, inputs, run_dir)
    report.update(
        {
            "calls": calls,
            "schemes": list(config.schemes),
            "workers": config.workers,
            # ru_maxrss is in KiB on Linux
            "peak_rss_self_mb": own.ru_maxrss / 1024.0,
            "peak_rss_worker_mb": workers.ru_maxrss / 1024.0,
            "env": {
                **{var: os.environ[var] for var in THREAD_VARS},
                "nproc": os.cpu_count(),
                "usable_cpus": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        }
    )
    (run_dir / "measure.json").write_text(json.dumps(report, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p_setup.add_argument("--seed", type=int, required=True)
    p_setup.add_argument("--out", required=True)
    p_measure = sub.add_parser("measure")
    p_measure.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p_measure.add_argument("--seconds", type=float, required=True)
    p_measure.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_measure.add_argument("--run-dir", required=True)
    args = parser.parse_args()
    if args.command == "setup":
        setup(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
