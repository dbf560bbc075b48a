"""ensflow benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload paper-catchment --seed 0 --seconds 45 --trace 0

The run generates the workload's synthetic daily CSVs from ``--seed`` (five
times, each in a fresh process, for ``setup_s``), then times
``ensflow.experiment.run_experiment`` over them in a closed loop: calls follow
one another until the next would end past ``--seconds``, and there is always
at least one.  ``--trace 1`` instead makes one untraced call and one traced
run of the same catchments (see ``tracing.py``) and reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``.

Every run checks its outputs (see ``checks.py``): no catchment may fail, all
report files must parse strictly and satisfy the invariants, repeated calls
must agree, at the reference seed the outputs must match the committed
reference within ``DRIFT_TOLERANCE``, and a traced run must reproduce the
untraced outputs bit-for-bit.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 0 only when ``correct`` is true.  Human-readable lines and
the run's details (``.benchmark_runs/<workload>/result.json``) come first.

``--update-reference`` (at the reference seed only) rewrites the committed
reference outputs from this run instead of comparing against them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import DRIFT_TOLERANCE, DRIFT_FILES, CheckError, check_outputs, output_drift, strip_timing
from workloads import REFERENCE_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
SETUP_REPEATS = 5
# stay inside the 180 s a run may take, including interpreter start and checks
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result at all."""


def _child(args: list[str], deadline: float) -> str:
    """Run child.py in its own session; on timeout kill the session, pool workers too."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child.py {args[0]} exceeded the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"child.py {args[0]} exited with code {proc.returncode}")
    return out


def _git_sha() -> str:
    """HEAD's commit from the checkout's .git files, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _check_run(args, workload, measured: dict) -> tuple[int, int, list[str], dict]:
    """(attempted, failed, problems, drifts) over every output the run wrote."""
    catchments = workload.catchment_ids()
    schemes = tuple(measured["schemes"])
    attempted = failed = 0
    problems: list[str] = []
    good: list[Path] = []
    for index, call in enumerate(measured["calls"]):
        attempted += len(catchments)
        if call["error"]:
            failed += len(catchments)
            problems.append(f"call {index} crashed:\n{call['error']}")
        elif call["failures"]:
            failed += len(call["failures"])
            problems.append(f"call {index}: failed catchments {call['failures']}")
        else:
            try:
                check_outputs(Path(call["out_dir"]), catchments, schemes)
                good.append(Path(call["out_dir"]))
            except CheckError as exc:
                problems.append(f"call {index}: {exc}")

    drifts: dict = {}
    if good:
        first = good[0]
        drifts["between_calls"] = max((output_drift(d, first) for d in good[1:]), default=0.0)
        if drifts["between_calls"] != 0.0:
            problems.append(f"repeated calls disagree: drift {drifts['between_calls']!r}")
        reference = REFERENCE_DIR / args.workload
        if args.seed == REFERENCE_SEED and args.update_reference:
            reference.mkdir(parents=True, exist_ok=True)
            for name in DRIFT_FILES:
                strip_timing(first / name, reference / name)
        elif args.seed == REFERENCE_SEED:
            drifts["reference"] = output_drift(first, reference)
            if not drifts["reference"] <= DRIFT_TOLERANCE:
                problems.append(f"output_drift {drifts['reference']!r} exceeds {DRIFT_TOLERANCE}")

    if args.trace:
        attempted += len(catchments)
        if "trace_error" in measured:
            failed += len(catchments)
            problems.append(f"traced run crashed:\n{measured['trace_error']}")
        else:
            traced = Path(measured["traced_dir"])
            try:
                check_outputs(traced, catchments, schemes)
            except CheckError as exc:
                problems.append(f"traced run: {exc}")
            if good:
                drifts["traced_vs_untraced"] = output_drift(traced, good[0])
                if drifts["traced_vs_untraced"] != 0.0:
                    problems.append(f"traced outputs differ from untraced: {drifts['traced_vs_untraced']!r}")
    return attempted, failed, problems, drifts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.update_reference and (args.seed != REFERENCE_SEED or args.trace):
        parser.error(f"--update-reference needs --seed {REFERENCE_SEED} --trace 0")

    if not (ROOT / "src" / "ensflow" / "__init__.py").is_file():
        print(f"no ensflow sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = ROOT / ".benchmark_runs" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs = run_dir / "inputs"

    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(inputs, ignore_errors=True)
            out = _child(["setup", "--workload", args.workload, "--seed", str(args.seed), "--out", str(inputs)], deadline)
            setup_times.append(json.loads(out.splitlines()[-1])["seconds"])
        _child(
            ["measure", "--workload", args.workload, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--run-dir", str(run_dir)],
            deadline,
        )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    measured = json.loads((run_dir / "measure.json").read_text())
    attempted, failed, problems, drifts = _check_run(args, workload, measured)

    calls = measured["calls"]
    values = dict(measured.get("layers", {}))
    values.update(
        {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(c["wall_s"] for c in calls),
            "cpu_s": statistics.median(c["cpu_s"] for c in calls),
            "peak_rss_mb": max(measured["peak_rss_self_mb"], measured["peak_rss_worker_mb"]),
        }
    )
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace and "layers" not in measured:
        metrics = {}  # the traced run crashed; already counted as a failure
    else:
        # a layer the workload never calls has no span and reads 0
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    env = dict(measured["env"], git_sha=_git_sha())
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_times_s": setup_times,
        "calls": calls,
        "peak_rss_self_mb": measured["peak_rss_self_mb"],
        "peak_rss_worker_mb": measured["peak_rss_worker_mb"],
        "drifts": drifts,
        "problems": problems,
        "values": values,
    }
    (run_dir / "result.json").write_text(json.dumps(details, indent=1, default=str) + "\n")

    print(
        f"workload {args.workload}, seed {args.seed}: {workload.n_catchments} catchment(s) x "
        f"{workload.n_months} months, workers {measured['workers']}, {len(calls)} timed call(s)"
    )
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}")
    failed_ratio = failed / attempted
    print(f"  {'failed_ratio':42s} {failed_ratio:>14.6g} ratio ({failed} of {attempted} catchment runs)")
    for key, drift in drifts.items():
        print(f"  {'output_drift.' + key:42s} {drift:>14.6g} ratio")
    for name, meaning in (("trace.tracer_cost_s", "spans x cost of one span"),
                          ("trace.overhead_s", "traced total - untraced wall_s")):
        if name in values:
            print(f"  {name:42s} {values[name]:>14.6g} s ({meaning})")
    if args.trace and "calibrate.retained_chain_steps" in values:
        print(f"  calibrate.acceptance_rate base: {values['calibrate.retained_chain_steps']:.0f} retained-chain steps")
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)

    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
