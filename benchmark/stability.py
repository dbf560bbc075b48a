"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 benchmark/stability.py [--runs 10] [--sets 2] [--workload NAME ...] [--first-seed 1]
                                   [--baseline benchmark/baseline.json]

Runs ``run.py --trace 0`` once per seed (first-seed, first-seed + 1, ...) on
each workload, one run at a time, and repeats that set of seeds ``--sets``
times.  For every end-to-end metric it prints, per set, the median, the
quartiles as ``statistics.quantiles(values, n=4)`` gives them and their
distance as a share of the median; and, from the second set on, how much
worse the set's median is than the first set's, as a share of the first.

The exit code is 0 only when every run was correct, every spread except
that of ``setup_s`` is within the metric's bound, and no later set's median
of any metric, ``setup_s`` included, is worse than the first set's by more
than the bound.  Set-up time is exempt from the spread rule because it is
timed on short, fixed work and spreads with the host's speed; the comparison
between sets still holds it to its bound.  Each line also gives the spread
as a share of the bound, so a spread above a third of it shows.  Workloads default to those
``BENCHMARK.json`` lists.  With ``--baseline`` it also makes one
``--trace 1`` run per workload at the reference seed and writes every result
line and summary to the given file, keeping the entries of workloads not run
now.  ``--sets 0`` makes only the traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import REFERENCE_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(results: list[dict], spec: dict) -> dict:
    summary = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[metric["name"]] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "bound": metric["bound"],
            "unit": metric["unit"],
        }
    return summary


def worsening(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first`` (negative: better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    record = {"run_seconds": seconds, "workloads": {}}
    if args.baseline and args.baseline.exists():
        # add to the recorded baseline; the workloads run now replace their entries
        record["workloads"] = json.loads(args.baseline.read_text())["workloads"]
    steady = True
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        sets = []
        for number in range(1, args.sets + 1):
            results = [dict(run_once(name, seed, seconds, 0), seed=seed) for seed in seeds]
            summary = summarize(results, spec)
            all_correct = all(r["correct"] for r in results)
            steady &= all_correct
            print(f"{name} set {number}: {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}, all correct: {all_correct}")
            for metric, s in summary.items():
                s["worse_than_first"] = worsening(sets[0]["summary"][metric]["median"], s["median"],
                                                  better[metric]) if sets else 0.0
                ok = (metric == "setup_s" or s["spread"] <= s["bound"]) and s["worse_than_first"] <= s["bound"]
                steady &= ok
                print(f"  {metric:12s} median {s['median']:10.4f} {s['unit']:7s} q1 {s['q1']:10.4f} "
                      f"q3 {s['q3']:10.4f} spread {s['spread']:7.4f} ({s['spread'] / s['bound']:4.2f} of bound) "
                      f"worse than set 1 {s['worse_than_first']:+7.4f} bound {s['bound']:5.3f} "
                      f"{'ok' if ok else 'OUTSIDE BOUND'}", flush=True)
            sets.append({"runs": results, "summary": summary})
        record["workloads"][name] = {"sets": sets}
        if args.baseline:
            record["workloads"][name]["traced"] = dict(run_once(name, REFERENCE_SEED, seconds, 1), seed=REFERENCE_SEED)
    if args.baseline:
        args.baseline.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
