"""Command-line front end: ingest, synth, run, report.

Exit codes: 0 success, 1 unusable configuration or arguments, 2 no valid
catchments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .evaluate import read_metrics_csv
from .experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    SyntheticSpec,
    discover_catchments,
    emit_reports,
    generate_synthetic,
    load_config,
    run_experiment,
)
from .timeseries import load_catchment

# run flag -> ExperimentConfig key; a flag that is given replaces the config file's value
_RUN_FLAGS = {
    "input": "input_dir",
    "out": "output_dir",
    "seed": "seed",
    "workers": "workers",
    "schemes": "schemes",
    "m": "m",
    "iterations": "n_iterations",
    "retain": "retain_per_chain",
}


def _scheme_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensflow",
        description="Probabilistic monthly streamflow prediction via ensemble post-processing",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    ingest = sub.add_parser("ingest", help="validate daily catchment CSVs")
    ingest.add_argument("--input", required=True, help="directory of daily CSV files")
    ingest.add_argument("--catchments", default="", help="comma-separated ids (default: all)")

    synth = sub.add_parser("synth", help="generate synthetic catchments with known truth")
    synth.add_argument("--out", required=True)
    synth.add_argument("--count", type=int, default=1)
    synth.add_argument("--months", type=int, default=600)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--theta1", type=float, default=400.0)
    synth.add_argument("--theta2", type=float, default=0.9)
    synth.add_argument("--noise-ratio", type=float, default=0.05)
    synth.add_argument("--noise-floor", type=float, default=0.01)

    run = sub.add_parser("run", help="calibrate, predict and score a batch of catchments")
    run.add_argument("--config", default=None, help="flat key = value file (defaults apply)")
    run.add_argument("--input", default=None)
    run.add_argument("--out", default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--schemes", type=_scheme_list, default=None, help="comma-separated scheme ids")
    run.add_argument("--m", type=int, default=None)
    run.add_argument("--iterations", type=int, default=None, help="chain length")
    run.add_argument("--retain", type=int, default=None, help="retained states per chain")

    report = sub.add_parser("report", help="re-aggregate an existing metrics.csv")
    report.add_argument("--metrics", required=True)
    report.add_argument("--out", required=True)
    return parser


def _cmd_ingest(args) -> int:
    directory = Path(args.input)
    if not directory.is_dir():
        print(f"input directory not found: {directory}", file=sys.stderr)
        return 1
    wanted = [c for c in args.catchments.split(",") if c] or sorted(
        p.stem for p in directory.glob("*.csv")
    )
    if not wanted:
        print("no catchment files found", file=sys.stderr)
        return 2
    n_valid = 0
    for cid in wanted:
        try:
            series = load_catchment(directory / f"{cid}.csv")
        except (OSError, ValueError) as exc:
            print(f"{cid}: REJECTED ({exc})")
            continue
        n_valid += 1
        print(f"{cid}: ok, {series.n} months from {series.origin[0]}-{series.origin[1]:02d}")
    print(f"{n_valid}/{len(wanted)} catchments valid")
    return 0 if n_valid else 2


def _cmd_synth(args) -> int:
    if args.count < 1 or args.months < 1:
        print("count and months must be >= 1", file=sys.stderr)
        return 1
    for index in range(args.count):
        try:
            spec = SyntheticSpec(
                theta1=args.theta1, theta2=args.theta2, n_months=args.months, seed=args.seed + index,
                flow_noise_ratio=args.noise_ratio, flow_noise_floor=args.noise_floor,
            )
            csv_path, meta_path = generate_synthetic(spec, args.out, f"synth{index:03d}")
        except ValueError as exc:
            print(f"synth{index:03d}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {csv_path} (+ {meta_path.name})")
    return 0


def _cmd_run(args) -> int:
    flags = {key: getattr(args, flag) for flag, key in _RUN_FLAGS.items() if getattr(args, flag) is not None}
    try:
        config = load_config(args.config, **flags) if args.config else ExperimentConfig(**flags)
    except (OSError, ConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    if not discover_catchments(config):
        print(f"no catchment files in {config.input_dir}", file=sys.stderr)
        return 2
    result = run_experiment(config)
    for failure in result.failures:
        print(f"skipped {failure.catchment} at {failure.stage}: {failure.message}", file=sys.stderr)
    n_catchments = len({r.catchment for r in result.records})
    print(f"scored {n_catchments} catchments, reports in {config.output_dir}")
    return result.exit_code


def _cmd_report(args) -> int:
    try:
        records = read_metrics_csv(args.metrics)
    except (OSError, ValueError) as exc:
        print(f"cannot read metrics: {exc}", file=sys.stderr)
        return 1
    if not records:
        print("metrics file holds no rows", file=sys.stderr)
        return 2
    result = ExperimentResult(records=records, wisdom=[], failures=[], calibration={}, exit_code=0)
    emit_reports(result, args.out)
    print(f"re-aggregated {len(records)} rows into {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handlers = {
        "ingest": _cmd_ingest,
        "synth": _cmd_synth,
        "run": _cmd_run,
        "report": _cmd_report,
    }
    return handlers[args.verb](args)


if __name__ == "__main__":
    sys.exit(main())
