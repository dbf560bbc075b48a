"""Command-line front end: ingest, synth, run, report.

Exit codes: 0 success, 1 unusable configuration or arguments, 2 no valid
catchments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiment import (
    ConfigError, ExperimentConfig, SyntheticSpec, discover_catchments, generate_synthetic, load_config, parse_ids,
    run_experiment,
)
from .reports import read_run, write_run
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
# synth flag -> SyntheticSpec field; a flag that is not given keeps the spec's default
_SYNTH_FLAGS = {"months": "n_months", "theta1": "theta1", "theta2": "theta2", "noise_ratio": "flow_noise_ratio",
                "noise_floor": "flow_noise_floor"}


def _given(args, flags: dict) -> dict:
    """The keys of the flags that were given, with their values."""
    return {key: getattr(args, flag) for flag, key in flags.items() if getattr(args, flag) is not None}


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
    synth.add_argument("--months", type=int, default=None)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--theta1", type=float, default=None)
    synth.add_argument("--theta2", type=float, default=None)
    synth.add_argument("--noise-ratio", type=float, default=None)
    synth.add_argument("--noise-floor", type=float, default=None)

    run = sub.add_parser("run", help="calibrate, predict and score a batch of catchments")
    run.add_argument("--config", default=None, help="flat key = value file (defaults apply)")
    run.add_argument("--input", default=None)
    run.add_argument("--out", default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--schemes", type=parse_ids, default=None, help="comma-separated scheme ids")
    run.add_argument("--m", type=int, default=None)
    run.add_argument("--iterations", type=int, default=None, help="chain length")
    run.add_argument("--retain", type=int, default=None, help="retained states per chain")

    report = sub.add_parser("report", help="rewrite a run's report files from them")
    report.add_argument("--run", required=True, help="the run's output directory")
    report.add_argument("--out", required=True)
    return parser


def _cmd_ingest(args) -> int:
    directory = Path(args.input)
    if not directory.is_dir():
        print(f"input directory not found: {directory}", file=sys.stderr)
        return 1
    try:
        wanted = discover_catchments(ExperimentConfig(input_dir=args.input, catchments=parse_ids(args.catchments)))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
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
    if args.count < 1:
        print("count must be >= 1", file=sys.stderr)
        return 1
    for index in range(args.count):
        try:
            spec = SyntheticSpec(seed=args.seed + index, **_given(args, _SYNTH_FLAGS))
            csv_path, meta_path = generate_synthetic(spec, args.out, f"synth{index:03d}")
        except ValueError as exc:
            print(f"synth{index:03d}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {csv_path} (+ {meta_path.name})")
    return 0


def _cmd_run(args) -> int:
    flags = _given(args, _RUN_FLAGS)
    try:
        config = load_config(args.config, **flags) if args.config else ExperimentConfig(**flags)
    except (OSError, ConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    if not discover_catchments(config):
        print(f"no catchment files in {config.input_dir}", file=sys.stderr)
        return 2
    try:
        result = run_experiment(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    for failure in result.failures:
        print(f"skipped {failure.catchment} at {failure.stage}: {failure.message}", file=sys.stderr)
    n_catchments = len({r.catchment for r in result.records})
    print(f"scored {n_catchments} catchments, reports in {config.output_dir}")
    return result.exit_code


def _cmd_report(args) -> int:
    try:
        result = read_run(args.run)
    except (OSError, ValueError) as exc:
        print(f"cannot read run: {exc}", file=sys.stderr)
        return 1
    write_run(result, args.out)
    print(f"rewrote {len(result.records)} metric rows and the rest of {args.run} into {args.out}")
    return result.exit_code


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
