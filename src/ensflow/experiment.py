"""Batch experiments: configuration, synthetic catchments, runs and reports.

A run takes a directory of daily catchment CSVs, calibrates each catchment,
executes the requested prediction schemes, scores five central intervals per
scheme and writes five machine-readable outputs: ``metrics.csv``,
``summary.json``, ``rankings.csv``, ``wisdom.csv`` and ``timing.csv``
(plus ``failures.csv`` when catchments had to be skipped).

Configuration lives in a flat ``key = value`` text file; every key has a
default, so an empty file is a valid experiment.  Catchment-level randomness
derives from the global seed and a hash of the catchment id, never from the
position in the batch, so adding or removing catchments does not change the
results of the remaining ones.
"""

from __future__ import annotations

import calendar
import csv
import datetime as dt
import json
import math
import zlib
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .calibrate import CalibrationResult, ChainConfig, ParameterBox, calibrate_catchment
from .ensemble import (
    ALL_SCHEMES,
    BASIC_SCHEMES,
    DEFAULT_PROBABILITIES,
    SchemeConfig,
    SchemeResult,
    build_sisters,
    intervals_from_prediction,
    member_interval_bounds,
    run_scheme,
)
from .evaluate import (
    INTERVAL_ALPHAS,
    MetricsRecord,
    WisdomRecord,
    average_interval_score,
    average_width,
    coverage_probability,
    crossing_count,
    rank_schemes,
    summarize,
    wisdom_metrics,
    write_metrics_csv,
    write_summary_json,
)
from .gr2m import _simulate_flow
from .timeseries import (
    DailyRecord,
    MonthlySeries,
    load_catchment,
    partition,
    validate_series,
    write_daily_csv,
)


class ConfigError(ValueError):
    """Experiment configuration is unusable; the message lists every problem."""


@dataclass(frozen=True)
class ExperimentConfig:
    input_dir: str = "."
    output_dir: str = "out"
    catchments: tuple[str, ...] = ()  # empty means: every *.csv in input_dir
    warmup: int = 12
    n1: int = 144
    n2: int = 144
    n3: int = 0  # 0 means: whatever the series leaves over
    schemes: tuple[str, ...] = ALL_SCHEMES
    m: int = 600
    probabilities: tuple[float, ...] = DEFAULT_PROBABILITIES
    n_chains: int = 3
    n_iterations: int = 2000
    retain_per_chain: int = 200
    psrf_threshold: float = 1.10
    max_restarts: int = 10
    retention: str = "bayesian-tail"
    include_warmup_in_basic: bool = True
    clamp_nonnegative: bool = False
    theta1_min: float = 1.0
    theta1_max: float = 3000.0
    theta2_min: float = 0.2
    theta2_max: float = 5.0
    seed: int = 0
    workers: int = 1


def validate_config(config: ExperimentConfig) -> list[str]:
    """Collect every problem; ParameterBox and ChainConfig each report all of theirs in one entry."""
    problems: list[str] = []
    if config.warmup < 0:
        problems.append(f"warmup must be >= 0, got {config.warmup}")
    for name in ("n1", "n2"):
        if getattr(config, name) < 1:
            problems.append(f"{name} must be >= 1, got {getattr(config, name)}")
    if config.n3 < 0:
        problems.append(f"n3 must be >= 0 (0 = remainder), got {config.n3}")
    for scheme in config.schemes:
        if scheme not in ALL_SCHEMES:
            problems.append(f"unknown scheme {scheme!r}, expected one of {ALL_SCHEMES}")
    if config.m < 1:
        problems.append(f"m must be >= 1, got {config.m}")
    try:
        SchemeConfig(probabilities=config.probabilities, m=max(config.m, 1))
    except ValueError as exc:
        problems.append(str(exc))
    for build in (_parameter_box, _chain_config):
        try:
            build(config)
        except ValueError as exc:
            problems.append(str(exc))
    if config.retention not in ("bayesian-tail", "informal-head"):
        problems.append(f"retention must be bayesian-tail or informal-head, got {config.retention!r}")
    needs_sample = any(s not in BASIC_SCHEMES for s in config.schemes)
    if needs_sample and config.m > config.n_chains * config.retain_per_chain:
        problems.append(
            f"m={config.m} exceeds retained pairs "
            f"(n_chains * retain_per_chain = {config.n_chains * config.retain_per_chain})"
        )
    if config.workers < 1:
        problems.append(f"workers must be >= 1, got {config.workers}")
    return problems


def _parameter_box(config: ExperimentConfig) -> ParameterBox:
    return ParameterBox((config.theta1_min, config.theta1_max), (config.theta2_min, config.theta2_max))


def _chain_config(config: ExperimentConfig, **overrides) -> ChainConfig:
    names = ("n_chains", "n_iterations", "retain_per_chain", "psrf_threshold", "max_restarts")
    return ChainConfig(**{name: getattr(config, name) for name in names}, **overrides)


def _parse_value(name: str, text: str, example):
    if isinstance(example, bool):
        lowered = text.strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"{name}: expected a boolean, got {text!r}")
    if isinstance(example, int):
        return int(text)
    if isinstance(example, float):
        return float(text)
    if isinstance(example, tuple):
        items = [item.strip() for item in text.split(",") if item.strip()]
        if example and isinstance(example[0], float):
            return tuple(float(item) for item in items)
        return tuple(items)
    return text.strip()


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a flat key = value file; unknown keys and bad values are all reported."""
    defaults = ExperimentConfig()
    known = {f.name: getattr(defaults, f.name) for f in fields(defaults)}
    overrides: dict = {}
    problems: list[str] = []
    for line_number, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {line_number}: expected key = value, got {raw!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            problems.append(f"line {line_number}: unknown key {key!r}")
            continue
        try:
            overrides[key] = _parse_value(key, value.strip(), known[key])
        except ValueError as exc:
            problems.append(f"line {line_number}: {exc}")
    if problems:
        raise ConfigError("; ".join(problems))
    config = replace(defaults, **overrides)
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))
    return config


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            text = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# synthetic catchments


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic catchment with known truth.

    Monthly forcing follows opposing seasonal sinusoids with multiplicative
    lognormal noise; true flow is the water-balance model run on that
    forcing; observed flow adds heteroscedastic Gaussian noise with standard
    deviation ``flow_noise_ratio * flow + flow_noise_floor``, floored at 0.
    """

    theta1: float = 400.0
    theta2: float = 0.9
    n_months: int = 600
    seed: int = 0
    precip_mean: float = 80.0
    precip_amplitude: float = 0.5
    pet_mean: float = 60.0
    pet_amplitude: float = 0.6
    forcing_noise: float = 0.3
    flow_noise_ratio: float = 0.05
    flow_noise_floor: float = 0.01
    start_year: int = 1950

    def __post_init__(self) -> None:
        if self.n_months < 1:
            raise ValueError(f"n_months must be >= 1, got {self.n_months}")
        if self.theta1 <= 0 or self.theta2 < 0:
            raise ValueError("theta1 must be > 0 and theta2 >= 0")
        for name in ("precip_mean", "pet_mean"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("precip_amplitude", "pet_amplitude"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.flow_noise_ratio < 0 or self.flow_noise_floor < 0:
            raise ValueError("noise settings must be >= 0")


def synthesize_monthly(spec: SyntheticSpec) -> tuple[MonthlySeries, np.ndarray]:
    """Monthly observed series plus the noise-free true flow."""
    rng = np.random.default_rng(spec.seed)
    months = np.arange(spec.n_months)
    phase = 2.0 * np.pi * (months % 12) / 12.0
    # exp(sigma z - sigma^2/2) keeps the mean at the stated level
    wobble = lambda: np.exp(
        spec.forcing_noise * rng.standard_normal(spec.n_months) - 0.5 * spec.forcing_noise**2
    )
    precip = spec.precip_mean * (1.0 + spec.precip_amplitude * np.sin(phase)) * wobble()
    pet = spec.pet_mean * (1.0 + spec.pet_amplitude * np.sin(phase + np.pi)) * wobble()
    truth = _simulate_flow(spec.theta1, spec.theta2, precip, pet, 0, spec.n_months)
    sd = spec.flow_noise_ratio * truth + spec.flow_noise_floor
    observed = np.maximum(truth + sd * rng.standard_normal(spec.n_months), 0.0)
    series = MonthlySeries(
        origin=(spec.start_year, 1),
        precipitation=precip,
        potential_evaporation=pet,
        streamflow=observed,
    )
    return series, truth


def _monthly_to_daily(series: MonthlySeries) -> list[DailyRecord]:
    """Spread each monthly total uniformly over its days.

    The last day takes the closure residual so the daily values sum back to
    the monthly total as closely as floating point allows.
    """
    records: list[DailyRecord] = []
    year, month = series.origin
    for t in range(series.n):
        days = calendar.monthrange(year, month)[1]
        values = {}
        for name in ("precipitation", "potential_evaporation", "streamflow"):
            total = float(getattr(series, name)[t])
            per_day = total / days
            last = total - math.fsum([per_day] * (days - 1))
            values[name] = [per_day] * (days - 1) + [max(last, 0.0)]
        for day in range(1, days + 1):
            records.append(
                DailyRecord(
                    date=dt.date(year, month, day),
                    precipitation=values["precipitation"][day - 1],
                    potential_evaporation=values["potential_evaporation"][day - 1],
                    streamflow=values["streamflow"][day - 1],
                )
            )
        month += 1
        if month == 13:
            year, month = year + 1, 1
    return records


def generate_synthetic(
    spec: SyntheticSpec, out_dir: str | Path, catchment_id: str = "synthetic"
) -> tuple[Path, Path]:
    """Write one synthetic catchment: a daily CSV plus a truth sidecar JSON."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    series, truth = synthesize_monthly(spec)
    csv_path = out / f"{catchment_id}.csv"
    write_daily_csv(csv_path, _monthly_to_daily(series))
    meta_path = out / f"{catchment_id}.meta.json"
    meta = {
        "catchment": catchment_id,
        "theta1": spec.theta1,
        "theta2": spec.theta2,
        "seed": spec.seed,
        "n_months": spec.n_months,
        "flow_noise_ratio": spec.flow_noise_ratio,
        "flow_noise_floor": spec.flow_noise_floor,
        "truth_monthly_flow": [float(q) for q in truth],
    }
    meta_path.write_text(json.dumps(meta, indent=2) + "\n")
    return csv_path, meta_path


# ---------------------------------------------------------------------------
# batch runs


@dataclass(frozen=True)
class CatchmentFailure:
    catchment: str
    stage: str
    message: str


@dataclass(frozen=True)
class WisdomRow:
    catchment: str
    scheme: str
    record: WisdomRecord


class CalibrationRecord(NamedTuple):
    """Calibration outcome of one catchment; psrf is nan when nothing was calibrated."""

    psrf: float
    converged: bool
    restarts: int
    seconds: float


@dataclass
class ExperimentResult:
    records: list[MetricsRecord]
    wisdom: list[WisdomRow]
    failures: list[CatchmentFailure]
    calibration: dict[str, CalibrationRecord]
    exit_code: int


def _catchment_seed(global_seed: int, catchment_id: str) -> int:
    # position-independent: depends only on the id, so batch composition
    # does not leak into per-catchment results
    digest = zlib.crc32(catchment_id.encode("utf-8"))
    return int(np.random.SeedSequence((global_seed, digest)).generate_state(1)[0])


def discover_catchments(config: ExperimentConfig) -> list[str]:
    if config.catchments:
        return sorted(config.catchments)
    return sorted(p.stem for p in Path(config.input_dir).glob("*.csv"))


def _process_catchment(args: tuple[ExperimentConfig, str]):
    """Everything for one catchment; returns rows or a failure record.

    Any exception becomes a ``CatchmentFailure`` with the stage it came from,
    its type and its message, so one bad catchment never ends the batch.
    """
    config, cid = args
    stage = "ingest"
    try:
        series = load_catchment(Path(config.input_dir) / f"{cid}.csv")
        stage = "validate"
        report = validate_series(series)
        if not report.accepted:
            bad = {name: r.first_bad_index for name, r in report.variables.items() if r.first_bad_index is not None}
            return CatchmentFailure(cid, stage, f"unusable values at {bad}")
        stage = "partition"
        if config.n3 > 0:
            expected = config.warmup + config.n1 + config.n2 + config.n3
            if series.n != expected:
                raise ValueError(f"series has {series.n} months, config demands exactly {expected}")
        split = partition(series.n, config.warmup, config.n1, config.n2)

        seed = _catchment_seed(config.seed, cid)
        calibration: CalibrationResult | None = None
        sisters = None
        if any(s not in BASIC_SCHEMES for s in config.schemes):
            stage = "calibrate"
            chain_config = _chain_config(config, seed=seed, box=_parameter_box(config))
            calibration = calibrate_catchment(series, split, chain_config, mode=config.retention)
            stage = "sisters"
            sisters = build_sisters(calibration.sample, series, split, config.m)

        scheme_config = SchemeConfig(
            m=config.m,
            probabilities=config.probabilities,
            seed=seed,
            include_warmup_in_basic=config.include_warmup_in_basic,
            clamp_nonnegative=config.clamp_nonnegative,
        )
        observed_test = np.asarray(series.streamflow, dtype=float)[split.t3]
        records: list[MetricsRecord] = []
        wisdom_rows: list[WisdomRow] = []
        for scheme in config.schemes:
            stage = f"scheme {scheme}"
            result: SchemeResult = run_scheme(scheme, series, split, scheme_config, sisters=sisters)
            intervals = intervals_from_prediction(result.prediction, INTERVAL_ALPHAS)
            for alpha in INTERVAL_ALPHAS:
                pred = intervals[alpha]
                records.append(
                    MetricsRecord(
                        catchment=cid,
                        scheme=result.scheme,
                        alpha=alpha,
                        coverage=coverage_probability(pred, observed_test),
                        width=average_width(pred),
                        score=average_interval_score(pred, observed_test),
                        crossings=crossing_count(pred),
                        seconds=result.elapsed_seconds,
                    )
                )
                if result.auxiliary is not None:
                    lowers, uppers = member_interval_bounds(result.auxiliary, alpha)
                    wisdom_rows.append(
                        WisdomRow(cid, result.scheme, wisdom_metrics(lowers, uppers, pred, observed_test))
                    )
    except Exception as exc:
        return CatchmentFailure(cid, stage, f"{type(exc).__name__}: {exc}")
    cal_info = CalibrationRecord(float("nan"), True, 0, 0.0)
    if calibration is not None:
        cal_info = CalibrationRecord(
            calibration.psrf, calibration.sample.converged, calibration.restarts_used, calibration.elapsed_seconds
        )
    return cid, records, wisdom_rows, cal_info


def _worker_outcome(cid: str, future: Future):
    """A pool future's result; a dead worker (OOM kill, os._exit) costs only the catchments not yet finished."""
    try:
        return future.result()
    except Exception as exc:
        return CatchmentFailure(cid, "worker", f"{type(exc).__name__}: {exc}")


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Process every catchment, score every scheme, write the report files."""
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))
    ids = discover_catchments(config)
    jobs = [(config, cid) for cid in ids]
    if config.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(_process_catchment, job) for job in jobs]
            outcomes = [_worker_outcome(cid, future) for cid, future in zip(ids, futures)]
    else:
        outcomes = [_process_catchment(job) for job in jobs]

    records: list[MetricsRecord] = []
    wisdom_rows: list[WisdomRow] = []
    failures: list[CatchmentFailure] = []
    calibration: dict[str, CalibrationRecord] = {}
    for outcome in outcomes:
        if isinstance(outcome, CatchmentFailure):
            failures.append(outcome)
            continue
        cid, recs, wrows, cal_info = outcome
        records.extend(recs)
        wisdom_rows.extend(wrows)
        calibration[cid] = cal_info
    exit_code = 0 if records else 2
    result = ExperimentResult(
        records=records,
        wisdom=wisdom_rows,
        failures=failures,
        calibration=calibration,
        exit_code=exit_code,
    )
    emit_reports(result, config.output_dir)
    return result


def _rankings_rows(records: list[MetricsRecord]):
    """Competition ranks per (catchment, level) across the schemes present."""
    catchments = sorted({r.catchment for r in records})
    schemes = sorted({r.scheme for r in records})
    by_key = {(r.catchment, r.scheme, r.alpha): r.score for r in records}
    rows = []
    averages = []
    for alpha in sorted({r.alpha for r in records}):
        complete = [
            c for c in catchments if all((c, s, alpha) in by_key for s in schemes)
        ]
        if not complete:
            continue
        table = np.array([[by_key[(c, s, alpha)] for s in schemes] for c in complete])
        ranks, average = rank_schemes(table)
        for i, c in enumerate(complete):
            for j, s in enumerate(schemes):
                rows.append((c, repr(float(alpha)), s, int(ranks[i, j])))
        for j, s in enumerate(schemes):
            averages.append((repr(float(alpha)), s, repr(float(average[j]))))
    return rows, averages


def emit_reports(result: ExperimentResult, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    write_metrics_csv(result.records, out / "metrics.csv")

    summary = summarize(result.records)
    rows, averages = _rankings_rows(result.records)
    summary_doc = {
        "schemes": summary,
        "average_ranks": [
            {"alpha": alpha, "scheme": scheme, "rank": rank} for alpha, scheme, rank in averages
        ],
        "calibration": {
            # strict JSON has no NaN or Infinity: an undefined PSRF is null
            cid: {**cal._asdict(), "psrf": cal.psrf if math.isfinite(cal.psrf) else None}
            for cid, cal in sorted(result.calibration.items())
        },
        "failures": len(result.failures),
    }
    write_summary_json(summary_doc, out / "summary.json")

    with open(out / "rankings.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("catchment", "alpha", "scheme", "rank"))
        writer.writerows(rows)

    with open(out / "wisdom.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            (
                "catchment",
                "scheme",
                "alpha",
                "ais_out",
                "aais_in",
                "relative_difference",
                "ri_min",
                "ri_median",
                "ri_max",
                "n_members",
                "n_excluded",
            )
        )
        for row in result.wisdom:
            rec = row.record
            usable = [x for x in rec.improvements if not math.isnan(x)]
            writer.writerow(
                (
                    row.catchment,
                    row.scheme,
                    repr(float(rec.alpha)),
                    repr(float(rec.ais_out)),
                    repr(float(rec.aais_in)),
                    repr(float(rec.relative_difference)),
                    repr(float(min(usable))) if usable else "",
                    repr(float(np.median(usable))) if usable else "",
                    repr(float(max(usable))) if usable else "",
                    len(rec.improvements),
                    len(rec.excluded),
                )
            )

    with open(out / "timing.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("catchment", "scheme", "seconds"))
        seen = set()
        for r in result.records:
            key = (r.catchment, r.scheme)
            if key not in seen:
                seen.add(key)
                writer.writerow((r.catchment, r.scheme, repr(float(r.seconds))))
        for cid, cal in sorted(result.calibration.items()):
            writer.writerow((cid, "calibration", repr(float(cal.seconds))))

    if result.failures:
        with open(out / "failures.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("catchment", "stage", "message"))
            for failure in result.failures:
                writer.writerow((failure.catchment, failure.stage, failure.message))
