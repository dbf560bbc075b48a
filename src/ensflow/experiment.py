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
import datetime as dt
import json
import math
import zlib
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .calibrate import RETENTION_MODES, CalibrationResult, ChainConfig, ParameterBox, calibrate_catchment
from .ensemble import (
    ALL_SCHEMES, BASIC_SCHEMES, QUANTILE_SCHEMES, SchemeConfig, SchemeResult, build_sisters,
    intervals_from_prediction, member_interval_bounds, run_scheme,
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
from .gr2m import simulate_flow
from .regress import load_solver
from .timeseries import CSV_HEADER, VARIABLES, MonthlySeries, float_cell, load_catchment, partition, write_csv


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

    def __post_init__(self) -> None:
        """Collect every problem into one ConfigError; scheme, box and chain keys are checked by their own types."""
        problems: list[str] = []
        if self.warmup < 0:
            problems.append(f"warmup must be >= 0, got {self.warmup}")
        for name in ("n1", "n2"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n3 < 0:
            problems.append(f"n3 must be >= 0 (0 = remainder), got {self.n3}")
        if not self.schemes:
            problems.append("schemes must name at least one scheme")
        for scheme in self.schemes:
            if scheme not in ALL_SCHEMES:
                problems.append(f"unknown scheme {scheme!r}, expected one of {ALL_SCHEMES}")
        for build in (_scheme_config, _parameter_box, _chain_config):
            try:
                build(self)
            except ValueError as exc:
                problems.append(str(exc))
        if self.retention not in RETENTION_MODES:
            problems.append(f"retention must be one of {RETENTION_MODES}, got {self.retention!r}")
        needs_sample = any(s not in BASIC_SCHEMES for s in self.schemes)
        if needs_sample and self.m > self.n_chains * self.retain_per_chain:
            problems.append(
                f"m={self.m} exceeds retained pairs "
                f"(n_chains * retain_per_chain = {self.n_chains * self.retain_per_chain})"
            )
        if self.workers < 1:
            problems.append(f"workers must be >= 1, got {self.workers}")
        if problems:
            raise ConfigError("; ".join(problems))


def _scheme_config(config: ExperimentConfig, seed: int = 0) -> SchemeConfig:
    return SchemeConfig(
        m=config.m,
        seed=seed,
        include_warmup_in_basic=config.include_warmup_in_basic,
        clamp_nonnegative=config.clamp_nonnegative,
    )


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
        return tuple(item.strip() for item in text.split(",") if item.strip())
    return text.strip()


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Read a flat key = value file; unknown keys and bad values are all reported.

    ``overrides`` replace the file's values before the config is built, and so
    before it is checked.
    """
    defaults = ExperimentConfig()
    known = {f.name: getattr(defaults, f.name) for f in fields(defaults)}
    values: dict = {}
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
            values[key] = _parse_value(key, value.strip(), known[key])
        except ValueError as exc:
            problems.append(f"line {line_number}: {exc}")
    if problems:
        raise ConfigError("; ".join(problems))
    return ExperimentConfig(**{**values, **overrides})


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            text = ",".join(value)
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
    truth = simulate_flow(spec.theta1, spec.theta2, precip, pet, 0, spec.n_months)
    sd = spec.flow_noise_ratio * truth + spec.flow_noise_floor
    observed = np.maximum(truth + sd * rng.standard_normal(spec.n_months), 0.0)
    series = MonthlySeries(
        origin=(spec.start_year, 1),
        precipitation=precip,
        potential_evaporation=pet,
        streamflow=observed,
    )
    return series, truth


def _daily_rows(series: MonthlySeries):
    """Daily CSV rows: each monthly total spread uniformly over its days, the repeated value formatted once.

    The last day takes the closure residual so the daily values sum back to
    the monthly total as closely as floating point allows.
    """
    year, month = series.origin
    columns = [getattr(series, name).tolist() for name in VARIABLES]
    for t in range(series.n):
        days = calendar.monthrange(year, month)[1]
        prefix = dt.date(year, month, 1).isoformat()[:-2]
        per_day, last_day = [], []
        for values in columns:
            daily = values[t] / days
            per_day.append(float_cell(daily))
            last_day.append(float_cell(max(values[t] - math.fsum([daily] * (days - 1)), 0.0)))
        for day in range(1, days):
            yield (f"{prefix}{day:02d}", *per_day)
        yield (f"{prefix}{days}", *last_day)
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)


def generate_synthetic(
    spec: SyntheticSpec, out_dir: str | Path, catchment_id: str = "synthetic"
) -> tuple[Path, Path]:
    """Write one synthetic catchment's daily CSV and truth sidecar JSON; a non-finite value raises first."""
    series, truth = synthesize_monthly(spec)
    for name, values in [(name, getattr(series, name)) for name in VARIABLES] + [("truth flow", truth)]:
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            when = f"{spec.start_year + bad[0] // 12}-{bad[0] % 12 + 1:02d}"
            raise ValueError(f"{name} is not finite in month {bad[0] + 1} ({when}), the first of {bad.size}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{catchment_id}.csv"
    write_csv(csv_path, CSV_HEADER, _daily_rows(series))
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
    meta_path.write_text(json.dumps(meta, indent=2, allow_nan=False) + "\n")
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


def _score_scheme(cid, scheme, series, split, scheme_config, sisters, observed_test):
    """Run one scheme and score its five levels: (metrics records, wisdom rows).

    The scheme's auxiliary quantiles, and the member bounds that view them,
    live only in this call, so they are freed before the next scheme runs.
    """
    result: SchemeResult = run_scheme(scheme, series, split, scheme_config, sisters=sisters)
    records: list[MetricsRecord] = []
    wisdom_rows: list[WisdomRow] = []
    for alpha, pred in intervals_from_prediction(result.prediction, INTERVAL_ALPHAS).items():
        records.append(
            MetricsRecord(
                cid, result.scheme, alpha, coverage_probability(pred, observed_test), average_width(pred),
                average_interval_score(pred, observed_test), crossing_count(pred), result.elapsed_seconds,
            )
        )
        if result.auxiliary is not None:
            lowers, uppers = member_interval_bounds(result.auxiliary, alpha)
            wisdom_rows.append(WisdomRow(cid, result.scheme, wisdom_metrics(lowers, uppers, pred, observed_test)))
    return records, wisdom_rows


def _process_catchment(args: tuple[ExperimentConfig, str]):
    """Everything for one catchment; returns rows or a failure record.

    Any exception becomes a ``CatchmentFailure`` with the stage it came from,
    its type and its message, so one bad catchment never ends the batch.
    """
    config, cid = args
    stage = "ingest"
    try:
        # load_catchment rejects negative, non-finite and overflowing values,
        # so the series needs no validate_series screening
        series = load_catchment(Path(config.input_dir) / f"{cid}.csv")
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

        scheme_config = _scheme_config(config, seed)
        observed_test = np.asarray(series.streamflow, dtype=float)[split.t3]
        records: list[MetricsRecord] = []
        wisdom_rows: list[WisdomRow] = []
        for scheme in config.schemes:
            stage = f"scheme {scheme}"
            scored = _score_scheme(cid, scheme, series, split, scheme_config, sisters, observed_test)
            records += scored[0]
            wisdom_rows += scored[1]
    except Exception as exc:
        return CatchmentFailure(cid, stage, f"{type(exc).__name__}: {exc}")
    cal_info = CalibrationRecord(float("nan"), True, 0, 0.0)
    if calibration is not None:
        cal_info = CalibrationRecord(
            calibration.psrf, calibration.sample.converged, calibration.restarts_used, calibration.elapsed_seconds
        )
    return cid, records, wisdom_rows, cal_info


def _worker_outcome(cid: str, future: Future):
    """A pool future's result, or a ``worker`` failure when the pool broke (a worker killed for memory, os._exit)."""
    try:
        return future.result()
    except Exception as exc:
        return CatchmentFailure(cid, "worker", f"{type(exc).__name__}: {exc}")


def _pool_outcomes(jobs: list, workers: int) -> list:
    """Each job's outcome from a process pool, in job order; a dead worker fails only its own catchment.

    The catchments the dead worker's pool left unfinished run once more, each in a one-worker pool of its own.
    """
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [(job[1], pool.submit(_process_catchment, job)) for job in jobs]
        outcomes = {cid: _worker_outcome(cid, future) for cid, future in futures}
    retry = [job for job in jobs if getattr(outcomes[job[1]], "stage", None) == "worker"]
    for start in range(0, len(retry), workers):  # workers pools at a time
        with ExitStack() as stack:
            pools = [stack.enter_context(ProcessPoolExecutor(max_workers=1)) for _ in range(workers)]
            futures = [(job[1], pool.submit(_process_catchment, job)) for job, pool in zip(retry[start:], pools)]
            outcomes.update((cid, _worker_outcome(cid, future)) for cid, future in futures)
    return list(outcomes.values())


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Process every catchment, score every scheme, write the report files."""
    if set(config.schemes) & set(QUANTILE_SCHEMES):
        load_solver()  # before a pool forks its workers, and outside every scheme's timer
    jobs = [(config, cid) for cid in discover_catchments(config)]
    if config.workers > 1 and len(jobs) > 1:
        outcomes = _pool_outcomes(jobs, config.workers)
    else:
        outcomes = [_process_catchment(job) for job in jobs]

    failures = [outcome for outcome in outcomes if isinstance(outcome, CatchmentFailure)]
    scored = [outcome for outcome in outcomes if not isinstance(outcome, CatchmentFailure)]
    records = [record for _, recs, _, _ in scored for record in recs]
    wisdom_rows = [row for _, _, rows, _ in scored for row in rows]
    calibration = {cid: cal_info for cid, _, _, cal_info in scored}
    result = ExperimentResult(records, wisdom_rows, failures, calibration, exit_code=0 if records else 2)
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
                rows.append((c, alpha, s, ranks[i, j]))
        for j, s in enumerate(schemes):
            averages.append((alpha, s, float(average[j])))
    return rows, averages


def _wisdom_rows(wisdom: list[WisdomRow]):
    """One ``wisdom.csv`` row per record; the member improvements are summarised without their nans."""
    for row in wisdom:
        rec = row.record
        usable = [x for x in rec.improvements if not math.isnan(x)]
        ri = (min(usable), np.median(usable), max(usable)) if usable else (None, None, None)
        yield (
            row.catchment, row.scheme, rec.alpha, rec.ais_out, rec.aais_in, rec.relative_difference,
            *ri, len(rec.improvements), len(rec.excluded),
        )


def _timing_rows(result: ExperimentResult):
    """Seconds per (catchment, scheme) as first recorded, then calibration seconds per catchment."""
    seen = set()
    for r in result.records:
        if (r.catchment, r.scheme) not in seen:
            seen.add((r.catchment, r.scheme))
            yield r.catchment, r.scheme, r.seconds
    for cid, cal in sorted(result.calibration.items()):
        yield cid, "calibration", cal.seconds


WISDOM_FIELDS = (
    "catchment", "scheme", "alpha", "ais_out", "aais_in", "relative_difference",
    "ri_min", "ri_median", "ri_max", "n_members", "n_excluded",
)


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

    write_csv(out / "rankings.csv", ("catchment", "alpha", "scheme", "rank"), rows)
    write_csv(out / "wisdom.csv", WISDOM_FIELDS, _wisdom_rows(result.wisdom))
    write_csv(out / "timing.csv", ("catchment", "scheme", "seconds"), _timing_rows(result))
    if result.failures:
        failure_rows = ((f.catchment, f.stage, f.message) for f in result.failures)
        write_csv(out / "failures.csv", ("catchment", "stage", "message"), failure_rows)
