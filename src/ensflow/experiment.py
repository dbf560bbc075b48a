"""Batch experiments: configuration, synthetic catchments, runs and reports.

A run takes a directory of daily catchment CSVs, calibrates each catchment,
executes the requested prediction schemes, scores five central intervals per
scheme and writes five machine-readable outputs: ``metrics.csv``,
``summary.json``, ``rankings.csv``, ``wisdom.csv`` and ``timing.csv``
(plus ``failures.csv`` when catchments had to be skipped; a run without
skips removes the one an earlier run left in the same directory).

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
import time
import zlib
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .calibrate import CalibrationResult, ChainConfig, calibrate_catchment
from .ensemble import (
    ALL_SCHEMES, BASIC_SCHEMES, QUANTILE_SCHEMES, SchemeConfig, SchemeResult, build_sisters,
    intervals_from_prediction, member_interval_bounds, run_scheme, sister_mean,
)
from .evaluate import (
    INTERVAL_ALPHAS,
    IntervalPrediction,
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
from .gr2m import load_kernel, simulate_flow
from .regress import load_solver
from .timeseries import CSV_HEADER, VARIABLES, MonthlySeries, PeriodPartition, load_catchment, partition, write_csv


class ConfigError(ValueError):
    """Experiment configuration is unusable; the message lists every problem."""


@dataclass(frozen=True)
class ExperimentConfig:
    input_dir: str = "."
    output_dir: str = "out"
    catchments: tuple[str, ...] = ()  # empty means: every *.csv in input_dir
    warmup: int = 12
    n1: int = 144
    n2: int = 144  # the test period is whatever each series leaves over
    schemes: tuple[str, ...] = ALL_SCHEMES
    m: int = 600
    n_iterations: int = ChainConfig.n_iterations
    retain_per_chain: int = ChainConfig.retain_per_chain
    max_restarts: int = ChainConfig.max_restarts
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        """Collect every problem into one ConfigError; partition and chain keys are checked by their own types.

        The prior box, the chain count and the PSRF threshold are not keys: ``calibrate`` fixes them.
        """
        problems: list[str] = []
        if not self.schemes:
            problems.append("schemes must name at least one scheme")
        for scheme in self.schemes:
            if scheme not in ALL_SCHEMES:
                problems.append(f"unknown scheme {scheme!r}, expected one of {ALL_SCHEMES}")
        for name in ("catchments", "schemes"):
            for item, count in Counter(getattr(self, name)).items():
                if count > 1:
                    problems.append(f"{name} lists {item!r} " + ("twice" if count == 2 else f"{count} times"))
        if self.m < 1:
            problems.append(f"m must be >= 1, got {self.m}")
        for build in (
            lambda: PeriodPartition(self.warmup, self.n1, self.n2, 1),  # the shortest test period
            lambda: _chain_config(self, seed=self.seed),
        ):
            try:
                build()
            except ValueError as exc:
                problems.append(str(exc))
        needs_sample = any(s not in BASIC_SCHEMES for s in self.schemes)
        if needs_sample and self.m > ChainConfig.n_chains * self.retain_per_chain:
            problems.append(
                f"m={self.m} exceeds retained pairs "
                f"(n_chains * retain_per_chain = {ChainConfig.n_chains * self.retain_per_chain})"
            )
        if self.workers < 1:
            problems.append(f"workers must be >= 1, got {self.workers}")
        if problems:
            raise ConfigError("; ".join(problems))


def _chain_config(config: ExperimentConfig, **overrides) -> ChainConfig:
    names = ("n_iterations", "retain_per_chain", "max_restarts")
    return ChainConfig(**{name: getattr(config, name) for name in names}, **overrides)


def parse_ids(text: str) -> tuple[str, ...]:
    """A comma-separated list of catchment or scheme ids, each stripped of blanks; empty items are dropped."""
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _parse_value(text: str, example):
    if isinstance(example, int):
        return int(text)
    if isinstance(example, tuple):
        return parse_ids(text)
    return text.strip()


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Read a flat key = value file; unknown keys and bad values are all reported.

    ``overrides`` replace the file's values before the config is built, and so
    before it is checked.
    """
    defaults = ExperimentConfig()
    known = {f.name: getattr(defaults, f.name) for f in fields(defaults)}
    values: dict = {}
    set_on: dict[str, int] = {}  # key -> the line that set it
    problems: list[str] = []
    for line_number, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):  # a comment is a whole line; a value may hold '#'
            continue
        if "=" not in line:
            problems.append(f"line {line_number}: expected key = value, got {raw!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            problems.append(f"line {line_number}: unknown key {key!r}")
            continue
        if key in set_on:
            problems.append(f"line {line_number}: key {key!r} already set on line {set_on[key]}")
            continue
        set_on[key] = line_number
        try:
            values[key] = _parse_value(value.strip(), known[key])
        except ValueError as exc:
            problems.append(f"line {line_number}: {key}: {exc}")
    if problems:
        raise ConfigError("; ".join(problems))
    return ExperimentConfig(**{**values, **overrides})


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    """Write ``config`` for :func:`load_config`; a value it would not read back equal raises ConfigError."""
    lines, problems = [], []
    for f in fields(config):
        value = getattr(config, f.name)
        for item in value if isinstance(value, tuple) else (value,) if isinstance(value, str) else ():
            if item != item.strip() or item.splitlines() not in ([], [item]):
                problems.append(f"{f.name}: {item!r} has blanks at an end or a line break")
            elif isinstance(value, tuple) and ("," in item or not item):
                problems.append(f"{f.name}: list item {item!r} is empty or holds a comma")
        text = ",".join(value) if isinstance(value, tuple) else str(value)
        lines.append(f"{f.name} = {text}")
    if problems:
        raise ConfigError("; ".join(problems))
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
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
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
            per_day.append(repr(daily))
            last_day.append(repr(max(values[t] - math.fsum([daily] * (days - 1)), 0.0)))
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
    """Calibration outcome of one calibrated catchment; psrf is inf when every attempt's chains were degenerate."""

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

    A numbered scheme takes one pass per level: the level's two (m, n3) member-bound arrays are made
    once, their sister means are the combined interval, and the members are scored from the same two
    arrays, whose wisdom record's ``ais_out`` is the level's score.  Its seconds add that averaging to
    ``run_scheme``'s fit, as ``combine`` would, not the scoring.
    """
    result: SchemeResult = run_scheme(scheme, series, split, scheme_config, sisters=sisters, combined=False)
    seconds, wisdom_rows, intervals = result.elapsed_seconds, [], []
    if result.models is None:
        intervals += intervals_from_prediction(result.prediction, INTERVAL_ALPHAS).values()
        scores = [average_interval_score(pred, observed_test) for pred in intervals]
    else:
        for alpha in INTERVAL_ALPHAS:
            start = time.perf_counter()
            lowers, uppers = member_interval_bounds(sisters, result.models, alpha)
            intervals.append(IntervalPrediction(alpha, sister_mean(lowers), sister_mean(uppers)))
            seconds += time.perf_counter() - start
            record = wisdom_metrics(lowers, uppers, intervals[-1], observed_test)
            wisdom_rows.append(WisdomRow(cid, result.scheme, record))
        scores = [row.record.ais_out for row in wisdom_rows]  # average_interval_score of the same interval
    records = [
        MetricsRecord(
            cid, result.scheme, pred.alpha, coverage_probability(pred, observed_test), average_width(pred), score,
            crossing_count(pred), seconds,
        )
        for pred, score in zip(intervals, scores)
    ]
    return records, wisdom_rows


def _process_catchment(args: tuple[ExperimentConfig, str]):
    """Everything for one catchment; returns rows or a failure record.

    Any exception becomes a ``CatchmentFailure`` with the stage it came from,
    its type and its message, so one bad catchment never ends the batch.
    """
    config, cid = args
    stage = "ingest"
    try:
        series = load_catchment(Path(config.input_dir) / f"{cid}.csv")
        stage = "partition"
        split = partition(series.n, config.warmup, config.n1, config.n2)

        seed = _catchment_seed(config.seed, cid)
        calibration: CalibrationResult | None = None
        sisters = None
        if any(s not in BASIC_SCHEMES for s in config.schemes):
            stage = "calibrate"
            chain_config = _chain_config(config, seed=seed)
            calibration = calibrate_catchment(series, split, chain_config)
            stage = "sisters"
            sisters = build_sisters(calibration.sample, series, split, config.m)

        scheme_config = SchemeConfig(seed=seed)
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
    cal_info = None if calibration is None else CalibrationRecord(
        calibration.psrf, calibration.converged, calibration.restarts_used, calibration.elapsed_seconds
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
    A fork-context pool starts all its workers at the first submit, so no pool asks for more than it has jobs.
    """
    workers = min(workers, len(jobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [(job[1], pool.submit(_process_catchment, job)) for job in jobs]
        outcomes = {cid: _worker_outcome(cid, future) for cid, future in futures}
    retry = [job for job in jobs if getattr(outcomes[job[1]], "stage", None) == "worker"]
    for start in range(0, len(retry), workers):  # at most workers pools at a time
        with ExitStack() as stack:
            pools = [stack.enter_context(ProcessPoolExecutor(max_workers=1)) for _ in retry[start : start + workers]]
            futures = [(job[1], pool.submit(_process_catchment, job)) for job, pool in zip(retry[start:], pools)]
            outcomes.update((cid, _worker_outcome(cid, future)) for cid, future in futures)
    return list(outcomes.values())


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Process every catchment, score every scheme, write the report files."""
    if set(config.schemes) & set(QUANTILE_SCHEMES):
        load_solver()  # before a pool forks and outside every timer (see ``regress``)
    load_kernel()  # the same for the compiled month loop: no worker compiles it
    jobs = [(config, cid) for cid in discover_catchments(config)]
    if config.workers > 1 and len(jobs) > 1:
        outcomes = _pool_outcomes(jobs, config.workers)
    else:
        outcomes = [_process_catchment(job) for job in jobs]

    failures = [outcome for outcome in outcomes if isinstance(outcome, CatchmentFailure)]
    scored = [outcome for outcome in outcomes if not isinstance(outcome, CatchmentFailure)]
    records = [record for _, recs, _, _ in scored for record in recs]
    wisdom_rows = [row for _, _, rows, _ in scored for row in rows]
    calibration = {cid: cal_info for cid, _, _, cal_info in scored if cal_info is not None}
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
    """Seconds per (catchment, scheme) as first recorded, then calibration seconds per calibrated catchment."""
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


def write_score_reports(records: list[MetricsRecord], out_dir: str | Path, **summary) -> None:
    """Write what ``records`` alone determine: ``metrics.csv``, ``rankings.csv`` and ``summary.json``.

    ``summary.json`` holds the per-scheme statistics and the average ranks,
    followed by the ``summary`` entries given.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(records, out / "metrics.csv")
    rows, averages = _rankings_rows(records)
    summary_doc = {
        "schemes": summarize(records),
        "average_ranks": [
            {"alpha": alpha, "scheme": scheme, "rank": rank} for alpha, scheme, rank in averages
        ],
        **summary,
    }
    write_summary_json(summary_doc, out / "summary.json")
    write_csv(out / "rankings.csv", ("catchment", "alpha", "scheme", "rank"), rows)


def emit_reports(result: ExperimentResult, out_dir: str | Path) -> None:
    out = Path(out_dir)
    write_score_reports(
        result.records,
        out,
        calibration={
            # strict JSON has no NaN or Infinity: the PSRF of degenerate chains is null
            cid: {**cal._asdict(), "psrf": cal.psrf if math.isfinite(cal.psrf) else None}
            for cid, cal in sorted(result.calibration.items())
        },
        failures=len(result.failures),
        gr2m_loop="python" if load_kernel() is None else "compiled",
        sampler="compiled" if getattr(load_kernel(), "sampler", None) else "python",
    )
    write_csv(out / "wisdom.csv", WISDOM_FIELDS, _wisdom_rows(result.wisdom))
    write_csv(out / "timing.csv", ("catchment", "scheme", "seconds"), _timing_rows(result))
    if result.failures:
        failure_rows = ((f.catchment, f.stage, f.message) for f in result.failures)
        write_csv(out / "failures.csv", ("catchment", "stage", "message"), failure_rows)
    else:  # an earlier run's file would contradict summary.json's "failures": 0
        (out / "failures.csv").unlink(missing_ok=True)
