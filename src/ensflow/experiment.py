"""Batch experiments: configuration, synthetic catchments, runs and reports.

A run takes a directory of daily catchment CSVs, calibrates each catchment,
executes the requested prediction schemes, scores five central intervals per
scheme and writes its report files through ``reports.write_run``, here named
``emit_reports`` (``reports`` lists the files and reads them back).  A pool
worker sends back report rows only: ``MetricsRecord``s, and a ``WisdomRow``
(catchment, scheme, ``WisdomRecord``) per numbered level, so the parent's
memory does not grow with m.

Configuration lives in a flat ``key = value`` text file; every key has a
default, so an empty file is a valid experiment.  Catchment-level randomness
derives from the global seed and a hash of the catchment id, never from the
position in the batch, so adding or removing catchments does not change the
results of the remaining ones.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .calibrate import ChainConfig, calibrate_catchment
from .ensemble import (
    ALL_SCHEMES, BASIC_SCHEMES, QUANTILE_SCHEMES, SchemeConfig, SisterEnsemble, TrainedErrorModels, build_sisters,
    intervals_from_prediction, member_interval_bounds, run_scheme, sister_mean,
)
from .evaluate import (
    INTERVAL_ALPHAS, IntervalPrediction, MetricsRecord, average_interval_score, average_width, coverage_probability,
    crossing_count, wisdom_metrics, wisdom_record,
)
from .gr2m import load_kernel, simulate_flow
from .regress import load_solver
from .reports import KERNEL_KEYS, CalibrationRecord, CatchmentFailure, ExperimentResult, WisdomRow
from .reports import write_run as emit_reports  # the name the benchmark's tracer hooks
from .timeseries import VARIABLES, MonthlySeries, PeriodPartition, load_catchment, partition, write_daily


class ConfigError(ValueError):
    """Experiment configuration is unusable; the message lists every problem."""


_CHAIN_KEYS = ("n_iterations", "retain_per_chain", "max_restarts")  # the ChainConfig fields that are config keys


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

        A config that builds is one ``save_config`` writes and ``load_config`` reads back equal; a key not of its
        type is named, and no rule compares it.  The prior box, the chain count and the PSRF threshold are not keys.
        """
        problems: list[str] = []
        not_int = {f.name for f in fields(self) if f.type == "int" and type(getattr(self, f.name)) is not int}
        problems += [f"{name} must be an int, got {getattr(self, name)!r}" for name in sorted(not_int)]
        usable = lambda *names: not_int.isdisjoint(names)
        for name in ("input_dir", "output_dir"):
            value = getattr(self, name)
            if not isinstance(value, str) or value != value.strip() or value.splitlines() not in ([], [value]):
                problems.append(f"{name} must be a str with no blank at either end and no line break, got {value!r}")
        schemes = self.schemes if isinstance(self.schemes, tuple) else ()
        if not self.schemes:
            problems.append("schemes must name at least one scheme")
        for scheme in schemes:
            if scheme not in ALL_SCHEMES:
                problems.append(f"unknown scheme {scheme!r}, expected one of {ALL_SCHEMES}")
        for name in ("catchments", "schemes"):
            ids = getattr(self, name)
            if not isinstance(ids, tuple) or not all(isinstance(item, str) for item in ids):
                problems.append(f"{name} must be a tuple of str, got {ids!r}")
                continue
            for item in ids:
                if "," in item or item != item.strip() or item.splitlines() != [item]:
                    problems.append(f"{name}: id {item!r} is empty or holds a comma, a blank at an end or a line break")
            for item, count in Counter(ids).items():
                if count > 1:
                    problems.append(f"{name} lists {item!r} " + ("twice" if count == 2 else f"{count} times"))
        if usable("m") and self.m < 1:
            problems.append(f"m must be >= 1, got {self.m}")
        for names, build in (
            (("warmup", "n1", "n2"), lambda: PeriodPartition(self.warmup, self.n1, self.n2, 1)),  # shortest test
            ((*_CHAIN_KEYS, "seed"), lambda: _chain_config(self, seed=self.seed)),
        ):
            if not usable(*names):
                continue
            try:
                build()
            except ValueError as exc:
                problems.append(str(exc))
        needs_sample = any(s not in BASIC_SCHEMES for s in schemes)
        if needs_sample and usable("m", "retain_per_chain") and self.m > ChainConfig.n_chains * self.retain_per_chain:
            problems.append(
                f"m={self.m} exceeds retained pairs "
                f"(n_chains * retain_per_chain = {ChainConfig.n_chains * self.retain_per_chain})"
            )
        if usable("workers") and self.workers < 1:
            problems.append(f"workers must be >= 1, got {self.workers}")
        if problems:
            raise ConfigError("; ".join(problems))


def _chain_config(config: ExperimentConfig, **overrides) -> ChainConfig:
    return ChainConfig(**{name: getattr(config, name) for name in _CHAIN_KEYS}, **overrides)


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
    """Write ``config`` for :func:`load_config`, which reads it back equal (``ExperimentConfig`` holds no other)."""
    values = ((f.name, getattr(config, f.name)) for f in fields(config))
    lines = (f"{name} = {','.join(value) if isinstance(value, tuple) else value}" for name, value in values)
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
    write_daily(csv_path, series)
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


class CatchmentResult(NamedTuple):
    """The rows of one scored catchment, with its stage timing as ``(stage, seconds)`` pairs in run order."""

    catchment: str
    records: list[MetricsRecord]
    wisdom: list[WisdomRow]
    calibration: CalibrationRecord | None
    timing: list[tuple[str, float]]


def _catchment_seed(global_seed: int, catchment_id: str) -> int:
    # position-independent: depends only on the id, so batch composition
    # does not leak into per-catchment results
    digest = zlib.crc32(catchment_id.encode("utf-8"))
    return int(np.random.SeedSequence((global_seed, digest)).generate_state(1)[0])


def discover_catchments(config: ExperimentConfig) -> list[str]:
    if config.catchments:
        return sorted(config.catchments)
    return sorted(p.stem for p in Path(config.input_dir).glob("*.csv"))


def _score_level(sisters, models, alpha, observed, score_level):
    """One numbered level's combined interval and wisdom record: from ``score_level``, the compiled pass, where it
    is given and reports no non-finite sum; else from the level's two (m, n3) member-bound arrays, made once."""
    lines = score_level and member_interval_bounds(sisters, models, alpha, lines=True)
    scored = score_level and score_level(sisters.test_predictions, lines, observed, alpha)
    if scored:
        combined = IntervalPrediction(alpha, scored[0] / sisters.m, scored[1] / sisters.m)
        return combined, wisdom_record(combined, observed, (scored[2] / combined.n).tolist())
    lowers, uppers = member_interval_bounds(sisters, models, alpha)
    combined = IntervalPrediction(alpha, sister_mean(lowers), sister_mean(uppers))
    return combined, wisdom_metrics(lowers, uppers, combined, observed)


def level_matches(score_level) -> bool:
    """Whether ``score_level`` gives ``_score_level`` the Python path's bytes on strided sisters, with a model each
    and with one shared: crossed bounds, misses, -0.0 bounds, sums that need fsum's partials and its rounding."""
    u = np.array([[-0.0, 2.0**51, 0.75, 2.0**-62, 0.5], [-0.0, 1e16, 1.0, 1e-16, 3.0], [-0.0, 0.1, -0.5, 2**-53, 0.3]])
    lines = np.array([[[0.0] * 3] * 2, [[-0.7, 0.9, 0.7], [0.1, 0.3, -0.1]], [[-2.5, -0.5, 2.5], [1.5, 0.5, -1.5]]])
    for n3, n_models in ((5, 3), (1, 1)):
        sisters = SisterEnsemble(np.hstack([u[:, :1], u[:, :n3]]), u[:, :1])
        models = TrainedErrorModels("linear", 1, (0.25, 0.75), lines[:n_models, :, :2], lines[:n_models, :, 2])
        results = [_score_level(sisters, models, 0.5, np.zeros(n3), kernel) for kernel in (score_level, None)]
        if len({(c.lower.tobytes(), c.upper.tobytes(), repr(record)) for c, record in results}) > 1:
            return False
    return True


def _score_scheme(cid, scheme, series, split, scheme_config, sisters, observed_test):
    """Run one scheme and score its five levels: ((alpha, coverage, width, score, crossings) per level, wisdom rows).

    A numbered level takes one pass (``_score_level``), and its wisdom row's ``ais_out`` is the level's score.
    """
    delivered = run_scheme(scheme, series, split, scheme_config, sisters=sisters)
    wisdom_rows, intervals = [], []
    if scheme in BASIC_SCHEMES:
        intervals += intervals_from_prediction(delivered).values()
        scores = [average_interval_score(pred, observed_test) for pred in intervals]
    else:
        score_level = getattr(load_kernel(), "score_level", None)
        for alpha in INTERVAL_ALPHAS:
            combined, record = _score_level(sisters, delivered, alpha, observed_test, score_level)
            intervals.append(combined)
            wisdom_rows.append(WisdomRow(cid, scheme, *record))
        scores = [row.ais_out for row in wisdom_rows]  # average_interval_score of the same interval
    levels = [
        (pred.alpha, coverage_probability(pred, observed_test), average_width(pred), score, crossing_count(pred))
        for pred, score in zip(intervals, scores)
    ]
    return levels, wisdom_rows


@contextmanager
def _stage(timing: list, label: str):
    """Append ``(label, seconds)`` to ``timing`` when the stage ends, by a raise too: the last label names a failure."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timing.append((label, time.perf_counter() - start))


def _process_catchment(args: tuple[ExperimentConfig, str]):
    """Everything for one catchment, in stages; returns its report rows or a failure record, each with its timing.

    The stages are ``ingest`` (reading and partitioning the record), ``calibrate`` and ``sisters`` (for numbered
    schemes only), then each scheme under its own id: its fit, prediction, averaging and scoring.  Any exception
    becomes a ``CatchmentFailure`` with the stage it came from, its type and its message, so one bad catchment
    never ends the batch.
    """
    config, cid = args
    timing: list[tuple[str, float]] = []
    records, wisdom_rows, calibration, sisters = [], [], None, None
    try:
        with _stage(timing, "ingest"):
            series = load_catchment(Path(config.input_dir) / f"{cid}.csv")
            split = partition(series.n, config.warmup, config.n1, config.n2)
            observed_test = np.asarray(series.streamflow, dtype=float)[split.t3]
            scheme_config = SchemeConfig(seed=_catchment_seed(config.seed, cid))
        if any(s not in BASIC_SCHEMES for s in config.schemes):
            with _stage(timing, "calibrate"):
                calibration = calibrate_catchment(series, split, _chain_config(config, seed=scheme_config.seed))
            with _stage(timing, "sisters"):
                sisters = build_sisters(calibration.sample, series, split, config.m)
        for scheme in config.schemes:
            with _stage(timing, scheme):
                levels, rows = _score_scheme(cid, scheme, series, split, scheme_config, sisters, observed_test)
            records += [MetricsRecord(cid, scheme, *level, timing[-1][1]) for level in levels]
            wisdom_rows += rows
    except Exception as exc:
        return CatchmentFailure(cid, timing[-1][0], f"{type(exc).__name__}: {exc}", tuple(timing))
    cal_info = None if calibration is None else CalibrationRecord(
        calibration.psrf, calibration.converged, calibration.restarts_used, dict(timing)["calibrate"]
    )
    return CatchmentResult(cid, records, wisdom_rows, cal_info, timing)


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
    """Process every catchment, score every scheme, write the report files; before any catchment runs, refuse an
    output_dir that is input_dir or that cannot be made a directory (a regular file, or a path under one)."""
    out = Path(config.output_dir)
    if out.resolve() == Path(config.input_dir).resolve():
        raise ConfigError(f"output_dir {config.output_dir!r} is input_dir: "
                          "a later run would read the reports as catchments")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir {config.output_dir!r} cannot be made a directory: {exc}") from None
    if set(config.schemes) & set(QUANTILE_SCHEMES):
        load_solver()  # before a pool forks and outside every stage (see ``regress``)
    kernel = load_kernel()  # the same for the compiled month loop: no worker compiles it
    compiled = (kernel, getattr(kernel, "sampler", None), getattr(kernel, "score_level", None))  # KERNEL_KEYS' order
    kernels = {key: "compiled" if part else "python" for key, part in zip(KERNEL_KEYS, compiled)}
    jobs = [(config, cid) for cid in discover_catchments(config)]
    if config.workers > 1 and len(jobs) > 1:
        outcomes = _pool_outcomes(jobs, config.workers)
    else:
        outcomes = [_process_catchment(job) for job in jobs]

    failures = [outcome for outcome in outcomes if isinstance(outcome, CatchmentFailure)]
    scored = [outcome for outcome in outcomes if not isinstance(outcome, CatchmentFailure)]
    records = [record for outcome in scored for record in outcome.records]
    wisdom_rows = [row for outcome in scored for row in outcome.wisdom]
    calibration = {outcome.catchment: outcome.calibration for outcome in scored if outcome.calibration is not None}
    timing = [(outcome.catchment, *stage) for outcome in outcomes for stage in outcome.timing]
    result = ExperimentResult(records, wisdom_rows, failures, calibration, timing, kernels)
    emit_reports(result, out)
    return result
