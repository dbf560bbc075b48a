"""The traced run: ``run_experiment`` on one worker, with spans around its calls.

``instrument`` replaces, for the duration of a ``with`` block, the module
attributes through which ``experiment._process_catchment``,
``run_experiment`` and ``ensemble.run_scheme`` reach the public functions of
each layer, with wrappers that open a span around the original call.  The
run is then an ordinary ``run_experiment`` call with ``workers = 1``, so the
spans cover the very computation the untraced call makes; the benchmark still
requires the traced reports to equal the untraced ones bit-for-bit.  Spans
stay in memory and are written out when the run ends.  Nothing is added to
the ensflow sources.
"""

from __future__ import annotations

import calendar
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from ensflow import ensemble, experiment
from ensflow.calibrate import calibration_objective

# fixed (theta1, theta2) grid for the calibration-objective probe
PROBE_THETA1 = (100.0, 200.0, 400.0, 800.0, 1600.0)
PROBE_THETA2 = (0.6, 0.8, 1.0, 1.2)
PROBE_REPEATS = 10

# per-layer counts derived from problem sizes rather than observed
COMPUTED_COUNTS = ("timeseries.days_parsed", "gr2m.month_steps", "regress.lp_count", "regress.lp_rows")

# (variant, regression family) -> numbered scheme id
SCHEME_IDS = {definition: scheme for scheme, definition in ensemble.SCHEME_DEFS.items()}


class Tracer:
    """Spans in memory: name, start, end, parent index and catchment id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, catchment: str | None = None):
        parent = self._open[-1] if self._open else None
        if catchment is None and parent is not None:
            catchment = self.spans[parent]["catchment"]
        record = {"name": name, "catchment": catchment, "parent": parent, "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus the direct children's.

        Spans of one thread nest without overlap, so the children's summed
        durations are exactly the part of the parent they cover.
        """
        totals: Counter = Counter()
        for span in self.spans:
            duration = span["end"] - span["start"]
            totals[span["name"]] += duration
            if span["parent"] is not None:
                totals[self.spans[span["parent"]]["name"]] -= duration
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


@dataclass
class TracedRun:
    counts: Counter = field(default_factory=Counter)  # observed and computed counts
    acceptance: list[float] = field(default_factory=list)  # acceptance rate of every retained chain
    calibrated: list[tuple] = field(default_factory=list)  # (series, split) of each calibrated catchment


def _days(series) -> int:
    year, month = series.origin
    days = 0
    for _ in range(series.n):
        days += calendar.monthrange(year, month)[1]
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)
    return days


def _count_lps(counts: Counter, n_fits: int, rows: int, n_probs: int) -> None:
    counts["regress.lp_count"] += n_fits * n_probs
    counts["regress.lp_rows"] += n_fits * n_probs * rows


def _hooks(run: TracedRun) -> dict:
    """(module, attribute) -> (span name or namer, bookkeeping after the call or None)."""
    counts = run.counts

    def loaded(series, path):
        counts["timeseries.days_parsed"] += _days(series)

    def calibrated(result, series, split, chain_config, mode="bayesian-tail"):
        counts["calibrate.attempts"] += result.restarts_used + 1
        counts["calibrate.retained_chain_steps"] += chain_config.n_chains * chain_config.n_iterations
        run.acceptance.extend(chain.acceptance_rate for chain in result.chain_set.chains)
        run.calibrated.append((series, split))

    def simulated(sisters, sample, series, split):
        counts["gr2m.month_steps"] += sisters.m * split.n_total

    def trained(models, sisters, config):
        if config.error_model == "quantile":
            n_fits = sisters.m if config.variant == 1 else 1
            rows = sisters.n2 * (sisters.m if config.variant == 2 else 1)
            _count_lps(counts, n_fits, rows, len(config.probabilities))

    def basic(prediction, kind, series, split, probabilities, include_warmup=True):
        if kind == "quantile":
            start = 0 if include_warmup else split.warmup
            _count_lps(counts, 1, split.warmup + split.n1 + split.n2 - start, len(probabilities))

    return {
        (experiment, "_process_catchment"): ("experiment.catchment", None),
        (experiment, "load_catchment"): ("timeseries.load_catchment", loaded),
        (experiment, "calibrate_catchment"): ("calibrate.calibrate_catchment", calibrated),
        (experiment, "run_scheme"): ("ensemble.run_scheme", None),
        (ensemble, "run_basic_scheme"): (lambda kind, *rest, **kw: f"ensemble.run_basic_scheme.{kind}", basic),
        (ensemble, "generate_sisters"): ("ensemble.generate_sisters", simulated),
        (ensemble, "train_error_model"): (
            lambda sisters, config: f"ensemble.train_error_model.{SCHEME_IDS[config.variant, config.error_model]}",
            trained,
        ),
        (ensemble, "predict_error_quantiles"): ("ensemble.predict_error_quantiles", None),
        (ensemble, "to_auxiliary"): ("ensemble.combine", None),
        (ensemble, "combine"): ("ensemble.combine", None),
        **{(experiment, name): ("evaluate.interval_scores", None) for name in (
            "intervals_from_prediction", "coverage_probability", "average_width", "average_interval_score",
            "crossing_count",
        )},
        (experiment, "member_interval_bounds"): ("evaluate.wisdom_metrics", None),
        (experiment, "wisdom_metrics"): ("evaluate.wisdom_metrics", None),
        (experiment, "emit_reports"): ("experiment.emit_reports", None),
    }


def _traced(tracer: Tracer, original, name, after):
    def call(*args, **kwargs):
        span_name = name(*args, **kwargs) if callable(name) else name
        # _process_catchment takes (config, catchment id); the other spans inherit the id
        catchment = args[0][1] if name == "experiment.catchment" else None
        with tracer.span(span_name, catchment):
            result = original(*args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return call


@contextmanager
def instrument(tracer: Tracer, run: TracedRun):
    """Route the layers' public calls through spans until the block ends."""
    hooks = _hooks(run)
    originals = {key: getattr(*key) for key in hooks}
    try:
        for (module, attribute), (name, after) in hooks.items():
            setattr(module, attribute, _traced(tracer, originals[module, attribute], name, after))
        yield
    finally:
        for (module, attribute), original in originals.items():
            setattr(module, attribute, original)


def traced_run(config, tracer: Tracer) -> TracedRun:
    """One ``run_experiment`` call with every layer's public calls in spans."""
    if config.workers != 1:
        raise ValueError("the traced run keeps every span in one process: use workers = 1")
    run = TracedRun()
    with instrument(tracer, run), tracer.span("experiment.run"):
        result = experiment.run_experiment(config)
    if result.failures:
        raise RuntimeError(f"traced run: failed catchments {result.failures}")
    return run


def objective_probe(run: TracedRun, tracer: Tracer) -> float:
    """Mean microseconds per call of the calibration objective over a fixed grid."""
    calls = 0
    with tracer.span("calibrate.objective_probe") as span:
        for series, split in run.calibrated:
            objective = calibration_objective(series, split)
            for _ in range(PROBE_REPEATS):
                for theta1 in PROBE_THETA1:
                    for theta2 in PROBE_THETA2:
                        objective(theta1, theta2)
                        calls += 1
    return (span["end"] - span["start"]) / calls * 1e6 if calls else 0.0


def span_cost(calls: int = 20000) -> float:
    """Seconds a wrapped call adds to a direct one, measured on a no-op."""

    def noop():
        return None

    traced = _traced(Tracer(), noop, "noop", None)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    direct = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - start - direct, 0.0) / calls


def layer_metrics(tracer: Tracer, run: TracedRun, untraced: dict, workers: int) -> dict[str, float]:
    """Every per-layer metric the spans and counts give, plus the tracing cost.

    ``untraced`` is the untraced call of the same run (wall_s, cpu_s).
    ``trace.tracer_cost_s`` is the number of spans times the measured cost of
    one.  ``trace.overhead_s``, traced total minus untraced wall time, is only
    like-for-like when the untraced call also ran on one worker, so it is
    reported only then; host speed drift between the two calls dominates it.
    """
    metrics = {f"{name}_s": seconds for name, seconds in tracer.self_seconds().items()}
    calibrations = tracer.durations("calibrate.calibrate_catchment") or [0.0]
    traced_total = tracer.durations("experiment.run")[0]
    metrics.update(
        {
            "calibrate.objective_us": objective_probe(run, tracer),
            "calibrate.calibrate_catchment_median_s": statistics.median(calibrations),
            "calibrate.calibrate_catchment_max_s": max(calibrations),
            "calibrate.acceptance_rate": statistics.fmean(run.acceptance) if run.acceptance else 0.0,
            "experiment.pool_efficiency": untraced["cpu_s"] / (workers * untraced["wall_s"]),
            "trace.total_s": traced_total,
            "trace.tracer_cost_s": len(tracer.spans) * span_cost(),
        }
    )
    if workers == 1:
        metrics["trace.overhead_s"] = traced_total - untraced["wall_s"]
    metrics.update(run.counts)
    return metrics
