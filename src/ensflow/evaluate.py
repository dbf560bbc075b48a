"""Scores for central prediction intervals and ensemble-gain bookkeeping.

A central interval at level 1 - alpha runs from the alpha/2 to the
1 - alpha/2 predictive quantile.  Three scores describe it: coverage
probability (fraction of observations inside the closed interval), average
width, and the average interval score

    IS = (u - l) + (2/alpha) (l - y) [y < l] + (2/alpha) (y - u) [y > u]

which penalises misses in proportion to how far they fall outside.  Smaller
is better.  Relative improvements compare two prediction systems by their
average interval scores; the crowd comparison relates a combined prediction
to the individual ensemble members it was averaged from.

All averages use exactly-rounded summation so any batch order gives the same
result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .timeseries import read_csv, write_csv

# central-interval levels 99, 97.5, 95, 90 and 80 percent
INTERVAL_ALPHAS = (0.01, 0.025, 0.05, 0.10, 0.20)


@dataclass(frozen=True)
class IntervalPrediction:
    """Lower and upper bound series of one central interval.

    ``alpha`` is the nominal miss rate, so the level is 1 - alpha.  Bounds
    are stored exactly as delivered: a lower bound above its upper bound
    (quantile crossing) stays visible and is scored as-is.
    """

    alpha: float
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size < 1:
            raise ValueError(f"bounds must be equal-length 1-d arrays, got {lower.shape} vs {upper.shape}")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("interval bounds contain non-finite values")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def level(self) -> float:
        return 1.0 - self.alpha

    @property
    def n(self) -> int:
        return self.lower.size


def _check_observations(pred: IntervalPrediction, observed) -> np.ndarray:
    y = np.asarray(observed, dtype=float)
    if y.shape != pred.lower.shape:
        raise ValueError(f"observations {y.shape} do not match interval length {pred.lower.shape}")
    if not np.isfinite(y).all():
        raise ValueError("observations contain non-finite values")
    return y


def coverage_probability(pred: IntervalPrediction, observed) -> float:
    """Fraction of observations inside the closed interval [lower, upper]."""
    y = _check_observations(pred, observed)
    inside = (y >= pred.lower) & (y <= pred.upper)
    return int(np.count_nonzero(inside)) / pred.n


def average_width(pred: IntervalPrediction) -> float:
    return math.fsum(pred.upper - pred.lower) / pred.n


def _interval_scores(alpha: float, lower: np.ndarray, upper: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise interval score; bounds of shape (n,) or (m, n) against y (n,)."""
    penalty = 2.0 / alpha
    return (
        (upper - lower)
        + penalty * np.where(y < lower, lower - y, 0.0)
        + penalty * np.where(y > upper, y - upper, 0.0)
    )


def average_interval_score(pred: IntervalPrediction, observed) -> float:
    """Mean interval score; lower is better, misses cost 2/alpha per mm."""
    y = _check_observations(pred, observed)
    return math.fsum(_interval_scores(pred.alpha, pred.lower, pred.upper, y)) / pred.n


def crossing_count(pred: IntervalPrediction) -> int:
    """Number of time steps whose lower bound exceeds the upper bound."""
    return int(np.count_nonzero(pred.lower > pred.upper))


@dataclass(frozen=True)
class WisdomRecord:
    """Combined-versus-members comparison at one interval level.

    ``improvements`` holds the relative improvement of the combined interval
    over each member (nan where a member scored exactly zero and the ratio
    is undefined; those member indices appear in ``excluded``).
    ``relative_difference`` compares the members' average score with the
    combined score; by convexity of the interval score it cannot be negative
    when the combined bounds are the member means.
    """

    alpha: float
    ais_out: float
    aais_in: float
    relative_difference: float
    improvements: tuple[float, ...]
    excluded: tuple[int, ...]


def wisdom_metrics(member_lowers, member_uppers, combined: IntervalPrediction, observed) -> WisdomRecord:
    """Score each ensemble member against the combined interval.

    ``member_lowers`` and ``member_uppers`` are (m, n) arrays of per-member
    interval bounds at the same level as ``combined``.
    """
    lowers = np.asarray(member_lowers, dtype=float)
    uppers = np.asarray(member_uppers, dtype=float)
    if lowers.ndim != 2 or lowers.shape != uppers.shape:
        raise ValueError(f"member bounds must be matching (m, n) arrays, got {lowers.shape} vs {uppers.shape}")
    if lowers.shape[1] != combined.n:
        raise ValueError(f"member length {lowers.shape[1]} does not match combined length {combined.n}")
    if not (np.isfinite(lowers).all() and np.isfinite(uppers).all()):
        raise ValueError("member interval bounds contain non-finite values")
    y = _check_observations(combined, observed)

    ais_out = average_interval_score(combined, y)
    # one row's plain floats at a time: fsum over numpy scalars is slower, and a whole-array list is large
    member_scores = [
        math.fsum(row.tolist()) / combined.n for row in _interval_scores(combined.alpha, lowers, uppers, y)
    ]
    aais_in = math.fsum(member_scores) / len(member_scores)
    # a member scoring exactly zero has no relative improvement
    improvements = tuple(float("nan") if score == 0.0 else (score - ais_out) / score for score in member_scores)
    excluded = tuple(i for i, score in enumerate(member_scores) if score == 0.0)
    relative_difference = 0.0 if aais_in == 0.0 else (aais_in - ais_out) / aais_in
    return WisdomRecord(combined.alpha, ais_out, aais_in, relative_difference, improvements, excluded)


def rank_schemes(ais_table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Competition-rank schemes per catchment by average interval score.

    ``ais_table`` has one row per catchment and one column per scheme.
    Returns (ranks, average_rank_per_scheme); the best (smallest) score gets
    rank 1 and ties share the smaller rank.
    """
    table = np.asarray(ais_table, dtype=float)
    if table.ndim != 2 or table.size == 0:
        raise ValueError(f"need a (catchments, schemes) table, got shape {table.shape}")
    if not np.isfinite(table).all():
        raise ValueError("scores must be finite to rank")
    ranks = 1 + np.sum(table[:, None, :] < table[:, :, None], axis=2)
    return ranks, ranks.mean(axis=0)


@dataclass(frozen=True)
class MetricsRecord:
    """One scored (catchment, scheme, level) cell."""

    catchment: str
    scheme: str
    alpha: float
    coverage: float
    width: float
    score: float
    crossings: int
    seconds: float


METRICS_FIELDS = ("catchment", "scheme", "alpha", "coverage", "width", "score", "crossings", "seconds")


def write_metrics_csv(records, path: str | Path) -> None:
    rows = ((r.catchment, r.scheme, r.alpha, r.coverage, r.width, r.score, r.crossings, r.seconds) for r in records)
    write_csv(path, METRICS_FIELDS, rows)


def _metrics_record(row: list[str]) -> MetricsRecord:
    numbers = [float(row[i]) for i in (2, 3, 4, 5, 7)]
    if not all(map(math.isfinite, numbers)):
        raise ValueError(f"non-finite number in {','.join(row)}")
    alpha, coverage, width, score, seconds = numbers
    return MetricsRecord(row[0], row[1], alpha, coverage, width, score, int(row[6]), seconds)


def read_metrics_csv(path: str | Path) -> list[MetricsRecord]:
    """Read a metrics file; a wrong header, a bad row or a non-finite number raises ``ValueError``."""
    return list(read_csv(path, METRICS_FIELDS, _metrics_record))


def _level_label(alpha: float) -> str:
    return f"{(1.0 - alpha) * 100:g}"


def summarize(records) -> dict:
    """Mean and median of each score per (scheme, level) across catchments."""
    cells: dict[tuple[str, float], dict[str, list[float]]] = {}
    for r in records:
        cell = cells.setdefault((r.scheme, r.alpha), {"coverage": [], "width": [], "score": []})
        cell["coverage"].append(r.coverage)
        cell["width"].append(r.width)
        cell["score"].append(r.score)
    out: dict = {}
    for (scheme, alpha), cell in sorted(cells.items()):
        level = _level_label(alpha)
        block = out.setdefault(scheme, {})
        block[level] = {
            "n_catchments": len(cell["score"]),
            "coverage_mean": math.fsum(cell["coverage"]) / len(cell["coverage"]),
            "coverage_median": float(np.median(cell["coverage"])),
            "width_mean": math.fsum(cell["width"]) / len(cell["width"]),
            "width_median": float(np.median(cell["width"])),
            "score_mean": math.fsum(cell["score"]) / len(cell["score"]),
            "score_median": float(np.median(cell["score"])),
        }
    return out


def write_summary_json(summary: dict, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
