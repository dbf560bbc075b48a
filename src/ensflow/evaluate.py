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

All averages use exactly-rounded summation, ``math.fsum``'s bits, so any
batch order gives the same result.  A batch run scores a numbered scheme's
members with these bits in ``_gr2m.c``'s ``score_level`` where it builds, and
either way builds their record through :func:`wisdom_record`.  This module
writes no file: ``reports`` writes its records and :func:`summarize`'s table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    return math.fsum((pred.upper - pred.lower).tolist()) / pred.n


def _interval_scores(alpha: float, lower, upper, y) -> np.ndarray:
    """Elementwise interval score (u - l) + p max(l - y, 0) + p max(y - u, 0), p = 2/alpha; bounds broadcast against y.

    Its bits are those of where(y < l, l - y, 0), whose zeros are +0: a zero of either sign added to w
    gives the same bits unless w = -0, which needs l = +0 where l - y = -0 needs l = -0 (and w + p max(l - y, 0)
    is never -0).
    """
    penalty = 2.0 / alpha
    scores, miss = np.subtract(upper, lower), None
    for a, b in ((lower, y), (y, upper)):  # below the interval, then above it
        miss = np.subtract(a, b, out=miss)
        np.maximum(miss, 0.0, out=miss)
        miss *= penalty
        scores += miss
    return scores


def average_interval_score(pred: IntervalPrediction, observed) -> float:
    """Mean interval score; lower is better, misses cost 2/alpha per mm."""
    y = _check_observations(pred, observed)
    return math.fsum(_interval_scores(pred.alpha, pred.lower, pred.upper, y).tolist()) / pred.n


def crossing_count(pred: IntervalPrediction) -> int:
    """Number of time steps whose lower bound exceeds the upper bound."""
    return int(np.count_nonzero(pred.lower > pred.upper))


class WisdomRecord(NamedTuple):
    """Combined-versus-members comparison at one interval level: a ``wisdom.csv`` row without its catchment and scheme.

    ``relative_difference`` compares the members' average score with the
    combined score; by convexity of the interval score it cannot be negative
    when the combined bounds are the member means.  ``ri_min``, ``ri_median``
    and ``ri_max`` summarise the relative improvements of the combined
    interval over the ``n_members`` members, (member score - combined score)
    / member score; the ``n_excluded`` members that scored exactly zero have
    none, and all three are None when no improvement is left.
    """

    alpha: float
    ais_out: float
    aais_in: float
    relative_difference: float
    ri_min: float | None
    ri_median: float | None
    ri_max: float | None
    n_members: int
    n_excluded: int


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
    scores = _interval_scores(combined.alpha, lowers, uppers, y).tolist()  # (m, n): one row per member
    return wisdom_record(combined, y, [math.fsum(row) / combined.n for row in scores])


def wisdom_record(combined: IntervalPrediction, observed, member_scores: list[float]) -> WisdomRecord:
    """The crowd comparison at ``combined``'s level from the members' average interval scores.

    The improvements of the nonzero scores, in member order and without nans (an infinite score's), give ``ri_*``.
    """
    ais_out = average_interval_score(combined, observed)
    aais_in = math.fsum(member_scores) / len(member_scores)
    improvements = [(score - ais_out) / score for score in member_scores if score != 0.0]
    usable = [x for x in improvements if not math.isnan(x)]
    ri = (min(usable), median(usable), max(usable)) if usable else (None, None, None)
    rd = 0.0 if aais_in == 0.0 else (aais_in - ais_out) / aais_in
    return WisdomRecord(combined.alpha, ais_out, aais_in, rd, *ri, len(member_scores), member_scores.count(0.0))


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


class MetricsRecord(NamedTuple):
    """One scored (catchment, scheme, level) cell: a ``metrics.csv`` row, whose header is the field names."""

    catchment: str
    scheme: str
    alpha: float
    coverage: float
    width: float
    score: float
    crossings: int
    seconds: float


def median(values: list[float]) -> float:
    """``np.median``'s bits on a non-empty list of finite floats, without the NaN check that imports ``numpy.ma``.

    It serves :func:`wisdom_record`'s ``ri_median`` and :func:`summarize`'s medians.
    """
    n = len(values)
    part = np.partition(values, [n // 2 - 1, n // 2, -1] if n % 2 == 0 else [n // 2, -1])  # np.median's kth
    return float(part[(n - 1) // 2 : n // 2 + 1].mean())


def summarize(records) -> dict:
    """Mean and median of each score per (scheme, level) across catchments; a level is labelled by its percent."""
    cells: dict[tuple[str, float], list[MetricsRecord]] = {}
    for r in records:
        cells.setdefault((r.scheme, r.alpha), []).append(r)
    out: dict = {}
    for (scheme, alpha), cell in sorted(cells.items()):
        block = out.setdefault(scheme, {})[f"{(1.0 - alpha) * 100:g}"] = {"n_catchments": len(cell)}
        for name in ("coverage", "width", "score"):
            values = [getattr(r, name) for r in cell]
            block |= {f"{name}_mean": math.fsum(values) / len(values), f"{name}_median": median(values)}
    return out
