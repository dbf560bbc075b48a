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
result: ``math.fsum``'s bits, though the member sums of a wide array come from
an error-free TwoSum tree over all members at once, certified member by
member, and only uncertified members are summed by ``math.fsum``.
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
    return float(_exact_sums(pred.upper - pred.lower)) / pred.n


_TREE_MIN_SUMS = 16  # fewer go straight to math.fsum: the tree's dozen numpy calls per level cost more


def _exact_sums(terms: np.ndarray) -> np.ndarray:
    """Exactly rounded sums down axis 0 of an (n, k) or (n,) array: ``math.fsum``'s bits, column by column.

    A pairwise tree of Knuth's TwoSum (s = fl(a + b), e = a + b - s exactly) adds the first half of the
    rows to the second, a contiguous block per level for all columns at once, and leaves each column as
    a float s and n - 1 exact errors:  sum x = s + sum e.  Their sum c and the sum a of their magnitudes
    take at most D <= 2n roundings along any path, so (Higham 2002, sec. 4.2)  |c - sum e| <= g_D sum|e|
    <= g_D a / (1 - g_D) <= F a,  with g_D = Du / (1 - Du), u = 2^-53 and F = 2^(bit_length(n) - 51) >= 4nu.
    TwoSum gives r = fl(s + c) and t = s + c - r exactly, so |sum x - r| <= |t| + F a.  With h half the
    smaller gap from r to a neighbour (0 when that underflows), fl(|t| + F a) < h implies |t| + F a < h,
    as rounding is monotone, with room, as all three are multiples of 2^-1074, for the less than 2^-1075
    that an underflowing F a loses: sum x lies strictly inside r's rounding interval, so r is the correctly
    rounded sum, fsum's (fsum raises OverflowError instead where a running partial overflows).  A zero r
    (h = 0) or an overflow (nan) is never certified, and every uncertified column is summed by fsum.
    Rump, Ogita & Oishi (2008, "Accurate floating-point summation, part II") certify NearSum alike.
    """
    columns = terms.reshape(terms.shape[0], -1)
    (n, k), level = columns.shape, columns
    r, certified = np.empty(k), np.zeros(k, dtype=bool)
    if k >= _TREE_MIN_SUMS:
        c, a = np.zeros(k), np.zeros(k)
        while level.shape[0] > 1:  # three (n/2, k) temporaries at most
            half = level.shape[0] // 2
            x, y, s = level[:half], level[half : 2 * half], np.empty((level.shape[0] - half, k))
            s[half:] = level[2 * half :]  # an odd row waits for the next level
            yy = np.subtract(np.add(x, y, out=s[:half]), x)
            e = np.subtract(s[:half], yy)
            np.subtract(x, e, out=e)
            e += np.subtract(y, yy, out=yy)  # (x - (s - yy)) + (y - yy)
            c += e.sum(axis=0)
            a += np.abs(e, out=e).sum(axis=0)
            level = s
        s = level[0]
        r = s + c
        cc = r - s
        t = np.abs((s - (r - cc)) + (c - cc))
        h = np.minimum(np.abs(np.spacing(r)), np.abs(r - np.nextafter(r, 0.0))) / 2.0
        certified = t + a * 2.0 ** (n.bit_length() - 51) < h  # false for nan
    for j in np.flatnonzero(~certified):
        r[j] = math.fsum(columns[:, j].tolist())
    return r.reshape(terms.shape[1:])


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
    return float(_exact_sums(_interval_scores(pred.alpha, pred.lower, pred.upper, y))) / pred.n


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
    # scored as (n, m): each member's sum runs down a column, so the tree adds contiguous rows
    scores = np.ascontiguousarray(_interval_scores(combined.alpha, lowers, uppers, y).T)
    member_scores = (_exact_sums(scores) / combined.n).tolist()
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
    """Read a metrics file; a wrong header, a bad row, a non-finite number or a repeated cell raises ``ValueError``."""
    cells = set()

    def parse(row: list[str]) -> MetricsRecord:
        record = _metrics_record(row)
        if (cell := (record.catchment, record.scheme, record.alpha)) in cells:
            raise ValueError(f"repeated (catchment, scheme, alpha) cell {','.join(row[:3])}")
        cells.add(cell)
        return record

    return list(read_csv(path, METRICS_FIELDS, parse))


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
