"""Interval scoring, and why averaging quantiles never hurts on average.

The interval score charges an interval its width plus 2/alpha times any
exceedance. It is minimised in expectation by the true central interval, so
it rewards sharpness and calibration at once. Because the score is convex in
the interval bounds, an average of member intervals never scores worse than
the members do on average: the "wisdom of the crowd" effect, exact up to
rounding, for any ensemble whatsoever.

The script first dissects the score on three hand-sized cases, then measures
the crowd effect on a real scheme run.
"""

import numpy as np

from ensflow.calibrate import PosteriorSample
from ensflow.ensemble import build_sisters, intervals_from_prediction, member_interval_bounds, run_scheme
from ensflow.evaluate import IntervalPrediction, average_interval_score, wisdom_metrics
from ensflow.experiment import SyntheticSpec, synthesize_monthly
from ensflow.timeseries import partition

# anatomy of the score: width 2 interval [1, 3] at the 80% level (alpha = 0.2)
for y, story in ((2.0, "inside: width only"), (4.0, "above: width + 10x exceedance"), (0.5, "below")):
    score = average_interval_score(IntervalPrediction(0.2, np.array([1.0]), np.array([3.0])), np.array([y]))
    print(f"y = {y:4.1f} -> score {score:5.1f}   ({story})")

series, _ = synthesize_monthly(SyntheticSpec(n_months=120, seed=30))
split = partition(120, 12, 36, 48)
rng = np.random.default_rng(2)
pairs = np.column_stack(
    [400.0 * np.exp(0.1 * rng.standard_normal(30)), 0.9 + 0.05 * rng.standard_normal(30)]
)
sisters = build_sisters(PosteriorSample(pairs=pairs), series, split, 30)
result = run_scheme("5", series, split, sisters=sisters)

observed = np.asarray(series.streamflow)[split.t3]
intervals = intervals_from_prediction(result.prediction)
print(f"\n{'level':>6} {'combined AIS':>13} {'member avg AIS':>15} {'RD':>8}")
for alpha in (0.01, 0.025, 0.05, 0.10, 0.20):
    lowers, uppers = member_interval_bounds(result.auxiliary, alpha)
    record = wisdom_metrics(lowers, uppers, intervals[alpha], observed)
    print(
        f"{1 - alpha:>6.1%} {record.ais_out:>13.2f} {record.aais_in:>15.2f}"
        f" {record.relative_difference:>8.4f}"
    )
print("\nRD = (member average - combined) / member average; convexity keeps it >= 0")
