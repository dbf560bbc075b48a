"""The eight prediction schemes, side by side on one catchment.

Schemes 1-3 pair the sister ensemble with the linear error model, schemes 4-6
with the quantile error model (variants: per-sister / pooled / random-sister).
Each sister contributes its own predictive quantiles; averaging same-
probability quantiles across sisters gives the delivered prediction. The two
"basic" schemes skip the water-balance model entirely and regress observed
flow straight on the forcing, which shows what the hydrological model adds.
The 50 sisters are simulated once and shared by the six numbered schemes, so
the seconds column covers each scheme's own error models and averaging.

Prints coverage (CP), average width (AW) and average interval score (AIS) of
the central 95% interval over the test months. Lower AIS is better; CP should
sit near 0.95.
"""

import numpy as np

from ensflow.calibrate import PosteriorSample
from ensflow.ensemble import ALL_SCHEMES, build_sisters, intervals_from_prediction, run_scheme
from ensflow.evaluate import average_interval_score, average_width, coverage_probability
from ensflow.experiment import SyntheticSpec, synthesize_monthly
from ensflow.timeseries import partition

series, _ = synthesize_monthly(SyntheticSpec(n_months=240, seed=14))
split = partition(240, 12, 96, 96)  # 36 test months

rng = np.random.default_rng(1)
pairs = np.column_stack(
    [400.0 * np.exp(0.08 * rng.standard_normal(50)), 0.9 + 0.04 * rng.standard_normal(50)]
)
sisters = build_sisters(PosteriorSample(pairs=pairs), series, split, 50)

observed = np.asarray(series.streamflow)[split.t3]
print(f"test window: {observed.size} months, observed mean {observed.mean():.1f} mm\n")
print(f"{'scheme':>14} {'CP95':>6} {'AW':>8} {'AIS':>8} {'seconds':>8}")
for scheme in ALL_SCHEMES:
    result = run_scheme(scheme, series, split, sisters=sisters)
    pred95 = intervals_from_prediction(result.prediction)[0.05]
    print(
        f"{scheme:>14} {coverage_probability(pred95, observed):>6.3f}"
        f" {average_width(pred95):>8.2f}"
        f" {average_interval_score(pred95, observed):>8.2f}"
        f" {result.elapsed_seconds:>8.2f}"
    )

print("\nnumbered schemes carry per-sister intervals too; the basic schemes do not")
