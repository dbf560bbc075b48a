"""Error models: predicting how wrong the simulation will be.

Each retained parameter pair drives one "sister" simulation of the whole
series. On a training window we regress each sister's error (prediction minus
observation) on its own prediction, then use the fitted model to attach
conditional error quantiles to the test months.

Two families are available: a Gaussian linear regression (symmetric bands
from the residual spread) and quantile regression (each probability level
fitted separately via its pinball loss, so bands can be asymmetric). Three
training variants control pooling: per-sister (1), all sisters pooled (2),
or one randomly chosen sister (3).
"""

import numpy as np

from ensflow.calibrate import PosteriorSample
from ensflow.ensemble import SchemeConfig, generate_sisters, predict_error_quantiles, train_error_model
from ensflow.experiment import SyntheticSpec, synthesize_monthly
from ensflow.timeseries import partition

series, _ = synthesize_monthly(SyntheticSpec(n_months=120, seed=21))
split = partition(120, 12, 36, 48)  # 48 training months, 24 test months

rng = np.random.default_rng(0)
pairs = np.column_stack(
    [400.0 * np.exp(0.1 * rng.standard_normal(40)), 0.9 + 0.05 * rng.standard_normal(40)]
)
sample = PosteriorSample(pairs=pairs)

ensemble = generate_sisters(sample, series, split)
print(f"sisters: {ensemble.m}, each spanning {ensemble.n2} training + {ensemble.n3} test months")
print(f"training errors: {ensemble.errors.size} values, mean {ensemble.errors.mean():+.2f} mm\n")

probabilities = (0.05, 0.25, 0.75, 0.95)
for kind in ("linear", "quantile"):
    config = SchemeConfig(variant=2, error_model=kind, probabilities=probabilities)
    models = train_error_model(ensemble, config)
    # each probability's error quantile is a line in the sister's prediction u
    print(f"{kind} error model (pooled):")
    for j, p in enumerate(probabilities):
        (b0, b1), shift = models.coefficients[0, j], models.shift[0, j]
        print(f"  {p:.0%} error quantile: {b0 + shift:+.2f} {b1:+.3f} u")
    # conditional error band of sister 0 in its wettest and driest test month
    eq = [predict_error_quantiles(models, ensemble, j)[0] for j in range(len(probabilities))]
    wet = int(np.argmax(ensemble.test_predictions[0]))
    dry = int(np.argmin(ensemble.test_predictions[0]))
    for label, t in (("wettest", wet), ("driest", dry)):
        band = ", ".join(f"{p:.0%}: {eq[j][t]:+7.2f}" for j, p in enumerate(probabilities))
        print(f"  {label} test month (prediction {ensemble.test_predictions[0, t]:7.1f} mm): {band}")
    print()

# variant 3 trains on one seeded-random sister; the choice is reproducible
config3 = SchemeConfig(variant=3, error_model="linear", probabilities=probabilities, seed=9)
print(f"variant 3 trains on sister {train_error_model(ensemble, config3).selected_sister} of {ensemble.m}")
