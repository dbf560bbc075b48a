"""Acceptance gate: one test per shipped guarantee, one pass/fail line each.

Every test here exercises a documented guarantee end to end at desk scale.
Full-archive reproduction of published multi-catchment studies needs external
daily data and hours of compute; the last test checks that this pathway
exists without running it.
"""

import itertools

import numpy as np
import pytest

from ensflow.calibrate import ChainConfig, PosteriorSample, calibrate_catchment, psrf
from ensflow.cli import main
from ensflow.ensemble import (
    SchemeConfig,
    build_sisters,
    combine,
    generate_sisters,
    intervals_from_prediction,
    member_interval_bounds,
    run_scheme,
    to_auxiliary,
    train_error_model,
)
from ensflow.evaluate import (
    INTERVAL_ALPHAS,
    IntervalPrediction,
    average_interval_score,
    coverage_probability,
    wisdom_metrics,
)
from ensflow.experiment import ExperimentConfig, SyntheticSpec, synthesize_monthly
from ensflow.regress import RegressionDataset, fit_quantile_set, pinball_loss
from ensflow.timeseries import partition

# Seeds are committed constants: every run of this suite repeats the identical
# experiment, so a pass here is a pass everywhere.
WISDOM_CATCHMENT_SEEDS = range(300, 320)
RECOVERY_SEED_BASE = 0
CALIBRATION_COVERAGE_SEEDS = range(10)

# Synthetic truth for the recovery study: mild seasonality, 5% of the true
# flow as heteroscedastic noise standard deviation, no additive floor.
RECOVERY_TRUTH = (400.0, 0.9)
RECOVERY_GENERATOR = dict(
    n_months=180,
    precip_amplitude=0.05,
    pet_amplitude=0.05,
    forcing_noise=0.03,
    flow_noise_ratio=0.05,
    flow_noise_floor=0.0,
)


def seeded_pairs(rng, m):
    """Plausible parameter pairs drawn around (400, 0.9), kept inside the box."""
    theta1 = np.clip(400.0 * np.exp(0.15 * rng.standard_normal(m)), 1.0, 3000.0)
    theta2 = np.clip(0.9 * np.exp(0.10 * rng.standard_normal(m)), 0.2, 5.0)
    return np.column_stack([theta1, theta2])


def test_criterion_01_combined_interval_never_beaten_by_member_average():
    """RD = (member-average score - combined score) / member-average score
    stays >= -1e-12 for 20 catchments x 6 schemes x 5 interval levels."""
    split = partition(96, 12, 24, 36)  # 24 test months
    worst = np.inf
    cases = 0
    for c, catchment_seed in enumerate(WISDOM_CATCHMENT_SEEDS):
        series, _ = synthesize_monthly(SyntheticSpec(n_months=96, seed=catchment_seed))
        sample = PosteriorSample(pairs=seeded_pairs(np.random.default_rng(900 + c), 50))
        sisters = build_sisters(sample, series, split, 50)
        observed = np.asarray(series.streamflow)[split.t3]
        for scheme in ("1", "2", "3", "4", "5", "6"):
            result = run_scheme(scheme, series, split, sisters=sisters)
            intervals = intervals_from_prediction(result.prediction)
            for alpha in INTERVAL_ALPHAS:
                lowers, uppers = member_interval_bounds(result.auxiliary, alpha)
                record = wisdom_metrics(lowers, uppers, intervals[alpha], observed)
                worst = min(worst, record.relative_difference)
                cases += 1
    assert cases == 20 * 6 * 5
    assert worst >= -1e-12, f"combination lost to the member average: RD={worst}"


def test_criterion_02_interval_score_matches_independent_oracle():
    """1000 random (interval, observation, level) triples agree with a directly
    coded width-plus-penalty evaluation to 1e-12 relative; two hand cases exact."""

    def oracle(lower, upper, y, alpha):
        width = upper - lower
        if y < lower:
            return width + (2.0 / alpha) * (lower - y)
        if y > upper:
            return width + (2.0 / alpha) * (y - upper)
        return width

    rng = np.random.default_rng(42)
    for _ in range(1000):
        lower = rng.uniform(-10.0, 10.0)
        upper = lower + rng.uniform(0.0, 10.0)
        y = rng.uniform(-15.0, 15.0)
        alpha = float(rng.choice(INTERVAL_ALPHAS))
        scored = average_interval_score(
            IntervalPrediction(alpha, np.array([lower]), np.array([upper])), np.array([y])
        )
        expected = oracle(lower, upper, y, alpha)
        assert abs(scored - expected) <= 1e-12 * max(1.0, abs(expected))

    miss_above = average_interval_score(
        IntervalPrediction(0.2, np.array([1.0]), np.array([3.0])), np.array([4.0])
    )
    assert miss_above == 12.0
    miss_below = average_interval_score(
        IntervalPrediction(0.05, np.array([0.0]), np.array([1.0])), np.array([-0.1])
    )
    assert miss_below == 5.0


def test_criterion_03_quantile_fit_reaches_vertex_oracle():
    """On 200 random datasets (n <= 30, k <= 3) the fitted pinball loss is within
    1e-6 of exhaustive search over exact-fit candidate planes, and residual sign
    counts respect the optimality bounds at every fitted probability."""

    def vertex_oracle(x, y, p):
        # an optimal quantile plane passes through k data points, so searching
        # all exact-fit planes bounds the achievable loss from below
        n, k = x.shape
        idx = np.array(list(itertools.combinations(range(n), k)))
        a = x[idx]
        dets = np.linalg.det(a)
        ok = np.abs(dets) > 1e-9
        beta = np.linalg.solve(a[ok], y[idx][ok][..., None])[..., 0]
        fitted = beta @ x.T
        residual = y[None, :] - fitted
        losses = np.mean(
            np.where(residual >= 0.0, p * residual, (p - 1.0) * residual), axis=1
        )
        return float(losses.min())

    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(8, 31))
        k = int(rng.integers(1, 4))
        x = np.column_stack([np.ones(n)] + [rng.standard_normal(n) for _ in range(k - 1)])
        beta_true = rng.uniform(-2.0, 2.0, size=k)
        y = x @ beta_true + rng.standard_t(df=4, size=n)
        data = RegressionDataset(x, y)
        for p in (0.1, 0.5, 0.9):
            coefficients = fit_quantile_set(data, (p,)).coefficients[p]
            achieved = float(np.mean(pinball_loss(p, y, x @ coefficients)))
            assert achieved <= vertex_oracle(x, y, p) + 1e-6
            residual = y - x @ coefficients
            tol = 1e-7 * max(1.0, float(np.max(np.abs(y))))
            below = int(np.sum(residual < -tol))
            above = int(np.sum(residual > tol))
            assert below <= n * p + 1e-9
            assert above <= n * (1.0 - p) + 1e-9


def test_criterion_04_parameter_recovery_under_heteroscedastic_noise():
    """Truth (400, 0.9) with 5% proportional noise: every replicate converges
    (PSRF < 1.10, at most 10 restarts) and the central 90% of each marginal
    posterior covers the true value in at least 18 of 20 seeded replicates."""
    split = partition(180, 12, 144, 12)
    hits = np.zeros(2, dtype=int)
    for rep in range(20):
        seed = RECOVERY_SEED_BASE + rep
        series, _ = synthesize_monthly(SyntheticSpec(seed=seed, **RECOVERY_GENERATOR))
        result = calibrate_catchment(series, split, ChainConfig(seed=seed))
        assert result.converged, f"replicate {rep} did not converge"
        assert result.psrf < 1.10
        assert result.restarts_used <= 10
        pairs = result.sample.pairs
        for j, truth in enumerate(RECOVERY_TRUTH):
            lo, hi = np.quantile(pairs[:, j], [0.05, 0.95])
            hits[j] += bool(lo <= truth <= hi)
    assert hits[0] >= 18, f"theta1 covered in only {hits[0]}/20 replicates"
    assert hits[1] >= 18, f"theta2 covered in only {hits[1]}/20 replicates"


def test_criterion_05_convergence_diagnostic_separates_mixed_from_stuck():
    """Well-mixed chains of length 1000 score below 1.05; chains offset by ten
    within-chain standard deviations score above 1.5."""
    rng = np.random.default_rng(7)
    mixed = [rng.standard_normal((1000, 2)) for _ in range(3)]
    assert psrf(mixed) < 1.05
    stuck = [chain + 10.0 * (i - 1) for i, chain in enumerate(mixed)]
    assert psrf(stuck) > 1.5


@pytest.fixture(scope="module")
def tenfold_calibrated_runs():
    """Ten seeded heteroscedastic catchments, calibrated, with the pooled
    quantile scheme and the per-sister linear scheme run on 600 test months."""
    split = partition(900, 12, 144, 144)  # leaves 600 test months
    rows = []
    for i in CALIBRATION_COVERAGE_SEEDS:
        series, _ = synthesize_monthly(SyntheticSpec(n_months=900, seed=i))
        calibration = calibrate_catchment(series, split, ChainConfig(seed=1000 + i))
        observed = np.asarray(series.streamflow)[split.t3]
        sisters = build_sisters(calibration.sample, series, split, 100)
        pooled_quantile = run_scheme("5", series, split, sisters=sisters)
        per_sister_linear = run_scheme("1", series, split, sisters=sisters)
        rows.append((per_sister_linear, pooled_quantile, observed))
    return rows


def test_criterion_06_pooled_quantile_scheme_is_roughly_calibrated(tenfold_calibrated_runs):
    """95% interval empirical coverage lies in [0.91, 0.985] on each of the ten
    catchments (100 ensemble members, 600 test months each)."""
    coverages = []
    for _, pooled_quantile, observed in tenfold_calibrated_runs:
        intervals = intervals_from_prediction(pooled_quantile.prediction)
        coverages.append(coverage_probability(intervals[0.05], observed))
    coverages = np.asarray(coverages)
    assert coverages.size == 10
    assert np.all(coverages >= 0.91) and np.all(coverages <= 0.985), coverages


def test_criterion_07_pooled_quantile_beats_per_sister_linear_on_average(
    tenfold_calibrated_runs,
):
    """Mean relative improvement of the pooled quantile scheme over the
    per-sister linear scheme is strictly positive at every interval level."""
    for alpha in INTERVAL_ALPHAS:
        improvements = []
        for per_sister_linear, pooled_quantile, observed in tenfold_calibrated_runs:
            benchmark = average_interval_score(
                intervals_from_prediction(per_sister_linear.prediction)[alpha], observed
            )
            candidate = average_interval_score(
                intervals_from_prediction(pooled_quantile.prediction)[alpha], observed
            )
            improvements.append((benchmark - candidate) / benchmark)
        mean_improvement = float(np.mean(improvements))
        assert mean_improvement > 0.0, f"level {1 - alpha:.0%}: mean RI {mean_improvement}"


def test_criterion_08_pipeline_counts_at_full_dimensions():
    """m=600 sisters, 144 training months, 300 test months, 10 probabilities:
    86400 training errors, 6000 auxiliary quantile series, 444-month sisters,
    300-month delivered quantiles, all exact."""
    split = partition(468, 12, 12, 144)  # 300 test months
    series, _ = synthesize_monthly(SyntheticSpec(n_months=468, seed=77))
    sample = PosteriorSample(pairs=seeded_pairs(np.random.default_rng(88), 600))
    ensemble = generate_sisters(sample, series, split)
    assert ensemble.errors.shape == (600, 144)
    assert ensemble.errors.size == 86400
    assert ensemble.predictions.shape == (600, 444)

    config = SchemeConfig(variant=2, error_model="linear")
    models = train_error_model(ensemble, config)
    auxiliary = to_auxiliary(ensemble, models)
    assert auxiliary.values.shape == (600, 10, 300)
    assert auxiliary.values.shape[0] * auxiliary.values.shape[1] == 6000

    combined = combine(auxiliary)
    assert combined.quantiles.shape == (10, 300)


def test_criterion_09_single_member_collapses_scheme_variants():
    """With one ensemble member the three linear schemes are bitwise identical,
    and so are the three quantile schemes."""
    split = partition(96, 12, 24, 36)
    series, _ = synthesize_monthly(SyntheticSpec(n_months=96, seed=11))
    sisters = build_sisters(PosteriorSample(pairs=seeded_pairs(np.random.default_rng(5), 1)), series, split, 1)
    quantiles = {
        scheme: run_scheme(scheme, series, split, sisters=sisters).prediction.quantiles
        for scheme in ("1", "2", "3", "4", "5", "6")
    }
    assert np.array_equal(quantiles["1"], quantiles["2"])
    assert np.array_equal(quantiles["2"], quantiles["3"])
    assert np.array_equal(quantiles["4"], quantiles["5"])
    assert np.array_equal(quantiles["5"], quantiles["6"])
    # the two families genuinely differ, so the collapse is not vacuous
    assert not np.array_equal(quantiles["1"], quantiles["4"])


def test_criterion_10_full_archive_pathway_exists(capsys):
    """Multi-hundred-catchment reruns go through the run verb with a config
    file and a worker pool; that job is hours-scale and not executed here."""
    assert main(["run", "--help"]) == 0
    help_text = capsys.readouterr().out
    assert "--config" in help_text and "--workers" in help_text
    # defaults target long archives: 144 calibration + 144 training months,
    # remainder as test months, every scheme, paper-scale ensemble size; the
    # config builds, and a config with a bad value raises ConfigError instead
    defaults = ExperimentConfig(workers=8)
    assert defaults.n1 == 144 and defaults.n2 == 144 and defaults.m == 600
