"""Probabilistic monthly streamflow prediction via ensemble post-processing.

A small numpy/scipy library that couples a two-parameter monthly
water-balance model with Bayesian parameter sampling, regression-based error
models and quantile averaging, plus interval scores to judge the result.
"""

from .calibrate import (
    CalibrationResult,
    Chain,
    ChainConfig,
    ChainSet,
    DegenerateChainsError,
    DegenerateFitError,
    PosteriorSample,
    calibrate_catchment,
    log_likelihood,
    psrf,
    run_chains,
)
from .ensemble import (
    ALL_SCHEMES,
    DEFAULT_PROBABILITIES,
    CombinedPrediction,
    SchemeConfig,
    SisterEnsemble,
    TrainedErrorModels,
    build_sisters,
    combine,
    generate_sisters,
    intervals_from_prediction,
    member_interval_bounds,
    predict_error_quantiles,
    run_basic_scheme,
    run_scheme,
    sister_mean,
    to_auxiliary,
    train_error_model,
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
    wisdom_metrics,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    SyntheticSpec,
    generate_synthetic,
    load_config,
    run_experiment,
    save_config,
    synthesize_monthly,
)
from .gr2m import (
    ROUTING_CAPACITY_MM,
    month_loop,
    simulate_batch,
    simulate_flow,
    step,
)
from .regress import (
    LinearFit,
    QuantileFitError,
    RankDeficiencyError,
    RegressionDataset,
    design_matrix,
    fit_ols,
    fit_quantile_set,
    pinball_loss,
)
from .timeseries import (
    MonthlySeries,
    PeriodPartition,
    load_catchment,
    partition,
)

__version__ = "0.1.0"
