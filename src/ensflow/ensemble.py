"""Ensemble post-processing: from a parameter sample to predictive quantiles.

The pipeline turns a collection of m calibrated parameter pairs into one set
of predictive quantiles for the test months.  Steps 1-2 run once per
catchment (``build_sisters``); every numbered scheme then runs steps 3-6 on
that same sister ensemble:

1. each parameter pair is simulated over the error-training and test months,
   giving m equally plausible "sister" predictions;
2. on the error-training months each sister's errors are computed with the
   convention  error = prediction - observation  (positive error means the
   model predicted too much water);
3. a regression error model maps a sister's prediction to conditional error
   quantiles.  Three variants share this interface: variant 1 fits one model
   per sister, variant 2 pools every sister's training rows into one model,
   and variant 3 fits one model on a single sister chosen uniformly at
   random from the scheme seed;
4. error quantiles on the test months are predicted per sister;
5. each sister's error quantiles are converted into quantiles of an
   auxiliary streamflow process by subtraction.  Because the error enters
   with a minus sign the probability label flips:  aux quantile at p equals
   prediction minus error quantile at 1 - p, which is why the probability
   set must be symmetric around one half;
6. the delivered quantile at (p, t) is the arithmetic mean over the m
   auxiliary quantiles.

The regression family is a second switch: "linear" uses least squares with
Gaussian predictive quantiles, "quantile" uses pinball-loss regression per
probability.  Numbered schemes combine the two switches: schemes 1-3 are the
linear family with variants 1-3, schemes 4-6 the quantile family with
variants 1-3.  Two "basic" benchmark schemes skip the ensemble entirely and
regress observed flow on the forcing over every pre-test month.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace

import numpy as np

from .calibrate import PosteriorSample
from .evaluate import INTERVAL_ALPHAS, IntervalPrediction
from .gr2m import simulate_batch
from .regress import LinearFit, QuantileFit, RegressionDataset, design_matrix, fit_ols, fit_quantile_set
from .timeseries import MonthlySeries, PeriodPartition

# the bounds alpha/2 and 1 - alpha/2 of every scored central interval
DEFAULT_PROBABILITIES = tuple(sorted(p for a in INTERVAL_ALPHAS for p in (a / 2, 1 - a / 2)))

ERROR_MODEL_KINDS = ("linear", "quantile")

# scheme id -> (error-model variant, regression family)
SCHEME_DEFS = {
    "1": (1, "linear"),
    "2": (2, "linear"),
    "3": (3, "linear"),
    "4": (1, "quantile"),
    "5": (2, "quantile"),
    "6": (3, "quantile"),
}
BASIC_SCHEMES = ("basic-linear", "basic-quantile")
ALL_SCHEMES = BASIC_SCHEMES + tuple(SCHEME_DEFS)
QUANTILE_SCHEMES = ("basic-quantile", *(scheme for scheme, (_, kind) in SCHEME_DEFS.items() if kind == "quantile"))


def _check_probabilities(probabilities: tuple[float, ...]) -> tuple[float, ...]:
    probs = tuple(float(p) for p in probabilities)
    if len(probs) < 2:
        raise ValueError("need at least two probabilities")
    for p in probs:
        if not 0.0 < p < 1.0:
            raise ValueError(f"probabilities must lie in (0, 1), got {p}")
    if any(a >= b for a, b in zip(probs, probs[1:])):
        raise ValueError(f"probabilities must be strictly increasing, got {probs}")
    for a, b in zip(probs, reversed(probs)):
        if abs(a + b - 1.0) > 1e-12:
            raise ValueError(
                f"probability set must be symmetric around 0.5 ({a} and {b} do not pair up)"
            )
    return probs


@dataclass(frozen=True)
class SchemeConfig:
    """Settings shared by the schemes.

    The ``seed`` only feeds variant 3's choice of training sister.  Delivered
    quantiles are reported exactly as computed, negative ones included.
    """

    variant: int = 2
    error_model: str = "quantile"
    probabilities: tuple[float, ...] = DEFAULT_PROBABILITIES
    seed: int = 0

    def __post_init__(self) -> None:
        problems = []
        if self.variant not in (1, 2, 3):
            problems.append(f"variant must be 1, 2 or 3, got {self.variant}")
        if self.error_model not in ERROR_MODEL_KINDS:
            problems.append(f"error_model must be one of {ERROR_MODEL_KINDS}, got {self.error_model!r}")
        try:
            object.__setattr__(self, "probabilities", _check_probabilities(self.probabilities))
        except ValueError as exc:
            problems.append(str(exc))
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class SisterEnsemble:
    """m sister predictions over the error-training and test months.

    ``predictions`` is (m, n2 + n3); ``errors`` is (m, n2) and follows the
    convention  error = prediction - observation  on the training months.
    """

    predictions: np.ndarray
    errors: np.ndarray

    def __post_init__(self) -> None:
        predictions = np.asarray(self.predictions, dtype=float)
        errors = np.asarray(self.errors, dtype=float)
        if predictions.ndim != 2 or errors.ndim != 2:
            raise ValueError("predictions and errors must be 2-d")
        if predictions.shape[0] != errors.shape[0]:
            raise ValueError(
                f"sister counts differ: {predictions.shape[0]} predictions vs {errors.shape[0]} errors"
            )
        if errors.shape[1] >= predictions.shape[1]:
            raise ValueError("predictions must extend past the error-training months")
        object.__setattr__(self, "predictions", predictions)
        object.__setattr__(self, "errors", errors)

    @property
    def m(self) -> int:
        return self.predictions.shape[0]

    @property
    def n2(self) -> int:
        return self.errors.shape[1]

    @property
    def n3(self) -> int:
        return self.predictions.shape[1] - self.errors.shape[1]

    @property
    def training_predictions(self) -> np.ndarray:
        return self.predictions[:, : self.n2]

    @property
    def test_predictions(self) -> np.ndarray:
        return self.predictions[:, self.n2 :]


@dataclass(frozen=True)
class TrainedErrorModels:
    """Error models fitted at ``probabilities``: one per sister (variant 1) or a single one (2, 3)."""

    kind: str
    variant: int
    probabilities: tuple[float, ...]
    models: tuple
    selected_sister: int | None = None


@dataclass(frozen=True)
class AuxiliaryQuantiles:
    """Per-sister quantiles of the auxiliary process, shape (m, n_probs, n3)."""

    probabilities: tuple[float, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 3 or values.shape[1] != len(self.probabilities):
            raise ValueError(
                f"values must be (m, {len(self.probabilities)}, n3), got {values.shape}"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probabilities", _check_probabilities(self.probabilities))

    @property
    def m(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CombinedPrediction:
    """Delivered quantile series, shape (n_probs, n3)."""

    probabilities: tuple[float, ...]
    quantiles: np.ndarray

    def __post_init__(self) -> None:
        quantiles = np.asarray(self.quantiles, dtype=float)
        if quantiles.ndim != 2 or quantiles.shape[0] != len(self.probabilities):
            raise ValueError(
                f"quantiles must be ({len(self.probabilities)}, n3), got {quantiles.shape}"
            )
        object.__setattr__(self, "quantiles", quantiles)
        object.__setattr__(self, "probabilities", tuple(float(p) for p in self.probabilities))


def _probability_index(probabilities: tuple[float, ...], p: float) -> int:
    for i, q in enumerate(probabilities):
        if abs(q - p) <= 1e-9:
            return i
    raise ValueError(f"probability {p} not in the delivered set {probabilities}")


def intervals_from_prediction(
    pred: CombinedPrediction, alphas=INTERVAL_ALPHAS
) -> dict[float, IntervalPrediction]:
    """Pair off quantiles into central intervals, keyed by alpha."""
    out: dict[float, IntervalPrediction] = {}
    for alpha in alphas:
        lo = _probability_index(pred.probabilities, alpha / 2.0)
        hi = _probability_index(pred.probabilities, 1.0 - alpha / 2.0)
        out[alpha] = IntervalPrediction(alpha, pred.quantiles[lo], pred.quantiles[hi])
    return out


def member_interval_bounds(aux: AuxiliaryQuantiles, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-sister central-interval bounds at one level: two (m, n3) arrays."""
    lo = _probability_index(aux.probabilities, alpha / 2.0)
    hi = _probability_index(aux.probabilities, 1.0 - alpha / 2.0)
    return aux.values[:, lo, :], aux.values[:, hi, :]


def generate_sisters(
    sample: PosteriorSample, series: MonthlySeries, split: PeriodPartition
) -> SisterEnsemble:
    """Simulate every retained parameter pair and collect training errors."""
    if series.n < split.n_total:
        raise ValueError(f"series has {series.n} months, partition needs {split.n_total}")
    simulated = simulate_batch(
        sample.pairs[:, 0],
        sample.pairs[:, 1],
        series.precipitation,
        series.potential_evaporation,
        split,
    )
    # keep the error-training and test months, drop the calibration months
    predictions = simulated[:, split.n1 :]
    observed_training = np.asarray(series.streamflow, dtype=float)[split.t2]
    errors = predictions[:, : split.n2] - observed_training[np.newaxis, :]
    return SisterEnsemble(predictions=predictions, errors=errors)


def build_sisters(
    sample: PosteriorSample, series: MonthlySeries, split: PeriodPartition, m: int
) -> SisterEnsemble:
    """Steps 1-2 for the first ``m`` pairs of the sample, shared by every numbered scheme."""
    if sample.m < m:
        raise ValueError(f"need {m} parameter pairs, sample holds {sample.m}")
    return generate_sisters(PosteriorSample(sample.pairs[:m]), series, split)


def _fit_one(kind: str, u: np.ndarray, e: np.ndarray, probabilities: tuple[float, ...]):
    data = RegressionDataset(design_matrix(u), e)
    return fit_ols(data) if kind == "linear" else fit_quantile_set(data, probabilities)


def train_error_model(ensemble: SisterEnsemble, config: SchemeConfig) -> TrainedErrorModels:
    """Fit the configured error-model variant on the training errors."""
    kind = config.error_model
    u = ensemble.training_predictions
    e = ensemble.errors
    if config.variant == 2:
        # pool every sister's rows, sister-major order
        model = _fit_one(kind, u.reshape(-1), e.reshape(-1), config.probabilities)
        return TrainedErrorModels(kind=kind, variant=2, probabilities=config.probabilities, models=(model,))
    # variant 1 fits every sister, variant 3 the one sister the scheme seed draws
    chosen = None if config.variant == 1 else int(np.random.default_rng(config.seed).integers(ensemble.m))
    # a rejected MCMC move repeats its pair and so its sister: fit each
    # distinct (u, e) row once, matched byte for byte (-0.0 is not 0.0)
    rows = {i: u[i].tobytes() + e[i].tobytes() for i in (range(ensemble.m) if chosen is None else [chosen])}
    fits = {}
    for i, row in rows.items():
        if row not in fits:
            try:
                fits[row] = _fit_one(kind, u[i], e[i], config.probabilities)
            except ValueError as exc:
                raise type(exc)(f"sister {i}: {exc}") from exc
    models = tuple(fits[row] for row in rows.values())
    return TrainedErrorModels(
        kind=kind, variant=config.variant, probabilities=config.probabilities, models=models, selected_sister=chosen
    )


@functools.lru_cache(maxsize=64)  # a scheme asks for each of its probabilities once per sister
def _normal_quantile(p: float) -> float:
    """The standard normal quantile z_p, scipy's ``ndtri``, imported on the first call (see ``regress``)."""
    from scipy.special import ndtri

    return ndtri(p)


def _quantile_line(model: LinearFit | QuantileFit, p: float) -> tuple[np.ndarray, float]:
    """Coefficients and shift of a fitted model's quantile at p:  x @ beta + shift.

    The linear family's Gaussian quantile shifts the mean by sigma z_p; a
    pinball-loss fit has its own coefficients per probability and no shift.
    """
    if isinstance(model, LinearFit):
        return model.coefficients, model.sigma * _normal_quantile(p)
    if isinstance(model, QuantileFit):
        return model.coefficients[p], 0.0
    raise TypeError(f"unsupported error model {type(model).__name__}")


def predict_error_quantiles(models: TrainedErrorModels, ensemble: SisterEnsemble) -> np.ndarray:
    """Error quantiles at the models' probabilities on the test months, shape (m, n_probs, n3).

    Every error model is a line in the sister's own prediction u, so the
    quantile at p is  b0 + b1 u (+ sigma z_p for the linear family), computed
    for all sisters at once; variants 2 and 3 broadcast their single model.
    The result is one (m, n_probs, n3) array, 14.4 MB at paper dimensions
    (600, 10, 300): the pipeline asks for one probability at a time (see
    ``to_auxiliary``) and only inspection asks for them all.
    """
    if len(models.models) not in (1, ensemble.m):
        raise ValueError(f"{len(models.models)} error models do not match {ensemble.m} sisters")
    probs = models.probabilities
    beta, shift = zip(*(_quantile_line(model, p) for model in models.models for p in probs))
    beta = np.reshape(beta, (len(models.models), len(probs), 2, 1))
    shift = np.reshape(shift, (len(models.models), len(probs), 1))
    # in place, so the only (m, n_probs, n3) array is the result
    out = beta[:, :, 1] * ensemble.test_predictions[:, np.newaxis, :]
    out += beta[:, :, 0]
    out += shift
    return out


def to_auxiliary(ensemble: SisterEnsemble, models: TrainedErrorModels) -> AuxiliaryQuantiles:
    """Steps 4-5: subtract the error quantiles from the sister prediction, flipping labels.

    aux quantile at probability p = prediction - error quantile at 1 - p;
    with a sorted symmetric probability set the flip is a reversal along the
    probability axis.  Each probability's (m, n3) error quantiles go straight
    into their flipped slot, so the result is the only (m, n_probs, n3) array
    a scheme holds: 14.4 MB at paper dimensions (600, 10, 300).
    """
    probs = models.probabilities
    values = np.empty((ensemble.m, len(probs), ensemble.n3))
    for i, p in enumerate(probs):
        error_quantile = predict_error_quantiles(replace(models, probabilities=(p,)), ensemble)
        np.subtract(ensemble.test_predictions, error_quantile[:, 0, :], out=values[:, -1 - i, :])
    return AuxiliaryQuantiles(probabilities=probs, values=values)


def combine(aux: AuxiliaryQuantiles) -> CombinedPrediction:
    """Arithmetic mean over sisters at each (probability, month)."""
    return CombinedPrediction(
        probabilities=aux.probabilities, quantiles=aux.values.mean(axis=0)
    )


def run_basic_scheme(
    model_kind: str,
    series: MonthlySeries,
    split: PeriodPartition,
    probabilities: tuple[float, ...] = DEFAULT_PROBABILITIES,
) -> CombinedPrediction:
    """Benchmark without an ensemble: regress flow on forcing, predict quantiles.

    Trains on every month before the test period, the warm-up months
    included, with precipitation and potential evaporation as predictors,
    then emits quantiles for the test months.
    """
    if model_kind not in ERROR_MODEL_KINDS:
        raise ValueError(f"model kind must be one of {ERROR_MODEL_KINDS}, got {model_kind!r}")
    probs = _check_probabilities(probabilities)
    if series.n < split.n_total:
        raise ValueError(f"series has {series.n} months, partition needs {split.n_total}")
    rows = slice(0, split.warmup + split.n1 + split.n2)
    p = np.asarray(series.precipitation, dtype=float)
    e = np.asarray(series.potential_evaporation, dtype=float)
    y = np.asarray(series.streamflow, dtype=float)
    data = RegressionDataset(design_matrix(p[rows], e[rows]), y[rows])
    x_test = design_matrix(p[split.t3], e[split.t3])

    fit = fit_ols(data) if model_kind == "linear" else fit_quantile_set(data, probs)
    quantiles = [x_test @ beta + shift for beta, shift in (_quantile_line(fit, p) for p in probs)]
    return CombinedPrediction(probabilities=probs, quantiles=np.array(quantiles))


@dataclass(frozen=True)
class SchemeResult:
    scheme: str
    prediction: CombinedPrediction
    auxiliary: AuxiliaryQuantiles | None
    elapsed_seconds: float


def run_scheme(
    scheme: str,
    series: MonthlySeries,
    split: PeriodPartition,
    config: SchemeConfig | None = None,
    sisters: SisterEnsemble | None = None,
) -> SchemeResult:
    """Dispatch one scheme id and time it.

    Numbered schemes override the config's variant and regression family
    (that is what the number means) and run steps 3-6 on ``sisters``, which
    ``build_sisters`` makes once per catchment, outside the elapsed time.  A
    numbered scheme allocates one (m, n_probs, n3) array, the auxiliary
    quantiles the result keeps: 14.4 MB at paper dimensions (600, 10, 300).
    """
    if config is None:
        config = SchemeConfig()
    t_start = time.perf_counter()
    auxiliary = None
    if scheme in BASIC_SCHEMES:
        prediction = run_basic_scheme(scheme.removeprefix("basic-"), series, split, config.probabilities)
    elif scheme in SCHEME_DEFS:
        if sisters is None:
            raise ValueError(f"scheme {scheme} runs on sisters: make them with build_sisters first")
        variant, kind = SCHEME_DEFS[scheme]
        models = train_error_model(sisters, replace(config, variant=variant, error_model=kind))
        auxiliary = to_auxiliary(sisters, models)
        prediction = combine(auxiliary)
    else:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {ALL_SCHEMES}")
    return SchemeResult(scheme, prediction, auxiliary, elapsed_seconds=time.perf_counter() - t_start)
