"""Ensemble post-processing: from a parameter sample to predictive quantiles.

The pipeline turns a collection of m calibrated parameter pairs into one set
of predictive quantiles for the test months.  Steps 1-2 run once per
catchment (``build_sisters``); every numbered scheme then fits step 3 on that
same sister ensemble (``run_scheme``), and ``combine`` runs steps 4-6:

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

import math
from dataclasses import dataclass, replace

import numpy as np

from .calibrate import PosteriorSample
from .evaluate import INTERVAL_ALPHAS, IntervalPrediction
from .gr2m import simulate_batch
from .regress import RegressionDataset, design_matrix, fit_ols, fit_quantile_set
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
    """Error models fitted at ``probabilities``: one per sister (variant 1) or a single one (2, 3).

    Model i's error quantile at ``probabilities[j]`` is a line in a sister's
    prediction u:  ``coefficients[i, j, 0] + coefficients[i, j, 1] u + shift[i, j]``,
    with ``coefficients`` (n_models, n_probs, 2) and ``shift`` (n_models, n_probs).
    """

    kind: str
    variant: int
    probabilities: tuple[float, ...]
    coefficients: np.ndarray
    shift: np.ndarray
    selected_sister: int | None = None

    def __post_init__(self) -> None:
        coefficients, shift = np.asarray(self.coefficients, dtype=float), np.asarray(self.shift, dtype=float)
        n = len(self.probabilities)
        if coefficients.shape[1:] != (n, 2) or shift.shape != coefficients.shape[:2]:
            raise ValueError(f"need coefficients (n_models, {n}, 2) and shift (n_models, {n}), "
                             f"got {coefficients.shape} and {shift.shape}")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "shift", shift)


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


def intervals_from_prediction(pred: CombinedPrediction) -> dict[float, IntervalPrediction]:
    """Pair off quantiles into the central intervals of ``INTERVAL_ALPHAS``, keyed by alpha."""
    out: dict[float, IntervalPrediction] = {}
    for alpha in INTERVAL_ALPHAS:
        lo = _probability_index(pred.probabilities, alpha / 2.0)
        hi = _probability_index(pred.probabilities, 1.0 - alpha / 2.0)
        out[alpha] = IntervalPrediction(alpha, pred.quantiles[lo], pred.quantiles[hi])
    return out


def member_interval_bounds(ensemble: SisterEnsemble, models: TrainedErrorModels, alpha: float, lines: bool = False):
    """Per-sister central-interval bounds at one level: two (m, n3) arrays, made on demand by ``to_auxiliary``.

    With ``lines``, the (n_models, 2, 3) error-quantile lines (b0, b1, shift) of the lower and upper bound
    instead, for a pass that forms the bounds itself (``_gr2m.c``'s ``score_level``).
    """
    lo = _probability_index(models.probabilities, alpha / 2.0)
    hi = _probability_index(models.probabilities, 1.0 - alpha / 2.0)
    bounds = to_auxiliary(ensemble, models, lo, lines), to_auxiliary(ensemble, models, hi, lines)
    return np.stack(bounds, axis=1) if lines else bounds


def generate_sisters(
    sample: PosteriorSample, series: MonthlySeries, split: PeriodPartition
) -> SisterEnsemble:
    """Simulate every retained parameter pair and collect training errors; ``simulate_batch`` refuses a short series."""
    # the calibration months join the warm-up: only the error-training and test months are kept
    predictions = simulate_batch(
        sample.pairs[:, 0],
        sample.pairs[:, 1],
        series.precipitation,
        series.potential_evaporation,
        split.warmup + split.n1,
        split.n2 + split.n3,
    )
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


def _lines(kind: str, data: RegressionDataset, probabilities: tuple[float, ...], z: np.ndarray):
    """One dataset's error quantiles as lines  x @ coefficients[j] + shift[j]: (n_probs, k) and (n_probs,) arrays.

    A pinball-loss fit has its own coefficients per probability and no shift;
    the linear family shifts the least-squares line by sigma z_p, with ``z``
    the z_p, which the caller computes once for all its datasets.
    """
    if kind == "quantile":
        return fit_quantile_set(data, probabilities), np.zeros(len(probabilities))
    fit = fit_ols(data)
    return np.tile(fit.coefficients, (len(probabilities), 1)), fit.sigma * z


def train_error_model(ensemble: SisterEnsemble, config: SchemeConfig) -> TrainedErrorModels:
    """Fit the configured error-model variant on the training errors."""
    kind, probs = config.error_model, config.probabilities
    z = np.array([_normal_quantile(p) for p in probs])
    u, e = ensemble.training_predictions, ensemble.errors
    chosen, which = None, slice(None)
    if config.variant == 2:  # pool every sister's rows, sister-major order, into one (1, u) design array
        x = np.ones((u.size, 2))
        x.reshape(*u.shape, 2)[..., 1] = u
        lines = [_lines(kind, RegressionDataset(x, e.reshape(-1)), probs, z)]
    else:
        if config.variant == 3:  # the one sister the scheme seed draws
            chosen = int(np.random.default_rng(config.seed).integers(ensemble.m))
            first = [chosen]
        else:
            # a rejected MCMC move repeats its pair and so its sister: fit a sister only where its (u, e) rows
            # differ from the previous sister's, byte for byte (-0.0 is not 0.0)
            bits_u, bits_e, new = u.view(np.int64), e.view(np.int64), np.ones(ensemble.m, dtype=bool)
            new[1:] = (bits_u[1:] != bits_u[:-1]).any(axis=1) | (bits_e[1:] != bits_e[:-1]).any(axis=1)
            first, which = np.flatnonzero(new), np.cumsum(new) - 1
        lines = []
        for i in first:  # a failure names the first sister of its run
            try:
                lines.append(_lines(kind, RegressionDataset(design_matrix(u[i]), e[i]), probs, z))
            except ValueError as exc:
                raise type(exc)(f"sister {i}: {exc}") from exc
    coefficients, shift = (np.array(part) for part in zip(*lines))
    return TrainedErrorModels(kind, config.variant, probs, coefficients[which], shift[which], chosen)


# Cephes ndtri's P/Q tables, highest power first, Q's leading 1 written out: np.polyval rounds as its polevl does
_NDTRI_CENTRE = ((-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
                  1.39312609387279679503e1, -1.23916583867381258016e0),
                 (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
                  -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
                  1.59056225126211695515e1, -1.18331621121330003142e0))
_NDTRI_TAIL = ((4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1, 4.40805073893200834700e1,
                1.46849561928858024014e1, 2.18663306850790267539e0, -1.40256079171354495875e-1,
                -3.50424626827848203418e-2, -8.57456785154685413611e-4),
               (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
                1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
                -3.80806407691578277194e-2, -9.33259480895457427372e-4))
_NDTRI_FAR = ((3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0, 1.33303460815807542389e0,
               2.01485389549179081538e-1, 1.23716634817820021358e-2, 3.01581553508235416007e-4,
               2.65806974686737550832e-6, 6.23974539184983293730e-9),
              (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
               2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
               2.89247864745380683936e-6, 6.79019408009981274425e-9))
_EXP_M2 = 0.13533528323661269189


def _normal_quantile(p: float) -> float:
    """The standard normal quantile z_p, 0 < p < 1: Cephes ``ndtri`` (scipy.special's), ported step for step."""
    lower = p <= 1.0 - _EXP_M2
    y = p if lower else 1.0 - p
    if y > _EXP_M2:  # exp(-2) < p <= 1 - exp(-2); the last factor is sqrt(2 pi)
        y, (num, den) = y - 0.5, _NDTRI_CENTRE
        return (y + y * (y * y * np.polyval(num, y * y) / np.polyval(den, y * y))) * 2.50662827463100050242
    x = math.sqrt(-2.0 * math.log(y))
    num, den = _NDTRI_TAIL if x < 8.0 else _NDTRI_FAR  # x < 8 for min(p, 1 - p) > exp(-32)
    z = x - math.log(x) / x - 1.0 / x * np.polyval(num, 1.0 / x) / np.polyval(den, 1.0 / x)
    return -z if lower else z


def predict_error_quantiles(
    models: TrainedErrorModels, ensemble: SisterEnsemble, j: int, lines: bool = False
) -> np.ndarray:
    """Error quantiles on the test months at ``probabilities[j]``, shape (m, n3).

    Every error model is a line in the sister's own prediction u, so the
    quantile is  b1 u + b0 + shift, computed for all sisters at once;
    variants 2 and 3 broadcast their single model.  Stack the calls over j
    for every probability.  With ``lines``, the (n_models, 3) lines
    (b0, b1, shift) themselves, checked against the sisters alike.
    """
    n_models = models.coefficients.shape[0]
    if n_models not in (1, ensemble.m):
        raise ValueError(f"{n_models} error models do not match {ensemble.m} sisters")
    if lines:
        return np.column_stack([models.coefficients[:, j], models.shift[:, j]])
    # in place, so the only array of the result's size is the result
    out = models.coefficients[:, j, 1, np.newaxis] * ensemble.test_predictions
    out += models.coefficients[:, j, 0, np.newaxis]
    out += models.shift[:, j, np.newaxis]
    return out


def to_auxiliary(ensemble: SisterEnsemble, models: TrainedErrorModels, j: int, lines: bool = False) -> np.ndarray:
    """Steps 4-5 at ``probabilities[j]``: every sister's auxiliary quantiles, shape (m, n3).

    aux quantile at probability p = prediction - error quantile at 1 - p;
    in a sorted symmetric probability set 1 - p is ``probabilities[-1 - j]``.
    The difference overwrites the error quantiles, so a call makes one
    (m, n3) array.  With ``lines``, the error-quantile lines it subtracts.
    """
    error_quantile = predict_error_quantiles(models, ensemble, len(models.probabilities) - 1 - j, lines)
    return error_quantile if lines else np.subtract(ensemble.test_predictions, error_quantile, out=error_quantile)


def sister_mean(aux: np.ndarray) -> np.ndarray:
    """Step 6 at one probability: the mean of (m, n3) auxiliary quantiles over the sisters, per month."""
    # numpy sums a lone column pairwise but a wider array row by row, in
    # the order of the (m, n_probs, n3) mean: keep that order when n3 = 1
    return aux.mean(axis=0) if aux.shape[1] > 1 else np.add.accumulate(aux[:, 0])[-1:] / aux.shape[0]


def combine(ensemble: SisterEnsemble, models: TrainedErrorModels) -> CombinedPrediction:
    """Step 6: the arithmetic mean over sisters at each (probability, month), one probability at a time."""
    means = [sister_mean(to_auxiliary(ensemble, models, j)) for j in range(len(models.probabilities))]
    return CombinedPrediction(probabilities=models.probabilities, quantiles=np.array(means))


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

    coefficients, shift = _lines(model_kind, data, probs, np.array([_normal_quantile(p) for p in probs]))
    quantiles = [x_test @ beta + s for beta, s in zip(coefficients, shift)]
    return CombinedPrediction(probabilities=probs, quantiles=np.array(quantiles))


def run_scheme(
    scheme: str,
    series: MonthlySeries,
    split: PeriodPartition,
    config: SchemeConfig | None = None,
    sisters: SisterEnsemble | None = None,
) -> CombinedPrediction | TrainedErrorModels:
    """Dispatch one scheme id: a basic scheme's quantiles, or a numbered scheme's error models.

    Numbered schemes override the config's variant and regression family
    (that is what the number means) and fit step 3 on ``sisters``, which
    ``build_sisters`` makes once per catchment.  ``combine`` averages the
    models into quantiles (step 6); ``member_interval_bounds`` makes a
    level's per-sister bounds, or their lines for the compiled scoring pass.
    """
    if config is None:
        config = SchemeConfig()
    if scheme in BASIC_SCHEMES:
        return run_basic_scheme(scheme.removeprefix("basic-"), series, split, config.probabilities)
    if scheme not in SCHEME_DEFS:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {ALL_SCHEMES}")
    if sisters is None:
        raise ValueError(f"scheme {scheme} runs on sisters: make them with build_sisters first")
    variant, kind = SCHEME_DEFS[scheme]
    return train_error_model(sisters, replace(config, variant=variant, error_model=kind))
