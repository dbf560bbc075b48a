"""Bayesian calibration of the water-balance model.

The posterior over (theta1, theta2) combines a flat prior on a rectangular
parameter box with a power-law likelihood of the sum of squared errors,

    log L = -(n/2) * ln(SSE),

sampled by parallel adaptive Metropolis chains with one delayed-rejection
stage (a DRAM-style sampler): proposals start from a fixed diagonal
covariance, the covariance is re-estimated from the chain history at a fixed
cadence once a short non-adaptive burn has passed, and every first-stage
rejection earns a second, more timid try whose acceptance probability keeps
the chain reversible.  Convergence across chains is judged by the
multivariate potential scale reduction factor computed from the
between-chain and within-chain covariance matrices of the second half of
each chain.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .gr2m import simulate_flow
from .timeseries import MonthlySeries, PeriodPartition

# proposal-covariance scaling for 2 parameters (Haario-style adaptation)
_ADAPT_SCALE = 2.38**2 / 2.0
# first-stage proposal sd = box width / 20 per coordinate
_INITIAL_WIDTH_FRACTION = 20.0
# delayed-rejection stage shrinks the proposal by this factor
_DR_SHRINK = 5.0
# iterations before covariance adaptation starts, and its cadence
_ADAPT_START = 200
_ADAPT_EVERY = 50
# fewest draws per chain the PSRF estimate accepts (Brooks & Gelman 1998)
MIN_PSRF_DRAWS = 10


class DegenerateFitError(ValueError):
    """Zero residual sum of squares; the power-law likelihood is unbounded."""


class DegenerateChainsError(ValueError):
    """Chains carry no usable spread, the diagnostic is undefined."""


@dataclass(frozen=True)
class ParameterBox:
    """Rectangular support of the flat prior."""

    theta1_range: tuple[float, float] = (1.0, 3000.0)
    theta2_range: tuple[float, float] = (0.2, 5.0)

    def __post_init__(self) -> None:
        problems = []
        for name, (lo, hi) in (("theta1", self.theta1_range), ("theta2", self.theta2_range)):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                problems.append(f"{name}_min must be below {name}_max, both finite, got ({lo}, {hi})")
        # the model's domain (Gr2mParams); the float kernel divides by theta1
        if not self.theta1_range[0] > 0.0:
            problems.append(f"theta1_min must be > 0, got {self.theta1_range[0]}")
        if not self.theta2_range[0] >= 0.0:
            problems.append(f"theta2_min must be >= 0, got {self.theta2_range[0]}")
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def lower(self) -> np.ndarray:
        return np.array([self.theta1_range[0], self.theta2_range[0]])

    @property
    def upper(self) -> np.ndarray:
        return np.array([self.theta1_range[1], self.theta2_range[1]])

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, point) -> bool:
        (lo1, hi1), (lo2, hi2) = self.theta1_range, self.theta2_range
        return bool(lo1 <= point[0] <= hi1 and lo2 <= point[1] <= hi2)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper)


@dataclass(frozen=True)
class ChainConfig:
    n_chains: int = 3
    n_iterations: int = 2000
    retain_per_chain: int = 200
    psrf_threshold: float = 1.10
    max_restarts: int = 10
    seed: int = 0
    box: ParameterBox = field(default_factory=ParameterBox)

    def __post_init__(self) -> None:
        problems = []
        if self.n_chains < 2:
            problems.append(f"n_chains must be >= 2 (need at least 2 chains), got {self.n_chains}")
        # calibrate_catchment's psrf keeps the second half of each chain
        min_iterations = 2 * MIN_PSRF_DRAWS - 1
        if self.n_iterations < min_iterations:
            problems.append(
                f"n_iterations must be >= {min_iterations} (the PSRF needs {MIN_PSRF_DRAWS} draws "
                f"from the second half of each chain), got {self.n_iterations}"
            )
        if not 1 <= self.retain_per_chain <= self.n_iterations:
            problems.append(f"retain_per_chain must lie in 1..{self.n_iterations}, got {self.retain_per_chain}")
        if not self.psrf_threshold > 1.0:  # nan too: no estimate is below it
            problems.append(f"psrf_threshold must exceed 1, got {self.psrf_threshold}")
        if self.max_restarts < 0:
            problems.append(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.seed < 0:  # numpy's SeedSequence takes non-negative integers only
            problems.append(f"seed must be >= 0, got {self.seed}")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class Chain:
    """States, objective values and acceptance flags of one chain."""

    params: np.ndarray  # (n_iterations, 2)
    log_likelihood: np.ndarray  # (n_iterations,)
    accepted: np.ndarray  # (n_iterations,) bool
    initial: np.ndarray  # (2,)

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean(self.accepted))


@dataclass(frozen=True)
class ChainSet:
    chains: tuple[Chain, ...]


@dataclass(frozen=True)
class PosteriorSample:
    """Parameter pairs retained from a chain set: the last ``retain_per_chain`` states of each chain."""

    pairs: np.ndarray  # (m, 2)

    def __post_init__(self) -> None:
        pairs = np.asarray(self.pairs, dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 1:
            raise ValueError(f"pairs must have shape (m, 2) with m >= 1, got {pairs.shape}")
        object.__setattr__(self, "pairs", pairs)

    @property
    def m(self) -> int:
        return self.pairs.shape[0]


def log_likelihood(observed: np.ndarray, predicted: np.ndarray) -> float:
    """log L = -(n/2) ln(SSE) up to an additive constant.

    A perfect fit (SSE = 0) makes the likelihood improper and is rejected.
    """
    y = np.asarray(observed, dtype=float)
    u = np.asarray(predicted, dtype=float)
    if y.shape != u.shape or y.ndim != 1 or y.size < 1:
        raise ValueError(f"need equal-length 1-d arrays, got {y.shape} and {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("prediction series contains non-finite values")
    if not np.isfinite(y).all():
        raise ValueError("observation series contains non-finite values")
    residuals = y - u
    sse = float(residuals @ residuals)
    if sse == 0.0:
        raise DegenerateFitError("zero residual sum of squares")
    return -0.5 * y.size * math.log(sse)


def _log_gauss_quadform(delta: np.ndarray, cov_inv: np.ndarray) -> float:
    """Log of the Gaussian kernel up to its normalising constant."""
    return -0.5 * float(delta @ cov_inv @ delta)


def _run_single_chain(
    objective, config: ChainConfig, rng: np.random.Generator
) -> Chain:
    box = config.box
    n = config.n_iterations

    # over-dispersed start: uniform draws until the objective is finite
    current = None
    for _ in range(200):
        candidate = box.sample(rng)
        value = float(objective(candidate[0], candidate[1]))
        if math.isfinite(value):
            current, current_ll = candidate, value
            break
    if current is None:
        raise RuntimeError("no feasible initial point found in the parameter box")
    initial = current.copy()

    cov = np.diag((box.widths / _INITIAL_WIDTH_FRACTION) ** 2)
    chol = np.linalg.cholesky(cov)
    cov_inv = np.linalg.inv(cov)

    params = np.empty((n, 2))
    lls = np.empty(n)
    accepted = np.zeros(n, dtype=bool)

    def posterior(point: np.ndarray) -> float:
        # flat prior on the box: outside it the posterior vanishes
        theta1, theta2 = float(point[0]), float(point[1])
        if not box.contains((theta1, theta2)):
            return -math.inf
        value = float(objective(theta1, theta2))
        return value if math.isfinite(value) else -math.inf

    for t in range(n):
        first = current + chol @ rng.standard_normal(2)
        ll_first = posterior(first)
        log_alpha1 = min(0.0, ll_first - current_ll)
        if math.log(rng.random()) < log_alpha1:
            current, current_ll = first, ll_first
            accepted[t] = True
        else:
            # delayed rejection: bolder move failed, try a timid one; the
            # acceptance ratio below keeps the composite kernel reversible
            second = current + (chol / _DR_SHRINK) @ rng.standard_normal(2)
            ll_second = posterior(second)
            if ll_second > -math.inf:
                log_alpha1_rev = min(0.0, ll_first - ll_second)
                log_num = (
                    ll_second
                    + _log_gauss_quadform(first - second, cov_inv)
                    + _log1m_exp(log_alpha1_rev)
                )
                log_den = (
                    current_ll
                    + _log_gauss_quadform(first - current, cov_inv)
                    + _log1m_exp(log_alpha1)
                )
                if math.log(rng.random()) < min(0.0, log_num - log_den):
                    current, current_ll = second, ll_second
                    accepted[t] = True
        params[t] = current
        lls[t] = current_ll

        if t + 1 >= _ADAPT_START and (t + 1) % _ADAPT_EVERY == 0:
            # estimate from the recent half of the chain so the wide
            # initial transient stops inflating the proposal
            tail = params[t // 2 : t + 1]
            sample_cov = np.cov(tail.T, ddof=1)
            proposal = _ADAPT_SCALE * sample_cov + np.diag(1e-10 * box.widths**2)
            try:
                chol = np.linalg.cholesky(proposal)
                cov_inv = np.linalg.inv(proposal)
            except np.linalg.LinAlgError:
                pass  # keep the previous proposal if the history is degenerate

    return Chain(params=params, log_likelihood=lls, accepted=accepted, initial=initial)


def _log1m_exp(log_p: float) -> float:
    """log(1 - exp(log_p)) for log_p < 0; -inf when log_p == 0."""
    if log_p >= 0.0:
        return -math.inf
    return math.log1p(-math.exp(log_p)) if log_p > -37.0 else 0.0


def run_chains(objective, config: ChainConfig) -> ChainSet:
    """Run the configured number of independent chains from one seed.

    ``objective(theta1, theta2)`` must return the log-likelihood; non-finite
    values are treated as impossible (rejected).  Chains are deterministic
    functions of ``config.seed``.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(config.n_chains)
    chains = tuple(
        _run_single_chain(objective, config, np.random.default_rng(seed)) for seed in seeds
    )
    return ChainSet(chains=chains)


def psrf(chains) -> float:
    """Multivariate potential scale reduction factor.

    Takes a sequence of (n, d) arrays, one per chain.  The first half of
    every chain (``n // 2`` states) is dropped, then

        estimate = sqrt( (n-1)/n + (m+1)/m * lambda_max )

    where lambda_max is the largest generalised eigenvalue of the
    between-chain covariance of chain means against the pooled within-chain
    covariance.  Values near 1 indicate the chains agree.
    """
    import scipy.linalg  # on the first call, not at import: see ``regress``

    arrays = [np.asarray(c, dtype=float) for c in chains]
    if len(arrays) < 2:
        raise ValueError(f"need at least 2 chains, got {len(arrays)}")
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1 or arrays[0].ndim != 2:
        raise ValueError(f"chains must share one (n, d) shape, got {shapes}")

    start = arrays[0].shape[0] // 2
    kept = [a[start:] for a in arrays]
    n = kept[0].shape[0]
    if n < MIN_PSRF_DRAWS:
        raise ValueError(f"need at least {MIN_PSRF_DRAWS} retained draws per chain, got {n}")
    m = len(kept)

    within = np.mean([np.atleast_2d(np.cov(a.T, ddof=1)) for a in kept], axis=0)
    means = np.stack([a.mean(axis=0) for a in kept])
    between_over_n = np.atleast_2d(np.cov(means.T, ddof=1))
    if not (np.isfinite(within).all() and np.isfinite(between_over_n).all()):
        raise DegenerateChainsError("covariance estimates are not finite")
    try:
        eigenvalues = scipy.linalg.eigh(between_over_n, within, eigvals_only=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError) as exc:
        raise DegenerateChainsError(f"within-chain covariance is singular: {exc}") from exc
    lam = max(0.0, float(eigenvalues[-1]))
    return math.sqrt((n - 1) / n + (m + 1) / m * lam)


def calibration_objective(series: MonthlySeries, split: PeriodPartition):
    """Log-likelihood of (theta1, theta2) against the calibration months.

    The model is warmed up over the warm-up months and compared with
    observed flow over the calibration period only.
    """
    if series.n < split.warmup + split.n1:
        raise ValueError("series too short for the warm-up plus calibration months")
    # lists of floats, converted once: the float kernel is slow on numpy scalars
    p = np.asarray(series.precipitation, dtype=float).tolist()
    e = np.asarray(series.potential_evaporation, dtype=float).tolist()
    observed = np.asarray(series.streamflow, dtype=float)[split.t1]

    def objective(theta1: float, theta2: float) -> float:
        predicted = simulate_flow(theta1, theta2, p, e, split.warmup, split.n1)
        return log_likelihood(observed, predicted)

    return objective


@dataclass(frozen=True)
class CalibrationResult:
    chain_set: ChainSet
    sample: PosteriorSample
    psrf: float
    converged: bool
    restarts_used: int
    elapsed_seconds: float


def calibrate_catchment(
    series: MonthlySeries,
    split: PeriodPartition,
    config: ChainConfig | None = None,
) -> CalibrationResult:
    """Sample the posterior for one catchment, restarting until chains agree.

    Runs the chain set, checks the multivariate potential scale reduction
    factor against ``config.psrf_threshold`` and reruns with fresh seeds up
    to ``config.max_restarts`` times.  A run that never converges is not an
    error: the best attempt is returned with ``converged`` false so batch
    callers can flag it and move on.  The sample is the last
    ``config.retain_per_chain`` states of each chain of that attempt.
    """
    if config is None:
        config = ChainConfig()
    objective = calibration_objective(series, split)

    t_start = time.perf_counter()
    best: tuple[float, ChainSet] | None = None
    attempts = 0
    converged = False
    for attempt in range(config.max_restarts + 1):
        attempts = attempt + 1
        attempt_config = replace(config, seed=config.seed + 1_000_003 * attempt)
        chain_set = run_chains(objective, attempt_config)
        try:
            estimate = psrf([c.params for c in chain_set.chains])
        except DegenerateChainsError:
            estimate = math.inf
        if best is None or estimate < best[0]:
            best = (estimate, chain_set)
        if estimate < config.psrf_threshold:
            converged = True
            break

    estimate, chain_set = best
    pairs = np.concatenate([chain.params[-config.retain_per_chain :] for chain in chain_set.chains], axis=0)
    return CalibrationResult(
        chain_set=chain_set,
        sample=PosteriorSample(pairs),
        psrf=estimate,
        converged=converged,
        restarts_used=attempts - 1,
        elapsed_seconds=time.perf_counter() - t_start,
    )

