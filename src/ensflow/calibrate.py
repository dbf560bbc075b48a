"""Bayesian calibration of the water-balance model.

The posterior over (theta1, theta2) combines a flat prior on the fixed box [1, 3000] mm x [0.2, 5]
(``THETA1_RANGE``, ``THETA2_RANGE``) with a power-law likelihood of the sum of squared errors,

    log L = -(n/2) * ln(SSE),

sampled by 3 parallel adaptive Metropolis chains with one delayed-rejection stage (a DRAM-style sampler,
Haario et al. 2006): proposals start from a fixed diagonal covariance, the covariance is re-estimated from
the chain history at a fixed cadence once a short non-adaptive burn has passed, and every first-stage
rejection earns a second, more timid try whose acceptance probability keeps the chain reversible.  The
chains agree once the multivariate potential scale reduction factor (Brooks & Gelman 1998), computed from
the between-chain and within-chain covariance matrices of the second half of each chain, is below 1.10.
Box, chain count and threshold are the paper's design, not settings.

Where ``gr2m.load_kernel`` builds it, the iterations between two adaptations (the first 200, then 50 at a
time) run as one call of ``_gr2m.c``'s DRAM block, which draws through numpy's own generator code and
multiplies through numpy's OpenBLAS with matmul's arguments: each chain keeps the Python sampler's bytes.
The block stops only where the objective raises, and the chain then raises that error at the same point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import gr2m
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

# support of the flat prior, inside the model's domain theta1 > 0, theta2 >= 0
THETA1_RANGE = (1.0, 3000.0)
THETA2_RANGE = (0.2, 5.0)
BOX_LOWER = np.array([THETA1_RANGE[0], THETA2_RANGE[0]])
BOX_UPPER = np.array([THETA1_RANGE[1], THETA2_RANGE[1]])
BOX_WIDTHS = BOX_UPPER - BOX_LOWER


class DegenerateFitError(ValueError):
    """Zero residual sum of squares; the power-law likelihood is unbounded."""


class DegenerateChainsError(ValueError):
    """Chains carry no usable spread, the diagnostic is undefined."""


@dataclass(frozen=True)
class ChainConfig:
    """Sampler settings; the chain count and the PSRF threshold are the paper's, class constants rather than fields."""

    n_chains: ClassVar[int] = 3
    psrf_threshold: ClassVar[float] = 1.10
    n_iterations: int = 2000
    retain_per_chain: int = 200
    max_restarts: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        problems = []
        # calibrate_catchment's psrf keeps the second half of each chain
        min_iterations = 2 * MIN_PSRF_DRAWS - 1
        if self.n_iterations < min_iterations:
            problems.append(
                f"n_iterations must be >= {min_iterations} (the PSRF needs {MIN_PSRF_DRAWS} draws "
                f"from the second half of each chain), got {self.n_iterations}"
            )
        if not 1 <= self.retain_per_chain <= self.n_iterations:
            problems.append(f"retain_per_chain must lie in 1..{self.n_iterations}, got {self.retain_per_chain}")
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
    if not np.isfinite(y).all():
        raise ValueError("observation series contains non-finite values")
    return _log_likelihood(y - u, u)


def _log_likelihood(residuals: np.ndarray, predicted: np.ndarray) -> float:
    """-(n/2) ln(SSE) of finite observations minus ``predicted``; a non-finite prediction raises ValueError."""
    sse = float(residuals @ residuals)
    # a finite prediction leaves the SSE finite unless it overflows, so only then is the prediction checked
    if not math.isfinite(sse) and not np.isfinite(predicted).all():
        raise ValueError("prediction series contains non-finite values")
    if sse == 0.0:
        raise DegenerateFitError("zero residual sum of squares")
    return -0.5 * residuals.size * math.log(sse)


def _log_gauss_quadform(delta: np.ndarray, cov_inv: np.ndarray) -> float:
    """Log of the Gaussian kernel up to its normalising constant."""
    return -0.5 * float(delta @ cov_inv @ delta)


def _run_single_chain(objective, config: ChainConfig, rng: np.random.Generator, block=None) -> Chain:
    """One chain; ``block``, a compiled sampler, runs the iterations between adaptations."""
    n = config.n_iterations
    (lo1, hi1), (lo2, hi2) = THETA1_RANGE, THETA2_RANGE

    # over-dispersed start: uniform draws until the objective is finite
    for _ in range(200):
        current = rng.uniform(BOX_LOWER, BOX_UPPER)
        current_ll = float(objective(current[0], current[1]))
        if math.isfinite(current_ll):
            break
    else:
        raise RuntimeError("no feasible initial point found in the parameter box")
    initial = current.copy()

    cov = np.diag((BOX_WIDTHS / _INITIAL_WIDTH_FRACTION) ** 2)
    chol = np.linalg.cholesky(cov)
    timid = chol / _DR_SHRINK  # the delayed-rejection proposal's factor, remade whenever chol is
    cov_inv = np.linalg.inv(cov)
    normal, uniform = rng.standard_normal, rng.random
    state = np.array([*current, current_ll])  # the compiled block's (theta1, theta2, log-likelihood)

    params = np.empty((n, 2))
    lls = np.empty(n)
    accepted = np.zeros(n, dtype=bool)

    def posterior(point: np.ndarray) -> float:
        # flat prior on the box: outside it the posterior vanishes
        theta1, theta2 = point.tolist()
        if not (lo1 <= theta1 <= hi1 and lo2 <= theta2 <= hi2):
            return -math.inf
        value = float(objective(theta1, theta2))
        return value if math.isfinite(value) else -math.inf

    def log_uniform() -> float:  # a draw of 0.0 is log 0 = -inf, so it accepts where alpha > 0
        return math.log(u) if (u := uniform()) > 0.0 else -math.inf

    stops = [*range(_ADAPT_START, n, _ADAPT_EVERY), n]  # adapt after each stop but the last
    for start, stop in zip([0, *stops], stops):
        arrays = (chol, timid, cov_inv, state, params, lls, accepted)
        if block and block(rng.bit_generator.ctypes.bit_generator, *(a.ctypes.data for a in arrays), start, stop):
            objective(state[0], state[1])  # the block stopped where this raises the Python sampler's error
            raise RuntimeError(f"the compiled sampler stopped at {state[:2]}, where the objective does not raise")
        for t in range(start, stop) if block is None else ():
            first = current + chol @ normal(2)
            ll_first = posterior(first)
            log_alpha1 = min(0.0, ll_first - current_ll)
            if log_uniform() < log_alpha1:
                current, current_ll = first, ll_first
                accepted[t] = True
            else:
                # delayed rejection: the bold move failed, try a timid one, with a ratio keeping the kernel reversible
                second = current + timid @ normal(2)
                ll_second = posterior(second)
                if ll_second > -math.inf:
                    log_alpha1_rev = min(0.0, ll_first - ll_second)
                    log_num = ll_second + _log_gauss_quadform(first - second, cov_inv) + _log1m_exp(log_alpha1_rev)
                    log_den = current_ll + _log_gauss_quadform(first - current, cov_inv) + _log1m_exp(log_alpha1)
                    if log_uniform() < min(0.0, log_num - log_den):
                        current, current_ll = second, ll_second
                        accepted[t] = True
            params[t] = current
            lls[t] = current_ll

        if stop < n:
            # estimate from the recent half of the chain so the wide initial transient stops inflating the proposal
            tail = params[(stop - 1) // 2 : stop]
            sample_cov = np.cov(tail.T, ddof=1)
            proposal = _ADAPT_SCALE * sample_cov + np.diag(1e-10 * BOX_WIDTHS**2)
            try:
                chol = np.linalg.cholesky(proposal)
                timid = chol / _DR_SHRINK
                cov_inv = np.linalg.inv(proposal)
            except np.linalg.LinAlgError:
                pass  # keep the previous proposal if the history is degenerate

    return Chain(params=params, log_likelihood=lls, accepted=accepted, initial=initial)


def _log1m_exp(log_p: float) -> float:
    """log(1 - exp(log_p)) for log_p <= 0; its limit -inf where exp(log_p) rounds to 1."""
    if log_p > -37.0:
        p = math.exp(log_p)
        return math.log1p(-p) if p < 1.0 else -math.inf
    return 0.0


def run_chains(objective, config: ChainConfig) -> ChainSet:
    """Run the configured number of independent chains from one seed.

    ``objective(theta1, theta2)`` must return the log-likelihood; non-finite
    values are treated as impossible (rejected).  Chains are deterministic
    functions of ``config.seed``, and an objective's compiled ``chain_block``
    runs them with the Python sampler's bytes and raises where it raises.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(config.n_chains)
    block = getattr(objective, "chain_block", None)
    return ChainSet(chains=tuple(_run_single_chain(objective, config, np.random.default_rng(s), block) for s in seeds))


def psrf(chains) -> float:
    """Multivariate potential scale reduction factor.

    Takes a sequence of (n, d) arrays, one per chain.  The first half of
    every chain (``n // 2`` states) is dropped, then

        estimate = sqrt( (n-1)/n + (m+1)/m * lambda_max )

    where lambda_max is the largest generalised eigenvalue of the
    between-chain covariance of chain means against the pooled within-chain
    covariance.  Values near 1 indicate the chains agree.
    """
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
    try:  # within = L L', and L^-1 between L^-T has the generalised eigenvalues
        lower = np.linalg.cholesky(within)
    except np.linalg.LinAlgError as exc:
        raise DegenerateChainsError(f"within-chain covariance is singular: {exc}") from exc
    reduced = np.linalg.solve(lower, np.linalg.solve(lower, between_over_n).T)
    lam = max(0.0, float(np.linalg.eigvalsh(reduced)[-1]))
    return math.sqrt((n - 1) / n + (m + 1) / m * lam)


def calibration_objective(series: MonthlySeries, split: PeriodPartition):
    """Log-likelihood of (theta1, theta2) against the calibration months.

    The model is warmed up over the warm-up months and compared with
    observed flow over the calibration period only.  The observed months are
    checked, and the month loop bound to the forcing, once, when the
    objective is made (``month_loop`` refuses a series too short for the
    warm-up plus calibration months); a call runs the loop and the SSE and
    nothing else.
    """
    observed = np.ascontiguousarray(series.streamflow, dtype=float)[split.t1]
    if not np.isfinite(observed).all():
        raise ValueError("observation series contains non-finite values")
    loop = gr2m.month_loop(series.precipitation, series.potential_evaporation, split.warmup, split.n1)
    return _objective(observed, loop)


def _objective(observed: np.ndarray, loop):
    """-(n/2) ln(SSE) of ``loop``'s flows; a compiled loop's sampler is bound to the same arrays as ``chain_block``."""
    residuals = np.empty(observed.size)

    def objective(theta1: float, theta2: float) -> float:
        predicted = loop(float(theta1), float(theta2))
        return _log_likelihood(np.subtract(observed, predicted, out=residuals), predicted)

    if hasattr(loop, "chain_block"):  # the block reads observed and writes residuals, both kept alive by objective
        bound = tuple(a.ctypes.data for a in (observed, residuals, BOX_LOWER, BOX_UPPER))
        objective.chain_block = lambda *block: loop.chain_block(*bound, *block)
    return objective


def sampler_matches(loop, observed: np.ndarray) -> bool:
    """``gr2m.load_kernel``'s self-check: ``loop``'s sampler gives the Python sampler's chain, byte for byte."""
    objective, config = _objective(observed, loop), ChainConfig(n_iterations=300)
    python = _run_single_chain(objective, config, np.random.default_rng(1))
    try:
        compiled = _run_single_chain(objective, config, np.random.default_rng(1), objective.chain_block)
    except (ValueError, RuntimeError):  # the Python chain runs through this series, so only a wrong block raises
        return False
    return all(a.tobytes() == b.tobytes() for a, b in zip(vars(compiled).values(), vars(python).values()))


@dataclass(frozen=True)
class CalibrationResult:
    chain_set: ChainSet
    sample: PosteriorSample
    psrf: float
    converged: bool
    restarts_used: int


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

    best: tuple[float, ChainSet] | None = None
    converged = False
    for attempt in range(config.max_restarts + 1):
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
        restarts_used=attempt,
    )

