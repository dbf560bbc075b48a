"""Least-squares and quantile regression used by the error models.

Both fits share one dataset type whose predictor matrix already contains the
intercept column.  The least-squares fit carries a residual scale so Gaussian
predictive quantiles can be read off directly; the quantile fit minimises the
pinball loss, one probability at a time, via the standard linear-programming
split of the residual into positive and negative parts.  Quantile curves
fitted independently per probability may cross; crossings are counted
downstream, never repaired here.

Both linear programs go straight to HiGHS (scipy's private ``_highspy._core``)
with ``linprog(method="highs")``'s options and feasibility check: the same
coefficients bit for bit, without linprog's overhead, about ¾ of a program
this small.  The linprog oracle tests in ``tests/test_regress.py`` pin it.
A dataset's quantile fits share one model on one HiGHS instance: each
probability changes its bounds and solves it cold, so each gets the
coefficients of a fit on its own (a warm start moves them by a few ulp).

A run loads no scipy Python package, only HiGHS's compiled extension:
``import scipy.optimize`` costs about 0.5 s and 45 MB that every forked
worker would inherit.  :func:`load_solver`, the only place that names HiGHS,
loads the extension from its file; ``run_experiment`` calls it before a pool
forks, so workers inherit it and no timer includes it.  The tests keep scipy
as the oracle of this module, ``calibrate.psrf`` and ``ensemble``'s quantile.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass

import numpy as np


class RankDeficiencyError(ValueError):
    """Predictor matrix has linearly dependent columns."""


class QuantileFitError(ValueError):
    """The pinball-loss linear program could not be solved."""


@dataclass(frozen=True)
class RegressionDataset:
    """Predictors (n, k) with the intercept column included, response (n,).

    Needs at least two more rows than columns so the residual degrees of
    freedom n - k stay positive with room to spare.
    """

    predictors: np.ndarray
    response: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.predictors, dtype=float)
        y = np.asarray(self.response, dtype=float)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError(f"need X (n, k) and y (n,), got {x.shape} and {y.shape}")
        if x.shape[0] < x.shape[1] + 2:
            raise ValueError(f"need at least k + 2 = {x.shape[1] + 2} rows, got {x.shape[0]}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "predictors", x)
        object.__setattr__(self, "response", y)

    @property
    def n(self) -> int:
        return self.predictors.shape[0]

    @property
    def k(self) -> int:
        return self.predictors.shape[1]


def design_matrix(*columns: np.ndarray) -> np.ndarray:
    """Stack predictor columns behind an intercept column."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = cols[0].shape[0]
    return np.column_stack([np.ones(n)] + cols)


@dataclass(frozen=True)
class LinearFit:
    """Least-squares coefficients plus the residual standard deviation."""

    coefficients: np.ndarray
    sigma: float


def fit_ols(data: RegressionDataset) -> LinearFit:
    """Ordinary least squares with sigma = sqrt(SSE / (n - k))."""
    x, y = data.predictors, data.response
    beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < data.k:
        raise RankDeficiencyError(
            f"predictor matrix rank {rank} < {data.k} columns; drop the dependent column"
        )
    residuals = y - x @ beta
    sse = float(residuals @ residuals)
    sigma = float(np.sqrt(sse / (data.n - data.k)))
    return LinearFit(coefficients=beta, sigma=sigma)


def pinball_loss(probability: float, observed, predicted):
    """Pinball (check) loss, elementwise: p*(y - yhat) if y >= yhat else (1-p)*(yhat - y)."""
    if not 0.0 < probability < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {probability}")
    y = np.asarray(observed, dtype=float)
    q = np.asarray(predicted, dtype=float)
    diff = y - q
    out = np.where(diff >= 0.0, probability * diff, (probability - 1.0) * diff)
    return out if out.ndim else float(out)


SOLVER = "scipy.optimize._highspy._core"


def load_solver():
    """scipy's HiGHS extension, loaded on the first call from its file under its own name, not via scipy.optimize."""
    if SOLVER not in sys.modules:
        scipy = importlib.util.find_spec("scipy")  # imports nothing
        folders = [f"{root}/optimize/_highspy" for root in scipy.submodule_search_locations] if scipy else []
        found = importlib.machinery.PathFinder.find_spec("_core", folders)
        if found is None:
            raise ImportError("quantile schemes need HiGHS from scipy>=1.15: no scipy/optimize/_highspy/_core* file")
        spec = importlib.util.spec_from_file_location(SOLVER, found.origin)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[SOLVER] = module  # which a later scipy.optimize reuses: a second copy could not register its types
    return sys.modules[SOLVER]


def _model(cost, start, index, value, rhs):
    """A new HiGHS instance with linprog's options holding min cost'z s.t. A z = rhs (A as CSC arrays), or None."""
    highs = load_solver()
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = cost.size
    lp.num_row_ = lp.a_matrix_.num_row_ = rhs.size
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    # lists fill the matrix's vectors faster than arrays do
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = start.tolist(), index.tolist(), value.tolist()
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, np.zeros(cost.size), np.zeros(cost.size)
    lp.row_lower_ = lp.row_upper_ = rhs
    solver = highs._Highs()
    # the options linprog(method="highs") sets; every other HiGHS option keeps its default
    options = dict(
        presolve="on", highs_debug_level=int(highs.kHighsDebugLevelNone), log_to_console=False, output_flag=False,
        simplex_strategy=int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    )
    statuses = [solver.setOptionValue(option, setting) for option, setting in options.items()]
    return None if highs.HighsStatus.kError in statuses + [solver.passModel(lp)] else solver


def _solve(solver, rhs, lower, upper):
    """Solve ``solver``'s model (right-hand side ``rhs``) cold within the bounds: (z, row duals, objective) or None."""
    if solver is None:
        return None
    highs = load_solver()
    columns = np.arange(lower.size, dtype=np.int32)
    # clearSolver drops the last solve's basis: a warm start moves the coefficients by a few ulp
    statuses = [solver.changeColsBounds(lower.size, columns, lower, upper), solver.clearSolver(), solver.run()]
    if highs.HighsStatus.kError in statuses or solver.getModelStatus() != highs.HighsModelStatus.kOptimal:
        return None
    solution, objective = solver.getSolution(), solver.getObjectiveValue()
    z, residual = np.array(solution.col_value), rhs - np.array(solution.row_value)
    tol = math.sqrt(1e-9) * 10  # linprog's _check_result; a NaN fails every comparison
    feasible = (lower - tol <= z).all() and (z <= upper + tol).all() and (np.abs(residual) <= tol).all()
    if math.isnan(objective) or not feasible:
        return None
    return z, np.array(solution.row_dual), objective


def _csc(columns: np.ndarray):
    """CSC arrays of the matrix whose columns are the rows of ``columns``, exact zeros dropped."""
    which, index = np.nonzero(columns)
    return np.concatenate(([0], np.cumsum(np.count_nonzero(columns, axis=1)))), index, columns[which, index]


def _fit_quantile_primal(x: np.ndarray, y: np.ndarray, probability: float) -> np.ndarray:
    """Direct split formulation: min p*sum(u) + (1-p)*sum(v), X beta + u - v = y."""
    n, k = x.shape
    cost = np.concatenate([np.zeros(k), np.full(n, probability), np.full(n, 1.0 - probability)])
    start, index, value = _csc(x.T)  # then the columns of I and -I
    start = np.concatenate([start, start[-1] + np.arange(1, 2 * n + 1)])
    index = np.concatenate([index, np.arange(n), np.arange(n)])
    value = np.concatenate([value, np.ones(n), -np.ones(n)])
    lower, upper = np.concatenate([np.full(k, -np.inf), np.zeros(2 * n)]), np.full(k + 2 * n, np.inf)
    solved = _solve(_model(cost, start, index, value, y), y, lower, upper)
    if solved is None:
        raise QuantileFitError(f"linear program failed at p={probability}: no optimum passed the feasibility check")
    return solved[0][:k]


@dataclass(frozen=True)
class QuantileFit:
    """Per-probability coefficient vectors."""

    coefficients: dict[float, np.ndarray]

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(self.coefficients)


def fit_quantile_set(data: RegressionDataset, probabilities) -> QuantileFit:
    """Fit each probability independently (curves may cross, by design).

    At probability p the fit is the linear program  min p*sum(u) + (1-p)*sum(v)
    s.t.  X beta + u - v = y,  u, v >= 0,  solved in its dual form (n box-bounded
    variables against k equality rows; Koenker & Bassett 1978) with the
    coefficients read off the equality multipliers.  Only the dual's bounds
    p - 1 <= d_i <= p depend on p, so the dataset's one model serves every p,
    solved cold each time: a basis kept from the previous p would move the
    coefficients by a few ulp and make them depend on the order of the set.
    Strong duality gives a certificate; on a mismatch the primal formulation
    is solved directly instead, for that probability only.
    """
    probabilities = [float(p) for p in probabilities]
    for p in probabilities:
        if not 0.0 < p < 1.0:
            raise ValueError(f"probability must lie in (0, 1), got {p}")
    x, y = data.predictors, data.response
    # dual: max y'd  s.t.  X'd = 0,  p - 1 <= d_i <= p
    dual, coefficients = _model(-y, *_csc(x), np.zeros(data.k)), {}
    for p in probabilities:
        solved = _solve(dual, np.zeros(data.k), np.full(data.n, p - 1.0), np.full(data.n, p))
        if solved is not None:
            beta, dual_objective = -solved[1], -solved[2]
            achieved = float(np.sum(pinball_loss(p, y, x @ beta)))
            if math.isfinite(achieved) and abs(achieved - dual_objective) <= 1e-7 * max(1.0, abs(dual_objective)):
                coefficients[p] = beta
                continue
        coefficients[p] = _fit_quantile_primal(x, y, p)
    return QuantileFit(coefficients=coefficients)
