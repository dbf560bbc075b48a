"""Least-squares and quantile regression used by the error models.

Both fits share one dataset type whose predictor matrix already contains the
intercept column.  The least-squares fit carries a residual scale so Gaussian
predictive quantiles can be read off directly; the quantile fit minimises the
pinball loss, one probability at a time, via the standard linear-programming
split of the residual into positive and negative parts, and returns one row of
coefficients per probability, an (n_probs, k) array.  Quantile curves fitted
independently per probability may cross; crossings are counted downstream,
never repaired here.

The quantile program goes straight to HiGHS (scipy's private ``_highspy._core``)
with ``linprog(method="highs")``'s options and feasibility check: the same
coefficients bit for bit, without linprog's overhead, about ¾ of a program
this small.  The linprog oracle tests in ``tests/test_regress.py`` pin it.
Fits run on one HiGHS instance per process, a dataset's fits on one model;
each probability takes one of three routes that keep HiGHS's bits (see
:func:`fit_quantile_set`).

A run loads no scipy Python package, only HiGHS's compiled extension:
``import scipy.optimize`` costs about 0.5 s and 45 MB that every forked
worker would inherit.  :func:`load_solver`, the only place that names HiGHS,
loads the extension from its file; ``run_experiment`` calls it before a pool
forks, so workers inherit it and no stage's time includes it.  The tests keep scipy
as the oracle of this module, ``calibrate.psrf`` and ``ensemble``'s quantile.
"""

from __future__ import annotations

import functools
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


@functools.cache
def _instance():
    """This process's one HiGHS instance, with the options linprog(method="highs") sets; every other is a default."""
    highs, solver = load_solver(), load_solver()._Highs()
    options = dict(highs_debug_level=int(highs.kHighsDebugLevelNone), log_to_console=False, output_flag=False,
                   simplex_strategy=int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual))
    if highs.HighsStatus.kError in [solver.setOptionValue(option, setting) for option, setting in options.items()]:
        raise QuantileFitError("HiGHS refused linprog's options")
    return solver


def _model(x: np.ndarray, y: np.ndarray):
    """The process's HiGHS instance, presolve on, given the quantile dual  min -y'd  s.t.  X'd = 0  to hold.

    HiGHS keeps about 0.7 kB a row of its last model until the instance goes, so a dataset of more than 1 000 rows
    keeps the instance to itself: it goes when the fit ends, and the next fit makes a new one."""
    highs, (n, k) = load_solver(), x.shape
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = k
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    which, index = np.nonzero(x)  # column i of X' is row i of X, exact zeros dropped
    # lists fill the matrix's vectors faster than arrays do
    lp.a_matrix_.start_ = np.concatenate(([0], np.cumsum(np.count_nonzero(x, axis=1)))).tolist()
    lp.a_matrix_.index_, lp.a_matrix_.value_ = index.tolist(), x[which, index].tolist()
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = -y, np.zeros(n), np.zeros(n)
    lp.row_lower_ = lp.row_upper_ = np.zeros(k)
    solver = _instance()
    if n > 1000:  # pooled sisters: 86 400 rows at paper size
        _instance.cache_clear()
    if highs.HighsStatus.kError in (solver.setOptionValue("presolve", "on"), solver.passModel(lp)):
        raise QuantileFitError("HiGHS refused the linear program")
    return solver


def _solve(solver, x, y, p, presolve="on", basis=None):
    """The dual's coefficients at p, solved cold with ``presolve`` on or off or warm from an optimal ``basis``; None
    for a failed run, a warm run that iterates, or a failed feasibility check or duality-gap certificate."""
    highs, n = load_solver(), x.shape[0]
    statuses = [solver.setOptionValue("presolve", presolve)]
    statuses.append(solver.changeColsBounds(n, np.arange(n, dtype=np.int32), np.full(n, p - 1.0), np.full(n, p)))
    # clearSolver drops the last solve's basis: a warm start from it would move the coefficients by a few ulp
    statuses += [solver.clearSolver() if basis is None else solver.setBasis(basis), solver.run()]
    if highs.HighsStatus.kError in statuses or solver.getModelStatus() != highs.HighsModelStatus.kOptimal:
        return None
    solution, dual_objective = solver.getSolution(), -solver.getObjectiveValue()
    z, beta = np.fromiter(solution.col_value, float, n), -np.array(solution.row_dual, dtype=float)
    tol = math.sqrt(1e-9) * 10  # linprog's _check_result: bounds and rows within tol; a NaN fails every comparison
    feasible = z.min() >= p - 1.0 - tol and z.max() <= p + tol and all(abs(v) <= tol for v in solution.row_value)
    r = y - x @ beta  # the achieved pinball loss is sum max(p r, (p - 1) r)
    gap = abs(float(np.maximum(p * r, (p - 1.0) * r).sum()) - dual_objective) <= 1e-7 * max(1.0, abs(dual_objective))
    return beta if feasible and gap and not (basis is not None and solver.getInfo().simplex_iteration_count) else None


def _pick(keys, weights, level):
    """``order[min(searchsorted(cumsum(weights[order]), level), size - 1)]`` with ``order = argsort(keys, "stable")``.

    Past 4096 keys, by selection: the sorted keys of a strided sample bracket the level's key, and a stable sort
    of the keys between the brackets, which masks keep in index order, picks.  Any float sum of these m <= n
    nonnegative weights is within m u W of its exact value (u = 2^-53, W their sum), so where both sums around
    the pick are more than 4 n u W from the level, they pick what the sort's cumsum picks; else the sort decides."""
    if keys.size > 4096:
        step, total = keys.size // 4096, weights.sum()  # a sample of 4096 to 8191 keys
        sample = np.argsort(keys[::step])
        reached = np.cumsum(weights[::step][sample]) * (total / weights[::step].sum())
        low, high = keys[::step][sample[np.clip(np.searchsorted(reached, level) + [-64, 64], 0, sample.size - 1)]]
        kept = np.flatnonzero((low <= keys) & (keys <= high))
        kept = kept[np.argsort(keys[kept], kind="stable")]
        ends = weights @ (keys < low) + np.cumsum(np.append(0.0, weights[kept]))
        i = int(np.searchsorted(ends, level))
        if 0 < i < ends.size and (np.abs(ends[i - 1 : i + 1] - level) > keys.size * 2.0**-51 * total).all():
            return kept[i - 1]
    order = np.argsort(keys, kind="stable")
    return order[min(np.searchsorted(np.cumsum(weights[order]), level), keys.size - 1)]


def _vertex_basis(u, y, p, first, inverse, counts, slope=0.0):
    """The optimal basis of the k = 2 dual at p from an exact vertex search over the distinct rows, or None.

    ``first``, ``inverse`` and ``counts`` are ``np.unique(u)``'s, so the distinct rows are in increasing u.  The
    best line through row a has the weighted p-quantile of the breakpoints (y_i - y_a) / (u_i - u_a), weights
    |u_i - u_a| and level p or 1 - p by their sign, as its slope; pivot around the newest basis row until the best
    line through it is the current one.  The pivots start on the best line of the given ``slope``, such as another
    probability's fit's, or else on the best flat line.  None unless a KKT certificate with margins
    leaves HiGHS no other basis and the basis rows' copies do not interleave, so that which copy HiGHS makes basic
    cannot reorder them: a certified vertex is the unique optimum, whatever row the search started at."""
    v, f, w = u[first], y[first], counts.astype(float)
    a, b = _pick(f - slope * v, w, p * w.sum()), -1
    for _ in range(100):
        c = v - v[a]
        with np.errstate(invalid="ignore"):
            keys, weights = (f - f[a]) / c, w * np.abs(c)
        keys[a] = -np.inf  # with weight 0: no pick stops at row a itself
        j = _pick(keys, weights, p * weights[a + 1 :].sum() + (1.0 - p) * weights[:a].sum())
        if j == b:
            break
        a, b = j, a
    else:
        return None
    h, margin = np.array(sorted([a, b], key=first.__getitem__)), 1e-6  # 10x HiGHS's tolerances (1e-7)
    r = f - f[a] - (f[b] - f[a]) / (v[b] - v[a]) * (v - v[a])
    psi = w * np.where(r > 0, p, p - 1.0)
    r[h] = psi[h] = 0.0
    # the basis rows' summed duals D_h solve X_h' D_h = -sum x_i psi_p(r_i); slack in (0, w_h) keeps them in bounds
    slack = np.linalg.solve([np.ones(2), v[h]], -np.array([psi.sum(), psi @ v])) - w[h] * (p - 1.0)
    rows = [np.flatnonzero(inverse == g) for g in h]  # by first copy: unless rows[0] ends first, they interleave
    uncertified = (np.abs(np.delete(r, h)) <= margin).any() or not ((margin < slack) & (slack < w[h] - margin)).all()
    if uncertified or rows[0][-1] > rows[1][0]:
        return None
    status = np.where(r[inverse] > 0, 2, 0)  # above the line at the upper bound p, below at p - 1
    for copies, above in zip(rows, np.minimum(slack.astype(int), w[h].astype(int) - 1)):
        status[copies[0]], status[copies[1 : 1 + above]] = 1, 2  # the first copy basic, the rest keep it in bounds
    kinds, basis = load_solver().HighsBasisStatus, load_solver().HighsBasis()
    basis.col_status = np.array([kinds.kLower, kinds.kBasic, kinds.kUpper], dtype=object)[status].tolist()
    basis.row_status, basis.valid = [kinds.kLower] * 2, True
    return basis


def fit_quantile_set(data: RegressionDataset, probabilities) -> np.ndarray:
    """Fit each probability independently (curves may cross, by design): an (n_probs, k) array.

    Row j holds the coefficients at ``probabilities[j]``, in the caller's
    order; a repeated probability gets a repeated row.

    At probability p the fit is the linear program  min p*sum(u) + (1-p)*sum(v)
    s.t.  X beta + u - v = y,  u, v >= 0,  solved in its dual form (n box-bounded
    variables against k equality rows; Koenker & Bassett 1978) with the
    coefficients read off the equality multipliers.  Only the dual's bounds
    p - 1 <= d_i <= p depend on p, so the dataset's one model serves every p.
    Each p gets the bits of a cold presolved solve of it alone by one of three
    routes on an intercept design without zeros: (1) presolve off where no two
    rows are nearly parallel (their last columns 1e-7 apart), as presolve then
    reduces nothing and HiGHS solves the original LP just as with presolve off;
    (2) on a design (1, u) whose repeats are exact (x, y) copies, as in pooled
    sisters that a rejected MCMC move repeats, a warm start that may not iterate
    from the basis ``_vertex_basis`` certifies, as the cold solve merges the
    copies in presolve and ends by solving the original LP from that basis (its
    search starts at the previous p's slope, which moves the path, not the
    certified vertex); (3) otherwise, or when a faster route fails, the cold
    solve.  A basis kept from the previous p would move the coefficients by a
    few ulp.  Strong duality gives a certificate; a cold solve that fails it
    raises ``QuantileFitError``.
    """
    probabilities = [float(p) for p in probabilities]
    if outside := [p for p in probabilities if not 0.0 < p < 1.0]:
        raise ValueError(f"probability must lie in (0, 1), got {outside[0]}")
    x, y = data.predictors, data.response
    dual, apart, copies = _model(x, y), False, None  # dual: max y'd  s.t.  X'd = 0
    coefficients = np.empty((len(probabilities), data.k))
    if (x[:, 0] == 1.0).all() and x.all():  # an intercept design without zeros: its routing data, once
        values, *found = np.unique(x[:, -1], return_index=True, return_inverse=True, return_counts=True)
        apart = values.size == data.n and (np.diff(values) > 1e-7 * np.maximum(1.0, np.abs(values[1:]))).all()
        copies = found if data.k == 2 and 1 < values.size < data.n and (y == y[found[0]][found[1]]).all() else None
    for j, p in enumerate(probabilities):
        slope = coefficients[j - 1, 1] if j else 0.0  # the last fit's: p's vertex is near the best line of that slope
        basis = None if copies is None else _vertex_basis(x[:, 1], y, p, *copies, slope)
        beta = _solve(dual, x, y, p, "off", basis) if apart or basis is not None else None
        beta = _solve(dual, x, y, p) if beta is None else beta  # else the cold presolved solve
        if beta is None:
            raise QuantileFitError(f"linear program failed at p={p}: no optimum passed the duality-gap certificate")
        coefficients[j] = beta
    return coefficients
