"""Linear and quantile regression against closed-form and order-statistic oracles."""

import importlib.machinery
import importlib.util
import itertools
import math
import sys

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from ensflow import regress
from ensflow.ensemble import DEFAULT_PROBABILITIES, SchemeConfig, _lines, _normal_quantile
from ensflow.regress import (
    QuantileFitError,
    RankDeficiencyError,
    RegressionDataset,
    design_matrix,
    fit_ols,
    fit_quantile_set,
    pinball_loss,
)

# two-sided standard normal quantiles, frozen from published tables
Z_975 = 1.959963984540054
Z_900 = 1.2815515655446004
Z_005 = -2.5758293035489004


def fit_quantile(data, p):
    """The coefficients at one probability: ``fit_quantile_set`` at that probability alone."""
    return fit_quantile_set(data, (p,))[0]


def average_pinball_loss(p, observed, predicted):
    return float(np.mean(pinball_loss(p, observed, predicted)))


def gaussian_quantile(data, predictors, p):
    """The linear family's predictive quantile x'beta + sigma z_p, as the ensemble computes it."""
    coefficients, shift = _lines("linear", data, (p,), np.array([_normal_quantile(p)]))
    return predictors @ coefficients[0] + shift[0]


def random_dataset(rng, n=60, k=3, noise=1.0):
    x = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(k - 1)])
    beta = rng.uniform(-3.0, 3.0, size=k)
    y = x @ beta + noise * rng.normal(size=n)
    return RegressionDataset(x, y), beta


class TestDataset:
    def test_design_matrix_prepends_intercept(self):
        x = design_matrix(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
        assert x.shape == (3, 3)
        assert np.array_equal(x[:, 0], np.ones(3))
        assert np.array_equal(x[:, 1], [1.0, 2.0, 3.0])

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="k \\+ 2"):
            RegressionDataset(np.ones((3, 2)), np.zeros(3))

    def test_non_finite_rejected(self):
        x = np.ones((6, 1))
        y = np.zeros(6)
        y[2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            RegressionDataset(x, y)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="got"):
            RegressionDataset(np.ones((6, 1)), np.zeros(5))


class TestOls:
    def test_exact_line_recovered(self):
        x = design_matrix(np.arange(10.0))
        y = 2.0 + 3.0 * np.arange(10.0)
        fit = fit_ols(RegressionDataset(x, y))
        np.testing.assert_allclose(fit.coefficients, [2.0, 3.0], atol=1e-12)
        assert fit.sigma == pytest.approx(0.0, abs=1e-12)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            data, _ = random_dataset(rng)
            fit = fit_ols(data)
            x, y = data.predictors, data.response
            oracle = np.linalg.solve(x.T @ x, x.T @ y)
            np.testing.assert_allclose(fit.coefficients, oracle, rtol=1e-9)

    def test_sigma_uses_residual_degrees_of_freedom(self):
        rng = np.random.default_rng(23)
        data, _ = random_dataset(rng, n=40, k=2)
        fit = fit_ols(data)
        residuals = data.response - data.predictors @ fit.coefficients
        expected = math.sqrt(float(residuals @ residuals) / (40 - 2))
        assert fit.sigma == pytest.approx(expected, rel=1e-12)

    def test_rank_deficiency_raises(self):
        col = np.arange(10.0)
        x = np.column_stack([np.ones(10), col, 2.0 * col])
        with pytest.raises(RankDeficiencyError):
            fit_ols(RegressionDataset(x, np.arange(10.0)))


class TestOlsQuantile:
    def test_known_normal_quantiles(self):
        data = RegressionDataset(np.ones((8, 1)), np.array([0.0, 1.0] * 4))
        fit = fit_ols(data)
        base = float(np.ones(1) @ fit.coefficients)
        for p, z in [(0.975, Z_975), (0.9, Z_900), (0.005, Z_005)]:
            got = gaussian_quantile(data, np.ones((1, 1)), p)[0]
            assert got == pytest.approx(base + fit.sigma * z, rel=1e-12)

    def test_median_is_the_mean_line(self):
        rng = np.random.default_rng(31)
        data, _ = random_dataset(rng)
        fit = fit_ols(data)
        mid = gaussian_quantile(data, data.predictors, 0.5)
        np.testing.assert_allclose(mid, data.predictors @ fit.coefficients, rtol=1e-12)

    def test_quantiles_symmetric_about_mean(self):
        rng = np.random.default_rng(37)
        data, _ = random_dataset(rng)
        fit = fit_ols(data)
        row = data.predictors[:1]
        center = float((row @ fit.coefficients)[0])
        lower = gaussian_quantile(data, row, 0.1)[0]
        upper = gaussian_quantile(data, row, 0.9)[0]
        assert lower + upper == pytest.approx(2.0 * center, rel=1e-10)

    def test_probability_domain(self):
        # the scheme config gates every probability the ensemble asks for
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="probabilities must lie in"):
                SchemeConfig(probabilities=(bad, 1.0 - bad))


class TestPinballLoss:
    def test_hand_values(self):
        assert pinball_loss(0.9, 1.0, 0.0) == pytest.approx(0.9)
        assert pinball_loss(0.9, 0.0, 1.0) == pytest.approx(0.1)
        assert pinball_loss(0.25, 4.0, 0.0) == pytest.approx(1.0)
        assert pinball_loss(0.25, 0.0, 4.0) == pytest.approx(3.0)
        assert pinball_loss(0.5, 3.0, 1.0) == pytest.approx(1.0)

    def test_zero_at_exact_prediction(self):
        assert pinball_loss(0.3, 2.0, 2.0) == 0.0

    def test_vectorised(self):
        out = pinball_loss(0.5, np.array([1.0, -1.0]), np.zeros(2))
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_average(self):
        avg = average_pinball_loss(0.5, np.array([2.0, 0.0]), np.array([0.0, 0.0]))
        assert avg == pytest.approx(0.5)


class TestQuantileFit:
    def test_intercept_only_hits_order_statistic_optimum(self):
        # the optimal constant for pinball loss is attained at a data point,
        # so scanning all observed values gives an exact oracle
        rng = np.random.default_rng(41)
        for p in (0.1, 0.5, 0.9):
            y = rng.normal(size=25)
            data = RegressionDataset(np.ones((25, 1)), y)
            beta = fit_quantile(data, p)
            achieved = float(np.sum(pinball_loss(p, y, np.full(25, beta[0]))))
            best = min(float(np.sum(pinball_loss(p, y, np.full(25, c)))) for c in y)
            assert achieved <= best + 1e-9 * max(1.0, best)

    def test_median_fit_on_exact_line(self):
        x = design_matrix(np.arange(12.0))
        y = 5.0 - 2.0 * np.arange(12.0)
        beta = fit_quantile(RegressionDataset(x, y), 0.5)
        np.testing.assert_allclose(beta, [5.0, -2.0], atol=1e-8)

    def test_sign_count_optimality(self):
        # at an optimum at most n*p points lie strictly below the curve and
        # at most n*(1-p) strictly above
        rng = np.random.default_rng(43)
        for p in (0.2, 0.5, 0.8):
            data, _ = random_dataset(rng, n=80, k=3)
            beta = fit_quantile(data, p)
            fitted = data.predictors @ beta
            below = int(np.sum(data.response < fitted - 1e-9))
            above = int(np.sum(data.response > fitted + 1e-9))
            assert below <= 80 * p + 1e-9
            assert above <= 80 * (1.0 - p) + 1e-9

    def test_translation_and_scale_equivariance(self):
        rng = np.random.default_rng(47)
        data, _ = random_dataset(rng, n=50, k=2)
        p = 0.7
        beta = fit_quantile(data, p)
        shifted = RegressionDataset(data.predictors, 3.5 + 2.0 * data.response)
        beta2 = fit_quantile(shifted, p)
        expected = 2.0 * beta
        expected[0] += 3.5
        np.testing.assert_allclose(beta2, expected, rtol=1e-6, atol=1e-8)

    def test_dual_matches_primal_formulation(self):
        # the dual short cut must return the same loss as the explicit
        # split-variable program it stands in for
        rng = np.random.default_rng(53)
        for _ in range(10):
            data, _ = random_dataset(rng, n=70, k=3)
            for p in (0.05, 0.5, 0.95):
                fast = fit_quantile(data, p)
                slow = linprog_primal(data.predictors, data.response, p)
                loss_fast = average_pinball_loss(p, data.response, data.predictors @ fast)
                loss_slow = average_pinball_loss(p, data.response, data.predictors @ slow)
                assert loss_fast <= loss_slow + 1e-8 * max(1.0, loss_slow)

    def test_probability_domain(self):
        data = RegressionDataset(np.ones((6, 1)), np.arange(6.0))
        with pytest.raises(ValueError, match="probability"):
            fit_quantile(data, 1.0)

    def test_fit_quantile_set(self):
        rng = np.random.default_rng(59)
        data, _ = random_dataset(rng, n=40, k=2)
        probs = (0.1, 0.5, 0.9)
        fit = fit_quantile_set(data, probs)
        assert fit.shape == (3, 2)
        for p, beta in zip(probs, fit):
            assert np.array_equal(beta, fit_quantile(data, p))
        # lower-probability curves sit lower on average
        fitted = {p: float(np.mean(data.predictors @ beta)) for p, beta in zip(probs, fit)}
        assert fitted[0.1] < fitted[0.9]

    def test_set_does_not_depend_on_probability_order(self):
        # every probability is solved cold on the dataset's one model, so
        # neither the order nor the company of the others moves a coefficient
        rng = np.random.default_rng(79)
        probs = DEFAULT_PROBABILITIES
        for n, k in ((96, 2), (144, 3)):
            data, _ = random_dataset(rng, n=n, k=k)
            forward = fit_quantile_set(data, probs)
            reverse = fit_quantile_set(data, probs[::-1])
            for j, p in enumerate(probs):
                single = fit_quantile_set(data, (p,))[0]
                assert np.array_equal(forward[j], reverse[-1 - j]), (n, p)
                assert np.array_equal(forward[j], single), (n, p)

    def test_rows_follow_the_callers_probabilities(self):
        # row j is the fit at probabilities[j] alone: in a shuffled order, and
        # with a repeated probability, which gets a repeated row
        rng = np.random.default_rng(83)
        probs = [DEFAULT_PROBABILITIES[i] for i in rng.permutation(len(DEFAULT_PROBABILITIES))]
        probs.insert(3, probs[7])
        distinct_3, distinct_2 = random_dataset(rng, n=144, k=3)[0], random_dataset(rng, n=96, k=2)[0]
        for data in (distinct_2, distinct_3, RegressionDataset(*pooled_sisters(rng))):  # the three routes
            fit = fit_quantile_set(data, probs)
            assert fit.shape == (len(probs), data.k)
            for p, beta in zip(probs, fit):
                assert np.array_equal(beta, fit_quantile(data, p)), (data.n, p)
            assert np.array_equal(fit[3], fit[8])


def linprog_primal(x, y, p):
    """The split formulation through scipy's public linprog, as the oracle."""
    n, k = x.shape
    cost = np.concatenate([np.zeros(k), np.full(n, p), np.full(n, 1.0 - p)])
    eye = scipy.sparse.eye(n, format="csc")
    a_eq = scipy.sparse.hstack([scipy.sparse.csc_matrix(x), eye, -eye], format="csc")
    result = linprog(cost, A_eq=a_eq, b_eq=y, bounds=[(None, None)] * k + [(0.0, None)] * (2 * n), method="highs")
    assert result.success
    return result.x[:k]


def linprog_quantile(x, y, p):
    """fit_quantile_set at one probability written against linprog: the dual, cold, and its certificate."""
    n, k = x.shape
    result = linprog(-y, A_eq=x.T, b_eq=np.zeros(k), bounds=[(p - 1.0, p)] * n, method="highs")
    assert result.success, (x.shape, p)
    beta, dual_objective = -result.eqlin.marginals, -result.fun
    achieved = float(np.sum(pinball_loss(p, y, x @ beta)))
    assert math.isfinite(achieved) and abs(achieved - dual_objective) <= 1e-7 * max(1.0, abs(dual_objective))
    return beta


def pooled_sisters(rng, m=30, months=40, order=None):
    """Scheme 5's pooled rows, sister-major: m sisters drawn with repeats, which a rejected MCMC move makes adjacent."""
    u = rng.gamma(2.0, 20.0, size=(m, months))
    e = 5.0 * rng.normal(size=(m, months)) + 0.1 * u
    drawn = np.sort(rng.integers(0, m, size=m)) if order is None else np.asarray(order)
    return design_matrix(u[drawn].ravel()), e[drawn].ravel()


def pooled_dataset(rng):
    """Pooled sisters small enough that the fit keeps the shared HiGHS instance."""
    return RegressionDataset(*pooled_sisters(rng, m=20, months=40))


def solve_log(monkeypatch):
    """Record (presolve, warm, solved, simplex iterations) for every LP solve of ``fit_quantile_set``."""
    original, log = regress._solve, []

    def solve(solver, x, y, p, presolve="on", basis=None):
        solved = original(solver, x, y, p, presolve, basis)
        log.append((presolve, basis is not None, solved is not None, solver.getInfo().simplex_iteration_count))
        return solved

    monkeypatch.setattr(regress, "_solve", solve)
    return log


def basic_rows(basis):
    """The rows of X whose dual columns ``basis`` makes basic."""
    basic = regress.load_solver().HighsBasisStatus.kBasic
    return [i for i, status in enumerate(basis.col_status) if status == basic]


def distinct_u_copies(x, y):
    """``fit_quantile_set``'s routing data for the warm route: the distinct u with their first rows and counts."""
    _, first, inverse, counts = np.unique(x[:, 1], return_index=True, return_inverse=True, return_counts=True)
    assert first.size < x.shape[0] and np.array_equal(y, y[first][inverse])  # repeats are whole-row copies
    return first, inverse, counts


# tiny integer datasets: the small ranges make tied x values and duplicate rows common
INTEGER_ROWS = st.lists(st.tuples(st.integers(-3, 3), st.integers(-5, 5)), min_size=4, max_size=9)


class TestQuantileFitProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(rows=INTEGER_ROWS, duplicated=st.integers(0, 3))
    def test_reaches_the_best_two_point_vertex(self, rows, duplicated):
        # an optimal line passes through two data points with distinct x, so
        # the best line through any such pair is the optimal loss
        rows = rows + rows[:duplicated]
        x, y = (np.array(column, dtype=float) for column in zip(*rows))
        pairs = [(i, j) for i, j in itertools.combinations(range(len(rows)), 2) if x[i] != x[j]]
        if not pairs:
            return  # a single x value: no line through two points
        data = RegressionDataset(design_matrix(x), y)
        fit = fit_quantile_set(data, DEFAULT_PROBABILITIES)
        for p, beta in zip(DEFAULT_PROBABILITIES, fit):
            best = min(
                math.fsum(pinball_loss(p, y, y[i] + (y[j] - y[i]) / (x[j] - x[i]) * (x - x[i])))
                for i, j in pairs
            )
            achieved = math.fsum(pinball_loss(p, y, data.predictors @ beta))
            assert achieved == pytest.approx(best, rel=1e-9, abs=1e-9), p


class TestDirectHighsMatchesLinprog:
    """The direct HiGHS call must give linprog's coefficients bit for bit."""

    @staticmethod
    def datasets(rng):
        for n in (12, 96, 144):
            for k in (2, 3):
                x = np.column_stack([np.ones(n)] + [rng.gamma(2.0, 1.0, size=n) for _ in range(k - 1)])
                y = x @ rng.uniform(-3.0, 3.0, size=k) + rng.normal(size=n)
                yield x, y
                zeros = x.copy()
                zeros[:, 1:][rng.random((n, k - 1)) < 0.25] = 0.0
                yield zeros, y
                yield x, np.round(y / 3.0)  # heavily tied responses

    def test_dual_bit_identical(self):
        rng = np.random.default_rng(61)
        for x, y in self.datasets(rng):
            fit = fit_quantile_set(RegressionDataset(x, y), DEFAULT_PROBABILITIES)
            for p, beta in zip(DEFAULT_PROBABILITIES, fit):
                assert np.array_equal(beta, linprog_quantile(x, y, p)), (x.shape, p)

    def test_pooled_dual_bit_identical(self):
        # scheme 5 pools every sister: 100 sisters x 96 months
        rng = np.random.default_rng(67)
        n = 9600
        x = np.column_stack([np.ones(n), rng.gamma(2.0, 1.0, size=n)])
        x[rng.random(n) < 0.05, 1] = 0.0
        y = x @ [0.3, 0.8] + rng.normal(size=n)
        fit = fit_quantile_set(RegressionDataset(x, y), (0.005, 0.995))
        for p, beta in zip((0.005, 0.995), fit):
            assert np.array_equal(beta, linprog_quantile(x, y, p)), p

    def test_primal_oracle_reaches_the_same_loss(self):
        # the split formulation, solved by linprog, is the independent check of
        # the dual on zeros and heavy ties too
        rng = np.random.default_rng(71)
        for x, y in self.datasets(rng):
            fit = fit_quantile_set(RegressionDataset(x, y), (0.005, 0.5, 0.995))
            for p, beta in zip((0.005, 0.5, 0.995), fit):
                dual, primal = (math.fsum(pinball_loss(p, y, x @ b)) for b in (beta, linprog_primal(x, y, p)))
                assert dual == pytest.approx(primal, rel=1e-12, abs=1e-12), (x.shape, p)


class TestSolverRoutes:
    """Each route returns the cold presolved solve's coefficients, checked bit for bit against linprog."""

    def test_distinct_rows_solve_with_presolve_off(self, monkeypatch):
        rng = np.random.default_rng(89)
        for n, k in ((96, 2), (204, 3)):
            x = np.column_stack([np.ones(n)] + [rng.gamma(2.0, 1.0, size=n) for _ in range(k - 1)])
            y = x @ rng.uniform(-3.0, 3.0, size=k) + rng.normal(size=n)
            log = solve_log(monkeypatch)
            fit = fit_quantile_set(RegressionDataset(x, y), DEFAULT_PROBABILITIES)
            monkeypatch.undo()
            assert [entry[:3] for entry in log] == [("off", False, True)] * len(DEFAULT_PROBABILITIES)
            for p, beta in zip(DEFAULT_PROBABILITIES, fit):
                assert np.array_equal(beta, linprog_quantile(x, y, p)), (n, p)

    def test_zeros_and_tied_rows_solve_cold_in_any_order(self, monkeypatch):
        # presolve reduces such duals at some probabilities only (zeros make
        # singleton columns, equal or nearly equal rows parallel ones), so
        # presolve stays on whatever the order of the set
        rng = np.random.default_rng(91)
        n = 60
        x = design_matrix(rng.gamma(2.0, 1.0, size=n))
        y = x @ [0.5, 1.5] + rng.normal(size=n)
        zeros, tied, near = x.copy(), x.copy(), x.copy()
        zeros[0, 1] = 0.0  # one zero: the rows stay distinct
        tied[1, 1] = tied[0, 1]
        near[1, 1] = tied[0, 1] * (1.0 + 1e-12)
        probs = DEFAULT_PROBABILITIES
        for design in (zeros, tied, near):
            expected = {p: linprog_quantile(design, y, p) for p in probs}
            for order in (probs, probs[::-1], probs[4:] + probs[:4]):
                log = solve_log(monkeypatch)
                fit = fit_quantile_set(RegressionDataset(design, y), order)
                monkeypatch.undo()
                assert [entry[:2] for entry in log] == [("on", False)] * len(probs)
                for p, beta in zip(order, fit):
                    assert np.array_equal(beta, expected[p]), p

    def test_pooled_repeated_sisters_warm_bit_identical(self, monkeypatch):
        rng = np.random.default_rng(97)
        warm = 0
        for _ in range(4):
            x, y = pooled_sisters(rng)
            log = solve_log(monkeypatch)
            fit = fit_quantile_set(RegressionDataset(x, y), DEFAULT_PROBABILITIES)
            monkeypatch.undo()
            # every certified fit ran warm and took no simplex iteration; the rest ran cold
            assert all(solved and iterations == 0 for _, started, solved, iterations in log if started)
            assert len(log) == len(DEFAULT_PROBABILITIES)
            warm += sum(started for _, started, _, _ in log)
            for p, beta in zip(DEFAULT_PROBABILITIES, fit):
                assert np.array_equal(beta, linprog_quantile(x, y, p)), p
        assert warm >= 30  # of 40 fits

    def test_integer_rows_with_duplicates(self, monkeypatch):
        # distinct integer u with integer responses, some rows copied whole:
        # the warm route's data, full of ties and degenerate vertices
        rng = np.random.default_rng(101)
        for _ in range(30):
            n = int(rng.integers(6, 20))
            u, y = rng.permutation(np.arange(1.0, n + 1.0)), rng.integers(-5, 6, size=n).astype(float)
            copied = rng.integers(0, n, size=int(rng.integers(1, n)))
            x, y = design_matrix(np.concatenate([u, u[copied]])), np.concatenate([y, y[copied]])
            log = solve_log(monkeypatch)
            fit = fit_quantile_set(RegressionDataset(x, y), DEFAULT_PROBABILITIES)
            monkeypatch.undo()
            assert all(solved and iterations == 0 for _, started, solved, iterations in log if started)
            for p, beta in zip(DEFAULT_PROBABILITIES, fit):
                assert np.array_equal(beta, linprog_quantile(x, y, p)), (n, p)

    def test_interleaved_copies_take_the_cold_route(self, monkeypatch):
        # the same rows in two orders: sisters A, A, B, B and A, B, A, B.  In
        # the second every basis row pair's copies interleave, so HiGHS's
        # choice of copy could reorder the basic columns: all cold
        warm = {}
        for order in ((0, 0, 1, 1), (0, 1, 0, 1)):
            x, y = pooled_sisters(np.random.default_rng(103), m=2, months=60, order=order)
            log = solve_log(monkeypatch)
            fit = fit_quantile_set(RegressionDataset(x, y), DEFAULT_PROBABILITIES)
            monkeypatch.undo()
            warm[order] = [started for _, started, _, _ in log]
            for p, beta in zip(DEFAULT_PROBABILITIES, fit):
                assert np.array_equal(beta, linprog_quantile(x, y, p)), (order, p)
        assert any(warm[(0, 0, 1, 1)]) and not any(warm[(0, 1, 0, 1)])

    def test_degenerate_vertex_takes_the_cold_route(self, monkeypatch):
        # eight rows lie exactly on y = u, as many above and below it: the
        # median line is a vertex with six more zero residuals
        u = np.concatenate([np.arange(1.0, 9.0), np.arange(1.0, 9.0) + 0.5, np.arange(1.0, 9.0) + 0.25])
        y = np.concatenate([u[:8], u[8:16] + 3.0, u[16:] - 3.0])
        x, y = design_matrix(np.concatenate([u, u[:4]])), np.concatenate([y, y[:4]])
        log = solve_log(monkeypatch)
        beta = fit_quantile(RegressionDataset(x, y), 0.5)
        assert np.count_nonzero(np.abs(y - x @ beta) <= 1e-12) > 2 + 4
        assert [entry[:2] for entry in log] == [("on", False)]
        assert np.array_equal(beta, linprog_quantile(x, y, 0.5))

    @staticmethod
    def certified_vertex(x, y, p):
        """The two basis rows that ``_vertex_basis`` certifies at p, their copy counts and every row's residual."""
        first, inverse, counts = distinct_u_copies(x, y)
        basis = regress._vertex_basis(x[:, 1], y, p, first, inverse, counts)
        basic = basic_rows(basis)
        return basic, counts[inverse[basic]], y - x @ np.linalg.solve(x[basic], y[basic])

    def test_near_zero_residual_takes_the_cold_route(self, monkeypatch):
        # a row 1e-8 off the optimal line keeps the vertex optimal, but within
        # HiGHS's tolerances a cold solve may stop at the neighbouring basis
        rng = np.random.default_rng(137)
        for p in (0.1, 0.5, 0.9):
            x, y = pooled_sisters(rng)
            basic, _, r = self.certified_vertex(x, y, p)
            moved = x[:, 1] == x[np.flatnonzero(np.abs(r) > 1.0)[0], 1]  # a row off the line, with its copies
            y = np.where(moved, y - r + np.copysign(1e-8, r), y)
            log = solve_log(monkeypatch)
            beta = fit_quantile(RegressionDataset(x, y), p)
            monkeypatch.undo()
            assert [entry[:2] for entry in log] == [("on", False)]
            assert np.array_equal(beta, linprog_quantile(x, y, p)), p

    def test_kkt_value_at_its_bound_takes_the_cold_route(self, monkeypatch):
        # a p at which a basis row's summed dual sits 1e-9 inside its bounds:
        # the vertex stays optimal, but so nearly is its neighbour
        rng = np.random.default_rng(139)
        for _ in range(3):
            x, y = pooled_sisters(rng)
            basic, weights, r = self.certified_vertex(x, y, 0.5)
            on_basis = np.isin(x[:, 1], x[basic, 1])

            def slack(p):  # D_h - w_h (p - 1): linear in p, and within (0, w_h) while the vertex is optimal
                psi = np.where(on_basis, 0.0, np.where(r > 0, p, p - 1.0))
                return np.linalg.solve(x[basic].T, -(x.T @ psi)) - weights * (p - 1.0)

            # the p interval keeping both slacks 1e-9 inside (0, w_h) holds 0.5; take an end inside (0, 1)
            low, rate = slack(0.0), slack(1.0) - slack(0.0)
            ends = np.sort([(1e-9 - low) / rate, (weights - 1e-9 - low) / rate], axis=0)
            p = float(ends[0].max()) if ends[0].max() > 0.0 else float(ends[1].min())
            assert 0.0 < p < 0.5 < ends[1].min() or ends[0].max() < 0.5 < p < 1.0
            assert min(slack(p).min(), (weights - slack(p)).min()) == pytest.approx(1e-9, abs=1e-12)
            log = solve_log(monkeypatch)
            beta = fit_quantile(RegressionDataset(x, y), p)
            monkeypatch.undo()
            assert [entry[:2] for entry in log] == [("on", False)]
            assert np.array_equal(beta, linprog_quantile(x, y, p)), p

    def test_warm_run_that_iterates_falls_back(self, monkeypatch):
        # a basis with every nonbasic bound flipped is not optimal: HiGHS
        # iterates from it, and the fit is solved cold instead
        highs = regress.load_solver()
        flip = {highs.HighsBasisStatus.kLower: highs.HighsBasisStatus.kUpper}
        flip.update({upper: lower for lower, upper in flip.items()})
        original = regress._vertex_basis

        def flipped(*args):
            basis = original(*args)
            if basis is not None:
                basis.col_status = [flip.get(status, status) for status in basis.col_status]
            return basis

        x, y = pooled_sisters(np.random.default_rng(107))
        monkeypatch.setattr(regress, "_vertex_basis", flipped)
        log = solve_log(monkeypatch)
        fit = fit_quantile_set(RegressionDataset(x, y), (0.25, 0.75))
        assert [entry[1:3] for entry in log] == [(True, False), (False, True)] * 2
        assert all(iterations > 0 for _, started, _, iterations in log if started)
        for p, beta in zip((0.25, 0.75), fit):
            assert np.array_equal(beta, linprog_quantile(x, y, p)), p


class TestVertexSearch:
    """``_vertex_basis``: the exact k = 2 vertex search and its certificate."""

    def test_certified_loss_matches_linprog(self):
        rng = np.random.default_rng(109)
        certified = 0
        for _ in range(4):
            x, y = pooled_sisters(rng)
            for p in DEFAULT_PROBABILITIES:
                basis = regress._vertex_basis(x[:, 1], y, p, *distinct_u_copies(x, y))
                if basis is None:
                    continue
                certified += 1
                basic = basic_rows(basis)
                assert len(basic) == 2
                line, best = np.linalg.solve(x[basic], y[basic]), linprog_quantile(x, y, p)
                loss, best = (math.fsum(pinball_loss(p, y, x @ beta)) for beta in (line, best))
                assert loss == pytest.approx(best, rel=1e-12), p
        assert certified >= 30  # of 40

    def test_certificate_rejects_tied_responses(self):
        # rounded responses tie many rows: where the optimal line passes
        # through a third row, no basis may be certified
        rng = np.random.default_rng(113)
        degenerate = 0
        for _ in range(4):
            x, e = pooled_sisters(rng, m=6, months=30)
            y = np.round(e / 10.0)
            for p in DEFAULT_PROBABILITIES:
                basis = regress._vertex_basis(x[:, 1], y, p, *distinct_u_copies(x, y))
                beta = linprog_quantile(x, y, p)
                if np.unique(x[np.abs(y - x @ beta) <= 1e-9, 1]).size > 2:
                    degenerate += 1
                    assert basis is None, p
        assert degenerate >= 5  # of 40


class TestSearchBySelection:
    """The warm start and the selection change the vertex search's path, never what it certifies or picks."""

    def test_warm_and_flat_starts_certify_one_basis(self):
        # pooled sisters with repeats (duplicate rows) and rounded responses (ties): at every probability, the
        # search from the previous probability's slope and the search from the flat line certify the same basis
        certified = []

        @settings(derandomize=True, database=None, deadline=None, max_examples=40)
        @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 12), months=st.integers(6, 40),
               unit=st.sampled_from([None, 1.0, 10.0]))
        def check(seed, m, months, unit):
            x, e = pooled_sisters(np.random.default_rng(seed), m=m, months=months)
            y = e if unit is None else np.round(e / unit)
            if np.unique(x[:, 1]).size == x.shape[0]:
                return  # no sister repeated: the warm route does not apply
            copies = distinct_u_copies(x, y)
            fit = fit_quantile_set(RegressionDataset(x, y), DEFAULT_PROBABILITIES)
            for previous, p in zip(fit, DEFAULT_PROBABILITIES[1:]):
                flat = regress._vertex_basis(x[:, 1], y, p, *copies)
                warm = regress._vertex_basis(x[:, 1], y, p, *copies, previous[1])
                if flat is not None and warm is not None:
                    certified.append(p)
                    assert warm.col_status == flat.col_status, (seed, p)

        check()
        assert len(certified) >= 100

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4097, 20000),
           weighting=st.sampled_from(["counts", "spread", "wide"]), tied=st.booleans(), hole=st.booleans(),
           at=st.floats(0.0, 1.0), level_kind=st.sampled_from(["fraction", "partial sum", "below", "above"]))
    def test_selection_picks_what_the_sort_picks(self, seed, n, weighting, tied, hole, at, level_kind):
        # past 4096 keys the pick is selected, not sorted: it must be the sort's pick
        # order[min(searchsorted(cumsum(weights[order]), level), n - 1)], also on levels that sit on a partial
        # sum or one ulp beside it, where another order of summation rounds to the other side
        rng = np.random.default_rng(seed)
        keys = np.round(rng.normal(size=n), 1) if tied else rng.normal(size=n)
        weights = {
            "counts": rng.integers(1, 4, size=n).astype(float),
            "spread": rng.random(n) * np.abs(keys),
            "wide": 10.0 ** rng.uniform(-12.0, 12.0, size=n),
        }[weighting]
        if hole:  # as the search passes the pivot row: key -inf, weight 0
            keys[n // 2], weights[n // 2] = -np.inf, 0.0
        order = np.argsort(keys, kind="stable")
        cumulative = np.cumsum(weights[order])
        level = at * weights.sum() if level_kind == "fraction" else cumulative[int(at * (n - 1))]
        if level_kind in ("below", "above"):
            level = np.nextafter(level, -np.inf if level_kind == "below" else np.inf)
        if not level > 0.0:
            return  # the search's levels are positive
        expected = order[min(np.searchsorted(cumulative, level), n - 1)]
        assert regress._pick(keys, weights, level) == expected


class TestSharedInstance:
    """Every fit runs on the process's one HiGHS instance: whatever ran on it before moves no coefficient."""

    @staticmethod
    def targets():
        rng = np.random.default_rng(149)
        distinct = random_dataset(rng, n=96, k=2)[0]
        tied = design_matrix(rng.gamma(2.0, 1.0, size=60))
        tied[1, 1] = tied[0, 1]
        return distinct, RegressionDataset(tied, tied @ [0.5, 1.5] + rng.normal(size=60)), pooled_dataset(rng)

    def check_after(self, before):
        """Each target fitted on a fresh instance, then on the shared one right after ``before()``, against linprog."""
        for data in self.targets():
            regress._instance.cache_clear()
            fresh = fit_quantile_set(data, DEFAULT_PROBABILITIES)
            solver = regress._instance()
            before()
            assert regress._instance() is solver  # no fit above dropped it
            shared = fit_quantile_set(data, DEFAULT_PROBABILITIES)
            assert shared.tobytes() == fresh.tobytes()
            for p, beta in zip(DEFAULT_PROBABILITIES, shared):
                assert np.array_equal(beta, linprog_quantile(data.predictors, data.response, p)), (data.n, p)

    @staticmethod
    def logged_fit(data):
        """Fit ``data`` on the shared instance; the log of its LP solves (see ``solve_log``)."""
        with pytest.MonkeyPatch.context() as patch:
            log = solve_log(patch)
            fit_quantile_set(data, DEFAULT_PROBABILITIES)
        return log

    def test_after_the_cold_route(self):
        # the tied-rows design of TestSolverRoutes: every probability solved cold with presolve on
        tied = self.targets()[1]

        def cold_fit():
            assert {entry[:2] for entry in self.logged_fit(tied)} == {("on", False)}

        self.check_after(cold_fit)

    def test_after_a_pooled_warm_start(self):
        pooled = pooled_dataset(np.random.default_rng(151))

        def warm_fit():
            assert any(started and solved for _, started, solved, _ in self.logged_fit(pooled))

        self.check_after(warm_fit)

    def test_after_a_failed_solve(self):
        # a fit whose first certificate fails part-way: HiGHS solved, the duality gap was forged, the fit raised
        highs, data = regress.load_solver(), random_dataset(np.random.default_rng(157), n=50, k=2)[0]
        objective = highs._Highs.getObjectiveValue

        def failing_fit():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(highs._Highs, "getObjectiveValue", lambda solver: objective(solver) + 1.0)
                with pytest.raises(QuantileFitError, match="p=0.005"):
                    fit_quantile_set(data, DEFAULT_PROBABILITIES)

        self.check_after(failing_fit)


class TestPresolvePremise:
    """The two facts about HiGHS's presolve that the fast routes rest on, for the scipy installed."""

    @staticmethod
    def presolve_status(x, y, p):
        model = regress._model(x, y)
        n = x.shape[0]
        model.changeColsBounds(n, np.arange(n, dtype=np.int32), np.full(n, p - 1.0), np.full(n, p))
        model.presolve()
        return model.getModelPresolveStatus()

    def test_distinct_rows_are_not_reduced(self):
        # route 1 turns presolve off once it reduced nothing at one p: it must
        # reduce nothing at every p, and presolve off must then keep the bits
        statuses = regress.load_solver().HighsPresolveStatus
        rng = np.random.default_rng(127)
        for n, k in ((96, 2), (144, 2), (204, 3)):
            x = np.column_stack([np.ones(n)] + [rng.gamma(2.0, 1.0, size=n) for _ in range(k - 1)])
            y = x @ rng.uniform(-3.0, 3.0, size=k) + rng.normal(size=n)
            model = regress._model(x, y)
            for p in DEFAULT_PROBABILITIES:
                status = self.presolve_status(x, y, p)
                assert status == statuses.kNotReduced, f"scipy {scipy.__version__}: presolve gave {status} at p={p}"
                cold, off = regress._solve(model, x, y, p), regress._solve(model, x, y, p, "off")
                assert np.array_equal(cold, off), f"scipy {scipy.__version__}: presolve off moved the fit at p={p}"

    def test_whole_row_copies_are_reduced(self):
        # route 2 reproduces the solve that ends from a postsolved basis
        statuses = regress.load_solver().HighsPresolveStatus
        x, y = pooled_sisters(np.random.default_rng(131))
        for p in DEFAULT_PROBABILITIES:
            status = self.presolve_status(x, y, p)
            assert status == statuses.kReduced, f"scipy {scipy.__version__}: presolve gave {status} at p={p}"


class TestMissingSolver:
    """Without scipy's HiGHS extension ``load_solver`` says what it looked for, not an AttributeError."""

    @pytest.mark.parametrize("scipy_found", [False, True])
    def test_names_the_file_and_the_requirement(self, monkeypatch, tmp_path, scipy_found):
        # either no scipy at all, or a scipy folder without the extension file
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec if scipy_found else None)
        monkeypatch.delitem(sys.modules, regress.SOLVER, raising=False)
        with pytest.raises(ImportError, match=r"scipy>=1\.15.*scipy/optimize/_highspy/_core\*"):
            regress.load_solver()


class TestQuantileFallback:
    @pytest.fixture
    def data(self):
        data, _ = random_dataset(np.random.default_rng(73), n=50, k=2)
        return data

    def patch_call(self, monkeypatch, replace, number=None):
        """Replace the ``number``-th LP solve, or every one, by ``replace(solved)``; count every call."""
        original = regress._solve
        calls = []

        def solve(*args):
            calls.append(args)
            solved = original(*args)
            return replace(solved) if number in (None, len(calls)) else solved

        monkeypatch.setattr(regress, "_solve", solve)
        return calls

    def test_unsolved_dual_raises(self, data, monkeypatch):
        # the cold presolved solve is the last route: nothing stands behind it
        calls = self.patch_call(monkeypatch, lambda solved: None)
        with pytest.raises(QuantileFitError, match="p=0.3"):
            fit_quantile(data, 0.3)
        assert [call[4:] for call in calls] == [("off", None), ()]

    def test_failed_certificate_raises(self, data, monkeypatch):
        # a duality gap: the achieved loss no longer equals the dual objective
        objective = regress.load_solver()._Highs.getObjectiveValue
        monkeypatch.setattr(regress.load_solver()._Highs, "getObjectiveValue", lambda solver: objective(solver) + 1.0)
        with pytest.raises(QuantileFitError, match="p=0.3"):
            fit_quantile(data, 0.3)

    def test_fallback_mid_set_leaves_later_probabilities_alone(self, data, monkeypatch):
        # the fifth probability's presolve-off solve fails; it is solved cold
        # instead, and the later probabilities go on with presolve off
        probs = DEFAULT_PROBABILITIES
        fresh = {p: fit_quantile(data, p) for p in probs}
        calls = self.patch_call(monkeypatch, lambda solved: None, number=5)
        fit = fit_quantile_set(data, probs)
        assert len(calls) == len(probs) + 1
        assert [call[4:] for call in calls[4:7]] == [("off", None), (), ("off", None)]
        for p, beta in zip(probs, fit):
            assert np.array_equal(beta, fresh[p]), p

    def test_failed_warm_start_falls_back_to_cold(self, monkeypatch):
        x, y = pooled_sisters(np.random.default_rng(83))
        data, probs = RegressionDataset(x, y), DEFAULT_PROBABILITIES
        calls = self.patch_call(monkeypatch, lambda solved: None, number=1)
        fit = fit_quantile_set(data, probs)
        assert calls[0][5] is not None and calls[1][4:] == ()  # the warm start failed, then the cold solve
        for p, beta in zip(probs, fit):
            assert np.array_equal(beta, linprog_quantile(x, y, p)), p

    def test_model_refused_raises(self, data, monkeypatch):
        highs = regress.load_solver()
        monkeypatch.setattr(highs._Highs, "passModel", lambda self, lp: highs.HighsStatus.kError)
        with pytest.raises(QuantileFitError, match="refused"):
            fit_quantile(data, 0.3)
