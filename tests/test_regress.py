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
from ensflow.ensemble import DEFAULT_PROBABILITIES, SchemeConfig, _quantile_lines
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
    return fit_quantile_set(data, (p,)).coefficients[p]


def average_pinball_loss(p, observed, predicted):
    return float(np.mean(pinball_loss(p, observed, predicted)))


def gaussian_quantile(fit, predictors, p):
    """The linear family's predictive quantile x'beta + sigma z_p, as the ensemble computes it."""
    coefficients, shift = _quantile_lines([fit], (p,))
    return predictors @ coefficients[0, 0] + shift[0, 0]


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
        fit = fit_ols(
            RegressionDataset(np.ones((8, 1)), np.array([0.0, 1.0] * 4))
        )
        base = float(np.ones(1) @ fit.coefficients)
        for p, z in [(0.975, Z_975), (0.9, Z_900), (0.005, Z_005)]:
            got = gaussian_quantile(fit, np.ones((1, 1)), p)[0]
            assert got == pytest.approx(base + fit.sigma * z, rel=1e-12)

    def test_median_is_the_mean_line(self):
        rng = np.random.default_rng(31)
        data, _ = random_dataset(rng)
        fit = fit_ols(data)
        mid = gaussian_quantile(fit, data.predictors, 0.5)
        np.testing.assert_allclose(mid, data.predictors @ fit.coefficients, rtol=1e-12)

    def test_quantiles_symmetric_about_mean(self):
        rng = np.random.default_rng(37)
        data, _ = random_dataset(rng)
        fit = fit_ols(data)
        row = data.predictors[:1]
        center = float((row @ fit.coefficients)[0])
        lower = gaussian_quantile(fit, row, 0.1)[0]
        upper = gaussian_quantile(fit, row, 0.9)[0]
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
        from ensflow.regress import _fit_quantile_primal

        rng = np.random.default_rng(53)
        for _ in range(10):
            data, _ = random_dataset(rng, n=70, k=3)
            for p in (0.05, 0.5, 0.95):
                fast = fit_quantile(data, p)
                slow = _fit_quantile_primal(data.predictors, data.response, p)
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
        assert fit.probabilities == probs
        for p in probs:
            assert np.array_equal(fit.coefficients[p], fit_quantile(data, p))
        # lower-probability curves sit lower on average
        fitted = {p: float(np.mean(data.predictors @ fit.coefficients[p])) for p in probs}
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
            assert reverse.probabilities == probs[::-1]
            for p in probs:
                single = fit_quantile_set(data, (p,)).coefficients[p]
                assert np.array_equal(forward.coefficients[p], reverse.coefficients[p]), (n, p)
                assert np.array_equal(forward.coefficients[p], single), (n, p)


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
    """fit_quantile_set at one probability written against linprog: the dual, its certificate, the primal fallback."""
    n, k = x.shape
    result = linprog(-y, A_eq=x.T, b_eq=np.zeros(k), bounds=[(p - 1.0, p)] * n, method="highs")
    if result.success:
        beta, dual_objective = -result.eqlin.marginals, -result.fun
        achieved = float(np.sum(pinball_loss(p, y, x @ beta)))
        if math.isfinite(achieved) and abs(achieved - dual_objective) <= 1e-7 * max(1.0, abs(dual_objective)):
            return beta
    return linprog_primal(x, y, p)


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
        for p in DEFAULT_PROBABILITIES:
            best = min(
                math.fsum(pinball_loss(p, y, y[i] + (y[j] - y[i]) / (x[j] - x[i]) * (x - x[i])))
                for i, j in pairs
            )
            achieved = math.fsum(pinball_loss(p, y, data.predictors @ fit.coefficients[p]))
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
            for p in DEFAULT_PROBABILITIES:
                assert np.array_equal(fit.coefficients[p], linprog_quantile(x, y, p)), (x.shape, p)

    def test_pooled_dual_bit_identical(self):
        # scheme 5 pools every sister: 100 sisters x 96 months
        rng = np.random.default_rng(67)
        n = 9600
        x = np.column_stack([np.ones(n), rng.gamma(2.0, 1.0, size=n)])
        x[rng.random(n) < 0.05, 1] = 0.0
        y = x @ [0.3, 0.8] + rng.normal(size=n)
        fit = fit_quantile_set(RegressionDataset(x, y), (0.005, 0.995))
        for p in (0.005, 0.995):
            assert np.array_equal(fit.coefficients[p], linprog_quantile(x, y, p)), p

    def test_primal_bit_identical(self):
        from ensflow.regress import _fit_quantile_primal

        rng = np.random.default_rng(71)
        for x, y in self.datasets(rng):
            for p in (0.005, 0.5, 0.995):
                assert np.array_equal(_fit_quantile_primal(x, y, p), linprog_primal(x, y, p)), (x.shape, p)


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

    def patch_call(self, monkeypatch, replace, number=1):
        """Replace the ``number``-th LP solve by ``replace(solved)``; count every call."""
        original = regress._solve
        calls = []

        def solve(*args):
            calls.append(args)
            solved = original(*args)
            return replace(solved) if len(calls) == number else solved

        monkeypatch.setattr(regress, "_solve", solve)
        return calls

    def test_unsolved_dual_falls_back_to_primal(self, data, monkeypatch):
        expected = regress._fit_quantile_primal(data.predictors, data.response, 0.3)
        calls = self.patch_call(monkeypatch, lambda solved: None)
        beta = fit_quantile(data, 0.3)
        assert len(calls) == 2
        assert calls[1][2].size == data.k + 2 * data.n  # the split formulation's columns
        assert np.array_equal(beta, expected)

    def test_failed_certificate_falls_back_to_primal(self, data, monkeypatch):
        expected = regress._fit_quantile_primal(data.predictors, data.response, 0.3)
        calls = self.patch_call(monkeypatch, lambda solved: (solved[0], solved[1], solved[2] - 1.0))
        beta = fit_quantile(data, 0.3)
        assert len(calls) == 2
        assert np.array_equal(beta, expected)

    def test_fallback_mid_set_leaves_later_probabilities_alone(self, data, monkeypatch):
        # the dual of the fifth probability fails; its primal is solved on a
        # model of its own, and the shared dual model carries on unchanged
        probs = DEFAULT_PROBABILITIES
        fresh = {p: fit_quantile(data, p) for p in probs}
        expected = regress._fit_quantile_primal(data.predictors, data.response, probs[4])
        calls = self.patch_call(monkeypatch, lambda solved: None, number=5)
        fit = fit_quantile_set(data, probs)
        assert len(calls) == len(probs) + 1
        assert calls[5][2].size == data.k + 2 * data.n  # the primal right after the failed dual
        assert np.array_equal(fit.coefficients[probs[4]], expected)
        for p in probs[:4] + probs[5:]:
            assert np.array_equal(fit.coefficients[p], fresh[p]), p

    def test_both_formulations_failing_raises(self, data, monkeypatch):
        monkeypatch.setattr(regress, "_solve", lambda *args: None)
        with pytest.raises(QuantileFitError, match="p=0.3"):
            fit_quantile(data, 0.3)
