"""Sister generation, error models, auxiliary quantiles and scheme dispatch."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from ensflow import ensemble as ensemble_module
from ensflow import regress
from ensflow.calibrate import PosteriorSample
from ensflow.ensemble import (
    ALL_SCHEMES,
    BASIC_SCHEMES,
    DEFAULT_PROBABILITIES,
    ERROR_MODEL_KINDS,
    SCHEME_DEFS,
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
    to_auxiliary,
    train_error_model,
)
from ensflow.gr2m import simulate_flow
from ensflow.regress import (
    LinearFit,
    RankDeficiencyError,
    RegressionDataset,
    design_matrix,
    fit_ols,
    fit_quantile_set,
)
from ensflow.timeseries import MonthlySeries, partition

SPLIT = partition(60, 6, 18, 18)  # warmup 6, n1 18, n2 18, n3 18


def gaussian_quantile(fit: LinearFit, x, p):
    """The linear family's predictive quantile, x'beta + sigma z_p, written out as the oracle."""
    return x @ fit.coefficients + fit.sigma * ndtri(p)


def quantile_lines(kind, u, e, probabilities):
    """The (n_probs, 2) coefficients and (n_probs,) shift of one model fitted on (u, e), written out as the oracle."""
    data = RegressionDataset(design_matrix(u), e)
    if kind == "quantile":
        return fit_quantile_set(data, probabilities), np.zeros(len(probabilities))
    fit = fit_ols(data)
    return np.array([fit.coefficients for _ in probabilities]), np.array([fit.sigma * ndtri(p) for p in probabilities])


def pooled_models(probs, coefficients):
    """One pinball-loss-style model (variant 2) with the given (n_probs, 2) lines and no shift."""
    return TrainedErrorModels("quantile", 2, probs, np.array([coefficients], float), np.zeros((1, len(probs))))


def whole_array_auxiliary(sisters, models):
    """The (m, n_probs, n3) auxiliary quantiles in one subtraction, probability axis reversed: the oracle.

    Error quantile (i, j, t) is  coefficients[i, j, 1] u[i, t] + coefficients[i, j, 0] + shift[i, j].
    """
    u, lines = sisters.test_predictions[:, None, :], models.coefficients[..., None]
    error_quantiles = lines[:, :, 1] * u + lines[:, :, 0] + models.shift[..., None]
    return u - error_quantiles[:, ::-1, :]


def auxiliary_stack(sisters, models):
    return np.stack([to_auxiliary(sisters, models, j) for j in range(len(models.probabilities))], axis=1)


def catchment():
    t = np.arange(60)
    rng = np.random.default_rng(8)
    # independent wobble keeps the two forcing series linearly independent
    p = 80.0 * (1.0 + 0.5 * np.sin(2.0 * np.pi * t / 12.0)) * np.exp(0.2 * rng.standard_normal(60))
    e = 60.0 * (1.0 + 0.6 * np.sin(2.0 * np.pi * t / 12.0 + np.pi)) * np.exp(0.2 * rng.standard_normal(60))
    truth = simulate_flow(400.0, 0.9, p, e, 0, 60)
    observed = np.maximum(truth + 1.5 * rng.standard_normal(60), 0.0)
    return MonthlySeries((1960, 1), p, e, observed)


def posterior(m=6, seed=0):
    rng = np.random.default_rng(seed)
    pairs = np.column_stack(
        [400.0 + 25.0 * rng.standard_normal(m), 0.9 + 0.02 * rng.standard_normal(m)]
    )
    return PosteriorSample(pairs=pairs)


def small_config(**kw):
    base = dict(probabilities=(0.05, 0.25, 0.75, 0.95))
    base.update(kw)
    return SchemeConfig(**base)


def counted(calls, function):
    """``function``, recording the arguments of every call in ``calls``."""

    def call(*args):
        calls.append(args)
        return function(*args)

    return call


class TestProbabilitySet:
    def test_default_set_frozen(self):
        paper = (0.005, 0.0125, 0.025, 0.05, 0.10, 0.90, 0.95, 0.975, 0.9875, 0.995)
        assert [p.hex() for p in DEFAULT_PROBABILITIES] == [p.hex() for p in paper]

    def test_asymmetric_set_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            SchemeConfig(probabilities=(0.1, 0.5, 0.8))

    def test_unsorted_set_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SchemeConfig(probabilities=(0.9, 0.1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="lie in"):
            SchemeConfig(probabilities=(0.0, 1.0))

    def test_every_problem_reported_at_once(self):
        with pytest.raises(ValueError) as excinfo:
            SchemeConfig(variant=4, probabilities=(0.2,))
        message = str(excinfo.value)
        assert "variant must be 1, 2 or 3" in message
        assert "need at least two probabilities" in message

    def test_scheme_table(self):
        assert SCHEME_DEFS == {
            "1": (1, "linear"), "2": (2, "linear"), "3": (3, "linear"),
            "4": (1, "quantile"), "5": (2, "quantile"), "6": (3, "quantile"),
        }
        assert ALL_SCHEMES == ("basic-linear", "basic-quantile", "1", "2", "3", "4", "5", "6")


class TestNormalQuantile:
    """The Cephes ``ndtri`` port gives scipy's ``ndtri`` bit for bit: scheme 1-3 cells depend on the last bit."""

    @staticmethod
    def probabilities():
        near = []
        for edge in (math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)):  # where ndtri changes formula
            down = up = edge
            near.append(edge)
            for _ in range(4):
                down, up = math.nextafter(down, 0.0), math.nextafter(up, 1.0)
                near += [down, up]
        tails = [10.0**-k for k in range(1, 300)] + [1.0 - 10.0**-k for k in range(1, 16)]
        uniforms = np.random.default_rng(2024).uniform(size=100_000).tolist()
        return list(DEFAULT_PROBABILITIES) + near + tails + uniforms

    def test_bit_identical_to_scipy(self):
        ps = self.probabilities()
        expected = [float(z).hex() for z in ndtri(np.array(ps))]
        assert [float(ensemble_module._normal_quantile(p)).hex() for p in ps] == expected


class TestSisterEnsemble:
    def test_generate_matches_per_pair_simulation(self):
        series = catchment()
        sample = posterior(m=3)
        ensemble = generate_sisters(sample, series, SPLIT)
        assert ensemble.predictions.shape == (3, 36)
        assert ensemble.errors.shape == (3, 18)
        for i in range(3):
            full = simulate_flow(
                *sample.pairs[i],
                series.precipitation,
                series.potential_evaporation,
                SPLIT.warmup,
                SPLIT.n_total - SPLIT.warmup,
            )
            np.testing.assert_allclose(ensemble.predictions[i], full[18:], rtol=1e-12)

    def test_error_sign_convention(self):
        # positive error = model predicted more water than observed
        series = catchment()
        ensemble = generate_sisters(posterior(m=2), series, SPLIT)
        observed = series.streamflow[SPLIT.t2]
        np.testing.assert_allclose(
            ensemble.errors, ensemble.training_predictions - observed[None, :], rtol=1e-12
        )

    def test_slicing_properties(self):
        ensemble = SisterEnsemble(np.arange(12.0).reshape(2, 6), np.arange(8.0).reshape(2, 4))
        assert (ensemble.m, ensemble.n2, ensemble.n3) == (2, 4, 2)
        np.testing.assert_array_equal(ensemble.test_predictions, [[4.0, 5.0], [10.0, 11.0]])

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="sister counts"):
            SisterEnsemble(np.zeros((3, 6)), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="extend past"):
            SisterEnsemble(np.zeros((2, 4)), np.zeros((2, 4)))

    def test_short_series_rejected(self):
        series = catchment()
        short = MonthlySeries(
            series.origin,
            series.precipitation[:50],
            series.potential_evaporation[:50],
            series.streamflow[:50],
        )
        with pytest.raises(ValueError, match="partition needs"):
            generate_sisters(posterior(), short, SPLIT)


class TestTrainErrorModel:
    def test_variant_1_fits_each_sister(self):
        ensemble = generate_sisters(posterior(m=4), catchment(), SPLIT)
        models = train_error_model(ensemble, small_config(variant=1, error_model="linear"))
        assert models.variant == 1 and models.coefficients.shape == (4, 4, 2)
        # each model is the plain least-squares fit on that sister's rows
        for i in range(4):
            u, e = ensemble.training_predictions[i], ensemble.errors[i]
            coefficients, shift = quantile_lines("linear", u, e, models.probabilities)
            assert np.array_equal(models.coefficients[i], coefficients)
            assert np.array_equal(models.shift[i], shift)

    def test_variant_1_fits_each_distinct_sister_once(self, monkeypatch):
        # a rejected MCMC move repeats the chain's pair, and with it the sister
        pairs = posterior(m=4).pairs[[0, 0, 1, 2, 2, 2, 3, 1]]
        base = generate_sisters(PosteriorSample(pairs=pairs), catchment(), SPLIT)
        predictions, errors = base.predictions.copy(), base.errors.copy()
        errors[[0, 1], 0] = 0.0
        # sister 8 equals sister 0 in value but not byte for byte: -0.0 is its own row
        predictions, errors = np.vstack([predictions, predictions[0]]), np.vstack([errors, errors[0]])
        errors[8, 0] = -0.0
        ensemble = SisterEnsemble(predictions, errors)
        u, e = ensemble.training_predictions, ensemble.errors
        distinct = 5  # {0, 1}, {2, 7}, {3, 4, 5}, {6}, {8}
        for kind in ERROR_MODEL_KINDS:
            config = small_config(variant=1, error_model=kind)
            direct = [quantile_lines(kind, u[i], e[i], config.probabilities) for i in range(9)]
            fits, solves = [], []
            monkeypatch.setattr(ensemble_module, "_lines", counted(fits, ensemble_module._lines))
            monkeypatch.setattr(regress, "_solve", counted(solves, regress._solve))
            models = train_error_model(ensemble, config)
            monkeypatch.undo()
            assert len(fits) == distinct
            assert len(solves) == (distinct * len(config.probabilities) if kind == "quantile" else 0)
            assert models.coefficients.shape == (9, len(config.probabilities), 2)
            for i, (coefficients, shift) in enumerate(direct):
                assert np.array_equal(models.coefficients[i], coefficients)
                assert np.array_equal(models.shift[i], shift)

    def test_repeated_failing_sister_reported_by_index(self):
        # the constant-prediction sister repeats; its first index is named
        pairs = np.array([[400.0, 0.9], [400.0, 0.9], [300.0, 0.0], [300.0, 0.0]])
        ensemble = generate_sisters(PosteriorSample(pairs=pairs), catchment(), SPLIT)
        with pytest.raises(RankDeficiencyError, match="sister 2:"):
            train_error_model(ensemble, small_config(variant=1, error_model="linear"))

    def test_variant_2_pools_rows_sister_major(self):
        ensemble = generate_sisters(posterior(m=4), catchment(), SPLIT)
        models = train_error_model(ensemble, small_config(variant=2, error_model="linear"))
        assert models.coefficients.shape[0] == 1
        u, e = ensemble.training_predictions.reshape(-1), ensemble.errors.reshape(-1)
        coefficients, shift = quantile_lines("linear", u, e, models.probabilities)
        assert np.array_equal(models.coefficients[0], coefficients)
        assert np.array_equal(models.shift[0], shift)

    def test_variant_3_seeded_selection(self):
        ensemble = generate_sisters(posterior(m=6), catchment(), SPLIT)
        config = small_config(variant=3, error_model="linear", seed=12)
        models = train_error_model(ensemble, config)
        expected = int(np.random.default_rng(12).integers(6))
        assert models.selected_sister == expected
        again = train_error_model(ensemble, config)
        assert again.selected_sister == expected
        chosen = {
            train_error_model(
                ensemble, small_config(variant=3, error_model="linear", seed=s)
            ).selected_sister
            for s in range(20)
        }
        assert len(chosen) >= 2  # the seed genuinely drives the draw
        u, e = ensemble.training_predictions[expected], ensemble.errors[expected]
        coefficients, shift = quantile_lines("linear", u, e, config.probabilities)
        assert np.array_equal(models.coefficients, coefficients[None])
        assert np.array_equal(models.shift, shift[None])

    def test_degenerate_sister_reported_by_index(self):
        # a sister with a constant prediction gives a rank-deficient design
        series = catchment()
        pairs = np.array([[300.0, 0.0], [400.0, 0.9]])
        sample = PosteriorSample(pairs=pairs)
        ensemble = generate_sisters(sample, series, SPLIT)
        with pytest.raises(RankDeficiencyError, match="sister 0:"):
            train_error_model(ensemble, small_config(variant=1, error_model="linear"))


class TestErrorQuantilesAndAuxiliary:
    def test_linear_prediction_formula(self):
        ensemble = generate_sisters(posterior(m=2), catchment(), SPLIT)
        config = small_config(variant=2, error_model="linear")
        models = train_error_model(ensemble, config)
        first, last = (predict_error_quantiles(models, ensemble, j) for j in (0, 3))
        assert first.shape == (2, 18)
        pooled = RegressionDataset(
            design_matrix(ensemble.training_predictions.reshape(-1)), ensemble.errors.reshape(-1)
        )
        fit, x = fit_ols(pooled), design_matrix(ensemble.test_predictions[1])
        np.testing.assert_array_equal(first[1], gaussian_quantile(fit, x, 0.05))
        np.testing.assert_array_equal(last[1], gaussian_quantile(fit, x, 0.95))

    def test_per_sister_quantile_lines(self):
        ensemble = generate_sisters(posterior(m=3), catchment(), SPLIT)
        config = small_config(variant=1, error_model="quantile")
        models = train_error_model(ensemble, config)
        eq = [predict_error_quantiles(models, ensemble, j) for j in range(len(config.probabilities))]
        for i in range(3):
            data = RegressionDataset(design_matrix(ensemble.training_predictions[i]), ensemble.errors[i])
            x = design_matrix(ensemble.test_predictions[i])
            for j, beta in enumerate(fit_quantile_set(data, config.probabilities)):
                np.testing.assert_array_equal(eq[j][i], x @ beta)

    def test_auxiliary_flips_probability_labels(self):
        # aux at p must equal prediction minus the error quantile at 1 - p
        probs = (0.05, 0.25, 0.75, 0.95)
        predictions = np.array([[10.0, 20.0, 30.0]])
        errors = np.array([[0.0, 1.0]])
        ensemble = SisterEnsemble(np.hstack([errors, predictions]), errors)
        # the error quantile at probs[j] is j + u / 4: distinct at every level and exact
        models = pooled_models(probs, [[float(j), 0.25] for j in range(4)])
        for j in range(4):
            aux = to_auxiliary(ensemble, models, j)
            assert aux.shape == (1, 3)
            np.testing.assert_array_equal(aux[0], predictions[0] - (3 - j + predictions[0] / 4))

    def test_antisymmetric_errors_center_on_prediction(self):
        # when error quantiles satisfy eq(p) = -eq(1 - p) the auxiliary
        # quantiles sit symmetrically around the sister prediction
        probs = (0.1, 0.9)
        predictions = np.array([[5.0, 7.0]])
        errors = np.array([[0.0, 1.0, 2.0]])
        ensemble = SisterEnsemble(np.hstack([errors, predictions]), errors)
        c = 1.25
        models = pooled_models(probs, [[-c, 0.0], [c, 0.0]])
        np.testing.assert_allclose(to_auxiliary(ensemble, models, 0)[0], predictions[0] - c)
        np.testing.assert_allclose(to_auxiliary(ensemble, models, 1)[0], predictions[0] + c)

    def test_shape_validation(self):
        # per-sister models fitted on three sisters cannot serve two
        ensemble = generate_sisters(posterior(m=2), catchment(), SPLIT)
        models = TrainedErrorModels("linear", 1, (0.1, 0.9), np.zeros((3, 2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="3 error models do not match 2 sisters"):
            to_auxiliary(ensemble, models, 0)
        with pytest.raises(ValueError, match="3 error models do not match 2 sisters"):
            predict_error_quantiles(models, ensemble, 0)
        # the lines must cover every probability, one shift each
        with pytest.raises(ValueError, match=r"need coefficients \(n_models, 2, 2\)"):
            TrainedErrorModels("linear", 1, (0.1, 0.9), np.zeros((3, 3, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match=r"got \(3, 2, 2\) and \(2, 2\)"):
            TrainedErrorModels("linear", 1, (0.1, 0.9), np.zeros((3, 2, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("scheme", sorted(SCHEME_DEFS))
    def test_auxiliary_equals_whole_array_formula(self, scheme):
        # one probability at a time gives the very bits of the (m, n_probs, n3)
        # subtraction with its probability axis reversed, each as its own array
        variant, kind = SCHEME_DEFS[scheme]
        sisters = generate_sisters(posterior(m=5, seed=2), catchment(), SPLIT)
        models = train_error_model(sisters, small_config(variant=variant, error_model=kind))
        expected = whole_array_auxiliary(sisters, models)
        for j in range(len(models.probabilities)):
            aux = to_auxiliary(sisters, models, j)
            assert aux.flags.c_contiguous
            assert np.array_equal(aux, expected[:, j])

    @pytest.mark.parametrize("n3", [18, 1])  # a lone test month is summed in its own order
    @pytest.mark.parametrize("scheme", sorted(SCHEME_DEFS))
    def test_scheme_outputs_equal_whole_array_formula(self, scheme, n3):
        # delivered quantiles are the whole array's sister mean, and every
        # level's member bounds are its slices, bit for bit
        series, split = catchment(), partition(60, 6, 18, 36 - n3)
        sisters = build_sisters(posterior(m=12, seed=6), series, split, 12)
        result = run_scheme(scheme, series, split, small_config(), sisters)
        expected = whole_array_auxiliary(sisters, result.models)
        assert np.array_equal(result.prediction.quantiles, expected.mean(axis=0))
        probs = result.models.probabilities
        for alpha in (0.1, 0.5):
            lowers, uppers = member_interval_bounds(sisters, result.models, alpha)
            assert np.array_equal(lowers, expected[:, probs.index(alpha / 2)])
            assert np.array_equal(uppers, expected[:, probs.index(1 - alpha / 2)])

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        scheme=st.sampled_from(sorted(SCHEME_DEFS)),
        m=st.integers(1, 5),
        n2=st.integers(4, 10),
        n3=st.integers(1, 6),
        repeats=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_auxiliary_equals_whole_array_formula_for_any_ensemble(self, scheme, m, n2, n3, repeats, seed):
        rng = np.random.default_rng(seed)
        predictions = rng.gamma(2.0, 20.0, size=(m, n2 + n3))
        errors = rng.normal(scale=5.0, size=(m, n2))
        if repeats:  # a rejected MCMC move repeats a sister, and variants 1 and 3 then share its fit
            predictions[-1], errors[-1] = predictions[0], errors[0]
        sisters = SisterEnsemble(predictions, errors)
        variant, kind = SCHEME_DEFS[scheme]
        models = train_error_model(sisters, small_config(variant=variant, error_model=kind, seed=seed))
        expected = whole_array_auxiliary(sisters, models)
        assert np.array_equal(auxiliary_stack(sisters, models), expected)
        assert np.array_equal(combine(sisters, models).quantiles, expected.mean(axis=0))

    def test_combine_is_sister_mean(self):
        # zero error quantiles leave each sister's prediction as its auxiliary quantile
        predictions = np.array([[0.0, 0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 3.0, 3.0, 3.0]])
        ensemble = SisterEnsemble(predictions, np.zeros((2, 2)))
        combined = combine(ensemble, pooled_models((0.1, 0.9), np.zeros((2, 2))))
        assert combined.probabilities == (0.1, 0.9)
        np.testing.assert_array_equal(combined.quantiles, np.full((2, 3), 2.0))


class TestIntervalExtraction:
    def test_pairing(self):
        quantiles = np.arange(20.0).reshape(10, 2)
        pred = CombinedPrediction(probabilities=DEFAULT_PROBABILITIES, quantiles=quantiles)
        intervals = intervals_from_prediction(pred)
        assert set(intervals) == {0.01, 0.025, 0.05, 0.10, 0.20}
        np.testing.assert_array_equal(intervals[0.01].lower, quantiles[0])
        np.testing.assert_array_equal(intervals[0.01].upper, quantiles[9])
        np.testing.assert_array_equal(intervals[0.20].lower, quantiles[4])
        np.testing.assert_array_equal(intervals[0.20].upper, quantiles[5])

    def test_missing_probability_rejected(self):
        pred = CombinedPrediction(probabilities=(0.25, 0.75), quantiles=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="not in the delivered set"):
            intervals_from_prediction(pred, alphas=(0.05,))

    def test_member_bounds(self):
        # error quantile j at probs[j]: the 90% bounds are u - 3 and u - 0
        predictions = np.arange(10.0).reshape(2, 5)
        ensemble = SisterEnsemble(predictions, np.zeros((2, 2)))
        models = pooled_models((0.05, 0.25, 0.75, 0.95), [[float(j), 0.0] for j in range(4)])
        lowers, uppers = member_interval_bounds(ensemble, models, 0.1)
        np.testing.assert_array_equal(lowers, predictions[:, 2:] - 3.0)
        np.testing.assert_array_equal(uppers, predictions[:, 2:])
        with pytest.raises(ValueError, match="not in the delivered set"):
            member_interval_bounds(ensemble, models, 0.2)


class TestBasicSchemes:
    def test_linear_matches_manual_fit(self):
        series = catchment()
        pred = run_basic_scheme("linear", series, SPLIT, probabilities=(0.05, 0.95))
        rows = slice(0, 42)  # warmup + n1 + n2: every month before the test period
        data = RegressionDataset(
            design_matrix(series.precipitation[rows], series.potential_evaporation[rows]),
            series.streamflow[rows],
        )
        fit = fit_ols(data)
        x_test = design_matrix(
            series.precipitation[SPLIT.t3], series.potential_evaporation[SPLIT.t3]
        )
        np.testing.assert_array_equal(pred.quantiles[0], gaussian_quantile(fit, x_test, 0.05))
        np.testing.assert_array_equal(pred.quantiles[1], gaussian_quantile(fit, x_test, 0.95))

    def test_quantile_kind_orders_bounds(self):
        series = catchment()
        pred = run_basic_scheme("quantile", series, SPLIT, probabilities=(0.05, 0.95))
        assert np.mean(pred.quantiles[1] - pred.quantiles[0]) > 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="model kind"):
            run_basic_scheme("cubic", catchment(), SPLIT)


class TestRunEnsembleScheme:
    """Numbered schemes: sisters from ``build_sisters``, then steps 3-6 through ``run_scheme``."""

    def test_single_sister_collapses_variants(self):
        # with one sister there is nothing to pool or select, so all three
        # variants of a family deliver identical quantiles
        series = catchment()
        sisters = build_sisters(posterior(m=1, seed=3), series, SPLIT, 1)
        for family in (("1", "2", "3"), ("4", "5", "6")):
            outputs = [
                run_scheme(scheme, series, SPLIT, small_config(), sisters).prediction.quantiles
                for scheme in family
            ]
            assert np.array_equal(outputs[0], outputs[1])
            assert np.array_equal(outputs[1], outputs[2])

    def test_sample_head_used_when_larger(self):
        series = catchment()
        sample = posterior(m=10, seed=4)
        head = PosteriorSample(pairs=sample.pairs[:4])
        full = run_scheme("2", series, SPLIT, small_config(), build_sisters(sample, series, SPLIT, 4))
        trimmed = run_scheme("2", series, SPLIT, small_config(), generate_sisters(head, series, SPLIT))
        np.testing.assert_array_equal(full.prediction.quantiles, trimmed.prediction.quantiles)
        np.testing.assert_array_equal(full.models.coefficients, trimmed.models.coefficients)
        np.testing.assert_array_equal(full.models.shift, trimmed.models.shift)

    def test_sample_too_small_rejected(self):
        with pytest.raises(ValueError, match="parameter pairs"):
            build_sisters(posterior(m=2), catchment(), SPLIT, 5)

    def test_translation_equivariance(self):
        # shifting the observed flow on the training months shifts the
        # delivered quantiles by the same constant
        series = catchment()
        sample = posterior(m=4, seed=5)
        shift = 7.5
        shifted_flow = series.streamflow.copy()
        shifted_flow[SPLIT.t2] += shift
        shifted = MonthlySeries(
            series.origin, series.precipitation, series.potential_evaporation, shifted_flow
        )
        config = small_config()
        for scheme in ("2", "5"):
            base = run_scheme(scheme, series, SPLIT, config, build_sisters(sample, series, SPLIT, 4)).prediction
            moved = run_scheme(scheme, shifted, SPLIT, config, build_sisters(sample, shifted, SPLIT, 4)).prediction
            np.testing.assert_allclose(
                moved.quantiles, base.quantiles + shift, rtol=1e-8, atol=1e-8
            )

    def test_intermediates_exposed(self):
        series = catchment()
        sisters = build_sisters(posterior(m=3, seed=7), series, SPLIT, 3)
        result = run_scheme("1", series, SPLIT, small_config(), sisters=sisters)
        assert result.models.coefficients.shape == (3, 4, 2)
        assert np.array_equal(result.prediction.quantiles, auxiliary_stack(sisters, result.models).mean(axis=0))


class TestRunScheme:
    def test_numbered_scheme_overrides_config(self):
        # the scheme id fixes variant and family no matter what the config says
        series = catchment()
        sisters = generate_sisters(posterior(m=4, seed=9), series, SPLIT)
        config = small_config(variant=1, error_model="linear")
        via_dispatch = run_scheme("5", series, SPLIT, config, sisters)
        direct_config = small_config(variant=2, error_model="quantile")
        models = train_error_model(sisters, direct_config)
        direct = combine(sisters, models)
        assert via_dispatch.scheme == "5"
        np.testing.assert_array_equal(via_dispatch.prediction.quantiles, direct.quantiles)
        assert via_dispatch.models.kind == "quantile" and via_dispatch.models.variant == 2
        assert via_dispatch.elapsed_seconds >= 0.0

    def test_basic_scheme_needs_no_sample(self):
        result = run_scheme("basic-linear", catchment(), SPLIT, small_config())
        assert result.scheme == "basic-linear"
        assert result.models is None
        assert result.prediction.quantiles.shape == (4, 18)

    def test_numbered_scheme_requires_sisters(self):
        with pytest.raises(ValueError, match="build_sisters"):
            run_scheme("4", catchment(), SPLIT, small_config())

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            run_scheme("7", catchment(), SPLIT, small_config())
        # an id is the string that names it
        with pytest.raises(ValueError, match="unknown scheme 1"):
            run_scheme(1, catchment(), SPLIT)
