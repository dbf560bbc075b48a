"""Interval scores against hand-worked cases, plus ranking and the score summary."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ensflow import gr2m
from ensflow.ensemble import (
    DEFAULT_PROBABILITIES, SisterEnsemble, TrainedErrorModels, member_interval_bounds, sister_mean,
)
from ensflow.evaluate import (
    INTERVAL_ALPHAS,
    IntervalPrediction,
    MetricsRecord,
    average_interval_score,
    average_width,
    coverage_probability,
    crossing_count,
    median,
    rank_schemes,
    summarize,
    wisdom_metrics,
    wisdom_record,
)
from ensflow.evaluate import _interval_scores
from ensflow.experiment import _score_level
from test_gr2m import compiler_found


def interval(alpha, lower, upper):
    return IntervalPrediction(alpha, np.asarray(lower, float), np.asarray(upper, float))


class TestIntervalPrediction:
    def test_levels(self):
        assert interval(0.05, [0.0], [1.0]).level == pytest.approx(0.95)
        assert INTERVAL_ALPHAS == (0.01, 0.025, 0.05, 0.10, 0.20)

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            interval(0.0, [0.0], [1.0])
        with pytest.raises(ValueError, match="equal-length"):
            IntervalPrediction(0.1, np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="non-finite"):
            interval(0.1, [np.nan], [1.0])

    def test_crossed_bounds_stored_as_is(self):
        pred = interval(0.1, [3.0, 0.0], [1.0, 2.0])
        assert crossing_count(pred) == 1
        assert average_width(pred) == pytest.approx(0.0)  # (-2 + 2) / 2


class TestCoverage:
    def test_closed_interval_includes_endpoints(self):
        pred = interval(0.1, [1.0, 1.0, 1.0], [3.0, 3.0, 3.0])
        assert coverage_probability(pred, [1.0, 3.0, 5.0]) == pytest.approx(2.0 / 3.0)

    def test_all_inside(self):
        pred = interval(0.1, [0.0] * 4, [10.0] * 4)
        assert coverage_probability(pred, [1.0, 2.0, 3.0, 4.0]) == 1.0

    def test_observation_checks(self):
        pred = interval(0.1, [0.0], [1.0])
        with pytest.raises(ValueError, match="do not match"):
            coverage_probability(pred, [1.0, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            coverage_probability(pred, [np.inf])


class TestIntervalScore:
    def test_hand_case_inside(self):
        # covered observation: score is just the width
        assert average_interval_score(interval(0.5, [0.0], [5.0]), [2.0]) == pytest.approx(5.0)

    def test_hand_case_above(self):
        # width 2 plus (2/0.2) * overshoot 1 = 12
        assert average_interval_score(interval(0.2, [1.0], [3.0]), [4.0]) == pytest.approx(12.0)

    def test_hand_case_below(self):
        # width 2 plus (2/0.2) * undershoot 0.5 = 7
        assert average_interval_score(interval(0.2, [1.0], [3.0]), [0.5]) == pytest.approx(7.0)

    def test_average_of_mixed_points(self):
        pred = interval(0.2, [1.0, 1.0, 1.0], [3.0, 3.0, 3.0])
        # scores: 2 (inside), 12 (above by 1), 7 (below by 0.5)
        assert average_interval_score(pred, [2.0, 4.0, 0.5]) == pytest.approx(7.0)

    def test_score_at_least_width_when_covered(self):
        rng = np.random.default_rng(2)
        lower = rng.normal(size=50)
        upper = lower + rng.uniform(0.1, 2.0, size=50)
        y = rng.normal(size=50)
        pred = interval(0.05, lower, upper)
        assert average_interval_score(pred, y) >= average_width(pred) - 1e-12

    def test_sharper_penalty_at_smaller_alpha(self):
        y = [4.0]
        wide = average_interval_score(interval(0.2, [1.0], [3.0]), y)
        strict = average_interval_score(interval(0.05, [1.0], [3.0]), y)
        assert strict > wide


class TestRelativeImprovement:
    """(member score - combined score) / member score: a lone member's improvement is all three ``ri_*`` cells."""

    @staticmethod
    def improvement(candidate, benchmark):
        # an observation inside a closed interval scores the interval's width
        record = wisdom_metrics([[0.0]], [[benchmark]], interval(0.1, [0.0], [candidate]), [0.0])
        assert record.ri_min == record.ri_median == record.ri_max and record.n_members == 1
        return record.ri_median, record.n_excluded

    def test_hand_values(self):
        assert self.improvement(8.0, 10.0) == (pytest.approx(0.2), 0)
        assert self.improvement(12.0, 10.0) == (pytest.approx(-0.2), 0)
        assert self.improvement(10.0, 10.0) == (0.0, 0)

    def test_zero_benchmark_rejected(self):
        assert self.improvement(1.0, 0.0) == (None, 1)


class TestWisdomMetrics:
    def test_member_bookkeeping(self):
        y = np.array([2.0, 2.0])
        lowers = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
        uppers = np.array([[3.0, 3.0], [4.0, 4.0], [2.0, 2.0]])
        combined = interval(0.2, lowers.mean(axis=0), uppers.mean(axis=0))
        record = wisdom_metrics(lowers, uppers, combined, y)
        # member scores: widths 2, 4 and 0 (all cover y); the third has no improvement, the others 0 and 0.5
        assert record.aais_in == 2.0
        assert record.ais_out == 2.0
        assert (record.n_members, record.n_excluded) == (3, 1)
        assert (record.ri_min, record.ri_median, record.ri_max) == (0.0, 0.25, 0.5)
        assert record.relative_difference == 0.0

    def test_averaging_never_scores_worse_than_members(self):
        # interval score is convex in (lower, upper), so the mean interval
        # scores no worse than the members' average score
        rng = np.random.default_rng(7)
        for _ in range(50):
            m, n = rng.integers(2, 9), rng.integers(3, 30)
            center = rng.normal(size=(m, n))
            width = rng.uniform(0.0, 3.0, size=(m, n))
            lowers = center - width
            uppers = center + width
            y = rng.normal(scale=2.0, size=n)
            combined = interval(0.1, lowers.mean(axis=0), uppers.mean(axis=0))
            record = wisdom_metrics(lowers, uppers, combined, y)
            assert record.relative_difference >= -1e-12

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 8)),
        alpha=st.sampled_from(INTERVAL_ALPHAS),
        data=st.data(),
    )
    def test_relative_difference_never_below_round_off(self, shape, alpha, data):
        # any member bounds, crossed ones included: the score is convex in (lower, upper)
        value = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
        lowers = data.draw(arrays(float, shape, elements=value))
        uppers = data.draw(arrays(float, shape, elements=value))
        y = data.draw(arrays(float, shape[1], elements=value))
        combined = interval(alpha, lowers.mean(axis=0), uppers.mean(axis=0))
        assert wisdom_metrics(lowers, uppers, combined, y).relative_difference >= -1e-12

    def test_shape_validation(self):
        combined = interval(0.1, [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="matching"):
            wisdom_metrics(np.zeros((2, 2)), np.zeros((3, 2)), combined, [0.5, 0.5])
        with pytest.raises(ValueError, match="does not match combined"):
            wisdom_metrics(np.zeros((2, 3)), np.zeros((2, 3)), combined, [0.5, 0.5])
        with pytest.raises(ValueError, match="non-finite"):
            wisdom_metrics(np.array([[0.0, np.nan]]), np.ones((1, 2)), combined, [0.5, 0.5])

    def test_member_scores_match_per_member_scoring(self):
        rng = np.random.default_rng(3)
        lowers = rng.normal(size=(5, 12))
        uppers = lowers + rng.uniform(-0.5, 2.0, size=(5, 12))
        y = rng.normal(size=12)
        combined = interval(0.05, lowers.mean(axis=0), uppers.mean(axis=0))
        record = wisdom_metrics(lowers, uppers, combined, y)
        scores = [average_interval_score(interval(0.05, lo, up), y) for lo, up in zip(lowers, uppers)]
        assert record.aais_in == math.fsum(scores) / 5
        improvements = [(s - record.ais_out) / s for s in scores]
        assert (record.ri_min, record.ri_median, record.ri_max) == summary_cells(improvements)
        assert (record.n_members, record.n_excluded) == (5, 0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        scores=st.lists(st.sampled_from([0.0, -0.0, math.inf]) | st.floats(-1e4, 1e4), min_size=1, max_size=12),
        width=st.sampled_from([0.0, 0.5, 3.0]),
    )
    @example(scores=[0.0, -0.0, 0.0], width=3.0)  # every member excluded: no improvement is left
    @example(scores=[math.inf, 2.0, 0.0, math.inf], width=0.5)  # an infinite score's improvement is nan
    def test_summary_cells_of_any_member_scores(self, scores, width):
        # y = 0 inside [0, width]: the combined interval scores its width
        record = wisdom_record(interval(0.1, [0.0], [width]), [0.0], scores)
        assert (record.alpha, record.ais_out, record.aais_in) == (0.1, width, math.fsum(scores) / len(scores))
        improvements = [(s - width) / s for s in scores if s != 0.0]
        cells = (record.ri_min, record.ri_median, record.ri_max)
        assert repr(cells) == repr(summary_cells(improvements))
        assert (record.n_members, record.n_excluded) == (len(scores), sum(s == 0.0 for s in scores))


def summary_cells(improvements):
    """min, np.median and max of the improvements without their nans, in member order; Nones when none is left."""
    usable = [x for x in improvements if not math.isnan(x)]
    return (min(usable), float(np.median(usable)), max(usable)) if usable else (None, None, None)


def where_scores(alpha, lower, upper, y):
    """The interval score as first written, with np.where: the oracle of ``_interval_scores``' bits."""
    penalty = 2.0 / alpha
    return (
        (upper - lower)
        + penalty * np.where(y < lower, lower - y, 0.0)
        + penalty * np.where(y > upper, y - upper, 0.0)
    )


def python_level(sisters, models, alpha, y):
    """The Python path's combined bounds and member sums: ``sister_mean`` of the member bounds, and ``math.fsum`` of
    each member's row of ``_interval_scores`` (which may raise)."""
    lowers, uppers = member_interval_bounds(sisters, models, alpha)
    sums = [math.fsum(row) for row in _interval_scores(alpha, lowers, uppers, y).tolist()]
    return sister_mean(lowers), sister_mean(uppers), np.array(sums)


def level_outcome(sisters, models, alpha, y, score_level):
    """``_score_level``'s combined bounds and record as bytes and repr, or its error as failures.csv words it."""
    try:
        combined, record = _score_level(sisters, models, alpha, y, score_level)
    except (ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return combined.lower.tobytes(), combined.upper.tobytes(), repr(record)


# zeros of both signs, terms whose sums fall exactly half an ulp between two floats, and a dynamic range of 1e300
ADVERSARIAL = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(-1e4, 1e4),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 2.0**-53, -(2.0**-53), 2.0**-1074, 2.0**53, -(2.0**53)]),
)


class TestCompiledLevel:
    """``_gr2m.c``'s ``score_level`` gives the Python path's bytes, and where it reports, the Python path's error."""

    @pytest.fixture(autouse=True)
    def score_level(self):
        self.score_level = getattr(gr2m.load_kernel(), "score_level", None)
        if self.score_level is None:
            if compiler_found():
                pytest.fail("a C compiler was found but the compiled scoring pass did not load")
            pytest.skip("no C compiler: only the Python scoring path runs here")

    def check(self, predictions, lines, y, alpha, probabilities=DEFAULT_PROBABILITIES):
        """Test months after two training months, so each member's row is strided; returns the level's outcome."""
        sisters = SisterEnsemble(predictions, predictions[:, :2])
        models = TrainedErrorModels(probabilities, lines)
        try:
            lines = member_interval_bounds(sisters, models, alpha, lines=True)
        except ValueError:  # models that do not fit the sisters: the kernel is not called
            got = None
        else:
            got = self.score_level(sisters.test_predictions, lines, y, alpha)
        with np.errstate(all="ignore"):
            try:
                expected = python_level(sisters, models, alpha, y)
            except (ValueError, OverflowError):  # fsum's intermediate overflow, or inf - inf
                expected = None
        if expected is None or not np.isfinite(expected[2]).all():
            assert got is None
        else:
            lower, upper, sums = got
            assert [(lower / sisters.m).tobytes(), (upper / sisters.m).tobytes()] == [e.tobytes() for e in expected[:2]]
            assert sums.tobytes() == expected[2].tobytes()
        with np.errstate(all="ignore"):
            outcome = level_outcome(sisters, models, alpha, y, self.score_level)
            assert outcome == level_outcome(sisters, models, alpha, y, None)
        return outcome

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        m=st.integers(1, 12), n3=st.integers(1, 9), shared=st.booleans(), alpha=st.sampled_from(INTERVAL_ALPHAS),
        data=st.data(),
    )
    def test_equals_the_python_path(self, m, n3, shared, alpha, data):
        # n3 = 1 is sister_mean's accumulate; one model broadcast, or one per sister; any bounds, crossed ones too
        n_models = 1 if shared else m
        slope = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1.0]))
        predictions = data.draw(arrays(float, (m, n3 + 2), elements=ADVERSARIAL))
        coefficients = data.draw(arrays(float, (n_models, 10, 2), elements=slope))
        shift = data.draw(arrays(float, (n_models, 10), elements=ADVERSARIAL))
        y = data.draw(arrays(float, n3, elements=ADVERSARIAL))
        self.check(predictions, np.dstack([coefficients, shift]), y, alpha)

    @pytest.mark.parametrize("n_models", [1, 20])
    def test_adversarial_rows(self, n_models):
        # members of zero width on y = 0 at alpha 0.5 score 4 |u|: each member's row sums the terms as given
        rng = np.random.default_rng(5)
        lognormal = rng.lognormal(0.0, 8.0, size=(20, 6))  # magnitudes over many binades
        lognormal[7] = [1.0, 2.0**-53, 0.0, 0.0, 0.0, 0.0]  # 1 + 2^-53 lies half an ulp above 1: fsum rounds to even
        # 2^53 + 3 rounds up, leaving a negative partial that must absorb 2^-60 before 2 lands on a tie
        lognormal[8] = [2.0**51, 0.75, 2.0**-62, 0.5, 0.0, 0.0]
        zeros = np.zeros((20, 4))
        zeros[3], zeros[4] = 1.0, [1e300, -1e300, 5.0, -5.0]  # a sum across a dynamic range
        zeros[:, 0] = -0.0  # a column of -0.0 bounds: +0.0 as a wide mean, -0.0 as a lone column's
        for terms in (lognormal, zeros, zeros[:, :1]):
            lines = np.zeros((n_models, 2, 3))
            self.check(np.hstack([np.ones((20, 2)), terms]), lines, np.zeros(terms.shape[1]), 0.5, (0.25, 0.75))

    def test_overflowing_member_sum_raises_the_python_error(self):
        # two members whose means cancel: the combined interval scores 0, each member's sum overflows in fsum
        predictions = np.array([[0.0, 0.0, 4e307, 4e307], [0.0, 0.0, -4e307, -4e307]])
        outcome = self.check(predictions, np.zeros((1, 2, 3)), np.zeros(2), 0.5, (0.25, 0.75))
        assert outcome == "OverflowError: intermediate overflow in fsum"

    def test_misfit_models_or_observations_raise_the_python_errors(self):
        # the kernel is not called: two models for three sisters, three observations for two test months
        predictions, probabilities = np.ones((3, 4)), (0.25, 0.75)
        outcome = self.check(predictions, np.zeros((2, 2, 3)), np.zeros(2), 0.5, probabilities)
        assert outcome == "ValueError: 2 error models do not match 3 sisters"
        outcome = self.check(predictions, np.zeros((1, 2, 3)), np.zeros(3), 0.5, probabilities)
        assert outcome == "ValueError: observations (3,) do not match interval length (2,)"

    def test_non_finite_bound_raises_the_python_error(self):
        # slope -1: the bound is 2u, which overflows at u = 1e308
        predictions = np.array([[0.0, 0.0, 1e308, 1.0], [0.0, 0.0, 1.0, 1.0]])
        lines = np.array([[[0.0, -1.0, 0.0], [0.0, 0.0, 0.0]]])
        outcome = self.check(predictions, lines, np.zeros(2), 0.5, (0.25, 0.75))
        assert outcome == "ValueError: interval bounds contain non-finite values"


class TestScoresInOnePass:
    def test_scores_equal_the_where_formula_at_the_bounds(self):
        # every (lower, upper, y) from signed zeros and a few values: y on a bound, crossed bounds, -0.0
        values = np.array([-0.0, 0.0, 1.0, -1.0, 2.5])
        lower, upper, y = (grid.ravel() for grid in np.meshgrid(values, values, values, indexing="ij"))
        # members as rows against one observation series: every (lower, upper) pair in each column
        pairs = np.array([(lo, up) for lo in values for up in values])
        lowers, uppers = (np.repeat(pairs[:, i : i + 1], values.size, axis=1) for i in (0, 1))
        for alpha in INTERVAL_ALPHAS:
            assert _interval_scores(alpha, lower, upper, y).tobytes() == where_scores(alpha, lower, upper, y).tobytes()
            expected = where_scores(alpha, lowers, uppers, values)
            assert _interval_scores(alpha, lowers, uppers, values).tobytes() == expected.tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(m=st.integers(16, 40), n=st.integers(1, 30), alpha=st.sampled_from(INTERVAL_ALPHAS), data=st.data())
    def test_member_scores_are_fsum_means_of_the_where_formula(self, m, n, alpha, data):
        # crossed bounds give negative widths: member sums of mixed signs, through the tree
        value = st.floats(-1e4, 1e4)
        lowers, uppers = (data.draw(arrays(float, (m, n), elements=value)) for _ in range(2))
        y = data.draw(arrays(float, n, elements=st.one_of(value, st.sampled_from([0.0, -0.0]))))
        record = wisdom_metrics(lowers, uppers, interval(alpha, lowers.mean(axis=0), uppers.mean(axis=0)), y)
        scores = [math.fsum(row) / n for row in where_scores(alpha, lowers, uppers, y).tolist()]
        assert record.aais_in == math.fsum(scores) / m
        assert (record.n_members, record.n_excluded) == (m, sum(score == 0.0 for score in scores))
        improvements = [(score - record.ais_out) / score for score in scores if score != 0.0]
        assert repr((record.ri_min, record.ri_median, record.ri_max)) == repr(summary_cells(improvements))


class TestRankSchemes:
    def test_hand_case_with_ties(self):
        table = np.array([[3.0, 1.0, 1.0, 5.0]])
        ranks, means = rank_schemes(table)
        assert ranks.tolist() == [[3, 1, 1, 4]]
        np.testing.assert_allclose(means, [3.0, 1.0, 1.0, 4.0])

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        table = rng.uniform(1.0, 9.0, size=(6, 5))
        ranks, means = rank_schemes(table)
        for i in range(6):
            for j in range(5):
                expected = 1 + sum(table[i, k] < table[i, j] for k in range(5))
                assert ranks[i, j] == expected
        np.testing.assert_allclose(means, ranks.mean(axis=0))

    def test_column_permutation_consistency(self):
        rng = np.random.default_rng(13)
        table = rng.uniform(0.0, 5.0, size=(4, 6))
        perm = rng.permutation(6)
        ranks, _ = rank_schemes(table)
        permuted_ranks, _ = rank_schemes(table[:, perm])
        assert np.array_equal(permuted_ranks, ranks[:, perm])

    def test_validation(self):
        with pytest.raises(ValueError, match="table"):
            rank_schemes(np.zeros((0, 3)))
        with pytest.raises(ValueError, match="finite"):
            rank_schemes(np.array([[1.0, np.nan]]))


class TestMetricsIo:
    def record(self, **kw):
        base = dict(
            catchment="c01", scheme="5", alpha=0.05, coverage=0.9375,
            width=12.5, score=17.25, crossings=0, seconds=1.5,
        )
        base.update(kw)
        return MetricsRecord(**base)

    def test_summarize(self):
        records = [
            self.record(catchment="c01", score=10.0, coverage=0.9, width=5.0),
            self.record(catchment="c02", score=20.0, coverage=0.8, width=7.0),
            self.record(catchment="c03", score=60.0, coverage=1.0, width=9.0),
        ]
        summary = summarize(records)
        cell = summary["5"]["95"]
        assert cell["n_catchments"] == 3
        assert cell["score_mean"] == pytest.approx(30.0)
        assert cell["score_median"] == pytest.approx(20.0)
        assert cell["coverage_mean"] == pytest.approx(0.9)
        assert cell["width_median"] == pytest.approx(7.0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.lists(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 0.1, 1.0, -2.5])
        | st.floats(-1e300, 1e300),
        min_size=1, max_size=700,
    ))
    def test_median_has_numpy_bits(self, values):
        # duplicates, both zeros, subnormals and +-1e300 from the sampled values: the partition decides which
        # zero a tie in the middle gives, and np.mean of the middle pair its sign and rounding
        assert repr(median(values)) == repr(float(np.median(values)))

    def test_level_labels(self):
        records = [self.record(alpha=a) for a in INTERVAL_ALPHAS]
        summary = summarize(records)
        assert set(summary["5"]) == {"99", "97.5", "95", "90", "80"}

    def test_two_alphas_of_one_label_refused(self):
        # both print as level 95: one cell would silently replace the other (n_catchments 1, score_mean 5.0)
        records = [self.record(catchment="c01", score=3.0), self.record(catchment="c02", alpha=0.0500000001, score=5.0)]
        with pytest.raises(ValueError, match="scheme 5: alphas 0.05 and 0.0500000001 both label level 95"):
            summarize(records)
        assert set(summarize([records[0], records[1]._replace(scheme="6")])) == {"5", "6"}  # another scheme's
