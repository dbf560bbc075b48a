"""Sampler, convergence diagnostic and posterior retention behaviour."""

import math

import numpy as np
import pytest

from ensflow.calibrate import (
    Chain,
    ChainConfig,
    ChainSet,
    DegenerateChainsError,
    DegenerateFitError,
    ParameterBox,
    calibrate_catchment,
    calibration_objective,
    log_likelihood,
    psrf,
    run_chains,
)
from ensflow.gr2m import Gr2mParams, simulate
from ensflow.timeseries import MonthlySeries, partition, write_csv


def synthetic_series(n=84, noise_sd=0.5, seed=0, theta1=400.0, theta2=0.9):
    t = np.arange(n)
    p = 80.0 * (1.0 + 0.5 * np.sin(2.0 * np.pi * t / 12.0))
    e = 60.0 * (1.0 + 0.6 * np.sin(2.0 * np.pi * t / 12.0 + np.pi))
    full = partition(n, 0, n - 2, 1)
    truth = simulate(Gr2mParams(theta1, theta2), p, e, full)
    rng = np.random.default_rng(seed)
    observed = np.maximum(truth + noise_sd * rng.standard_normal(n), 0.0)
    return MonthlySeries((1950, 1), p, e, observed)


class TestLogLikelihood:
    def test_hand_values(self):
        # SSE = 4 with one point: -(1/2) ln 4 = -ln 2
        assert log_likelihood(np.array([3.0]), np.array([1.0])) == pytest.approx(-math.log(2.0))
        # SSE = 4 with two points: -(2/2) ln 4
        assert log_likelihood(np.array([2.0, 0.0]), np.array([0.0, 0.0])) == pytest.approx(
            -math.log(4.0)
        )

    def test_monotone_in_misfit(self):
        y = np.array([1.0, 2.0, 3.0])
        near = log_likelihood(y, y + 0.1)
        far = log_likelihood(y, y + 1.0)
        assert near > far

    def test_perfect_fit_rejected(self):
        y = np.array([1.0, 2.0])
        with pytest.raises(DegenerateFitError):
            log_likelihood(y, y.copy())

    def test_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            log_likelihood(np.ones(3), np.ones(4))
        with pytest.raises(ValueError, match="non-finite"):
            log_likelihood(np.ones(3), np.array([1.0, np.nan, 1.0]))


class TestParameterBox:
    def test_defaults(self):
        box = ParameterBox()
        assert box.contains(np.array([400.0, 0.9]))
        assert not box.contains(np.array([0.5, 0.9]))
        assert not box.contains(np.array([400.0, 5.1]))
        np.testing.assert_allclose(box.widths, [2999.0, 4.8])

    def test_samples_stay_inside(self):
        box = ParameterBox((10.0, 20.0), (1.0, 2.0))
        rng = np.random.default_rng(1)
        for _ in range(100):
            assert box.contains(box.sample(rng))

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError, match="theta1"):
            ParameterBox((5.0, 5.0), (0.2, 5.0))
        with pytest.raises(ValueError, match="theta2"):
            ParameterBox((1.0, 10.0), (2.0, 1.0))

    def test_box_outside_model_domain_rejected(self):
        # the float kernel divides by theta1, and a negative theta2 scores
        # physically meaningless flows, so the box must stay in Gr2mParams' domain
        for theta1_range in ((0.0, 10.0), (-5.0, 10.0)):
            with pytest.raises(ValueError, match="theta1_min must be > 0") as info:
                ParameterBox(theta1_range, (0.2, 5.0))
            assert "theta2" not in str(info.value)
        with pytest.raises(ValueError, match="theta2_min must be >= 0") as info:
            ParameterBox((1.0, 10.0), (-0.1, 1.0))
        assert "theta1" not in str(info.value)
        assert ParameterBox((1e-6, 10.0), (0.0, 1.0)).theta2_range == (0.0, 1.0)


class TestChainConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="2 chains"):
            ChainConfig(n_chains=1)
        with pytest.raises(ValueError, match="retain_per_chain"):
            ChainConfig(n_iterations=100, retain_per_chain=101)
        with pytest.raises(ValueError, match="psrf_threshold"):
            ChainConfig(psrf_threshold=1.0)
        with pytest.raises(ValueError, match="max_restarts"):
            ChainConfig(max_restarts=-1)

    def test_values_no_run_could_use_rejected(self):
        # a nan threshold is never reached, so every attempt would run and none converge
        with pytest.raises(ValueError, match="psrf_threshold must exceed 1, got nan"):
            ChainConfig(psrf_threshold=float("nan"))
        # numpy's SeedSequence takes non-negative integers only
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            ChainConfig(seed=-1)

    def test_chain_too_short_for_psrf_rejected(self):
        with pytest.raises(ValueError, match="n_iterations must be >= 19"):
            ChainConfig(n_iterations=18, retain_per_chain=10)
        # the PSRF keeps the second half: 19 iterations leave it the 10 draws it needs, 18 do not
        rng = np.random.default_rng(131)
        shortest = ChainConfig(n_iterations=19, retain_per_chain=10)
        chains = [rng.standard_normal((shortest.n_iterations, 2)) for _ in range(shortest.n_chains)]
        assert math.isfinite(psrf(chains))
        with pytest.raises(ValueError, match="at least 10 retained draws"):
            psrf([chain[1:] for chain in chains])


class TestRetention:
    def test_slices(self):
        # the sample is the last retain_per_chain states of each chain, chain by chain
        series = synthetic_series(seed=2)
        split = partition(84, 12, 48, 12)
        config = ChainConfig(seed=4, n_iterations=400, retain_per_chain=100)
        result = calibrate_catchment(series, split, config)
        assert result.sample.m == 300
        for i, chain in enumerate(result.chain_set.chains):
            assert np.array_equal(result.sample.pairs[100 * i : 100 * (i + 1)], chain.params[300:])


class TestPsrf:
    def test_well_mixed_chains_near_one(self):
        rng = np.random.default_rng(101)
        chains = [rng.standard_normal((1000, 2)) for _ in range(3)]
        assert psrf(chains) < 1.05

    def test_divergent_chains_flagged(self):
        rng = np.random.default_rng(103)
        chains = [rng.standard_normal((1000, 2)) for _ in range(2)]
        chains[1] = chains[1] + 10.0
        assert psrf(chains) > 1.5

    def test_duplicated_chain_limit(self):
        # with zero between-chain spread the formula leaves sqrt((n-1)/n)
        rng = np.random.default_rng(107)
        base = rng.standard_normal((400, 2))
        chains = [base, base + 1e-9 * rng.standard_normal((400, 2))]
        estimate = psrf(chains)
        n = 200  # second half of 400
        assert estimate == pytest.approx(math.sqrt((n - 1) / n), abs=1e-4)
        assert estimate <= 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(109)
        chains = [rng.standard_normal((600, 2)) + rng.uniform(-1, 1, size=2) for _ in range(3)]
        transform = np.array([[2.0, 0.7], [-0.3, 1.5]])
        shifted = [c @ transform.T + np.array([5.0, -4.0]) for c in chains]
        assert psrf(shifted) == pytest.approx(psrf(chains), rel=1e-9)

    def test_univariate_chains_accepted(self):
        rng = np.random.default_rng(113)
        chains = [rng.standard_normal((500, 1)) for _ in range(3)]
        assert psrf(chains) < 1.1

    def test_constant_chains_degenerate(self):
        chains = [np.ones((100, 2)), np.ones((100, 2))]
        with pytest.raises(DegenerateChainsError):
            psrf(chains)

    def test_validation(self):
        rng = np.random.default_rng(127)
        one = [rng.standard_normal((100, 2))]
        with pytest.raises(ValueError, match="at least 2"):
            psrf(one)
        pair = [rng.standard_normal((100, 2)), rng.standard_normal((90, 2))]
        with pytest.raises(ValueError, match="one \\(n, d\\) shape"):
            psrf(pair)
        short = [rng.standard_normal((12, 2)) for _ in range(2)]
        with pytest.raises(ValueError, match="at least 10 retained"):
            psrf(short)


def gaussian_objective(center=(500.0, 2.0), sd=(50.0, 0.3)):
    def objective(theta1, theta2):
        return -0.5 * (((theta1 - center[0]) / sd[0]) ** 2 + ((theta2 - center[1]) / sd[1]) ** 2)

    return objective


class TestRunChains:
    def test_deterministic_for_fixed_seed(self):
        config = ChainConfig(seed=5, n_iterations=300, retain_per_chain=50)
        a = run_chains(gaussian_objective(), config)
        b = run_chains(gaussian_objective(), config)
        for ca, cb in zip(a.chains, b.chains):
            assert np.array_equal(ca.params, cb.params)
            assert np.array_equal(ca.accepted, cb.accepted)

    def test_seed_changes_chains(self):
        a = run_chains(gaussian_objective(), ChainConfig(seed=5, n_iterations=300))
        b = run_chains(gaussian_objective(), ChainConfig(seed=6, n_iterations=300))
        assert not np.array_equal(a.chains[0].params, b.chains[0].params)

    def test_chains_differ_from_each_other(self):
        chain_set = run_chains(gaussian_objective(), ChainConfig(seed=7, n_iterations=300))
        assert not np.array_equal(chain_set.chains[0].params, chain_set.chains[1].params)

    def test_acceptance_rate_interior(self):
        chain_set = run_chains(gaussian_objective(), ChainConfig(seed=11))
        for chain in chain_set.chains:
            assert 0.0 < chain.acceptance_rate < 1.0

    def test_recovers_sharp_gaussian_peak(self):
        center, sd = (500.0, 2.0), (50.0, 0.3)
        chain_set = run_chains(gaussian_objective(center, sd), ChainConfig(seed=13))
        tail = np.concatenate([c.params[-200:] for c in chain_set.chains])
        assert abs(tail[:, 0].mean() - center[0]) < 3.0 * sd[0]
        assert abs(tail[:, 1].mean() - center[1]) < 3.0 * sd[1]
        # spread should resemble the target's, not the prior box's
        assert 0.5 < tail[:, 0].std() / sd[0] < 2.0
        assert 0.5 < tail[:, 1].std() / sd[1] < 2.0


class TestCalibrateCatchment:
    def test_recovers_known_parameters(self):
        series = synthetic_series(noise_sd=1.0, seed=1)
        split = partition(84, 12, 48, 12)
        result = calibrate_catchment(series, split, ChainConfig(seed=2))
        assert result.converged
        assert result.psrf < 1.10
        assert result.sample.m == 600  # 3 chains x 200 retained by default
        pairs = result.sample.pairs
        lo1, hi1 = np.quantile(pairs[:, 0], [0.05, 0.95])
        lo2, hi2 = np.quantile(pairs[:, 1], [0.05, 0.95])
        assert lo1 <= 400.0 <= hi1
        assert lo2 <= 0.9 <= hi2

    def test_bit_reproducible(self):
        series = synthetic_series(seed=1)
        split = partition(84, 12, 48, 12)
        config = ChainConfig(seed=9, n_iterations=400, retain_per_chain=100)
        a = calibrate_catchment(series, split, config)
        b = calibrate_catchment(series, split, config)
        assert np.array_equal(a.sample.pairs, b.sample.pairs)
        assert a.psrf == b.psrf

    def test_retention_modes_pick_different_segments(self):
        # the one retention left keeps each chain's tail, never its warm-up head
        series = synthetic_series(seed=2)
        split = partition(84, 12, 48, 12)
        config = ChainConfig(seed=4, n_iterations=400, retain_per_chain=100)
        result = calibrate_catchment(series, split, config)
        chain = result.chain_set.chains[0]
        assert np.array_equal(result.sample.pairs[:100], chain.params[-100:])
        assert not np.array_equal(result.sample.pairs[:100], chain.params[:100])

    def test_non_convergence_is_flagged_not_fatal(self):
        series = synthetic_series(seed=3)
        split = partition(84, 12, 48, 12)
        config = ChainConfig(
            seed=6, n_iterations=40, retain_per_chain=10, psrf_threshold=1.000001, max_restarts=0
        )
        result = calibrate_catchment(series, split, config)
        assert not result.converged
        assert result.restarts_used == 0
        assert result.sample.m == 30


class TestCalibrationObjective:
    def test_matches_simulated_likelihood(self):
        series = synthetic_series(seed=5)
        split = partition(84, 12, 48, 12)
        objective = calibration_objective(series, split)
        params = Gr2mParams(350.0, 1.1)
        predicted = simulate(params, series.precipitation, series.potential_evaporation, split)
        expected = log_likelihood(series.streamflow[split.t1], predicted[: split.n1])
        assert objective(350.0, 1.1) == pytest.approx(expected, rel=1e-12)

    def test_perfect_fit_raises_degenerate(self):
        # noise-free observations make SSE vanish exactly at the truth
        series = synthetic_series(noise_sd=0.0, seed=6)
        split = partition(84, 12, 48, 12)
        objective = calibration_objective(series, split)
        with pytest.raises(DegenerateFitError):
            objective(400.0, 0.9)

    def test_short_series_rejected(self):
        series = synthetic_series(n=48, seed=7)
        split = partition(84, 12, 48, 12)
        with pytest.raises(ValueError, match="too short"):
            calibration_objective(series, split)


def dump_chains(chain_set, path):
    """Every chain state through write_csv: chain, iteration, theta1, theta2, logL, accepted."""
    rows = (
        (index, t, *chain.params[t], chain.log_likelihood[t], int(chain.accepted[t]))
        for index, chain in enumerate(chain_set.chains)
        for t in range(chain.params.shape[0])
    )
    write_csv(path, ("chain", "iteration", "theta1", "theta2", "logL", "accepted"), rows)


class TestDumpChains:
    """A chain dump's numpy cells go through the one CSV format: floats as repr, bit for bit."""

    def test_round_trip(self, tmp_path):
        chain_set = run_chains(
            gaussian_objective(), ChainConfig(seed=15, n_iterations=50, retain_per_chain=25)
        )
        path = tmp_path / "chains.csv"
        dump_chains(chain_set, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "chain,iteration,theta1,theta2,logL,accepted"
        assert len(lines) == 1 + 3 * 50
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == chain_set.chains[0].params[0, 0]

    def test_bytes_pinned(self, tmp_path):
        chain_set = ChainSet(
            (
                Chain(
                    params=np.array([[400.0, 0.9], [401.5, 0.875]]),
                    log_likelihood=np.array([-12.5, -12.25]),
                    accepted=np.array([False, True]),
                    initial=np.array([400.0, 0.9]),
                ),
                Chain(
                    params=np.array([[1.0 / 3.0, 2.0], [0.1, 1e-05]]),
                    log_likelihood=np.array([-3.0, -0.5]),
                    accepted=np.array([True, False]),
                    initial=np.array([0.5, 2.0]),
                ),
            )
        )
        path = tmp_path / "chains.csv"
        dump_chains(chain_set, path)
        assert path.read_bytes().decode() == (
            "chain,iteration,theta1,theta2,logL,accepted\r\n"
            "0,0,400.0,0.9,-12.5,0\r\n"
            "0,1,401.5,0.875,-12.25,1\r\n"
            "1,0,0.3333333333333333,2.0,-3.0,1\r\n"
            "1,1,0.1,1e-05,-0.5,0\r\n"
        )
