"""Sampler, convergence diagnostic and posterior retention behaviour."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
import scipy.linalg

from ensflow import gr2m
from ensflow.calibrate import (
    BOX_LOWER,
    BOX_UPPER,
    BOX_WIDTHS,
    THETA1_RANGE,
    THETA2_RANGE,
    Chain,
    ChainConfig,
    ChainSet,
    DegenerateChainsError,
    DegenerateFitError,
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
        # the flat prior's support is the paper's fixed box, and its widths scale the first proposals
        assert (THETA1_RANGE, THETA2_RANGE) == ((1.0, 3000.0), (0.2, 5.0))
        assert BOX_LOWER.tolist() == [1.0, 0.2] and BOX_UPPER.tolist() == [3000.0, 5.0]
        np.testing.assert_allclose(BOX_WIDTHS, [2999.0, 4.8])

    def test_samples_stay_inside(self):
        # no start draw, evaluated point or chain state leaves the box
        target = gaussian_objective(center=(1.0, 5.0), sd=(300.0, 1.0))  # peak in a corner: proposals leave the box
        evaluated = []

        def objective(theta1, theta2):
            evaluated.append((theta1, theta2))
            return -math.inf if len(evaluated) <= 5 else target(theta1, theta2)  # refuses the first start draws

        chain_set = run_chains(objective, ChainConfig(seed=21, n_iterations=300, retain_per_chain=50))
        assert chain_set.chains[0].initial.tolist() == list(evaluated[5])
        states = np.concatenate([np.array(evaluated), *(c.params for c in chain_set.chains)])
        assert ((BOX_LOWER <= states) & (states <= BOX_UPPER)).all()
        assert states[:, 0].min() < 10.0 and states[:, 1].max() > 4.99  # the chains did press on the corner


class TestChainConfig:
    def test_chain_count_and_threshold_are_the_papers(self):
        # class constants, not fields, yet readable on an instance as the benchmark's tracer reads them
        assert ChainConfig.n_chains == 3 and ChainConfig.psrf_threshold == 1.10
        config = ChainConfig(seed=1)
        assert (config.n_chains, config.psrf_threshold) == (3, 1.10)
        assert "n_chains" not in {f.name for f in dataclasses.fields(ChainConfig)}

    def test_validation(self):
        with pytest.raises(ValueError, match="retain_per_chain"):
            ChainConfig(n_iterations=100, retain_per_chain=101)
        with pytest.raises(ValueError, match="max_restarts"):
            ChainConfig(max_restarts=-1)

    def test_values_no_run_could_use_rejected(self):
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


def psrf_by_eigh(chains):
    """The diagnostic with scipy's generalised symmetric eigensolver, as the oracle."""
    kept = [c[c.shape[0] // 2 :] for c in chains]
    n, m = kept[0].shape[0], len(kept)
    within = np.mean([np.atleast_2d(np.cov(a.T, ddof=1)) for a in kept], axis=0)
    between_over_n = np.atleast_2d(np.cov(np.stack([a.mean(axis=0) for a in kept]).T, ddof=1))
    lam = max(0.0, float(scipy.linalg.eigh(between_over_n, within, eigvals_only=True)[-1]))
    return math.sqrt((n - 1) / n + (m + 1) / m * lam)


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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_scipy_generalised_eigenvalues(self, d):
        # numpy's Cholesky reduction rounds apart from LAPACK's dsygvd by a few ulp at most
        rng = np.random.default_rng(131 + d)
        for _ in range(200):
            n, m = int(rng.integers(20, 400)), int(rng.integers(2, 5))
            scale = rng.uniform(0.01, 100.0, size=d)
            chains = [(rng.standard_normal((n, d)) + rng.normal(0.0, 0.5, size=d)) * scale for _ in range(m)]
            assert psrf(chains) == pytest.approx(psrf_by_eigh(chains), rel=1e-15, abs=0.0)

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
    def test_seeded_chains_pinned(self):
        # every state and log-likelihood of a seeded run, byte for byte as the sampler gave them before its
        # loop was tightened; it stops before the first adaptation, whose np.cov and Cholesky factor take
        # their last bits from the host's BLAS kernel
        chain_set = run_chains(gaussian_objective(), ChainConfig(seed=21, n_iterations=199, retain_per_chain=50))
        digest = hashlib.sha256()
        for chain in chain_set.chains:
            digest.update(chain.params.tobytes())
            digest.update(chain.log_likelihood.tobytes())
        assert digest.hexdigest() == "dedf5783f081eaa83eeb97c2d3bd32f5467217b6105824c8a81a83e469161798"

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
        config = ChainConfig(seed=6, n_iterations=40, retain_per_chain=10, max_restarts=0)
        result = calibrate_catchment(series, split, config)
        assert result.psrf > ChainConfig.psrf_threshold
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

    def test_observations_checked_when_made(self):
        series = synthetic_series(seed=8)
        flow = series.streamflow.copy()
        flow[20] = np.nan
        bad = MonthlySeries(series.origin, series.precipitation, series.potential_evaporation, flow)
        with pytest.raises(ValueError, match="observation series contains non-finite values"):
            calibration_objective(bad, partition(84, 12, 48, 12))

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
    def test_each_call_is_the_likelihood_of_a_fresh_simulation(self, compiled, monkeypatch):
        # the bound loop's one output array is reused; each call still scores only its own flows
        if not compiled:
            monkeypatch.setattr(gr2m, "load_kernel", lambda: None)
        series, split = synthetic_series(seed=9), partition(84, 12, 48, 12)
        objective = calibration_objective(series, split)
        for theta1, theta2 in ((350.0, 1.1), (900.0, 0.5), (350.0, 1.1)):
            predicted = simulate(Gr2mParams(theta1, theta2), series.precipitation, series.potential_evaporation, split)
            assert objective(theta1, theta2) == log_likelihood(series.streamflow[split.t1], predicted[: split.n1])
        # an overflowing routing store makes the flows nan: still a ValueError, as from log_likelihood
        with pytest.raises(ValueError, match="prediction series contains non-finite values"):
            objective(400.0, 1e300)


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
