"""Sampler, convergence diagnostic and posterior retention behaviour."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ensflow import calibrate, gr2m
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
    _run_single_chain,
    calibrate_catchment,
    calibration_objective,
    log_likelihood,
    psrf,
    run_chains,
)
from ensflow.gr2m import simulate_flow
from ensflow.timeseries import MonthlySeries, partition, write_csv


def synthetic_series(n=84, noise_sd=0.5, seed=0, theta1=400.0, theta2=0.9):
    t = np.arange(n)
    p = 80.0 * (1.0 + 0.5 * np.sin(2.0 * np.pi * t / 12.0))
    e = 60.0 * (1.0 + 0.6 * np.sin(2.0 * np.pi * t / 12.0 + np.pi))
    truth = simulate_flow(theta1, theta2, p, e, 0, n)
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


class TestLog1mExp:
    @pytest.mark.parametrize("log_p", [-1e-17, -5e-17])
    def test_limit_where_exp_rounds_to_one(self, log_p):
        # log(1 - p) tends to -inf as p tends to 1, where math.log1p(-1.0) raises
        assert math.exp(log_p) == 1.0
        assert calibrate._log1m_exp(log_p) == -math.inf

    @pytest.mark.parametrize("log_p", [-1.1e-16, -2.3e-16, -1e-15])
    def test_bits_kept_where_exp_is_below_one(self, log_p):
        assert math.exp(log_p) < 1.0
        assert calibrate._log1m_exp(log_p).hex() == math.log1p(-math.exp(log_p)).hex()

    def test_ends_kept(self):
        assert calibrate._log1m_exp(0.0) == -math.inf
        assert calibrate._log1m_exp(-40.0).hex() == (0.0).hex()


class ZeroUniforms:
    """A Generator whose draws on [0, 1) are all exactly 0.0, as a real one's are with probability 2**-53 each."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def uniform(self, low, high):
        return self.rng.uniform(low, high)

    def standard_normal(self, size):
        return self.rng.standard_normal(size)

    def random(self):
        return 0.0


class TestUniformDrawOfZero:
    def test_accepts_exactly_where_alpha_is_positive(self):
        # log 0 = -inf is below every log-acceptance probability but -inf: each proposal inside the box is
        # accepted, whichever stage made it, and an iteration whose two proposals both miss the box is not
        calls = []

        def objective(theta1, theta2):
            calls.append((float(theta1), float(theta2)))
            return -0.5 * (((theta1 - 2950.0) / 40.0) ** 2 + ((theta2 - 4.9) / 0.1) ** 2)

        chain = _run_single_chain(objective, ChainConfig(n_iterations=300), ZeroUniforms(8))
        assert calls[0] == tuple(chain.initial)  # the first start draw is finite
        moves = calls[1:]
        assert 0 < len(moves) == chain.accepted.sum() < chain.accepted.size
        assert [tuple(p) for p in chain.params[chain.accepted]] == moves


def python_only(objective):
    """``objective`` without its ``chain_block``: ``run_chains`` runs it on the Python sampler."""
    return lambda theta1, theta2: objective(theta1, theta2)


def chain_bytes(chain):
    return [getattr(chain, name).tobytes() for name in ("params", "log_likelihood", "accepted", "initial")]


def compiled_and_python(objective, config):
    """The chains of ``config`` on the compiled block and on the Python sampler."""
    seeds = np.random.SeedSequence(config.seed).spawn(config.n_chains)
    compiled = [_run_single_chain(objective, config, np.random.default_rng(s), objective.chain_block) for s in seeds]
    assert [chain_bytes(c) for c in run_chains(objective, config).chains] == [chain_bytes(c) for c in compiled]
    return compiled, run_chains(python_only(objective), config).chains


class CountingGenerator:
    """A Generator that counts its normal pairs: the Python sampler draws one per proposal."""

    def __init__(self, seed):
        self.rng, self.proposals = np.random.default_rng(seed), 0

    def uniform(self, low, high):
        return self.rng.uniform(low, high)

    def standard_normal(self, size):
        self.proposals += 1
        return self.rng.standard_normal(size)

    def random(self):
        return self.rng.random()


def python_branches(objective, config, monkeypatch):
    """What the Python sampler's first chain of ``config`` met, counted after its start point was found."""
    rng = CountingGenerator(np.random.SeedSequence(config.seed).spawn(config.n_chains)[0])
    values, ratios = [], []

    def counted(theta1, theta2):
        value = objective(theta1, theta2)
        if rng.proposals:
            values.append(value)
        return value

    real = calibrate._log1m_exp
    with monkeypatch.context() as patch:  # called twice for each delayed-rejection ratio
        patch.setattr(calibrate, "_log1m_exp", lambda log_p: ratios.append(log_p) or real(log_p))
        chain = _run_single_chain(counted, config, rng)
    n = config.n_iterations
    first_accepted = n - (rng.proposals - n)  # each first-stage rejection draws a second proposal
    second_accepted = int(chain.accepted.sum()) - first_accepted
    return {
        "outside the box": rng.proposals - len(values),
        "-inf objective": sum(value == -math.inf for value in values),
        "delayed rejection accepted": second_accepted,
        "delayed rejection ratio rejected": len(ratios) // 2 - second_accepted,
    }


def skip_without_compiled_sampler():
    kernel = gr2m.load_kernel()
    if kernel is None or kernel.sampler is None:
        numpy_libraries = gr2m.NUMPY_RANDOM.exists() and any(gr2m.NUMPY_BLAS.parent.glob(gr2m.NUMPY_BLAS.name))
        if kernel is not None and numpy_libraries:
            pytest.fail("the month loop compiled and numpy's libraries are there, but the sampler did not load")
        pytest.skip("no compiled sampler: no C compiler, or no libnpyrandom.a or OpenBLAS in numpy")


def edge_series():
    """Observed flows near the box's corner (3000, 5): proposals leave the box and delayed rejections run."""
    t = np.arange(84)
    p = 80.0 * (1.0 + 0.5 * np.sin(2.0 * np.pi * t / 12.0))
    e = 60.0 * (1.0 + 0.6 * np.sin(2.0 * np.pi * t / 12.0 + np.pi))
    flows = gr2m.simulate_flow(2900.0, 4.8, p, e, 0, 84)
    return MonthlySeries((1950, 1), p, e, flows * (1.0 + 0.05 * np.sin(t))), partition(84, 12, 48, 12)


def overflow_series():
    """One month of 1e152 mm: below theta2 ~ 2.5 the SSE overflows, so the objective is -inf inside the box."""
    rng = np.random.default_rng(3)
    p, e = rng.uniform(0.0, 100.0, 84), rng.uniform(0.0, 80.0, 84)
    p[40] = 1e152
    q = np.zeros(84)
    q[40] = 1.34e154 + 2.5e152  # the flow is about theta2 * 1e152 that month, and 1.34e154 squared overflows
    return MonthlySeries((1950, 1), p, e, q), partition(84, 12, 48, 12)


def interior_series():
    return synthetic_series(seed=1), partition(84, 12, 48, 12)


class TestStoppedBlock:
    """A block that stops where the objective does not raise is wrong; no compiler needed, as no block runs."""

    def test_stop_at_a_finite_point_raises(self):
        config, rng = ChainConfig(n_iterations=300), np.random.default_rng(0)
        with pytest.raises(RuntimeError, match="compiled sampler stopped"):
            _run_single_chain(gaussian_objective(), config, rng, lambda *block: 1)

    def test_self_check_counts_a_raise_as_a_mismatch(self):
        series, split = interior_series()
        loop = gr2m.month_loop(series.precipitation, series.potential_evaporation, split.warmup, split.n1)
        loop.chain_block = lambda *block: 1
        assert not calibrate.sampler_matches(loop, np.ascontiguousarray(series.streamflow, dtype=float)[split.t1])


# where the block stops, and the Python objective's error there; test_gr2m reruns them under the sanitizers
STOP_CASES = [
    ("zero-sse", "zero residual sum of squares"),
    ("non-finite-prediction", "prediction series contains non-finite values"),
]


class TestCompiledSampler:
    """The compiled block gives the Python sampler's chains, byte for byte, and stops where Python raises."""

    @pytest.fixture(autouse=True)
    def compiled(self):
        skip_without_compiled_sampler()

    @pytest.mark.parametrize(
        "case, branches",
        [
            (edge_series, ("outside the box", "delayed rejection accepted", "delayed rejection ratio rejected")),
            (overflow_series, ("-inf objective", "delayed rejection accepted", "delayed rejection ratio rejected")),
            (interior_series, ("delayed rejection accepted", "delayed rejection ratio rejected")),
        ],
        ids=["box-edge", "overflow", "interior"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")  # numpy's SSE overflows
    def test_chains_equal_on_both_paths(self, case, branches, monkeypatch):
        series, split = case()
        config = ChainConfig(seed=3, n_iterations=500, retain_per_chain=50)  # adapts at 200, 250, ..., 450
        objective = calibration_objective(series, split)
        compiled, python = compiled_and_python(objective, config)
        assert [chain_bytes(c) for c in compiled] == [chain_bytes(c) for c in python]
        met = python_branches(objective, config, monkeypatch)
        assert all(met[branch] > 0 for branch in branches), met

    def test_chains_equal_when_an_adaptation_fails(self, monkeypatch):
        # a singular proposal keeps the previous factor; a failed inverse keeps the previous inverse alone
        failed = []

        def flaky(real, bit):
            def call(matrix):  # fails on adapted matrices whose lowest mantissa bits say so: the same on both paths
                if matrix[0, 1] != 0.0 and matrix.tobytes()[0] >> bit & 1:
                    failed.append(real.__name__)
                    raise np.linalg.LinAlgError("forced")
                return real(matrix)

            return call

        monkeypatch.setattr(np.linalg, "cholesky", flaky(np.linalg.cholesky, 0))
        monkeypatch.setattr(np.linalg, "inv", flaky(np.linalg.inv, 1))
        objective = calibration_objective(*interior_series())
        compiled, python = compiled_and_python(objective, ChainConfig(seed=4, n_iterations=600))
        assert [chain_bytes(c) for c in compiled] == [chain_bytes(c) for c in python]
        assert {"cholesky", "inv"} <= set(failed)

    @pytest.mark.parametrize("case, error", STOP_CASES)
    def test_block_stops_where_python_raises(self, case, error):
        if case == "zero-sse":
            # no rain and an emptied soil: below theta2 ~ 0.4 the kept flows square to 0, as the observed ones do
            p, e, q = np.zeros(200), np.full(200, 1e4), np.zeros(200)
            split, seed = partition(200, 160, 20, 10), 0
        else:
            # one month of 9e153 mm: past theta2 ~ 1.5 that month's routing store squares past the largest double
            rng = np.random.default_rng(0)
            p, e, q = rng.uniform(0.0, 100.0, 84), rng.uniform(0.0, 80.0, 84), np.zeros(84)
            p[40] = 9e153
            split, seed = partition(84, 12, 48, 12), 1
            q[split.t1] = gr2m.simulate_flow(500.0, 1.0, p, e, 12, 48) * 1.01
        objective = calibration_objective(MonthlySeries((1950, 1), p, e, q), split)
        config = ChainConfig(seed=seed, n_iterations=400)
        first = np.random.SeedSequence(seed).spawn(config.n_chains)[0]
        # the start point is finite, so the first chain stops inside the block
        assert math.isfinite(objective(*np.random.default_rng(first).uniform(BOX_LOWER, BOX_UPPER)))
        with pytest.raises(ValueError) as compiled:
            _run_single_chain(objective, config, np.random.default_rng(first), objective.chain_block)
        with pytest.raises(ValueError) as python:
            run_chains(python_only(objective), config)
        assert type(compiled.value) is type(python.value)
        assert str(compiled.value) == str(python.value) == error
        calls = []

        def counted(theta1, theta2):
            calls.append((theta1, theta2))
            return objective(theta1, theta2)

        counted.chain_block = objective.chain_block
        with pytest.raises(type(python.value), match=f"^{error}$"):
            run_chains(counted, config)
        assert len(calls) == 2  # the start point, then the point the block stopped at: no chain runs again

    def test_chains_equal_on_every_blas_kernel(self):
        # one process per OpenBLAS kernel, one after another; within each, both paths give the same bytes
        from numpy._core._multiarray_umath import __cpu_features__ as cpu

        needs = {"": (), "Haswell": ("AVX2", "FMA3"), "Sandybridge": ("AVX",)}
        env = dict(os.environ, PYTHONPATH=str(Path(calibrate.__file__).parents[1]))
        ran = []
        for kernel, features in needs.items():
            if not all(cpu.get(feature) for feature in features):
                continue
            env["OPENBLAS_CORETYPE"] = kernel
            command = [sys.executable, "-c", KERNEL_PROBE]
            done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            corename, equal = json.loads(done.stdout.splitlines()[-1])
            assert equal and kernel.lower() in corename.lower(), (kernel, corename)
            ran.append(corename)
        assert ran


KERNEL_PROBE = """
import ctypes, json
import numpy as np
from ensflow import gr2m
from ensflow.calibrate import ChainConfig, calibration_objective, run_chains
from ensflow.timeseries import MonthlySeries, partition

assert gr2m.load_kernel().sampler is not None
t = np.arange(84)
p, e = 80.0 * (1.0 + 0.5 * np.sin(t / 2.0)), 60.0 * (1.0 + 0.6 * np.cos(t / 2.0))
q = gr2m.simulate_flow(500.0, 0.8, p, e, 0, 84) * (1.0 + 0.1 * np.sin(t))
objective = calibration_objective(MonthlySeries((1950, 1), p, e, q), partition(84, 12, 48, 12))
config = ChainConfig(seed=2, n_iterations=400)
chains = [run_chains(f, config).chains for f in (objective, lambda theta1, theta2: objective(theta1, theta2))]
blas = ctypes.CDLL(str(next(gr2m.NUMPY_BLAS.parent.glob(gr2m.NUMPY_BLAS.name))))
blas.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
fields = ("params", "log_likelihood", "accepted", "initial")
compiled, python = [[getattr(c, f).tobytes() for c in s for f in fields] for s in chains]
print(json.dumps([blas.scipy_openblas_get_corename64_().decode(), compiled == python]))
"""

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
        predicted = simulate_flow(
            350.0, 1.1, series.precipitation, series.potential_evaporation, split.warmup, split.n_total - split.warmup
        )
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
            p, e = series.precipitation, series.potential_evaporation
            predicted = simulate_flow(theta1, theta2, p, e, split.warmup, split.n_total - split.warmup)
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
