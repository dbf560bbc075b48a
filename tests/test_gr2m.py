"""Water-balance model: frozen single-step oracle, conservation, invariants.

The single-step reference values below were produced by an independent
transcription of the five sub-step formulas (hyperbolic-tangent rainfall
uptake, tanh evaporation drawdown, cubic percolation, scaled routing inflow,
quadratic outflow) evaluated once on plain floats, then frozen as literals.
"""

import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ensflow import gr2m
from ensflow.calibrate import (
    BOX_LOWER, BOX_UPPER, THETA1_RANGE, THETA2_RANGE, ChainConfig, calibration_objective, log_likelihood, run_chains,
)
from ensflow.gr2m import DEFAULT_ROUTING_INIT_MM, ROUTING_CAPACITY_MM, simulate_batch, simulate_flow, step
from ensflow.timeseries import MonthlySeries, partition

# frozen oracle: theta1=300, theta2=1, S=150, R=30, P=100, E=50
ORACLE_IN = dict(theta1=300.0, theta2=1.0, soil=150.0, routing=30.0, p=100.0, e=50.0)
ORACLE_PHI = 0.32151273753163434
ORACLE_S1 = 212.3217480353213
ORACLE_P1 = 37.67825196467871
ORACLE_PSI = 0.16514041292462936
ORACLE_S2 = 169.0975117696536
ORACLE_SOIL = 160.06243481269368
ORACLE_R2 = 76.71332892163863
ORACLE_Q = 43.045801610263226
ORACLE_ROUTING = 33.66752731137541


def close(a, b, rel=1e-13):
    assert math.isclose(a, b, rel_tol=rel, abs_tol=0.0), (a, b)


def random_forcing(rng, n):
    p = rng.gamma(shape=2.0, scale=40.0, size=n)
    e = rng.uniform(20.0, 90.0, size=n)
    return p, e


class TestSingleStep:
    def test_frozen_oracle(self):
        soil, routing, q = step(*ORACLE_IN.values())
        close(soil, ORACLE_SOIL)
        close(routing, ORACLE_ROUTING)
        close(q, ORACLE_Q)

    def test_oracle_internal_stages(self):
        # re-derive the frozen intermediates from their defining formulas
        t1, s, r, p, e = 300.0, 150.0, 30.0, 100.0, 50.0
        phi = math.tanh(p / t1)
        close(phi, ORACLE_PHI)
        s1 = (s + t1 * phi) / (1.0 + phi * s / t1)
        close(s1, ORACLE_S1)
        close(p + s - s1, ORACLE_P1)
        psi = math.tanh(e / t1)
        close(psi, ORACLE_PSI)
        s2 = s1 * (1.0 - psi) / (1.0 + psi * (1.0 - s1 / t1))
        close(s2, ORACLE_S2)
        close(s2 / (1.0 + (s2 / t1) ** 3) ** (1.0 / 3.0), ORACLE_SOIL)
        r2 = 1.0 * (r + (ORACLE_P1 + (s2 - ORACLE_SOIL)))
        close(r2, ORACLE_R2)
        close(r2 * r2 / (r2 + 60.0), ORACLE_Q)
        close(r2 - ORACLE_Q, ORACLE_ROUTING)

    def test_water_balance_at_unit_exchange(self):
        # with theta2 = 1 nothing crosses the catchment boundary, so
        # storage change + streamflow + actual evaporation = precipitation
        rng = np.random.default_rng(42)
        for _ in range(200):
            t1 = rng.uniform(20.0, 2000.0)
            s = rng.uniform(0.0, t1)
            r = rng.uniform(0.0, 150.0)
            p = rng.uniform(0.0, 400.0)
            e = rng.uniform(0.0, 200.0)
            phi = math.tanh(p / t1)
            s1 = (s + t1 * phi) / (1.0 + phi * s / t1)
            psi = math.tanh(e / t1)
            s2 = s1 * (1.0 - psi) / (1.0 + psi * (1.0 - s1 / t1))
            evaporated = s1 - s2
            soil, routing, q = step(t1, 1.0, s, r, p, e)
            inflow = s + r + p
            outflow = soil + routing + q + evaporated
            assert abs(inflow - outflow) <= 1e-9 * max(1.0, inflow)

    def test_outlet_shut_at_zero_exchange(self):
        _, routing, q = step(300.0, 0.0, 150.0, 30.0, 100.0, 50.0)
        assert q == 0.0
        assert routing == 0.0

    def test_flow_increases_with_exchange_coefficient(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = rng.uniform(0.0, 300.0)
            r = rng.uniform(0.0, 120.0)
            p, e = rng.uniform(0.0, 300.0), rng.uniform(0.0, 120.0)
            flows = [
                step(300.0, t2, s, r, p, e)[2]
                for t2 in (0.5, 0.9, 1.3, 2.0)
            ]
            assert all(a < b for a, b in zip(flows, flows[1:]))

    def test_state_bounds_preserved(self):
        rng = np.random.default_rng(11)
        soil, routing = 90.0, DEFAULT_ROUTING_INIT_MM
        for _ in range(500):
            p = float(rng.gamma(2.0, 40.0))
            e = float(rng.uniform(0.0, 120.0))
            soil, routing, q = step(180.0, 1.1, soil, routing, p, e)
            assert 0.0 <= soil <= 180.0
            assert routing >= 0.0
            assert q >= 0.0

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        theta1=st.floats(1.0, 3000.0),
        theta2=st.floats(0.0, 5.0),
        forcing=st.lists(st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 1e4)), min_size=1, max_size=36),
    )
    def test_stores_and_flows_stay_in_bounds(self, theta1, theta2, forcing):
        # any parameters in the calibration box and any forcing in [0, 1e4] mm
        soil, routing = 0.5 * theta1, DEFAULT_ROUTING_INIT_MM
        for p, e in forcing:
            soil, routing, q = step(theta1, theta2, soil, routing, p, e)
            assert 0.0 <= soil <= theta1
            assert 0.0 <= routing < math.inf
            assert 0.0 <= q < math.inf

    def test_input_validation(self):
        with pytest.raises(ValueError, match="precipitation"):
            step(300.0, 1.0, 10.0, 10.0, -1.0, 10.0)
        with pytest.raises(ValueError, match="potential_evaporation"):
            step(300.0, 1.0, 10.0, 10.0, 1.0, math.nan)
        with pytest.raises(ValueError, match="soil store"):
            step(300.0, 1.0, 301.0, 10.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="routing store"):
            step(300.0, 1.0, 10.0, -0.1, 1.0, 1.0)

    def test_parameter_validation(self):
        # the domain's edges are in it: the bad values are refused in TestFloatKernelBitExact, on both loops
        assert step(100.0, 0.0, 50.0, 30.0, 1.0, 1.0)[2] == 0.0
        assert step(5e-324, 1.0, 0.0, 30.0, 1.0, 1.0)[0] == 0.0

    def test_routing_capacity_constant(self):
        assert ROUTING_CAPACITY_MM == 60.0


class TestSimulate:
    def test_matches_manual_stepping(self):
        rng = np.random.default_rng(5)
        p, e = random_forcing(rng, 36)
        flows = simulate_flow(420.0, 0.85, p, e, 6, 30)
        soil, routing = 210.0, DEFAULT_ROUTING_INIT_MM
        manual = []
        for t in range(36):
            soil, routing, q = step(420.0, 0.85, soil, routing, p[t], e[t])
            if t >= 6:
                manual.append(q)
        assert flows.shape == (30,)
        assert np.array_equal(flows, np.array(manual))

    def test_no_look_ahead(self):
        # flows up to month t never depend on forcing after month t
        rng = np.random.default_rng(9)
        p, e = random_forcing(rng, 48)
        base = simulate_flow(300.0, 1.0, p, e, 0, 48)
        p2 = p.copy()
        p2[24:] += 100.0
        changed = simulate_flow(300.0, 1.0, p2, e, 0, 48)
        assert np.array_equal(base[:24], changed[:24])
        assert not np.array_equal(base[24:], changed[24:])

    def test_warmup_washes_out_initial_state(self):
        rng = np.random.default_rng(13)
        p, e = random_forcing(rng, 160)
        # a new loop for each: the compiled one overwrites its output array on every call
        dry = gr2m.month_loop(p, e, 120, 40)(350.0, 0.95, 0.0, 0.0)
        wet = gr2m.month_loop(p, e, 120, 40)(350.0, 0.95, 350.0, 120.0)
        np.testing.assert_allclose(dry, wet, rtol=1e-6)


class TestSimulateBatch:
    def test_rows_match_scalar_simulation(self):
        # identical expression order keeps the two paths together up to the
        # last-ulp difference between the scalar and the vectorised tanh
        rng = np.random.default_rng(21)
        p, e = random_forcing(rng, 60)
        split = partition(60, 12, 24, 12)
        t1 = rng.uniform(50.0, 1500.0, size=7)
        t2 = rng.uniform(0.3, 2.5, size=7)
        batch = simulate_batch(t1, t2, p, e, split)
        assert batch.shape == (7, 48)
        for i in range(7):
            row = simulate_flow(t1[i], t2[i], p, e, split.warmup, split.n_total - split.warmup)
            np.testing.assert_allclose(batch[i], row, rtol=1e-12, err_msg=f"pair {i}")

    def test_rejects_bad_pairs(self):
        split = partition(12, 0, 4, 4)
        with pytest.raises(ValueError, match="^theta1 must be finite and > 0"):
            simulate_batch(np.array([100.0, 0.0]), np.array([1.0, 1.0]), np.ones(12), np.ones(12), split)
        with pytest.raises(ValueError, match="equal length"):
            simulate_batch(np.ones(3), np.ones(2), np.ones(12), np.ones(12), split)

    def test_rejects_short_forcing(self):
        split = partition(12, 0, 4, 4)
        with pytest.raises(ValueError, match="^forcing has 6 months, warm-up plus kept flows need 12$"):
            simulate_batch(np.ones(2), np.ones(2), np.ones(6), np.ones(6), split)
        assert simulate_batch(np.ones(2), np.ones(2), np.ones(13), np.ones(12), split).shape == (2, 12)


# Bit-exactness oracle: the per-month loop on ndarray forcing and np.float64
# parameters that the float kernel replaced, copied verbatim.  The float
# kernel must reproduce it bit for bit, so seeded chains and everything
# downstream of them keep their values.


def _oracle_step_values(theta1, theta2, s, r, p, e, tanh=math.tanh):
    # 1. rainfall uptake into the soil store through a tanh exchange;
    #    whatever the store does not absorb becomes excess rainfall p1
    phi = tanh(p / theta1)
    s1 = (s + theta1 * phi) / (1.0 + phi * s / theta1)
    p1 = p + s - s1
    # 2. evaporation drawdown from the soil store through a tanh exchange
    psi = tanh(e / theta1)
    s2 = s1 * (1.0 - psi) / (1.0 + psi * (1.0 - s1 / theta1))
    # 3. cubic-law percolation empties the soil store towards routing
    s_new = s2 / (1.0 + (s2 / theta1) ** 3) ** (1.0 / 3.0)
    p3 = p1 + (s2 - s_new)
    # 4. the routing store takes excess rainfall plus percolation and the
    #    total is scaled by the exchange coefficient
    r2 = theta2 * (r + p3)
    # 5. quadratic outflow against the fixed 60 mm capacity
    q = r2 * r2 / (r2 + ROUTING_CAPACITY_MM)
    return s_new, r2 - q, q


def _oracle_simulate_flow(
    theta1, theta2, precipitation, potential_evaporation, warmup, n_keep, soil_init=None,
    routing_init=DEFAULT_ROUTING_INIT_MM,
):
    s = 0.5 * theta1 if soil_init is None else soil_init
    r = routing_init
    p = precipitation
    e = potential_evaporation
    out = np.empty(n_keep)
    for t in range(warmup):
        s, r, _ = _oracle_step_values(theta1, theta2, s, r, p[t], e[t])
    for t in range(n_keep):
        i = warmup + t
        s, r, out[t] = _oracle_step_values(theta1, theta2, s, r, p[i], e[i])
    return out


def _oracle_simulate_batch(t1, t2, p, e, split):
    s = 0.5 * t1
    r = np.full(t1.shape, DEFAULT_ROUTING_INIT_MM)
    n_keep = split.n_total - split.warmup
    out = np.empty((t1.size, n_keep))
    for t in range(split.n_total):
        s, r, q = _oracle_step_values(t1, t2, s, r, p[t], e[t], np.tanh)
        if t >= split.warmup:
            out[:, t - split.warmup] = q
    return out


def _in_box_pairs(rng, n):
    # np.float64 parameters, as the sampler draws them from the prior box
    return [rng.uniform(BOX_LOWER, BOX_UPPER) for _ in range(n)]


def compiler() -> list[str]:
    """The compiler command ``load_kernel`` runs: ``sysconfig``'s ``CC`` if it is on the path, else ``cc``."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    return cc if shutil.which(cc[0]) else ["cc"]


def compiler_found() -> bool:
    return shutil.which(compiler()[0]) is not None


@pytest.mark.parametrize("extra", [[], ["-DENSFLOW_SAMPLER", f"-I{np.get_include()}"]], ids=["month-loop", "sampler"])
def test_kernel_source_compiles_without_warnings(extra):
    # load_kernel's compiler and flags, with -Wall and -Wextra as errors: a variable or function left unused fails
    if not compiler_found():
        pytest.skip("no C compiler")
    checks = ["-fsyntax-only", "-Wall", "-Wextra", "-Werror"]
    command = [*compiler(), *gr2m.KERNEL_FLAGS, *checks, *extra, str(gr2m.KERNEL_SOURCE)]
    done = subprocess.run(command, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# load_kernel builds argv[1] with the sanitizers; its self-checks run the month loop and a chain on the block
SANITIZED_RUN = """
import sys
from pathlib import Path

from ensflow import gr2m
from ensflow.calibrate import ChainConfig, calibrate_catchment

gr2m.KERNEL_SOURCE = Path(sys.argv[1])
gr2m.KERNEL_FLAGS += ("-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined")
assert gr2m.load_kernel().sampler is not None
sys.path.insert(0, sys.argv[2])
from test_calibrate import STOP_CASES, TestCompiledSampler, interior_series

for case, error in STOP_CASES:
    TestCompiledSampler().test_block_stops_where_python_raises(case, error)
result = calibrate_catchment(*interior_series(), ChainConfig(seed=0, n_iterations=400, retain_per_chain=100))
print("ran", result.sample.m)
"""


def test_kernel_runs_clean_under_sanitizers(tmp_path):
    # AddressSanitizer and UBSan in one fresh interpreter: any report aborts it
    if not compiler_found():
        pytest.skip("no C compiler")
    found = subprocess.run([*compiler(), "-print-file-name=libasan.so"], capture_output=True, text=True)
    libasan = found.stdout.strip()
    if not Path(libasan).is_absolute():  # the compiler echoes the bare name when it has no such library
        pytest.skip("the compiler has no libasan")
    source = tmp_path / "_gr2m.c"
    shutil.copy(gr2m.KERNEL_SOURCE, source)
    package = Path(gr2m.__file__).parents[1]
    env = dict(os.environ, LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0", PYTHONPATH=str(package))
    command = [sys.executable, "-c", SANITIZED_RUN, str(source), str(Path(__file__).parent)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stdout.split() == ["ran", "300"], done.stderr
    assert "Sanitizer" not in done.stderr and "runtime error" not in done.stderr, done.stderr


class TestFloatKernelBitExact:
    """On the compiled month loop; ``TestPythonMonthLoopBitExact`` runs every test again on ``_run``."""

    @pytest.fixture(autouse=True)
    def month_loop(self):
        if gr2m.load_kernel() is None:
            if compiler_found():
                pytest.fail("a C compiler was found but the compiled month loop did not load")
            pytest.skip("no C compiler: only the Python month loop runs here")

    def test_simulate_flow_matches_oracle(self):
        rng = np.random.default_rng(31)
        p, e = random_forcing(rng, 156)
        for theta1, theta2 in _in_box_pairs(rng, 40):
            expected = _oracle_simulate_flow(theta1, theta2, p, e, 12, 144)
            assert np.array_equal(simulate_flow(theta1, theta2, p, e, 12, 144), expected)
            assert np.array_equal(
                simulate_flow(float(theta1), float(theta2), p.tolist(), e.tolist(), 12, 144), expected
            )

    def test_simulate_flow_with_initial_state_matches_oracle(self):
        rng = np.random.default_rng(32)
        p, e = random_forcing(rng, 60)
        for theta1, theta2 in _in_box_pairs(rng, 10):
            # simulate_flow starts from the default stores; any others go through month_loop
            soil, routing = theta1 * rng.uniform(), rng.uniform(0.0, 100.0)
            expected = _oracle_simulate_flow(theta1, theta2, p, e, 0, 60, soil, routing)
            got = gr2m.month_loop(p, e, 0, 60)(float(theta1), float(theta2), float(soil), float(routing))
            assert np.array_equal(got, expected)

    def test_simulate_batch_matches_oracle(self):
        rng = np.random.default_rng(33)
        p, e = random_forcing(rng, 72)
        split = partition(72, 12, 24, 24)
        t1, t2 = np.array(_in_box_pairs(rng, 25)).T
        got = simulate_batch(t1, t2, p, e, split)
        assert got.flags.c_contiguous
        assert np.array_equal(got, _oracle_simulate_batch(t1, t2, p, e, split))

    def test_seeded_chains_match_oracle_objective(self):
        rng = np.random.default_rng(34)
        p, e = random_forcing(rng, 84)
        split = partition(84, 12, 48, 12)
        truth = _oracle_simulate_flow(400.0, 0.9, p, e, 0, 84)
        observed = np.maximum(truth + 0.5 * rng.standard_normal(84), 0.0)
        series = MonthlySeries((1950, 1), p, e, observed)

        def oracle_objective(theta1, theta2):
            predicted = _oracle_simulate_flow(
                np.float64(theta1), np.float64(theta2), p, e, split.warmup, split.n1
            )
            return log_likelihood(observed[split.t1], predicted)

        config = ChainConfig(seed=17, n_iterations=400, retain_per_chain=100)
        got = run_chains(calibration_objective(series, split), config)
        expected = run_chains(oracle_objective, config)
        for a, b in zip(got.chains, expected.chains):
            assert np.array_equal(a.params, b.params)
            assert np.array_equal(a.log_likelihood, b.log_likelihood)
            assert np.array_equal(a.accepted, b.accepted)
            assert np.array_equal(a.initial, b.initial)

    # the subclass reruns it on the Python loop; derandomized and without a database, nothing is replayed
    @settings(
        derandomize=True, database=None, deadline=None, max_examples=300,
        suppress_health_check=[HealthCheck.differing_executors],
    )
    @given(
        theta1=st.floats(*THETA1_RANGE),
        theta2=st.floats(*THETA2_RANGE),
        forcing=st.lists(
            st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1e4)), st.one_of(st.just(0.0), st.floats(0.0, 1e4))),
            min_size=1, max_size=36,
        ),
        warmup_share=st.floats(0.0, 1.0),
    )
    def test_any_box_pair_and_forcing_matches_oracle(self, theta1, theta2, forcing, warmup_share):
        # dry months, months of up to 1e4 mm and runs of a single month, on either loop
        p, e = (np.array(column) for column in zip(*forcing))
        warmup = min(int(warmup_share * p.size), p.size - 1)
        expected = _oracle_simulate_flow(theta1, theta2, p.tolist(), e.tolist(), warmup, p.size - warmup)
        assert simulate_flow(theta1, theta2, p, e, warmup, p.size - warmup).tobytes() == expected.tobytes()

    def test_forcing_shorter_than_the_months_refused(self):
        # the compiled loop would read past the end of the forcing
        for p, e in ((np.ones(40), np.ones(41)), ([1.0] * 41, [1.0] * 40)):
            with pytest.raises(ValueError, match="forcing has 40 months, warm-up plus kept flows need 48"):
                simulate_flow(300.0, 1.0, p, e, 12, 36)
        assert simulate_flow(300.0, 1.0, np.ones(40), np.ones(40), 4, 36).shape == (36,)

    def test_negative_warmup_or_no_kept_month_refused(self):
        # either would make both loops return another number of flows than n_keep
        for p, e in ((np.ones(40), np.ones(40)), ([1.0] * 40, [1.0] * 40)):
            for warmup, n_keep in ((-2, 5), (0, 0), (4, -1)):
                with pytest.raises(ValueError, match=f"got warmup={warmup}, n_keep={n_keep}$"):
                    simulate_flow(300.0, 1.0, p, e, warmup, n_keep)
            assert simulate_flow(300.0, 1.0, p, e, 0, 1).shape == (1,)

    @pytest.mark.parametrize(
        "theta1, theta2",
        [(0.0, 1.0), (-5.0, 1.0), (math.inf, 1.0), (math.nan, 1.0), (300.0, -0.1), (300.0, math.inf),
         (300.0, math.nan)],
    )
    def test_parameters_outside_the_domain_refused(self, theta1, theta2):
        # unchecked, the compiled loop gives nan flows at theta1 = 0 and -5 where the Python loop raises
        # ZeroDivisionError or gives complex flows, and both give small positive flows at theta2 = -0.1
        p, e = np.ones(24), np.ones(24)
        message = "^theta1 must be finite and > 0, got " if theta2 == 1.0 else "^theta2 must be finite and >= 0, got "
        calls = (
            lambda: step(theta1, theta2, 0.0, 30.0, 1.0, 1.0),
            lambda: simulate_flow(theta1, theta2, p, e, 12, 12),
            lambda: simulate_batch(np.array([300.0, theta1]), np.array([1.0, theta2]), p, e, partition(24, 12, 4, 4)),
        )
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("e_shape", [(12, 2), (24,)], ids=["both-2-d", "precipitation-2-d"])
    def test_two_dimensional_forcing_refused(self, e_shape):
        # unchecked, the compiled loop read a (12, 2) forcing as its 24 flattened values, the Python loop raised
        # TypeError, and simulate_batch returned one row per pair and column
        p, e = np.ones((12, 2)), np.ones(e_shape)
        message = re.escape(f"forcing must be 1-d, got shapes (12, 2) and {e_shape}")
        calls = (
            lambda: gr2m.month_loop(p, e, 4, 8),
            lambda: simulate_flow(300.0, 1.0, p, e, 4, 8),
            lambda: simulate_batch(np.array([300.0]), np.array([1.0]), p, e, partition(12, 4, 3, 3)),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()


class TestPythonMonthLoopBitExact(TestFloatKernelBitExact):
    """The same tests on ``_run``, the only loop without a C compiler."""

    @pytest.fixture(autouse=True)
    def month_loop(self, monkeypatch):
        monkeypatch.setattr(gr2m, "load_kernel", lambda: None)


def assert_simulate_flow_is_the_oracle():
    rng = np.random.default_rng(35)
    p, e = random_forcing(rng, 60)
    for theta1, theta2 in _in_box_pairs(rng, 5):
        expected = _oracle_simulate_flow(theta1, theta2, p, e, 12, 48)
        assert simulate_flow(theta1, theta2, p, e, 12, 48).tobytes() == expected.tobytes()


class TestCompiledLoopLoading:
    """Without a compiler, or when the build does not give ``_run``'s bits, the month loop is ``_run``."""

    def test_builds_once_into_the_cache(self, empty_cache):
        if not compiler_found():
            pytest.skip("no C compiler")
        assert gr2m.load_kernel() is not None
        built = list((empty_cache.parent / "__pycache__").iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"
        gr2m.load_kernel.cache_clear()
        mtime = built[0].stat().st_mtime_ns
        assert gr2m.load_kernel() is not None and built[0].stat().st_mtime_ns == mtime
        assert_simulate_flow_is_the_oracle()

    @pytest.mark.usefixtures("foreign_cc")
    def test_falls_back_to_cc(self):
        if shutil.which("cc") is None:
            pytest.skip("no cc")
        assert gr2m.load_kernel() is not None
        assert_simulate_flow_is_the_oracle()

    def test_missing_compiler(self, no_compiler):
        assert gr2m.load_kernel() is None
        assert list((no_compiler.parent / "__pycache__").iterdir()) == []  # no half-written library
        assert_simulate_flow_is_the_oracle()

    @pytest.mark.parametrize(
        "exact, folded",
        [
            ("pow(s2 / theta1, 3.0)", "(s2 / theta1) * (s2 / theta1) * (s2 / theta1)"),
            ("pow(1.0 + pow(s2 / theta1, 3.0), 1.0 / 3.0)", "cbrt(1.0 + pow(s2 / theta1, 3.0))"),
        ],
        ids=["cube", "cube-root"],
    )
    def test_loop_failing_the_self_check_is_dropped(self, empty_cache, exact, folded):
        # what a compiler that folds pow would build: close to _run, but not its bits
        source = empty_cache.read_text()
        assert exact in source
        empty_cache.write_text(source.replace(exact, folded))
        assert gr2m.load_kernel() is None
        assert_simulate_flow_is_the_oracle()


def assert_month_loop_without_sampler():
    kernel = gr2m.load_kernel()
    assert kernel is not None and kernel.sampler is None
    assert_simulate_flow_is_the_oracle()
    series = MonthlySeries((1950, 1), *random_forcing(np.random.default_rng(36), 60), np.ones(60))
    objective = calibration_objective(series, partition(60, 12, 36, 6))
    assert not hasattr(objective, "chain_block")  # so run_chains takes the Python sampler


class TestCompiledSamplerLoading:
    """Where numpy's generator code or OpenBLAS cannot be linked, or the block fails its self-check, the month loop
    stays compiled and the Python sampler runs."""

    @pytest.fixture(autouse=True)
    def builds(self, empty_cache):
        if not compiler_found():
            pytest.skip("no C compiler")
        return empty_cache

    def test_builds_with_the_sampler(self):
        assert gr2m.load_kernel().sampler is not None

    def test_without_numpy_random(self, builds, monkeypatch):
        monkeypatch.setattr(gr2m, "NUMPY_RANDOM", builds.parent / "libnpyrandom.a")  # no such file: the link fails
        assert_month_loop_without_sampler()

    def test_without_numpy_blas(self, builds, monkeypatch):
        monkeypatch.setattr(gr2m, "NUMPY_BLAS", builds.parent / "libscipy_openblas64_*.so")  # none: it does not load
        assert_month_loop_without_sampler()
        assert len(list((builds.parent / "__pycache__").iterdir())) == 2  # the sampler's library, and the loop's

    @pytest.mark.parametrize(
        "exact, wrong",
        [
            ("theta2 <= o->upper[1]", "theta2 <= 2.0 * o->upper[1]"),
            ("propose(rng, timid, current, second)", "propose(rng, chol, current, second)"),
            ("current_ll + log_gauss_quadform(first, current, cov_inv)", "current_ll"),
            ("-0.5 * o->n_keep * log(sse)", "-0.5 * o->n_keep * (log2(sse) * 0.6931471805599453)"),
        ],
        ids=["box", "timid-proposal", "forward-density", "log-through-log2"],
    )
    def test_sampler_failing_the_self_check_is_dropped(self, builds, exact, wrong):
        # the self-check's chain leaves the box at theta2 = 5, makes delayed-rejection moves and adapts twice
        source = builds.read_text()
        assert exact in source
        builds.write_text(source.replace(exact, wrong))
        assert_month_loop_without_sampler()
