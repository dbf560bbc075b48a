"""Water-balance model: frozen single-step oracle, conservation, invariants.

The single-step reference values below were produced by an independent
transcription of the five sub-step formulas (hyperbolic-tangent rainfall
uptake, tanh evaporation drawdown, cubic percolation, scaled routing inflow,
quadratic outflow) evaluated once on plain floats, then frozen as literals.
"""

import math
import shlex
import shutil
import sysconfig

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ensflow import gr2m
from ensflow.calibrate import (
    BOX_LOWER, BOX_UPPER, THETA1_RANGE, THETA2_RANGE, ChainConfig, calibration_objective, log_likelihood, run_chains,
)
from ensflow.gr2m import (
    DEFAULT_ROUTING_INIT_MM,
    ROUTING_CAPACITY_MM,
    Gr2mParams,
    Gr2mState,
    simulate_flow,
    default_initial_state,
    simulate,
    simulate_batch,
    step,
)
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
        params = Gr2mParams(ORACLE_IN["theta1"], ORACLE_IN["theta2"])
        state = Gr2mState(ORACLE_IN["soil"], ORACLE_IN["routing"])
        new, q = step(state, params, ORACLE_IN["p"], ORACLE_IN["e"])
        close(new.soil, ORACLE_SOIL)
        close(new.routing, ORACLE_ROUTING)
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
            new, q = step(Gr2mState(s, r), Gr2mParams(t1, 1.0), p, e)
            inflow = s + r + p
            outflow = new.soil + new.routing + q + evaporated
            assert abs(inflow - outflow) <= 1e-9 * max(1.0, inflow)

    def test_outlet_shut_at_zero_exchange(self):
        new, q = step(Gr2mState(150.0, 30.0), Gr2mParams(300.0, 0.0), 100.0, 50.0)
        assert q == 0.0
        assert new.routing == 0.0

    def test_flow_increases_with_exchange_coefficient(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = rng.uniform(0.0, 300.0)
            r = rng.uniform(0.0, 120.0)
            p, e = rng.uniform(0.0, 300.0), rng.uniform(0.0, 120.0)
            flows = [
                step(Gr2mState(s, r), Gr2mParams(300.0, t2), p, e)[1]
                for t2 in (0.5, 0.9, 1.3, 2.0)
            ]
            assert all(a < b for a, b in zip(flows, flows[1:]))

    def test_state_bounds_preserved(self):
        rng = np.random.default_rng(11)
        params = Gr2mParams(180.0, 1.1)
        state = default_initial_state(params)
        for _ in range(500):
            p = float(rng.gamma(2.0, 40.0))
            e = float(rng.uniform(0.0, 120.0))
            state, q = step(state, params, p, e)
            assert 0.0 <= state.soil <= params.theta1
            assert state.routing >= 0.0
            assert q >= 0.0

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        theta1=st.floats(1.0, 3000.0),
        theta2=st.floats(0.0, 5.0),
        forcing=st.lists(st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 1e4)), min_size=1, max_size=36),
    )
    def test_stores_and_flows_stay_in_bounds(self, theta1, theta2, forcing):
        # any parameters in the calibration box and any forcing in [0, 1e4] mm
        params = Gr2mParams(theta1, theta2)
        state = default_initial_state(params)
        for p, e in forcing:
            state, q = step(state, params, p, e)
            assert 0.0 <= state.soil <= theta1
            assert 0.0 <= state.routing < math.inf
            assert 0.0 <= q < math.inf

    def test_input_validation(self):
        params = Gr2mParams(300.0, 1.0)
        ok = Gr2mState(10.0, 10.0)
        with pytest.raises(ValueError, match="precipitation"):
            step(ok, params, -1.0, 10.0)
        with pytest.raises(ValueError, match="potential_evaporation"):
            step(ok, params, 1.0, math.nan)
        with pytest.raises(ValueError, match="soil store"):
            step(Gr2mState(301.0, 10.0), params, 1.0, 1.0)
        with pytest.raises(ValueError, match="routing store"):
            step(Gr2mState(10.0, -0.1), params, 1.0, 1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="theta1"):
            Gr2mParams(0.0, 1.0)
        with pytest.raises(ValueError, match="theta1"):
            Gr2mParams(math.inf, 1.0)
        with pytest.raises(ValueError, match="theta2"):
            Gr2mParams(100.0, -0.1)
        assert Gr2mParams(100.0, 0.0).theta2 == 0.0

    def test_default_initial_state(self):
        state = default_initial_state(Gr2mParams(500.0, 1.0))
        assert state.soil == 250.0
        assert state.routing == DEFAULT_ROUTING_INIT_MM

    def test_routing_capacity_constant(self):
        assert ROUTING_CAPACITY_MM == 60.0


class TestSimulate:
    def test_matches_manual_stepping(self):
        rng = np.random.default_rng(5)
        p, e = random_forcing(rng, 36)
        split = partition(36, 6, 10, 10)
        params = Gr2mParams(420.0, 0.85)
        flows = simulate(params, p, e, split)
        state = default_initial_state(params)
        manual = []
        for t in range(36):
            state, q = step(state, params, p[t], e[t])
            if t >= 6:
                manual.append(q)
        assert flows.shape == (30,)
        assert np.array_equal(flows, np.array(manual))

    def test_no_look_ahead(self):
        # flows up to month t never depend on forcing after month t
        rng = np.random.default_rng(9)
        p, e = random_forcing(rng, 48)
        split = partition(48, 0, 16, 16)
        params = Gr2mParams(300.0, 1.0)
        base = simulate(params, p, e, split)
        p2 = p.copy()
        p2[24:] += 100.0
        changed = simulate(params, p2, e, split)
        assert np.array_equal(base[:24], changed[:24])
        assert not np.array_equal(base[24:], changed[24:])

    def test_warmup_washes_out_initial_state(self):
        rng = np.random.default_rng(13)
        p, e = random_forcing(rng, 160)
        split = partition(160, 120, 20, 10)
        params = Gr2mParams(350.0, 0.95)
        dry = simulate(params, p, e, split, initial=Gr2mState(0.0, 0.0))
        wet = simulate(params, p, e, split, initial=Gr2mState(350.0, 120.0))
        np.testing.assert_allclose(dry, wet, rtol=1e-6)

    def test_forcing_shorter_than_partition(self):
        split = partition(48, 0, 16, 16)
        with pytest.raises(ValueError, match="partition needs"):
            simulate(Gr2mParams(300.0, 1.0), np.ones(40), np.ones(40), split)

    def test_mismatched_forcing_lengths(self):
        split = partition(12, 0, 4, 4)
        with pytest.raises(ValueError, match="1-d and equally long"):
            simulate(Gr2mParams(300.0, 1.0), np.ones(12), np.ones(13), split)


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
            row = simulate(Gr2mParams(t1[i], t2[i]), p, e, split)
            np.testing.assert_allclose(batch[i], row, rtol=1e-12, err_msg=f"pair {i}")

    def test_rejects_bad_pairs(self):
        split = partition(12, 0, 4, 4)
        with pytest.raises(ValueError, match="theta1 > 0"):
            simulate_batch(np.array([100.0, 0.0]), np.array([1.0, 1.0]), np.ones(12), np.ones(12), split)
        with pytest.raises(ValueError, match="equal length"):
            simulate_batch(np.ones(3), np.ones(2), np.ones(12), np.ones(12), split)

    def test_rejects_short_forcing(self):
        split = partition(12, 0, 4, 4)
        with pytest.raises(ValueError, match="does not cover"):
            simulate_batch(np.ones(2), np.ones(2), np.ones(6), np.ones(6), split)


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


def compiler_found() -> bool:
    """``sysconfig``'s ``CC`` or ``cc`` is on the path: what ``load_kernel`` looks for."""
    return any(shutil.which(cc) for cc in (shlex.split(sysconfig.get_config_var("CC") or "cc")[0], "cc"))


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
            soil, routing = theta1 * rng.uniform(), rng.uniform(0.0, 100.0)
            expected = _oracle_simulate_flow(theta1, theta2, p, e, 0, 60, soil, routing)
            got = simulate_flow(theta1, theta2, p, e, 0, 60, soil_init=soil, routing_init=routing)
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
