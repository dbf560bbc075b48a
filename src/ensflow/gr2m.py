"""Two-parameter monthly water-balance model (production store + routing store).

The model carries two internal stores between months.  A production (soil
moisture) store of capacity ``theta1`` mm absorbs rainfall and loses
evaporation through hyperbolic-tangent exchange laws, then leaks downward
through a cubic percolation law.  A routing store collects the excess
rainfall and the percolation, is scaled by the water-exchange coefficient
``theta2`` (above 1 the catchment imports water from its surroundings, below
1 it exports), and drains through a quadratic law against a fixed 60 mm
capacity.  The drained depth is the monthly streamflow in mm.

``month_loop``, and through it ``simulate_flow``, runs the month loop's C
translation (``_gr2m.c``) when :func:`load_kernel` builds one with ``_run``'s
bits: a compiler buys speed only.
"""

from __future__ import annotations

import functools
import math
import os
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .timeseries import PeriodPartition

# outflow capacity of the routing store, mm; fixed by the model definition
ROUTING_CAPACITY_MM = 60.0

# initial states used when the caller does not supply any: a half-full
# production store and a half-full routing store, washed out by warm-up
DEFAULT_ROUTING_INIT_MM = 30.0

# the C month loop, compiled without fused multiply-adds and with libm's tanh and pow, as CPython calls them
KERNEL_SOURCE = Path(__file__).with_name("_gr2m.c")
KERNEL_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-fast-math", "-fno-builtin")


@dataclass(frozen=True)
class Gr2mParams:
    """Model parameters.

    theta1 : capacity of the production store, mm, strictly positive.
    theta2 : water-exchange coefficient, >= 0 (0 shuts the outlet entirely
             and is only useful as a degenerate check; calibration keeps it
             well inside (0, 5]).
    """

    theta1: float
    theta2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta1) and self.theta1 > 0.0):
            raise ValueError(f"theta1 must be finite and > 0, got {self.theta1}")
        if not (math.isfinite(self.theta2) and self.theta2 >= 0.0):
            raise ValueError(f"theta2 must be finite and >= 0, got {self.theta2}")


@dataclass(frozen=True)
class Gr2mState:
    """Store levels carried between months: soil store S and routing store R, mm."""

    soil: float
    routing: float


def default_initial_state(params: Gr2mParams) -> Gr2mState:
    return Gr2mState(soil=0.5 * params.theta1, routing=DEFAULT_ROUTING_INIT_MM)


def _run(theta1, theta2, s, r, p, e, n_months, tanh):
    """The month loop, written once (hot path); returns (S, R, monthly flows Q).

    With ``math.tanh`` it is the scalar loop of ``step`` and ``month_loop``
    without a compiled loop, on Python floats with ``p`` and ``e`` as lists
    (numpy scalars make every operation several times slower); with ``np.tanh``
    it runs ``simulate_batch`` elementwise across parameter pairs.  It checks
    nothing: the divisions rely on theta1 > 0, the domain that ``Gr2mParams``,
    ``simulate_batch`` and calibration's fixed prior box keep to.
    """
    flows = []
    for t in range(n_months):
        pt = p[t]
        # 1. rainfall uptake into the soil store through a tanh exchange;
        #    whatever the store does not absorb becomes excess rainfall p1
        phi = tanh(pt / theta1)
        s1 = (s + theta1 * phi) / (1.0 + phi * s / theta1)
        p1 = pt + s - s1
        # 2. evaporation drawdown from the soil store through a tanh exchange
        psi = tanh(e[t] / theta1)
        s2 = s1 * (1.0 - psi) / (1.0 + psi * (1.0 - s1 / theta1))
        # 3. cubic-law percolation empties the soil store towards routing
        s = s2 / (1.0 + (s2 / theta1) ** 3) ** (1.0 / 3.0)
        p3 = p1 + (s2 - s)
        # 4. the routing store takes excess rainfall plus percolation and
        #    the total is scaled by the exchange coefficient
        r2 = theta2 * (r + p3)
        # 5. quadratic outflow against the fixed 60 mm capacity
        q = r2 * r2 / (r2 + ROUTING_CAPACITY_MM)
        r = r2 - q
        flows.append(q)
    return s, r, flows


@functools.cache
def load_kernel():
    """``month_loop``'s binder for the compiled loop, or None when it cannot be built or does not give ``_run``'s bits.

    Built on first use into ``__pycache__`` under the sha256 of source and command, via ``os.replace``.
    """
    import ctypes, hashlib, shlex, shutil, sysconfig  # on first use only: ``import ensflow`` stays as cheap

    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")  # the compiler Python was built with, else cc
    command = [*(cc if shutil.which(cc[0]) else ["cc"]), *KERNEL_FLAGS]
    key = hashlib.sha256(KERNEL_SOURCE.read_bytes() + " ".join(command).encode()).hexdigest()[:16]
    library = KERNEL_SOURCE.parent / "__pycache__" / f"_gr2m.{key}.so"
    try:
        if not library.exists():
            library.parent.mkdir(exist_ok=True)
            built = f"{library}.{os.getpid()}"
            subprocess.run([*command, "-o", built, str(KERNEL_SOURCE), "-lm"], check=True, capture_output=True)
            os.replace(built, library)
        run = ctypes.CDLL(str(library)).gr2m_run
    except (OSError, subprocess.SubprocessError):
        return None
    doubles = ctypes.POINTER(ctypes.c_double)
    run.argtypes, run.restype = [ctypes.c_double] * 4 + [doubles] * 2 + [ctypes.c_long] * 2 + [doubles], None
    buffer = ctypes.c_double.from_buffer  # the cheapest pointer to an array's data; needs a writable one

    def bind(p, e, warmup, n_keep):
        p, e, flows = np.ascontiguousarray(p, dtype=float), np.ascontiguousarray(e, dtype=float), np.empty(n_keep)
        if not (p.flags.writeable and e.flags.writeable):
            p, e = p.copy(), e.copy()
        pointers = (buffer(p), buffer(e), warmup, n_keep, buffer(flows))  # each keeps its array alive

        def loop(theta1, theta2, s, r):
            run(theta1, theta2, s, r, *pointers)
            return flows

        return loop

    # dry months, a huge one and a spread on a grid of the box: catches pow folded to a cube or cube root and FMAs
    p, e = [0.0, 1e4, *(53 * t % 97 * 3.0 for t in range(46))], [53 * t % 23 * 4.0 for t in range(48)]
    loop = bind(p, e, 2, 46)
    for theta1, theta2 in [(a, b) for a in (1.0, 300.0, 1500.0, 3000.0) for b in (0.2, 1.0, 5.0)]:
        expected = np.array(_run(theta1, theta2, 0.5 * theta1, 30.0, p, e, 48, math.tanh)[2][2:])
        if loop(theta1, theta2, 0.5 * theta1, 30.0).tobytes() != expected.tobytes():
            return None
    return bind


def step(
    state: Gr2mState, params: Gr2mParams, precipitation: float, potential_evaporation: float
) -> tuple[Gr2mState, float]:
    """Advance the model one month; returns the new state and streamflow Q (mm).

    Inputs must be finite and non-negative and the incoming state must
    satisfy 0 <= S <= theta1 and R >= 0.  The update keeps those bounds:
    the tanh exchanges map the soil store back into [0, theta1] and the
    outflow never exceeds the routing store content.
    """
    for name, value in (
        ("precipitation", precipitation),
        ("potential_evaporation", potential_evaporation),
    ):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    if not (math.isfinite(state.soil) and 0.0 <= state.soil <= params.theta1):
        raise ValueError(f"soil store {state.soil} outside [0, {params.theta1}]")
    if not (math.isfinite(state.routing) and state.routing >= 0.0):
        raise ValueError(f"routing store must be >= 0, got {state.routing}")
    p, e = (precipitation,), (potential_evaporation,)
    s, r, (q,) = _run(params.theta1, params.theta2, state.soil, state.routing, p, e, 1, math.tanh)
    return Gr2mState(soil=s, routing=r), q


def month_loop(precipitation, potential_evaporation, warmup: int, n_keep: int):
    """The month loop bound to one forcing: ``loop(theta1, theta2, soil, routing)`` gives the kept flows.

    It runs ``warmup + n_keep`` months and keeps the flows after warm-up; the month counts are checked
    once, here.  The forcing is two float arrays or two lists: the compiled loop binds them as float64
    arrays, with one output array that every call overwrites, and the Python loop converts them to lists.
    """
    if warmup < 0 or n_keep < 1:
        raise ValueError(f"need warmup >= 0 and n_keep >= 1, got warmup={warmup}, n_keep={n_keep}")
    n_months, n_forcing = warmup + n_keep, min(len(precipitation), len(potential_evaporation))
    if n_forcing < n_months:
        raise ValueError(f"forcing has {n_forcing} months, warm-up plus kept flows need {n_months}")
    bind = load_kernel()
    if bind is not None:
        return bind(precipitation, potential_evaporation, warmup, n_keep)
    p, e = precipitation, potential_evaporation
    if not isinstance(p, list):
        p, e = p[:n_months].tolist(), e[:n_months].tolist()
    return lambda theta1, theta2, s, r: np.array(_run(theta1, theta2, s, r, p, e, n_months, math.tanh)[2][warmup:])


def simulate_flow(
    theta1: float,
    theta2: float,
    precipitation,
    potential_evaporation,
    warmup: int,
    n_keep: int,
    soil_init: float | None = None,
    routing_init: float = DEFAULT_ROUTING_INIT_MM,
) -> np.ndarray:
    """The flows after warm-up of ``warmup + n_keep`` months, a new array: one call of a new ``month_loop``.

    The scalar entry point of ``simulate`` and synthesis; calibration binds its ``month_loop`` once.
    """
    loop = month_loop(precipitation, potential_evaporation, warmup, n_keep)
    theta1, theta2 = float(theta1), float(theta2)
    return loop(theta1, theta2, 0.5 * theta1 if soil_init is None else float(soil_init), float(routing_init))


def simulate(
    params: Gr2mParams,
    precipitation: np.ndarray,
    potential_evaporation: np.ndarray,
    split: PeriodPartition,
    initial: Gr2mState | None = None,
) -> np.ndarray:
    """Streamflow over everything after warm-up (length n1 + n2 + n3).

    ``precipitation`` and ``potential_evaporation`` must both cover at least
    ``split.n_total`` months; warm-up months drive the stores but produce no
    output.
    """
    p = np.ascontiguousarray(precipitation, dtype=float)
    e = np.ascontiguousarray(potential_evaporation, dtype=float)
    if p.ndim != 1 or e.ndim != 1 or p.size != e.size:
        raise ValueError("forcing series must be 1-d and equally long")
    if split.n_total > p.size:
        raise ValueError(f"partition needs {split.n_total} months, forcing has {p.size}")
    if initial is None:
        initial = default_initial_state(params)
    n_keep = split.n_total - split.warmup
    return simulate_flow(params.theta1, params.theta2, p, e, split.warmup, n_keep, initial.soil, initial.routing)


def simulate_batch(
    theta1: np.ndarray,
    theta2: np.ndarray,
    precipitation: np.ndarray,
    potential_evaporation: np.ndarray,
    split: PeriodPartition,
) -> np.ndarray:
    """Simulate many parameter pairs at once; row i belongs to pair i.

    Vectorised across parameter pairs, one time step at a time, with the
    default initial states.  Output shape is (n_pairs, n1 + n2 + n3).
    """
    t1 = np.atleast_1d(np.asarray(theta1, dtype=float))
    t2 = np.atleast_1d(np.asarray(theta2, dtype=float))
    if t1.shape != t2.shape or t1.ndim != 1:
        raise ValueError("theta1 and theta2 must be 1-d arrays of equal length")
    if np.any(t1 <= 0.0) or np.any(t2 < 0.0) or not (np.isfinite(t1).all() and np.isfinite(t2).all()):
        raise ValueError("parameter pairs must satisfy theta1 > 0 and theta2 >= 0")
    p = np.asarray(precipitation, dtype=float)
    e = np.asarray(potential_evaporation, dtype=float)
    if split.n_total > p.size or p.size != e.size:
        raise ValueError("forcing does not cover the partition")

    r = np.full(t1.shape, DEFAULT_ROUTING_INIT_MM)
    _, _, flows = _run(t1, t2, 0.5 * t1, r, p, e, split.n_total, np.tanh)
    return np.stack(flows[split.warmup :], axis=1)
