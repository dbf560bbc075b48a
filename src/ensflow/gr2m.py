"""Two-parameter monthly water-balance model (production store + routing store).

The model carries two internal stores between months.  A production (soil
moisture) store of capacity ``theta1`` mm absorbs rainfall and loses
evaporation through hyperbolic-tangent exchange laws, then leaks downward
through a cubic percolation law.  A routing store collects the excess
rainfall and the percolation, is scaled by the water-exchange coefficient
``theta2`` (above 1 the catchment imports water from its surroundings, below
1 it exports), and drains through a quadratic law against a fixed 60 mm
capacity.  The drained depth is the monthly streamflow in mm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .timeseries import PeriodPartition

# outflow capacity of the routing store, mm; fixed by the model definition
ROUTING_CAPACITY_MM = 60.0

# initial states used when the caller does not supply any: a half-full
# production store and a half-full routing store, washed out by warm-up
DEFAULT_ROUTING_INIT_MM = 30.0


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

    With ``math.tanh`` it is the scalar kernel behind ``step``, ``simulate``
    and calibration, on Python floats with ``p`` and ``e`` as lists (numpy
    scalars make every operation several times slower); with ``np.tanh`` it
    runs ``simulate_batch`` elementwise across parameter pairs.  It checks
    nothing: the divisions rely on theta1 > 0, the domain that ``Gr2mParams``,
    ``simulate_batch`` and the calibration ``ParameterBox`` enforce.
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


def _simulate_flow(
    theta1: float,
    theta2: float,
    precipitation,
    potential_evaporation,
    warmup: int,
    n_keep: int,
    soil_init: float | None = None,
    routing_init: float = DEFAULT_ROUTING_INIT_MM,
) -> np.ndarray:
    """Run ``warmup + n_keep`` months on Python floats; return the flows after warm-up.

    The forcing is two float arrays or two lists of floats; callers that
    simulate the same forcing many times (calibration) convert it once.
    """
    theta1, theta2 = float(theta1), float(theta2)
    s = 0.5 * theta1 if soil_init is None else float(soil_init)
    p, e, n_months = precipitation, potential_evaporation, warmup + n_keep
    if not isinstance(p, list):
        p, e = p[:n_months].tolist(), e[:n_months].tolist()
    _, _, flows = _run(theta1, theta2, s, float(routing_init), p, e, n_months, math.tanh)
    return np.array(flows[warmup:])


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
    return _simulate_flow(
        params.theta1,
        params.theta2,
        p,
        e,
        split.warmup,
        split.n_total - split.warmup,
        soil_init=initial.soil,
        routing_init=initial.routing,
    )


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
