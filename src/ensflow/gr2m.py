"""Two-parameter monthly water-balance model (production store + routing store).

The model carries two internal stores between months.  A production (soil
moisture) store of capacity ``theta1`` mm absorbs rainfall and loses
evaporation through hyperbolic-tangent exchange laws, then leaks downward
through a cubic percolation law.  A routing store collects the excess
rainfall and the percolation, is scaled by the water-exchange coefficient
``theta2`` (above 1 the catchment imports water from its surroundings, below
1 it exports), and drains through a quadratic law against a fixed 60 mm
capacity.  The drained depth is the monthly streamflow in mm.

Four entry points, all on plain floats: ``step`` (one month from given stores), ``month_loop`` (the loop bound to
one forcing, for calibration), ``simulate_flow`` (one pair) and ``simulate_batch`` (many pairs at once); all but
``step`` start from the default stores, 0.5 * theta1 and ``DEFAULT_ROUTING_INIT_MM``, and run ``warmup + n_keep``
months to keep the last ``n_keep`` flows.  Each checks its parameters with ``_check_parameters`` and its forcing and
month counts with ``_forcing``, so the Python loop and the compiled one refuse the same input.  ``month_loop`` runs
the month loop's C translation (``_gr2m.c``) when :func:`load_kernel` builds one with ``_run``'s bits; its loop also
carries the calibration sampler's DRAM block, accepted only with the Python sampler's bytes: a compiler buys speed
only.
"""

from __future__ import annotations

import functools
import math
import os
import subprocess
from pathlib import Path

import numpy as np

# outflow capacity of the routing store, mm; fixed by the model definition
ROUTING_CAPACITY_MM = 60.0

# every simulation starts with the routing store half full, as its production store (0.5 * theta1) is; warm-up
# washes both out, and only ``step`` takes other stores
DEFAULT_ROUTING_INIT_MM = 30.0

# the C month loop, compiled without fused multiply-adds and with libm's tanh and pow, as CPython calls them
KERNEL_SOURCE = Path(__file__).with_name("_gr2m.c")
KERNEL_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-fast-math", "-fno-builtin")
# the sampler block links numpy's generator code and its OpenBLAS, so it draws and multiplies as numpy does
NUMPY_RANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
NUMPY_BLAS = Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas64_*.so"


def _check_parameters(theta1, theta2) -> None:
    """The parameter rule of every entry point, on scalars or arrays: theta1 finite and > 0, theta2 finite and >= 0.

    theta2 = 0 shuts the outlet and is only useful as a degenerate check; calibration keeps it inside [0.2, 5].
    """
    t1, t2 = np.asarray(theta1, dtype=float), np.asarray(theta2, dtype=float)
    if not (np.isfinite(t1) & (t1 > 0.0)).all():
        raise ValueError(f"theta1 must be finite and > 0, got {theta1}")
    if not (np.isfinite(t2) & (t2 >= 0.0)).all():
        raise ValueError(f"theta2 must be finite and >= 0, got {theta2}")


def _forcing(precipitation, potential_evaporation, warmup: int, n_keep: int) -> tuple[np.ndarray, np.ndarray]:
    """The forcing rule of every entry point: ``warmup >= 0`` and ``n_keep >= 1`` months of two 1-d float64 arrays,
    finite and >= 0 in the months they cover.
    """
    if warmup < 0 or n_keep < 1:
        raise ValueError(f"need warmup >= 0 and n_keep >= 1, got warmup={warmup}, n_keep={n_keep}")
    n_months = warmup + n_keep
    p = np.ascontiguousarray(precipitation, dtype=float)
    e = np.ascontiguousarray(potential_evaporation, dtype=float)
    if p.ndim != 1 or e.ndim != 1:
        raise ValueError(f"forcing must be 1-d, got shapes {p.shape} and {e.shape}")
    if min(p.size, e.size) < n_months:
        raise ValueError(f"forcing has {min(p.size, e.size)} months, warm-up plus kept flows need {n_months}")
    for name, values in (("precipitation", p[:n_months]), ("potential_evaporation", e[:n_months])):
        bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0.0)))
        if bad.size:
            raise ValueError(f"{name} must be finite and >= 0, got {values[bad[0]]} in month {bad[0] + 1}")
    return p, e


def _run(theta1, theta2, s, r, p, e, n_months, tanh):
    """The month loop, written once (hot path); returns (S, R, monthly flows Q).

    With ``math.tanh`` it is the scalar loop of ``step`` and ``month_loop``
    without a compiled loop, on Python floats with ``p`` and ``e`` as lists
    (numpy scalars make every operation several times slower); with ``np.tanh``
    it runs ``simulate_batch`` elementwise across parameter pairs.  It checks
    nothing: the divisions rely on theta1 > 0, which ``_check_parameters``
    keeps at every entry point and calibration's prior box on the bound loop.
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

    Built on first use into ``__pycache__`` under the sha256 of source and command, via ``os.replace``, with the
    DRAM block where it links and loads; ``bind.sampler`` is the block if it gives the Python sampler's bytes.
    Once one loads, every other ``_gr2m.*.so`` there, which neither of this source's two commands names, is deleted.
    """
    import contextlib, ctypes, hashlib, shlex, shutil, sysconfig  # on first use only: ``import ensflow`` stays as cheap

    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")  # the compiler Python was built with, else cc
    command = [*(cc if shutil.which(cc[0]) else ["cc"]), *KERNEL_FLAGS]
    blas = map(str, NUMPY_BLAS.parent.glob(NUMPY_BLAS.name))  # none found: the library does not load
    builds = {}  # library -> the extra arguments that build it, with the sampler first
    for extra in (["-DENSFLOW_SAMPLER", f"-I{np.get_include()}", str(NUMPY_RANDOM), *blas, "-lm"], ["-lm"]):
        key = hashlib.sha256(KERNEL_SOURCE.read_bytes() + " ".join(command + extra).encode()).hexdigest()[:16]
        builds[KERNEL_SOURCE.parent / "__pycache__" / f"_gr2m.{key}.so"] = extra
    for library, extra in builds.items():
        try:
            if not library.exists():
                library.parent.mkdir(exist_ok=True)
                built = f"{library}.{os.getpid()}"
                subprocess.run([*command, "-o", built, str(KERNEL_SOURCE), *extra], check=True, capture_output=True)
                os.replace(built, library)
            lib = ctypes.CDLL(str(library))
            break
        except (OSError, subprocess.SubprocessError):
            pass
    else:
        return None
    for stale in set(library.parent.glob("_gr2m.*.so")) - builds.keys():  # built from another source or command
        with contextlib.suppress(OSError):  # deleted by another process, or in a directory this one may not write
            stale.unlink()
    doubles, pointer, long = ctypes.POINTER(ctypes.c_double), ctypes.c_void_p, ctypes.c_long
    run, sampler = lib.gr2m_run, getattr(lib, "dram_block", None)
    run.argtypes, run.restype = [ctypes.c_double] * 2 + [doubles] * 2 + [long] * 2 + [doubles], None
    if sampler is not None:  # the month loop's arguments, then calibrate's, then one block's
        sampler.argtypes = [*run.argtypes[2:], *[pointer] * 12, long, long]
    buffer = ctypes.c_double.from_buffer  # the cheapest pointer to an array's data; needs a writable one

    def bind(p, e, warmup, n_keep):
        p, e, flows = np.ascontiguousarray(p, dtype=float), np.ascontiguousarray(e, dtype=float), np.empty(n_keep)
        if not (p.flags.writeable and e.flags.writeable):
            p, e = p.copy(), e.copy()
        pointers = (buffer(p), buffer(e), warmup, n_keep, buffer(flows))  # each keeps its array alive

        def loop(theta1, theta2):
            run(theta1, theta2, *pointers)
            return flows

        if bind.sampler is not None:  # calibrate binds the rest of the objective: observed months and box
            loop.chain_block = functools.partial(bind.sampler, *pointers)
        return loop

    # dry months, a huge one and a spread on a grid of the box: catches pow folded to a cube or cube root, FMAs
    # and other starting stores
    p, e = [0.0, 1e4, *(53 * t % 97 * 3.0 for t in range(46))], [53 * t % 23 * 4.0 for t in range(48)]
    bind.sampler = sampler
    loop = bind(p, e, 2, 46)
    for theta1, theta2 in [(a, b) for a in (1.0, 300.0, 1500.0, 3000.0) for b in (0.2, 1.0, 5.0)]:
        expected = np.array(_run(theta1, theta2, 0.5 * theta1, DEFAULT_ROUTING_INIT_MM, p, e, 48, math.tanh)[2][2:])
        if loop(theta1, theta2).tobytes() != expected.tobytes():
            return None
    if sampler is not None:  # observed: the flows at (3000, 5) with errors, so the chain keeps near the box's edges
        from .calibrate import sampler_matches  # the Python sampler is the oracle (calibrate imports this module)

        bind.sampler = sampler if sampler_matches(loop, expected * (1.0 + np.arange(46) % 7 * 0.1)) else None
    return bind


def step(theta1, theta2, soil, routing, precipitation, potential_evaporation) -> tuple[float, float, float]:
    """Advance the model one month from stores ``soil`` and ``routing``; returns (soil, routing, flow Q), all mm.

    Inputs must be finite and non-negative and the incoming stores must
    satisfy 0 <= soil <= theta1 and routing >= 0.  The update keeps those
    bounds: the tanh exchanges map the soil store back into [0, theta1] and
    the outflow never exceeds the routing store content.
    """
    _check_parameters(theta1, theta2)
    p, e = _forcing((precipitation,), (potential_evaporation,), 0, 1)
    if not (math.isfinite(soil) and 0.0 <= soil <= theta1):
        raise ValueError(f"soil store {soil} outside [0, {theta1}]")
    if not (math.isfinite(routing) and routing >= 0.0):
        raise ValueError(f"routing store must be >= 0, got {routing}")
    soil, routing, (flow,) = _run(theta1, theta2, soil, routing, p.tolist(), e.tolist(), 1, math.tanh)
    return soil, routing, flow


def month_loop(precipitation, potential_evaporation, warmup: int, n_keep: int):
    """The month loop bound to one forcing: ``loop(theta1, theta2)`` gives the kept flows from the default stores.

    It runs ``warmup + n_keep`` months and keeps the flows after warm-up; the month counts and the forcing
    are checked once, here, and the parameters not at all (calibration's prior box keeps them in the domain).
    The compiled loop binds the forcing with one output array that every call overwrites; the Python loop
    takes it as lists of floats.
    """
    p, e = _forcing(precipitation, potential_evaporation, warmup, n_keep)
    bind = load_kernel()
    if bind is not None:
        return bind(p, e, warmup, n_keep)
    n_months = warmup + n_keep
    p, e = p[:n_months].tolist(), e[:n_months].tolist()
    return lambda theta1, theta2: np.array(
        _run(theta1, theta2, 0.5 * theta1, DEFAULT_ROUTING_INIT_MM, p, e, n_months, math.tanh)[2][warmup:]
    )


def simulate_flow(
    theta1: float, theta2: float, precipitation, potential_evaporation, warmup: int, n_keep: int
) -> np.ndarray:
    """The flows after warm-up of ``warmup + n_keep`` months from the default stores: a new ``month_loop``'s."""
    _check_parameters(theta1, theta2)
    return month_loop(precipitation, potential_evaporation, warmup, n_keep)(float(theta1), float(theta2))


def simulate_batch(theta1, theta2, precipitation, potential_evaporation, warmup: int, n_keep: int) -> np.ndarray:
    """The flows after warm-up of ``warmup + n_keep`` months for many pairs at once: row i is pair i's.

    Vectorised across parameter pairs, one month at a time, from the default stores; the output has shape
    (n_pairs, n_keep).
    """
    t1 = np.atleast_1d(np.asarray(theta1, dtype=float))
    t2 = np.atleast_1d(np.asarray(theta2, dtype=float))
    if t1.shape != t2.shape or t1.ndim != 1:
        raise ValueError("theta1 and theta2 must be 1-d arrays of equal length")
    _check_parameters(t1, t2)
    p, e = _forcing(precipitation, potential_evaporation, warmup, n_keep)
    r = np.full(t1.shape, DEFAULT_ROUTING_INIT_MM)
    _, _, flows = _run(t1, t2, 0.5 * t1, r, p, e, warmup + n_keep, np.tanh)
    return np.stack(flows[warmup:], axis=1)
