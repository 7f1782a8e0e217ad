"""Weak-solution construction by time change.

Given a driver path W on [0, T] and an admissible phi, the additive clock
B(u) = integral of phi(x + W_s)**(-alpha) ds is exact on each constancy
interval of W, so it is piecewise linear with no quadrature error.  The
solution is X_t = x + W at the right inverse of B, defined on [0, B(T));
beyond B(T) the finite simulation cannot speak and a sentinel is returned.

``solve_time_change`` is the kernel: one driver's arrays in, the states and
clock values out, with no object built.  ``time_change_path`` wraps it for a
JumpPath and returns a SolutionPath and its Clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driver import JumpPath, _check_jumps
from .phi import MonotonePhi
from .truncation import SolutionPath

__all__ = [
    "Clock",
    "BEYOND_HORIZON",
    "build_clock",
    "build_forward_clock",
    "invert_clock",
    "clock_eval",
    "solve_time_change",
    "time_change_path",
    "clock_roundtrip_residual",
]

# Finite-horizon stand-in for an infinite clock: inversion past B(T) has no
# answer inside the simulated window.
BEYOND_HORIZON = math.inf


def _check_clock(bp: np.ndarray, sl: np.ndarray, va: np.ndarray) -> None:
    """The checks of a Clock's breakpoints, slopes and values, as float arrays.

    Clock and the time-change kernel both check their clocks here.
    """
    if bp.ndim != 1 or bp.size < 2:
        raise ValueError("clock needs at least one segment")
    if sl.shape != (bp.size - 1,) or va.shape != bp.shape:
        raise ValueError("inconsistent clock column lengths")
    # Minima and maxima, not element-wise tests: a clock is checked once per
    # replicate, and a NaN entry makes the min or max NaN, which fails the
    # test as it fails element-wise.  A difference of two floats is > 0
    # exactly when the first is larger.
    lengths = bp[1:] - bp[:-1]
    if bp[0] != 0.0 or not lengths.min() > 0.0:
        raise ValueError("breakpoints must start at 0 and strictly increase")
    if va[0] != 0.0:
        raise ValueError("clock must start at 0")
    if not (sl.min() > 0.0 and sl.max() < math.inf):
        raise ValueError("clock slopes must be positive and finite")
    # Over the condition that must hold, so a NaN value fails it too.
    err = np.abs(va[:-1] + sl * lengths - va[1:])
    if not (err <= 1e-12 * np.maximum(np.abs(va[1:]), 1e-300)).all():
        raise ValueError("clock values do not match slopes within replay tolerance")


@dataclass(frozen=True)
class Clock:
    """Strictly increasing, continuous, piecewise-linear additive functional."""

    breakpoints: np.ndarray
    slopes: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=float)
        sl = np.asarray(self.slopes, dtype=float)
        va = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)
        object.__setattr__(self, "values", va)
        _check_clock(bp, sl, va)

    @property
    def horizon(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def total(self) -> float:
        return float(self.values[-1])


def _breakpoints(times: np.ndarray, horizon: float) -> np.ndarray:
    """0, the event times, and the horizon unless the last event sits on it."""
    if times.size and times[-1] == horizon:
        return np.concatenate(([0.0], times))
    return np.concatenate(([0.0], times, [horizon]))


def _clock(
    phi: MonotonePhi, states: np.ndarray, breakpoints: np.ndarray, power: float
) -> tuple[np.ndarray, np.ndarray]:
    """Slopes phi(state)**power and the clock's values at the breakpoints.

    The state on [u_i, u_{i+1}) is the cadlag value at u_i, and the integrand
    is constant there, so the clock is a finite sum of slope * length terms.
    """
    slopes = phi.eval(states[: breakpoints.size - 1]) ** power
    values = np.empty(breakpoints.size)
    values[0] = 0.0
    (slopes * (breakpoints[1:] - breakpoints[:-1])).cumsum(out=values[1:])
    return slopes, values


def solve_time_change(
    phi: MonotonePhi,
    x: float,
    times: np.ndarray,
    sizes: np.ndarray,
    horizon: float,
    cutoff: float,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Weak solution X_t = x + W at the inverted clock, on one driver's arrays.

    The driver has jumps ``sizes`` at ``times`` on [0, horizon], truncated at
    ``cutoff``; they are checked as JumpPath checks them, and the clock as
    Clock checks it.  Returns ``states``, x + W at time 0 and after each of
    the n events, and ``values``, the clock B at 0, at each event and at the
    horizon (one entry fewer when the last event sits on it).  The solution
    jumps at the clock values of the events, so X at t < values[-1] is
    ``states[values[1:n+1].searchsorted(t, "right")]``.
    """
    times, sizes = _check_jumps(horizon, times, sizes, cutoff)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not phi.assumption_ok:
        raise ValueError(
            f"{phi.describe()} violates the admissibility assumptions; "
            "the clock would not be strictly increasing"
        )
    if not (cutoff > 0.0):
        raise ValueError("clock construction requires a finite-activity driver")
    # x + W after each event is x plus the running sum, as x + cumsum(sizes)
    # rounds; the state at 0 is x itself, so x = -0.0 stays -0.0 there.
    states = np.empty(sizes.size + 1)
    sizes.cumsum(out=states[1:])
    states[1:] += x
    states[0] = x
    breakpoints = _breakpoints(times, horizon)
    slopes, values = _clock(phi, states, breakpoints, -alpha)
    _check_clock(breakpoints, slopes, values)
    return states, values


def time_change_path(
    phi: MonotonePhi, x: float, driver: JumpPath, alpha: float
) -> tuple[SolutionPath, Clock]:
    """solve_time_change on a JumpPath: the solution on [0, B(T)) and its clock.

    Driver jumps at u_i map to solution jumps at B(u_i); between them the
    state is constant, so the solution path is returned together with the
    clock that defines its (finite) horizon.
    """
    times, horizon = driver.times, driver.horizon
    states, values = solve_time_change(
        phi, x, times, driver.sizes, horizon, driver.cutoff, alpha
    )
    breakpoints = _breakpoints(times, horizon)
    slopes, _ = _clock(phi, states, breakpoints, -alpha)  # the kernel's slopes
    clock = Clock(breakpoints=breakpoints, slopes=slopes, values=values)
    n = len(driver)
    solution = SolutionPath(
        x0=float(x),
        horizon=clock.total,
        times=values[1 : n + 1].copy(),
        pre_values=states[:-1],
        post_values=states[1:],
    )
    return solution, clock


def build_clock(phi: MonotonePhi, x: float, driver: JumpPath, alpha: float) -> Clock:
    """Clock on the driver timeline with integrand phi(x + W_s)**(-alpha)."""
    return time_change_path(phi, x, driver, alpha)[1]


def build_forward_clock(phi: MonotonePhi, solution: SolutionPath, alpha: float) -> Clock:
    """Clock on the solution timeline with integrand phi(X_s)**(+alpha)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    breakpoints = _breakpoints(solution.times, solution.horizon)
    slopes, values = _clock(phi, solution.states, breakpoints, alpha)
    return Clock(breakpoints=breakpoints, slopes=slopes, values=values)


def invert_clock(clock: Clock, t: float) -> float:
    """Right inverse inf{s >= 0 : B(s) > t}, exact on each linear segment.

    Returns BEYOND_HORIZON for t >= B(horizon): the simulated window cannot
    produce the inverse there.  At interior breakpoint values the breakpoint
    itself is returned bit-exactly.
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    values = clock.values
    if t >= values[-1]:
        return BEYOND_HORIZON
    i = int(np.searchsorted(values, t, side="right")) - 1
    if values[i] == t:
        return float(clock.breakpoints[i])
    return float(clock.breakpoints[i] + (t - values[i]) / clock.slopes[i])


def clock_eval(clock: Clock, s: float) -> float:
    """Piecewise-linear evaluation B(s) for s in [0, horizon]."""
    if s < 0.0 or s > clock.horizon:
        raise ValueError(f"s={s} outside [0, {clock.horizon}]")
    if s >= clock.breakpoints[-1]:
        return clock.total
    i = int(np.searchsorted(clock.breakpoints, s, side="right")) - 1
    return float(clock.values[i] + clock.slopes[i] * (s - clock.breakpoints[i]))


def clock_roundtrip_residual(
    phi: MonotonePhi, x: float, driver: JumpPath, alpha: float
) -> float:
    """Max inversion residual between the clock and its forward counterpart.

    The forward clock is rebuilt from the solved path with integrand
    phi(X)**(+alpha); composing the two must return every event time, which
    pins exactness of the piecewise-linear arithmetic.
    """
    solution, clock = time_change_path(phi, x, driver, alpha)
    forward = build_forward_clock(phi, solution, alpha)
    # Forward breakpoints coincide with the clock's values, so the forward
    # values must reproduce the driver coordinates u_i...
    residual = float(np.max(np.abs(forward.values - clock.breakpoints)))
    # ...and pushing those recovered coordinates back through the clock must
    # land on the solution coordinates t_i.
    for u_recovered, t_expected in zip(forward.values, forward.breakpoints):
        t = clock_eval(clock, min(u_recovered, clock.horizon))
        residual = max(residual, abs(t - t_expected))
    return residual
