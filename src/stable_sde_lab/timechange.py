"""Weak-solution construction by time change.

Given a driver path W on [0, T] and an admissible phi, the additive clock
B(u) = integral of phi(x + W_s)**(-alpha) ds is exact on each constancy
interval of W, so it is piecewise linear with no quadrature error.  The
solution is X_t = x + W at the right inverse of B, defined on [0, B(T));
beyond B(T) the finite simulation cannot speak and a sentinel is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driver import JumpPath
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
    "clock_roundtrip_residual",
]

# Finite-horizon stand-in for an infinite clock: inversion past B(T) has no
# answer inside the simulated window.
BEYOND_HORIZON = math.inf


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
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("clock needs at least one segment")
        if sl.shape != (bp.size - 1,) or va.shape != bp.shape:
            raise ValueError("inconsistent clock column lengths")
        if bp[0] != 0.0 or np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must start at 0 and strictly increase")
        if va[0] != 0.0:
            raise ValueError("clock must start at 0")
        if np.any(sl <= 0.0) or not np.all(np.isfinite(sl)):
            raise ValueError("clock slopes must be positive and finite")
        recon = va[:-1] + sl * np.diff(bp)
        err = np.abs(recon - va[1:])
        if np.any(err > 1e-12 * np.maximum(np.abs(va[1:]), 1e-300)):
            raise ValueError("clock values do not match slopes within replay tolerance")

    @property
    def horizon(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def total(self) -> float:
        return float(self.values[-1])

    def write_csv(self, path) -> None:
        """Header ``u,B``, 17 significant digits."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("u,B\n")
            for u, b in zip(self.breakpoints, self.values):
                fh.write(f"{u:.17g},{b:.17g}\n")


def _segment_clock(breakpoints: np.ndarray, slopes: np.ndarray) -> Clock:
    values = np.concatenate(([0.0], np.cumsum(slopes * np.diff(breakpoints))))
    return Clock(breakpoints=breakpoints, slopes=slopes, values=values)


def _breakpoints(times: np.ndarray, horizon: float) -> np.ndarray:
    """0, the event times, and the horizon unless the last event sits on it."""
    if times.size and times[-1] == horizon:
        return np.concatenate(([0.0], times))
    return np.concatenate(([0.0], times, [horizon]))


def build_clock(phi: MonotonePhi, x: float, driver: JumpPath, alpha: float) -> Clock:
    """Clock on the driver timeline with integrand phi(x + W_s)**(-alpha).

    The integrand is constant between driver events, so the integral is a
    finite sum of slope * interval-length terms.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not phi.assumption_ok:
        raise ValueError(
            f"{phi.describe()} violates the admissibility assumptions; "
            "the clock would not be strictly increasing"
        )
    if not (driver.cutoff > 0.0):
        raise ValueError("clock construction requires a finite-activity driver")
    breakpoints = _breakpoints(driver.times, driver.horizon)
    # State on [u_i, u_{i+1}) is the cadlag value at u_i.
    states = x + np.concatenate(([0.0], driver.cumulative_sizes))[: breakpoints.size - 1]
    slopes = phi.eval_pow(states, -alpha)
    return _segment_clock(breakpoints, np.atleast_1d(slopes))


def build_forward_clock(phi: MonotonePhi, solution: SolutionPath, alpha: float) -> Clock:
    """Clock on the solution timeline with integrand phi(X_s)**(+alpha)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    breakpoints = _breakpoints(solution.times, solution.horizon)
    states = solution.states[: breakpoints.size - 1]
    slopes = phi.eval_pow(states, alpha)
    return _segment_clock(breakpoints, np.atleast_1d(slopes))


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


def solve_time_change(
    phi: MonotonePhi, x: float, driver: JumpPath, alpha: float
) -> tuple[SolutionPath, Clock]:
    """Weak solution X_t = x + W at the inverted clock, on [0, B(T)).

    Driver jumps at u_i map to solution jumps at B(u_i); between them the
    state is constant, so the solution path is returned together with the
    clock that defines its (finite) horizon.
    """
    clock = build_clock(phi, x, driver, alpha)
    n = len(driver)
    cum = driver.cumulative_sizes
    jump_times = clock.values[1 : n + 1]
    pre = x + np.concatenate(([0.0], cum[:-1])) if n else np.empty(0)
    post = x + cum if n else np.empty(0)
    solution = SolutionPath(
        x0=float(x),
        horizon=clock.total,
        times=jump_times.copy(),
        pre_values=pre,
        post_values=post,
    )
    return solution, clock


def clock_roundtrip_residual(
    phi: MonotonePhi, x: float, driver: JumpPath, alpha: float
) -> float:
    """Max inversion residual between the clock and its forward counterpart.

    The forward clock is rebuilt from the solved path with integrand
    phi(X)**(+alpha); composing the two must return every event time, which
    pins exactness of the piecewise-linear arithmetic.
    """
    solution, clock = solve_time_change(phi, x, driver, alpha)
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
