"""Instruments that only the tests use: closed forms and exact path comparisons.

None of the experiments runs these.  They check the lab's kernels from
outside: the Laplace exponent of the driver, the clock's forward
counterpart and its evaluation, and the exact sup-distance of two
piecewise-constant solutions.  pytest puts this directory on ``sys.path``,
so a test module imports them with ``from references import ...``.
Two adapters read the time-change kernel on a ``JumpPath``: solve_path
and x_at.
"""

import math

import numpy as np

from stable_sde_lab import Clock, JumpPath, MonotonePhi, SolutionPath, StableParams
from stable_sde_lab import solve_time_change, timechange


def solve_path(phi: MonotonePhi, x: float, path: JumpPath, alpha: float) -> tuple:
    """solve_time_change on a JumpPath's arrays: states, breakpoints, slopes, values."""
    return solve_time_change(phi, x, path.times, path.sizes, path.horizon, path.cutoff, alpha)


def x_at(states: np.ndarray, values: np.ndarray, t: float) -> float:
    """X at t < values[-1] from solve_time_change's states and clock values."""
    return states[values[1 : states.size].searchsorted(t, "right")]


def laplace_exponent(params: StableParams, lam: float) -> float:
    """psi(lam) = c * gamma(1-alpha) * lam**alpha / alpha; lam**alpha by default."""
    if not (lam > 0.0):
        raise ValueError(f"lambda must be positive, got {lam}")
    return params.c * math.gamma(1.0 - params.alpha) * lam**params.alpha / params.alpha


def sup_gap(a: SolutionPath, b: SolutionPath) -> float:
    """Exact sup over [0, min horizon] of |a - b| for piecewise-constant paths."""
    ts = np.union1d(a.times, b.times)
    ts = ts[ts <= min(a.horizon, b.horizon)]
    ts = np.concatenate(([0.0], ts))
    return float(np.max(np.abs(a.values_at(ts) - b.values_at(ts))))


def build_forward_clock(
    phi: MonotonePhi, states: np.ndarray, times: np.ndarray, horizon: float, alpha: float
) -> Clock:
    """Clock on the solution timeline with integrand phi(X_s)**(+alpha).

    The solution is ``states[i]`` from ``times[i-1]`` (0 for i = 0) up to
    ``times[i]``, on [0, horizon]: for solve_time_change's arrays, the times
    are ``values[1:n+1]`` and the horizon is ``values[-1]``.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return Clock(*timechange._clock(phi, states, times, horizon, alpha))


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
    arrays = solve_path(phi, x, driver, alpha)
    states, values = arrays[0], arrays[3]
    clock = Clock(*arrays[1:])
    forward = build_forward_clock(phi, states, values[1 : states.size], clock.total, alpha)
    # Forward breakpoints coincide with the clock's values, so the forward
    # values must reproduce the driver coordinates u_i...
    residual = float(np.max(np.abs(forward.values - clock.breakpoints)))
    # ...and pushing those recovered coordinates back through the clock must
    # land on the solution coordinates t_i.
    for u_recovered, t_expected in zip(forward.values, forward.breakpoints):
        t = clock_eval(clock, min(u_recovered, clock.horizon))
        residual = max(residual, abs(t - t_expected))
    return residual
