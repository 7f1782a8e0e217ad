"""Weak-solution construction by time change.

Given a driver path W on [0, T] and an admissible phi, the additive clock
B(u) = integral of phi(x + W_s)**(-alpha) ds is exact on each constancy
interval of W, so it is piecewise linear with no quadrature error.  The
solution is X_t = x + W at the right inverse of B, defined on [0, B(T));
beyond B(T) the finite simulation cannot speak and a sentinel is returned.

``solve_time_change`` is the kernel: one driver's arrays in, the states and
the checked clock out, with no object built.  It builds the clock from
checked event times as a running sum, so of Clock's checks it makes only the
two that its construction leaves open: every slope positive, and the total
finite.  ``Clock(*arrays[1:])`` on its arrays makes every clock check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driver import _check_jumps
from .phi import MonotonePhi

__all__ = [
    "Clock",
    "BEYOND_HORIZON",
    "invert_clock",
    "solve_time_change",
]

# Finite-horizon stand-in for an infinite clock: inversion past B(T) has no
# answer inside the simulated window.
BEYOND_HORIZON = math.inf


def _check_clock(bp: np.ndarray, sl: np.ndarray, va: np.ndarray) -> None:
    """The checks of a Clock's breakpoints, slopes and values, as float arrays.

    Clock checks its clock here, and the time-change kernel a clock that
    fails its own two checks, for the message that names what is broken.
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


def _clock(
    phi: MonotonePhi, states: np.ndarray, times: np.ndarray, horizon: float, power: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breakpoints, slopes phi(state)**power and values of the clock over states.

    The breakpoints are 0, the event times, and the horizon unless the last
    event sits on it.  The state on [u_i, u_{i+1}) is the cadlag value at u_i,
    and the integrand is constant there, so the clock is a finite sum of
    slope * length terms.  The values buffer holds the lengths, then each
    slope * length, then their running sum.  Running sums here are
    np.add.accumulate, the sum that ndarray.cumsum makes, without the
    per-call overhead of cumsum(out=), which exceeds the sum itself on
    arrays this short.
    """
    n = times.size
    segments = n if n and times[-1] == horizon else n + 1
    breakpoints = np.empty(segments + 1)
    breakpoints[0] = 0.0
    breakpoints[1 : n + 1] = times
    if segments > n:
        breakpoints[-1] = horizon
    slopes = phi.eval(states[:segments]) ** power
    values = np.empty(segments + 1)
    values[0] = 0.0
    terms = np.subtract(breakpoints[1:], breakpoints[:-1], out=values[1:])
    np.multiply(slopes, terms, out=terms)
    np.add.accumulate(terms, out=terms)
    return breakpoints, slopes, values


def _time_change_arrays(phi, x, times, sizes, horizon, cutoff, alpha):
    """solve_time_change up to its checks of the clock."""
    times, sizes = _check_jumps(horizon, times, sizes, cutoff)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    phi.require_admissible("the clock would not be strictly increasing")
    if not (cutoff > 0.0):
        raise ValueError("clock construction requires a finite-activity driver")
    # x + W after each event is x plus the running sum, as x + cumsum(sizes)
    # rounds; the state at 0 is x itself, so x = -0.0 stays -0.0 there.
    states = np.empty(sizes.size + 1)
    np.add.accumulate(sizes, out=states[1:])
    states[1:] += x
    states[0] = x
    return (states, *_clock(phi, states, times, horizon, -alpha))


def solve_time_change(
    phi: MonotonePhi,
    x: float,
    times: np.ndarray,
    sizes: np.ndarray,
    horizon: float,
    cutoff: float,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weak solution X_t = x + W at the inverted clock, on one driver's arrays.

    The driver has jumps ``sizes`` at ``times`` on [0, horizon], truncated at
    ``cutoff``; they are checked as JumpPath checks them.  Returns
    ``states``, x + W at time 0 and after each of the n events, then the
    clock's ``breakpoints`` (0, each event and the horizon, unless the last
    event sits on it), ``slopes`` and ``values``.  The solution jumps at the
    clock values of the events, so X at t < values[-1] is
    ``states[values[1:n+1].searchsorted(t, "right")]``.

    The clock passes Clock's checks if every slope is positive and the total
    is finite, which is all this call tests: the breakpoints are checked
    event times, so they start at 0 and strictly increase, and each value is
    the one before it plus slope * length, exactly, as a running sum.  A
    finite total then makes every value, and so every slope, finite.  A clock
    that fails the test raises FloatingPointError where phi is not finite, as
    solve_truncated does, or where every slope is positive and finite, so that
    the running sum overflowed; else it goes to Clock's checks, which raise
    the message that Clock would.
    """
    arrays = _time_change_arrays(phi, x, times, sizes, horizon, cutoff, alpha)
    states, breakpoints, slopes, values = arrays
    if not (slopes.min() > 0.0 and values[-1] < math.inf):
        finite = np.isfinite(phi.eval(states[: slopes.size]))
        if not finite.all():
            k = int(finite.argmin())
            state = states.item(k)
            raise FloatingPointError(f"phi evaluated non-finite at state {state!r} (event {k})")
        if slopes.min() > 0.0 and slopes.max() < math.inf:
            raise FloatingPointError(
                f"time-change clock overflowed to inf, with finite slopes up to "
                f"{float(slopes.max())!r}"
            )
        _check_clock(breakpoints, slopes, values)
    return arrays


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
