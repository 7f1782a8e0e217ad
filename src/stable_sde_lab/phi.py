"""Coefficient-function registry.

Only functions that are continuous, non-decreasing and positive by
construction are admitted (continuity of an arbitrary black-box callable is
not machine-checkable), plus the deliberately degenerate power family
x**beta, which vanishes at 0 and is the seed of the non-uniqueness lab.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MonotonePhi",
    "ConstantPhi",
    "ShiftedArctanPhi",
    "SoftRampPhi",
    "PiecewiseLinearPhi",
    "PowerPhi",
    "parse_phi",
]


class MonotonePhi:
    """Base for registered coefficient functions."""

    # Continuous, non-decreasing and positive on all of R: the assumptions
    # under which the truncation and time-change constructions apply.
    assumption_ok: bool = True

    def require_admissible(self, consequence: str) -> None:
        """Raise ValueError unless assumption_ok; consequence says what would break."""
        if not self.assumption_ok:
            raise ValueError(
                f"{self.describe()} violates the admissibility assumptions; {consequence}"
            )

    def eval(self, x):
        """phi(x): a float for a scalar x, else an array of x's shape."""
        out = self._formula(np.asarray(x, dtype=float))
        return float(out) if out.ndim == 0 else out

    def _formula(self, x: np.ndarray):
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<phi {self.describe()}>"


@dataclass(frozen=True, repr=False)
class ConstantPhi(MonotonePhi):
    """phi(x) = a with a > 0."""

    a: float

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"constant level must be positive, got {self.a}")

    def _formula(self, x):
        return np.full_like(x, self.a)

    def describe(self) -> str:
        return f"constant({self.a:.17g})"


@dataclass(frozen=True, repr=False)
class _OffsetSlopePhi(MonotonePhi):
    """phi(x) = a + b*ramp(x) with a finite offset a > 0 and slope b >= 0."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"offset a must be positive, got {self.a}")
        if not (self.b >= 0.0 and math.isfinite(self.b)):
            raise ValueError(f"slope b must be >= 0, got {self.b}")


class ShiftedArctanPhi(_OffsetSlopePhi):
    """phi(x) = a + b*(arctan(x) + pi/2); bounded between a and a + b*pi."""

    def _formula(self, x):
        return self.a + self.b * (np.arctan(x) + np.pi / 2.0)

    def describe(self) -> str:
        return f"shifted-arctan({self.a:.17g},{self.b:.17g})"


class SoftRampPhi(_OffsetSlopePhi):
    """phi(x) = a + b*max(x, 0); flat at a on the negative axis."""

    def _formula(self, x):
        return self.a + self.b * np.maximum(x, 0.0)

    def describe(self) -> str:
        return f"soft-ramp({self.a:.17g},{self.b:.17g})"


@dataclass(frozen=True, repr=False)
class PiecewiseLinearPhi(MonotonePhi):
    """Linear interpolation through knots, constant beyond the outer knots.

    Knot abscissae must strictly increase and values must be non-decreasing
    with a positive first value, so the function stays positive and monotone
    on all of R.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self) -> None:
        xs, ys = self.xs, self.ys
        if len(xs) != len(ys) or len(xs) < 1:
            raise ValueError("need matching, non-empty knot abscissae and values")
        if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
            raise ValueError("knot abscissae must be strictly increasing")
        if any(y2 < y1 for y1, y2 in zip(ys, ys[1:])):
            raise ValueError("knot values must be non-decreasing")
        if not (ys[0] > 0.0):
            raise ValueError("knot values must have a positive infimum")
        if not all(math.isfinite(v) for v in (*xs, *ys)):
            raise ValueError("knots must be finite")
        # Converted once: eval runs once per event rank in the ladder kernel.
        object.__setattr__(self, "_xs", np.array(xs, dtype=float))
        object.__setattr__(self, "_ys", np.array(ys, dtype=float))

    def _formula(self, x):
        return np.interp(x, self._xs, self._ys)  # np.interp clamps at the outer knots

    def describe(self) -> str:
        knots = ",".join(f"{x:.17g}:{y:.17g}" for x, y in zip(self.xs, self.ys))
        return f"piecewise-linear({knots})"


@dataclass(frozen=True, repr=False)
class PowerPhi(MonotonePhi):
    """phi(x) = x**beta on x >= 0, beta in (0, 1).

    Vanishes at 0, so positivity fails and the function is admitted only as
    the flagged counterexample family; evaluation rejects negative x.
    """

    beta: float
    assumption_ok = False  # vanishes at 0, so positivity fails

    def __post_init__(self) -> None:
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"power exponent must lie in (0, 1), got {self.beta}")

    def _formula(self, x):
        if np.any(x < 0.0):
            raise ValueError("power family is defined on x >= 0 only")
        return x**self.beta

    def describe(self) -> str:
        return f"power({self.beta:.17g})"


_PHI_PATTERN = re.compile(r"^\s*([a-z-]+)\s*\(([^)]*)\)\s*$")


def parse_phi(spec: str) -> MonotonePhi:
    """Parse a config string such as ``shifted-arctan(2,0.6366)`` or ``power(0.5)``.

    Piecewise-linear knots are colon pairs: ``piecewise-linear(0:1,1:2,3:2.5)``.
    """
    m = _PHI_PATTERN.match(spec)
    if not m:
        raise ValueError(f"cannot parse phi spec {spec!r}")
    family, raw_args = m.group(1), m.group(2)
    args = [a.strip() for a in raw_args.split(",")] if raw_args.strip() else []
    if family == "constant":
        (a,) = map(float, args)
        return ConstantPhi(a)
    if family == "shifted-arctan":
        a, b = map(float, args)
        return ShiftedArctanPhi(a, b)
    if family == "soft-ramp":
        a, b = map(float, args)
        return SoftRampPhi(a, b)
    if family == "power":
        (beta,) = map(float, args)
        return PowerPhi(beta)
    if family == "piecewise-linear":
        xs, ys = [], []
        for pair in args:
            xs_str, ys_str = pair.split(":")
            xs.append(float(xs_str))
            ys.append(float(ys_str))
        return PiecewiseLinearPhi(tuple(xs), tuple(ys))
    raise ValueError(f"unknown phi family {family!r}")
