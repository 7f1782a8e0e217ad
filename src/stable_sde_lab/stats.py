"""Distributional test engine: the two-sample Kolmogorov-Smirnov test."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KSReport",
    "ks_two_sample",
    "kolmogorov_sf",
]


@dataclass(frozen=True)
class KSReport:
    """Two-sample KS statistic with its asymptotic p-value."""

    statistic: float
    p_value: float
    n: int
    m: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.statistic <= 1.0):
            raise ValueError(f"statistic outside [0, 1]: {self.statistic}")
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p-value outside [0, 1]: {self.p_value}")


def kolmogorov_sf(x: float) -> float:
    """Survival function of the Kolmogorov distribution, Q(x) = 2*sum (-1)^{k-1} e^{-2k^2x^2}."""
    if x <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = math.exp(-2.0 * (k * x) ** 2)
        total += sign * term
        if term < 1e-18:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(x, y) -> KSReport:
    """Exact sup-distance between the ECDFs of samples x and y by a merged sweep.

    Each sample must be a non-empty, NaN-free 1-d array of reals.  Pooled
    duplicates are consumed in full before the gap is read, so ties across
    samples are handled correctly.  The p-value uses the asymptotic
    Kolmogorov law at effective size n*m/(n+m).
    """
    xs, ys = (np.asarray(values, dtype=float) for values in (x, y))
    for values in (xs, ys):
        if values.ndim != 1 or values.size == 0:
            raise ValueError("the KS test needs non-empty 1-d samples")
        if np.any(np.isnan(values)):
            raise ValueError("the KS test rejects NaN observations")
    xs, ys = np.sort(xs), np.sort(ys)
    n, m = xs.size, ys.size
    pooled = np.unique(np.concatenate([xs, ys]))
    fa = np.searchsorted(xs, pooled, side="right") / n
    fb = np.searchsorted(ys, pooled, side="right") / m
    d = float(np.max(np.abs(fa - fb)))
    en = math.sqrt(n * m / (n + m))
    return KSReport(statistic=d, p_value=kolmogorov_sf(en * d), n=n, m=m)

