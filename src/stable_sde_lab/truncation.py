"""Event-driven solver for dX = phi(X-) dZ with finite-activity drivers.

Between jumps of the truncated driver the state is constant, so the solve is
exact: each event applies X <- X + phi(X) * dZ.  Coupling across truncation
levels is realized by thinning one shared base path, which makes the
finer-dominates-coarser comparison an exact (tolerance-free) statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .driver import JumpPath, StableParams, sample_truncated_path, thin_path
from .phi import MonotonePhi

__all__ = [
    "SolutionPath",
    "Ladder",
    "solve_truncated",
    "solve_ladders",
    "build_ladder",
    "ladder_violations",
    "coupled_pair_distance",
    "sup_gap",
]

DEFAULT_OVERFLOW_GUARD = 1e300


@dataclass(frozen=True)
class SolutionPath:
    """Piecewise-constant solution: initial value plus an event log.

    Each event stores (time, pre-jump value, post-jump value); the post value
    is reconstructible as pre + phi(pre) * dz given the driving path.
    """

    x0: float
    horizon: float
    times: np.ndarray
    pre_values: np.ndarray
    post_values: np.ndarray
    guard_hits: int = 0
    _states: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        pre = np.asarray(self.pre_values, dtype=float)
        post = np.asarray(self.post_values, dtype=float)
        for name, arr in (("times", times), ("pre_values", pre), ("post_values", post)):
            object.__setattr__(self, name, arr)
        if not (times.shape == pre.shape == post.shape) or times.ndim != 1:
            raise ValueError("event columns must be 1-d arrays of equal length")
        if (times[1:] < times[:-1]).any():
            raise ValueError("event times must be ordered")
        object.__setattr__(self, "_states", np.concatenate(([self.x0], post)))

    def __len__(self) -> int:
        return int(self.times.size)

    def value_at(self, t: float) -> float:
        """Cadlag state at time t."""
        if t < 0.0 or t > self.horizon:
            raise ValueError(f"t={t} outside [0, {self.horizon}]")
        idx = int(np.searchsorted(self.times, t, side="right"))
        return float(self._states[idx])

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        idx = np.searchsorted(self.times, ts, side="right")
        return self._states[idx]

    @property
    def final(self) -> float:
        return float(self._states[-1])

    @property
    def states(self) -> np.ndarray:
        """x0 followed by the post-jump values: the state on each interval."""
        return self._states

    def write_csv(self, path) -> None:
        """Header ``t,x_pre,x_post``, 17 significant digits."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x_pre,x_post\n")
            for t, xp, xq in zip(self.times, self.pre_values, self.post_values):
                fh.write(f"{t:.17g},{xp:.17g},{xq:.17g}\n")


@dataclass(frozen=True)
class Ladder:
    """Solutions at a decreasing sequence of cutoffs, all thinned from one path."""

    cutoffs: tuple[float, ...]
    solutions: tuple[SolutionPath, ...]
    base: JumpPath

    def __post_init__(self) -> None:
        if len(self.cutoffs) != len(self.solutions) or not self.cutoffs:
            raise ValueError("ladder needs one solution per cutoff")
        if any(b >= a for a, b in zip(self.cutoffs, self.cutoffs[1:])):
            raise ValueError("ladder cutoffs must be strictly decreasing")
        if self.base.cutoff > min(self.cutoffs):
            raise ValueError("base path must be sampled at the finest cutoff")


def solve_truncated(
    phi: MonotonePhi,
    x0: float,
    driver: JumpPath,
    overflow_guard: float = DEFAULT_OVERFLOW_GUARD,
) -> SolutionPath:
    """Exact event-driven solve of dX = phi(X-) dZ along a truncated driver.

    Requires an admissible phi (positive families only; the power family
    belongs to the counterexample lab) and a finite-activity driver
    (cutoff > 0).  States above overflow_guard are clamped and counted
    instead of asserting non-explosion.
    """
    if not phi.assumption_ok:
        raise ValueError(
            f"{phi.describe()} violates the admissibility assumptions; "
            "degenerate coefficients are only accepted by the counterexample lab"
        )
    if not (driver.cutoff > 0.0):
        raise ValueError("solver requires a finite-activity (truncated) driver")
    n = len(driver)
    pre = np.empty(n)
    post = np.empty(n)
    guard_hits = 0
    x = float(x0)
    for i, dz in enumerate(driver.sizes.tolist()):
        pre[i] = x
        speed = float(phi.eval(x))
        if not math.isfinite(speed):
            raise FloatingPointError(
                f"phi evaluated non-finite at state {x!r} (event {i})"
            )
        x = x + speed * dz
        if x > overflow_guard:
            x = overflow_guard
            guard_hits += 1
        post[i] = x
    return SolutionPath(
        x0=float(x0),
        horizon=driver.horizon,
        times=driver.times.copy(),
        pre_values=pre,
        post_values=post,
        guard_hits=guard_hits,
    )


def solve_ladders(
    phi: MonotonePhi,
    x0: float,
    sizes: np.ndarray,
    offsets: np.ndarray,
    cutoffs: list[float] | tuple[float, ...],
    overflow_guard: float = DEFAULT_OVERFLOW_GUARD,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ladder level of a block of base paths, in one event loop.

    Path j's jump sizes, in time order, are ``sizes[offsets[j]:offsets[j+1]]``.
    The state of all paths at all levels is one ``(n_paths, n_levels)``
    array, advanced by event rank: at rank k each path with more than k
    jumps reads its k-th jump dz, and level l takes it where
    ``dz >= cutoffs[l]``, the thinning of ``thin_path``.  Each level applies
    the arithmetic of ``solve_truncated``, so the result equals
    ``build_ladder`` on the same paths bit for bit.

    Returns the final states ``(n, L)``, the overflow-guard hits ``(n, L)``
    and the ``ladder_violations`` count of each path ``(n,)``: after each
    rank, a level that took the jump and is below the next coarser level.
    A coarser level's events are a subset of the finer one's, so these are
    exactly the comparisons at the union of event times.

    A non-finite phi where a level takes a jump raises FloatingPointError
    with the path's index in its ``path`` attribute.
    """
    if not phi.assumption_ok:
        raise ValueError(
            f"{phi.describe()} violates the admissibility assumptions; "
            "degenerate coefficients are only accepted by the counterexample lab"
        )
    cuts = np.asarray(cutoffs, dtype=float)
    if cuts.ndim != 1 or not cuts.size or not np.all(cuts > 0.0):
        raise ValueError("cutoffs must be positive")
    if np.any(np.diff(cuts) >= 0.0):
        raise ValueError("cutoffs must be strictly decreasing")
    sizes = np.asarray(sizes, dtype=float)
    offsets = np.asarray(offsets, dtype=np.intp)
    lengths = np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != sizes.size or np.any(lengths < 0):
        raise ValueError("offsets must rise from 0 to len(sizes)")
    if not np.all(sizes > 0.0):  # NaN included: thinning would drop it silently
        raise ValueError("jump sizes must be strictly positive")
    n, levels = lengths.size, cuts.size

    # Longest paths first, so the paths alive at rank k are a prefix.
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    first = offsets[:-1][order]
    max_len = int(lengths[0]) if n else 0
    alive = n - np.searchsorted(lengths[::-1], np.arange(max_len), side="right")

    x = np.full((n, levels), float(x0))
    guard_hits = np.zeros((n, levels), dtype=np.int64)
    below = np.zeros((n, levels - 1), dtype=np.int64)
    with np.errstate(over="ignore"):  # an overflow is clamped by the guard
        for k in range(max_len):
            m = alive[k]
            xs = x[:m]
            dz = sizes[first[:m] + k][:, None]
            hit = dz >= cuts
            speed = phi.eval(xs)
            if not math.isfinite(speed.sum()):  # one non-finite entry suffices
                # A level that skips this jump may sit where phi is not finite.
                bad = hit & ~np.isfinite(speed)
                rows = np.flatnonzero(bad.any(axis=1))
                if rows.size:
                    i = rows[np.argmin(order[rows])]  # the first path in input order
                    level = np.flatnonzero(bad[i])[0]
                    err = FloatingPointError(
                        f"phi evaluated non-finite at state {float(xs[i, level])!r} "
                        f"(path {order[i]}, event {k}, level {level})"
                    )
                    err.path = int(order[i])
                    raise err
            new = speed * dz
            new += xs
            if not new.max() <= overflow_guard:  # NaN, too, takes the exact branch
                over = hit & (new > overflow_guard)
                guard_hits[:m] += over
                np.copyto(new, overflow_guard, where=over)
            np.copyto(xs, new, where=hit)
            finer_below = xs[:, 1:] < xs[:, :-1]
            if finer_below.any():
                below[:m] += hit[:, 1:] & finer_below
    inverse = np.argsort(order)
    return x[inverse], guard_hits[inverse], below.sum(axis=1)[inverse]


def build_ladder(
    phi: MonotonePhi,
    x0: float,
    params: StableParams,
    horizon: float,
    cutoffs: list[float] | tuple[float, ...],
    rng: np.random.Generator,
) -> Ladder:
    """Sample one path at the finest cutoff and solve every thinning of it."""
    cutoffs = tuple(float(e) for e in cutoffs)
    if not cutoffs or any(e <= 0.0 for e in cutoffs):
        raise ValueError("cutoffs must be positive")
    if any(b >= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError("cutoffs must be strictly decreasing")
    base = sample_truncated_path(params, horizon, cutoffs[-1], rng)
    solutions = tuple(
        solve_truncated(phi, x0, thin_path(base, eps)) for eps in cutoffs
    )
    return Ladder(cutoffs=cutoffs, solutions=solutions, base=base)


def ladder_violations(ladder: Ladder) -> int:
    """Exact count of times where a finer level fails to dominate a coarser one.

    Consecutive levels are compared at the union of their event times (the
    paths are piecewise constant, so this is the exact sup over [0, T]).
    Zero is the expected value for admissible phi on shared noise.
    """
    violations = 0
    for coarse, fine in zip(ladder.solutions, ladder.solutions[1:]):
        ts = np.union1d(coarse.times, fine.times)
        violations += int(np.sum(fine.values_at(ts) < coarse.values_at(ts)))
    return violations


def sup_gap(a: SolutionPath, b: SolutionPath) -> float:
    """Exact sup over [0, min horizon] of |a - b| for piecewise-constant paths."""
    ts = np.union1d(a.times, b.times)
    ts = ts[ts <= min(a.horizon, b.horizon)]
    ts = np.concatenate(([0.0], ts))
    return float(np.max(np.abs(a.values_at(ts) - b.values_at(ts))))


def coupled_pair_distance(
    phi: MonotonePhi,
    x0: float,
    params: StableParams,
    horizon: float,
    eps: float,
    rng: np.random.Generator,
) -> float:
    """Sup-distance between the eps and eps/2 solutions on one noise path."""
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    base = sample_truncated_path(params, horizon, eps / 2.0, rng)
    fine = solve_truncated(phi, x0, base)
    coarse = solve_truncated(phi, x0, thin_path(base, eps))
    return sup_gap(fine, coarse)
