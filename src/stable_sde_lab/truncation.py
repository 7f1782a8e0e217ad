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

OVERFLOW_GUARD = 1e300


def _require_solvable(phi: MonotonePhi, x0: float) -> None:
    """Both solvers' checks: an admissible phi, and x0 at most OVERFLOW_GUARD."""
    phi.require_admissible("degenerate coefficients are only accepted by the counterexample lab")
    # From above the guard, its clamp would drop a level that jumps below one that does not.
    if not x0 <= OVERFLOW_GUARD:
        raise ValueError(f"x0 must be at most the overflow guard {OVERFLOW_GUARD:g}, got {x0!r}")


def _check_cutoffs(cutoffs) -> np.ndarray:
    """The cutoffs as a float array, checked positive and strictly decreasing (NaN fails)."""
    cuts = np.asarray(cutoffs, dtype=float)
    if cuts.ndim != 1 or not cuts.size or not np.all(cuts > 0.0):
        raise ValueError("cutoffs must be positive")
    if not np.all(cuts[1:] < cuts[:-1]):
        raise ValueError("cutoffs must be strictly decreasing")
    return cuts


@dataclass(frozen=True)
class SolutionPath:
    """Piecewise-constant solution: initial value plus an event log.

    ``states`` is x0 followed by the post-jump values: the state on each
    interval.  Event i at times[i] moves it from pre_values[i] to
    post_values[i] = pre + phi(pre) * dz, both views of ``states``.
    """

    x0: float
    horizon: float
    times: np.ndarray
    post_values: np.ndarray
    guard_hits: int = 0
    states: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        post = np.asarray(self.post_values, dtype=float)
        if times.shape != post.shape or times.ndim != 1:
            raise ValueError("event columns must be 1-d arrays of equal length")
        if (times[1:] < times[:-1]).any():
            raise ValueError("event times must be ordered")
        states = np.concatenate(([self.x0], post))
        for name, arr in (("times", times), ("post_values", states[1:]), ("states", states)):
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.times.size)

    def value_at(self, t: float) -> float:
        """Cadlag state at time t."""
        if t < 0.0 or t > self.horizon:
            raise ValueError(f"t={t} outside [0, {self.horizon}]")
        idx = int(np.searchsorted(self.times, t, side="right"))
        return float(self.states[idx])

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        idx = np.searchsorted(self.times, ts, side="right")
        return self.states[idx]

    @property
    def final(self) -> float:
        return float(self.states[-1])

    @property
    def pre_values(self) -> np.ndarray:
        return self.states[:-1]

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
        _check_cutoffs(self.cutoffs)
        if self.base.cutoff > min(self.cutoffs):
            raise ValueError("base path must be sampled at the finest cutoff")


def solve_truncated(
    phi: MonotonePhi,
    x0: float,
    driver: JumpPath,
) -> SolutionPath:
    """Exact event-driven solve of dX = phi(X-) dZ along a truncated driver.

    Requires an admissible phi (positive families only; the power family
    belongs to the counterexample lab) and a finite-activity driver
    (cutoff > 0).  States above OVERFLOW_GUARD are clamped and counted
    instead of asserting non-explosion; x0 must not exceed it.
    """
    _require_solvable(phi, x0)
    if not (driver.cutoff > 0.0):
        raise ValueError("solver requires a finite-activity (truncated) driver")
    post = np.empty(len(driver))
    guard_hits = 0
    x = float(x0)
    for i, dz in enumerate(driver.sizes.tolist()):
        speed = float(phi.eval(x))
        if not math.isfinite(speed):
            raise FloatingPointError(
                f"phi evaluated non-finite at state {x!r} (event {i})"
            )
        x = x + speed * dz
        if x > OVERFLOW_GUARD:
            x = OVERFLOW_GUARD
            guard_hits += 1
        post[i] = x
    return SolutionPath(
        x0=float(x0),
        horizon=driver.horizon,
        times=driver.times.copy(),
        post_values=post,
        guard_hits=guard_hits,
    )


def solve_ladders(
    phi: MonotonePhi,
    x0: float,
    sizes: np.ndarray,
    offsets: np.ndarray,
    cutoffs: list[float] | tuple[float, ...],
    pairs: list[tuple[int, int]] | tuple[tuple[int, int], ...] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every ladder level of a block of base paths, in one event loop.

    Path j's jump sizes, in time order, are ``sizes[offsets[j]:offsets[j+1]]``.
    The state is one level-major ``(n_levels, n_paths)`` array, longest paths
    first, advanced by event rank in about 11 numpy calls: at rank k the paths
    with more than k jumps, a prefix of every row, read their k-th jumps dz in
    one gather, and level l takes dz where ``dz >= cutoffs[l]``, the thinning
    of ``thin_path``.  Each level applies the arithmetic of ``solve_truncated``,
    so the result equals ``build_ladder`` on the same paths bit for bit.

    Returns the final states ``(n, L)``, the overflow-guard hits ``(n, L)``,
    the ``ladder_violations`` count of each path ``(n,)``, and the gap
    ``(n, len(pairs))`` of each ``(fine, coarse)`` pair of level indices,
    ``sup_gap`` of their solutions.  After each rank, a violation is a level
    that took the jump below the next coarser level, and a gap is the running
    max, from 0, of ``|x[fine] - x[coarse]|``.  A coarser level's events are
    a subset of the finer one's, so both are exact at the union of events.
    A non-finite phi where a level takes a jump raises FloatingPointError
    naming the first such path in input order.
    """
    _require_solvable(phi, x0)
    cuts = _check_cutoffs(cutoffs)[:, None]  # a column: dz >= cuts is level-major
    sizes = np.asarray(sizes, dtype=float)
    offsets = np.asarray(offsets, dtype=np.intp)
    lengths = np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != sizes.size or np.any(lengths < 0):
        raise ValueError("offsets must rise from 0 to len(sizes)")
    if not np.all(sizes > 0.0):  # NaN included: thinning would drop it silently
        raise ValueError("jump sizes must be strictly positive")
    n, levels = lengths.size, cuts.size
    fine, coarse = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    if np.any((fine < 0) | (fine >= levels) | (coarse < 0) | (coarse >= levels)):
        raise ValueError("pairs must index the cutoffs")

    # Longest paths first, so the paths alive at rank k are a prefix.
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    first = offsets[:-1][order]
    max_len = int(lengths[0]) if n else 0
    alive = n - np.searchsorted(lengths[::-1], np.arange(max_len), side="right")

    x = np.full((levels, n), float(x0))
    guard_hits = np.zeros((levels, n), dtype=np.int64)
    below = np.zeros((levels - 1, n), dtype=np.int64)
    gaps = np.zeros((fine.size, n))
    finer_below = np.empty((levels - 1, n), dtype=bool)
    with np.errstate(over="ignore"):  # an overflow is clamped by the guard
        for k in range(max_len):
            m = alive[k]
            xs = x[:, :m]
            dz = sizes[first[:m] + k]
            hit = dz >= cuts
            speed = phi.eval(xs)
            new = speed * dz
            new += xs
            # Every dz > 0, so an inf or NaN speed fails this test too.
            if not new.max() <= OVERFLOW_GUARD:
                # A level that skips this jump may sit where phi is not finite.
                bad = hit & ~np.isfinite(speed)
                cols = np.flatnonzero(bad.any(axis=0))
                if cols.size:
                    i = cols[np.argmin(order[cols])]  # the first path in input order
                    level = np.flatnonzero(bad[:, i])[0]
                    raise FloatingPointError(
                        f"phi evaluated non-finite at state {float(xs[level, i])!r} "
                        f"(path {order[i]}, event {k}, level {level})"
                    )
                over = hit & (new > OVERFLOW_GUARD)
                guard_hits[:, :m] += over
                np.copyto(new, OVERFLOW_GUARD, where=over)
            np.copyto(xs, new, where=hit)
            finer = np.less(xs[1:], xs[:-1], out=finer_below[:, :m])
            if finer.any():
                below[:, :m] += hit[1:] & finer
            if fine.size:
                np.maximum(gaps[:, :m], np.abs(xs[fine] - xs[coarse]), out=gaps[:, :m])
    inverse = np.argsort(order)
    return x.T[inverse], guard_hits.T[inverse], below.sum(axis=0)[inverse], gaps.T[inverse]


def build_ladder(
    phi: MonotonePhi,
    x0: float,
    params: StableParams,
    horizon: float,
    cutoffs: list[float] | tuple[float, ...],
    rng: np.random.Generator,
) -> Ladder:
    """Sample one path at the finest cutoff and solve every thinning of it."""
    cutoffs = tuple(_check_cutoffs(cutoffs).tolist())
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
