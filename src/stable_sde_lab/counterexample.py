"""Non-uniqueness lab for the degenerate coefficient x**beta started at 0.

The time change that produces the non-trivial solution needs the driver's
full small-jump activity: any truncated path sits at 0 for a positive time,
which makes the clock integrand infinite and collapses the construction to
the zero solution.  The lab therefore simulates the driver by exact-law
increments on a uniform grid and treats the singular head interval [0, s_1]
with an explicit, separately reported power-law correction.

Derived objects per run, all on the same grid path Z:
  * clock      B(s) = integral of Z**(-alpha*beta), the singular clock;
  * inverse    g(t), the piecewise-linear right inverse of B;
  * solution   X_t = Z at g(t);
  * noise      Y(s) = sum of Z**(-beta) increments of Z, whose time change
               V_t = Y at g(t) is the driver recovered from the solution,
               equal in law to Z itself.

Every statistical report carries (n, grid_m) side by side because the two
trade off: more replicates sharpen the KS test until it starts resolving the
grid bias.  At the default resolution of 10**4 steps per unit time the bias
sits below KS sensitivity for n <= 5000.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .driver import (
    GridPath,
    SamplerIntegrityError,
    StableParams,
    _grid_times,
    _grid_values,
    sample_exact_increment,
    sample_grid_path,
)
from .phi import PowerPhi
from .stats import ks_two_sample
from .timechange import BEYOND_HORIZON, Clock, invert_clock

__all__ = [
    "SamplerIntegrityError",
    "CounterexampleRun",
    "derive_run",
    "run_counterexample",
    "CheckReport",
    "scaling_law_check",
    "driver_law_check",
    "nonuniqueness_demo",
    "write_report_csv",
]

HEAD_FIT_DECADE = 10  # head coefficient fitted on grid points with s <= 10*s_1
T_EVAL = 1.0  # the time at which the driver-law and non-uniqueness checks read a run
REPLAY_RUNS = 16  # the first runs of nonuniqueness_demo, in spawn order, that replay the solve


@dataclass(frozen=True)
class CheckReport:
    """One row of the lab's report CSV."""

    check: str
    statistic: float
    p_value: float
    coverage: float
    n: int
    alpha: float
    beta: float
    grid_m: int
    seed: int | None = None
    inconclusive: bool = False


def write_report_csv(path, reports: list[CheckReport]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("check,statistic,p_value,coverage,n,alpha,beta,grid_m,seed\n")
        for r in reports:
            seed = "" if r.seed is None else str(r.seed)
            fh.write(
                f"{r.check},{r.statistic:.17g},{r.p_value:.17g},{r.coverage:.17g},"
                f"{r.n},{r.alpha:.17g},{r.beta:.17g},{r.grid_m},{seed}\n"
            )


@dataclass(frozen=True)
class CounterexampleRun:
    """One grid realisation of the singular time-change construction."""

    alpha: float
    beta: float
    grid: GridPath
    clock: Clock
    head_coeff: float
    head_value: float
    noise_values: np.ndarray

    @property
    def clock_total(self) -> float:
        return self.clock.total

    def inverse_time(self, t: float) -> float:
        """Right inverse of the singular clock (BEYOND_HORIZON past B(T))."""
        return invert_clock(self.clock, t)

    def solution_at(self, t: float) -> float:
        """X_t: the grid driver read at the inverted clock time."""
        g = self.inverse_time(t)
        if g == BEYOND_HORIZON:
            raise ValueError(f"t={t} is beyond the simulated clock range")
        return self.grid.value_at(g)

    def recovered_noise_at(self, t: float) -> float:
        """V_t: the accumulated recovered noise read at the inverted clock time."""
        g = self.inverse_time(t)
        if g == BEYOND_HORIZON:
            raise ValueError(f"t={t} is beyond the simulated clock range")
        idx = int(np.searchsorted(self.grid.times, g, side="right")) - 1
        return float(self.noise_values[idx])

    def covers(self, t: float) -> bool:
        return t < self.clock.total


def _fit_head_coefficient(times: np.ndarray, partial: np.ndarray, beta: float) -> float:
    """Least-squares fit of the near-origin model B(s) ~ coeff * s**(1-beta).

    The fit uses the accumulated sums over the first decade [s_1, 10*s_1],
    where the model predicts B(s_k) - B(s_1) = coeff * (s_k**(1-beta) -
    s_1**(1-beta)); regression through the origin on those increments.
    """
    k = min(HEAD_FIT_DECADE, times.size - 1)
    s1 = times[1]
    gs = times[2 : k + 1] ** (1.0 - beta) - s1 ** (1.0 - beta)
    rs = partial[2 : k + 1] - partial[1]
    denom = float(np.dot(gs, gs))
    if denom == 0.0:
        return 0.0
    return float(np.dot(rs, gs) / denom)


def _clock_values(
    alpha: float, beta: float, times: np.ndarray, ds: np.ndarray, z: np.ndarray, buffers=None
) -> tuple[np.ndarray, float, float]:
    """Singular clock values B(s_k), head coefficient and head value.

    z holds the driver values on the grid times (ds = np.diff(times)).
    buffers, two arrays of times.size, take the clock terms and the returned
    values; fresh ones are allocated when it is None.
    Raises what the full construction raises: ValueError on bad parameters,
    on a decreasing driver (which ``GridPath`` would reject) or on a clock
    that is not finite and strictly increasing (which ``Clock`` would
    reject), SamplerIntegrityError on a non-positive or NaN driver.
    """
    # Written over the condition that must fail, so NaN passes, as in GridPath.
    if z[0] != 0.0 or (z[1:] < z[:-1]).any():
        raise ValueError("grid values must start at 0 and be non-decreasing")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if times.size < 101:
        raise ValueError("grid too coarse for the head fit, need m >= 100 steps")
    # Also rejects NaN, which the monotonicity check lets through.
    if not (z[1:] > 0.0).all():
        raise SamplerIntegrityError(
            "driver hit a non-positive or NaN value at a positive grid time"
        )
    # Left-endpoint integrand over [s_i, s_{i+1}], i >= 1; the i = 0 term is
    # the singular head, replaced by the fitted correction.  The exponents
    # are fused (z**(-alpha*beta) rather than (z**beta)**(-alpha)): one pass
    # instead of two, within 1 ulp of PowerPhi(beta).eval(z) ** -alpha.
    # The running sum goes to its own array: in place, np.cumsum holds the GIL.
    terms, values = np.empty((2, times.size)) if buffers is None else buffers
    values[:2] = 0.0
    np.power(z[1:-1], -alpha * beta, out=terms[2:])
    terms[2:] *= ds[1:]
    np.cumsum(terms[2:], out=values[2:])
    head_coeff = _fit_head_coefficient(times, values, beta)
    head_value = head_coeff * times[1] ** (1.0 - beta)
    values += head_value
    values[0] = 0.0
    if not (math.isfinite(values[-1]) and (values[1:] > values[:-1]).all()):
        raise ValueError("singular clock must be finite and strictly increasing")
    return values, head_coeff, head_value


def _noise_increments(z: np.ndarray, beta: float) -> np.ndarray:
    """Recovered-noise increments Z(s_k)**(-beta) * (Z(s_{k+1}) - Z(s_k)), k >= 1."""
    return z[1:-1] ** (-beta) * np.diff(z)[1:]


def derive_run(alpha: float, beta: float, grid: GridPath) -> CounterexampleRun:
    """Build the singular clock and derived processes from an existing grid path.

    The clock is a left-endpoint sum of Z**(-alpha*beta) over [s_1, T]; the
    head interval carries the fitted power-law correction.  The recovered
    noise uses the matching left-endpoint sums of Z**(-beta) increments with
    a right-endpoint proxy for its own (negligible) head term: Z(s_1)**(1-beta)
    / (1-beta), the smooth-path closed form.

    The grid runs of the checks below take array paths instead; this one
    stays the reference that property tests hold them bit-equal to.
    """
    z = grid.values
    ds = np.diff(grid.times)
    clock_values, head_coeff, head_value = _clock_values(alpha, beta, grid.times, ds, z)
    slopes = np.diff(clock_values) / ds
    clock = Clock(breakpoints=grid.times, slopes=slopes, values=clock_values)
    noise_head = z[1] ** (1.0 - beta) / (1.0 - beta)
    noise_values = np.concatenate(
        ([0.0], [noise_head], noise_head + np.cumsum(_noise_increments(z, beta)))
    )
    return CounterexampleRun(
        alpha=alpha,
        beta=beta,
        grid=grid,
        clock=clock,
        head_coeff=head_coeff,
        head_value=head_value,
        noise_values=noise_values,
    )


def _inverse_time(
    times: np.ndarray, ds: np.ndarray, values: np.ndarray, t: float
) -> float | None:
    """invert_clock on clock values B(s_k), bit for bit; None if B(T) <= t."""
    if not t < values[-1]:
        return None
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    i = int(np.searchsorted(values, t, side="right")) - 1
    if values[i] == t:
        return float(times[i])
    return float(times[i] + (t - values[i]) / ((values[i + 1] - values[i]) / ds[i]))


def _run_outcome(
    alpha: float,
    beta: float,
    times: np.ndarray,
    ds: np.ndarray,
    z: np.ndarray,
    t: float,
    replay: bool,
    buffers=None,
) -> tuple[float | None, float, float | None, bool, bool]:
    """One grid run of nonuniqueness_demo: V_t, zero residual, replay residual, covered, positive.

    Bit for bit what the demo reads from derive_run on the grid (times, z):
    one clock pass, then the recovered-noise running sum as far as it is
    read.  V_t is None if B(T) <= t; the replay residual is None unless
    replay is set.  buffers are those of _clock_values.
    """
    buffers = np.empty((2, times.size)) if buffers is None else buffers
    values = _clock_values(alpha, beta, times, ds, z, buffers)[0]
    g = _inverse_time(times, ds, values, t)
    if g is not None and g > times[-1]:  # GridPath.value_at's range check
        raise ValueError(f"s={g} outside [0, {times[-1]}]")
    idx = 0 if g is None else int(np.searchsorted(times, g, side="right")) - 1
    noise_head = float(z[1] ** (1.0 - beta) / (1.0 - beta))
    # Zero path: increments phi(0) * dV vanish term by term, so derive_run's
    # residual is 0 unless its noise running sum reaches inf (0 * inf is
    # NaN).  Bound: the clock has passed, so z is positive and non-decreasing,
    # and with a = z[1]**-beta each increment z[j]**-beta * (z[j+1] - z[j])
    # is at most a * z[-1] up to a few roundings, so under 4 * a * z[-1].  A
    # sequential sum of fewer than m such terms gains at most a factor
    # (1 + 2**-53)**m < 2 from rounding: under 8 * m * a * z[-1].  If that
    # plus the head is below 1e300, 1e8 short of overflow, the sum ends
    # finite.  A NaN or inf bound fails the test.
    bounded = noise_head + 8.0 * times.size * float(z[1] ** -beta) * float(z[-1]) < 1e300
    # Increments read: up to the inverted index, or all of them.
    k = max(idx - 1, 0) if bounded and not replay else times.size - 2
    noise, sums = buffers[0][:k], buffers[1][:k]  # the clock values are no longer read
    np.power(z[1 : k + 1], -beta, out=noise)
    noise *= np.subtract(z[2 : k + 2], z[1 : k + 1], out=sums)
    # Raw increments: differences of the running sum of the recovered noise
    # lose digits to cancellation.
    residual = _replay_relative_residual(z, beta, noise) if replay else None
    np.cumsum(noise, out=sums)  # sequential, so every prefix ends on derive_run's bits
    zero = 0.0 if bounded or math.isfinite(noise_head + sums[-1]) else math.nan
    if g is None:
        return None, zero, residual, False, False
    v = noise_head + sums[idx - 2] if idx >= 2 else (noise_head if idx == 1 else 0.0)
    return float(v), zero, residual, True, bool(z[idx] > 0.0)


def _check_grid(
    alpha: float, beta: float, horizon: float, m: int
) -> tuple[np.ndarray, np.ndarray, StableParams]:
    """Times, steps and driver parameters shared by one check's grid runs.

    Checks the parameters of every run once, before any run draws.
    """
    PowerPhi(beta)  # reject beta outside (0, 1)
    if m < 100:
        raise ValueError(f"grid too coarse for the head fit, need m >= 100, got {m}")
    params = StableParams.default(alpha)
    times, ds = _grid_times(horizon, m)
    return times, ds, params


def run_counterexample(
    alpha: float,
    beta: float,
    horizon: float,
    m: int,
    rng: np.random.Generator,
) -> CounterexampleRun:
    """Simulate one run of the construction on an m-step grid over [0, horizon]."""
    params = _check_grid(alpha, beta, horizon, m)[2]
    return derive_run(alpha, beta, sample_grid_path(params, horizon, m, rng))


def _map_runs(check: str, fn, generators: list, m: int) -> list:
    """``[fn(k, g, buf) for k, g in enumerate(generators)]`` on one thread per usable CPU.

    Each worker loops over one contiguous chunk (one task per run would hold
    more runs' arrays at once) and allocates one (3, m + 1) array buf for it:
    the driver values, then the two buffers of _clock_values.  A run draws
    only from its own spawned generator g, so the result does not depend on
    the worker count.  Its time goes to numpy RNG fills and ufuncs, which
    mostly release the GIL; numpy 2.4 holds it through an in-place
    accumulate such as np.cumsum(x, out=x), so no run sums in place.  A
    failing run k raises again, with its type, named "{check} run {k}"; the
    chunks are read back in spawn order, so the first in spawn order raises.
    numpy's errstate does not reach the workers: fn must set its own.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # macOS and Windows have no affinity call
        cpus = os.cpu_count() or 1
    items = list(enumerate(generators))
    workers = min(cpus, len(items))

    def chunk_runs(chunk: list) -> list:
        buf = np.empty((3, m + 1))
        out = []
        for k, g in chunk:
            try:
                out.append(fn(k, g, buf))
            except (ValueError, SamplerIntegrityError) as exc:
                raise type(exc)(f"{check} run {k}: {exc}") from exc
        return out

    if workers <= 1:
        return chunk_runs(items)
    # Imported here so that the experiments without grid runs do not load it.
    from concurrent.futures import ThreadPoolExecutor

    bounds = [len(items) * w // workers for w in range(workers + 1)]
    chunks = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    with ThreadPoolExecutor(workers) as pool:
        return [out for part in pool.map(chunk_runs, chunks) for out in part]


def scaling_law_check(
    alpha: float,
    beta: float,
    t1: float,
    t2: float,
    n: int,
    rng: np.random.Generator,
    m_per_unit: int = 10_000,
    seed: int | None = None,
) -> CheckReport:
    """KS comparison of B(t2) * (t2/t1)**(beta-1) against B(t1).

    Under the self-similarity of the driver the clock satisfies
    B(t) =law= t**(1-beta) * B(1), so the rescaled samples share one law.
    Replicates for the two horizons use independent paths.
    """
    if not (0.0 < t1 <= t2):
        raise ValueError("need 0 < t1 <= t2")
    if n < 1000:
        raise ValueError("need at least 1000 replicates for the KS regime")
    m1, m2 = int(round(m_per_unit * t1)), int(round(m_per_unit * t2))
    # One spawned child generator per replicate, one parent per horizon:
    # replicate k's draw is pinned by its index alone, so changing n never
    # disturbs the other replicates.
    parent1, parent2 = rng.spawn(2)

    def clock_totals(name: str, horizon: float, m: int, generators: list) -> np.ndarray:
        times, ds, params = _check_grid(alpha, beta, horizon, m)

        def total(k: int, g: np.random.Generator, buf: np.ndarray) -> float:
            z = _grid_values(params, horizon, m, g, buf[0])
            return float(_clock_values(alpha, beta, times, ds, z, buf[1:])[0][-1])

        return np.array(_map_runs(f"scaling-law {name}={horizon:g}", total, generators, m))

    b1 = clock_totals("t1", t1, m1, parent1.spawn(n))
    b2 = clock_totals("t2", t2, m2, parent2.spawn(n))
    rescaled = b2 * (t2 / t1) ** (beta - 1.0)
    ks = ks_two_sample(rescaled, b1)
    return CheckReport(
        check="scaling-law",
        statistic=ks.statistic,
        p_value=ks.p_value,
        coverage=1.0,
        n=n,
        alpha=alpha,
        beta=beta,
        grid_m=m2,
        seed=seed,
    )


def driver_law_check(
    alpha: float,
    beta: float,
    horizon: float,
    n: int,
    rng: np.random.Generator,
    m_per_unit: int = 10_000,
    seed: int | None = None,
) -> CheckReport:
    """KS comparison of the recovered noise V at T_EVAL against exact driver samples.

    Runs whose clock does not reach T_EVAL are counted and excluded; the
    coverage fraction is part of the report, and coverage below 0.5 flags the
    result inconclusive (horizon too short) rather than failing it.  It is
    the driver_law row of nonuniqueness_demo, which reads V from its runs.
    """
    if n < 1000:
        raise ValueError("need at least 1000 replicates for the KS regime")
    return nonuniqueness_demo(alpha, beta, horizon, n, rng, m_per_unit, seed=seed).driver_law


@dataclass(frozen=True)
class NonUniquenessReport:
    """Executable statement of non-uniqueness for the degenerate coefficient."""

    zero_solution_residual: float  # exactly 0: phi(0) kills every increment
    positive_fraction: float  # covered runs with a strictly positive state at T_EVAL
    coverage: float
    replay_residual: float  # max relative gap between the two solution constructions
    n: int
    replay_worst_replicate: int  # spawned-stream index of the run with that gap
    driver_law: CheckReport  # V at T_EVAL of the same runs against exact driver samples


def nonuniqueness_demo(
    alpha: float,
    beta: float,
    horizon: float,
    n: int,
    rng: np.random.Generator,
    m_per_unit: int = 10_000,
    seed: int | None = None,
) -> NonUniquenessReport:
    """Zero solution versus the time-changed solution, on the same runs.

    The zero path satisfies the equation exactly (its coefficient vanishes),
    while the time-changed path is strictly positive at T_EVAL on covered
    runs.  The replay residual re-solves X <- X + phi(X)*dV event-wise along
    the grid on the first REPLAY_RUNS runs and reports the worst relative gap
    against the time-change values.  The recovered driver V of the same runs
    at T_EVAL is held against exact driver samples (driver_law_check).
    """
    m = int(round(m_per_unit * horizon))
    times, ds, params = _check_grid(alpha, beta, horizon, m)

    def one(k: int, g: np.random.Generator, buf: np.ndarray):
        z = _grid_values(params, horizon, m, g, buf[0])
        return _run_outcome(alpha, beta, times, ds, z, T_EVAL, k < REPLAY_RUNS, buf[1:])

    run_parent, exact_parent = rng.spawn(2)
    runs = _map_runs("driver-law", one, run_parent.spawn(n), m)
    exact = sample_exact_increment(params, T_EVAL, exact_parent, size=n)
    recovered = [r[0] for r in runs if r[0] is not None]
    # np.max and np.argmax let NaN through, where Python's max drops it;
    # argmax also keeps the first of equal maxima.
    zero_residual = float(np.max([r[1] for r in runs]))
    replays = [r[2] for r in runs[:REPLAY_RUNS]]
    replay_worst = int(np.argmax(replays)) if replays else 0
    covered = sum(r[3] for r in runs)
    coverage = covered / n
    # Fewer than two recovered values give no KS test: inconclusive.
    ks = ks_two_sample(recovered, exact) if covered >= 2 else None
    law = CheckReport(
        check="driver-law",
        statistic=1.0 if ks is None else ks.statistic,
        p_value=0.0 if ks is None else ks.p_value,
        coverage=coverage,
        n=n,
        alpha=alpha,
        beta=beta,
        grid_m=m,
        seed=seed,
        inconclusive=ks is None or coverage < 0.5,
    )
    return NonUniquenessReport(
        zero_solution_residual=zero_residual,
        positive_fraction=sum(r[4] for r in runs) / covered if covered else 0.0,
        coverage=coverage,
        replay_residual=replays[replay_worst] if replays else 0.0,
        n=n,
        replay_worst_replicate=replay_worst,
        driver_law=law,
    )


def _replay_relative_residual(z: np.ndarray, beta: float, noise_inc: np.ndarray) -> float:
    """Worst relative gap between X <- X + X**beta * dV and the grid driver z.

    noise_inc[k] drives the step from s_{k+1} to s_{k+2}; a NaN anywhere makes
    the result NaN.
    """
    # Event-wise solve seeded at the first positive state; a start at exactly
    # 0 can never leave 0, which is the non-uniqueness being demonstrated.
    # memoryview indexing yields Python floats without a numpy scalar per read.
    targets = z[2:]
    xs = np.empty(len(noise_inc))
    out = memoryview(xs)
    inc = memoryview(noise_inc)
    x = float(z[1])
    for k in range(len(inc)):
        x = x + (x**beta) * inc[k]
        out[k] = x
    return float(np.max(np.abs(xs - targets) / targets))
