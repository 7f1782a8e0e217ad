"""One-sided stable driver: truncated jump paths, exact increments, thinning.

The driver is a pure-jump subordinator with Levy density ``c * h**(-1-alpha)``
on (0, inf), alpha in (0, 1).  Truncating the jump measure at a cutoff eps
yields a compound Poisson path that can be simulated exactly; removing the
cutoff is handled by the exact-increment sampler (1/(2N**2) at alpha = 1/2,
Zolotarev/Kanter otherwise), used when infinite small-jump activity matters.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SamplerIntegrityError",
    "StableParams",
    "JumpPath",
    "GridPath",
    "levy_tail_mass",
    "sample_truncated_path",
    "extend_truncated_path",
    "thin_path",
    "sample_exact_increment",
    "sample_grid_path",
]


class SamplerIntegrityError(RuntimeError):
    """A sampled driver value is NaN or inf, or non-positive at a positive time.

    Every inf jump size is _jump_blocks's: ``driver`` is then the index, in
    the stream of generators it was drawn from, of the driver that drew it.
    Else ``driver`` is None.
    """

    def __init__(self, message: str, driver: int | None = None) -> None:
        super().__init__(message)
        self.driver = driver


@dataclass(frozen=True)
class StableParams:
    """Order alpha in (0,1) and Levy-density scale c > 0 of the driver.

    With the default normalization ``c = alpha / gamma(1 - alpha)`` the
    Laplace exponent is exactly ``psi(lam) = lam ** alpha``.
    """

    alpha: float
    c: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ValueError(f"c must be a positive real, got {self.c}")

    @classmethod
    def default(cls, alpha: float) -> "StableParams":
        """Parameters normalized so that psi(lam) = lam ** alpha."""
        return cls(alpha, alpha / math.gamma(1.0 - alpha))

    @property
    def unit_time_scale(self) -> float:
        """Scale factor s with Z_1 = s * S for a standard stable sample S."""
        return (self.c * math.gamma(1.0 - self.alpha) / self.alpha) ** (1.0 / self.alpha)


def _check_jumps(
    horizon: float, times, sizes, cutoff: float
) -> tuple[np.ndarray, np.ndarray]:
    """times and sizes as float arrays, checked as the events of a JumpPath.

    JumpPath and the time-change kernel both check their events here.
    """
    times = np.asarray(times, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive, got {horizon}")
    if cutoff < 0.0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    if times.shape != sizes.shape or times.ndim != 1:
        raise ValueError("times and sizes must be 1-d arrays of equal length")
    if times.size:
        # Written over the condition that must hold, so NaN fails each: a NaN
        # size makes the smallest NaN.  Array methods, not np.all/np.any, and
        # one minimum for the sizes: this runs once per replicate.
        if not (times[0] > 0.0 and times[-1] <= horizon):
            raise ValueError("event times must lie in (0, horizon]")
        if not (times[1:] > times[:-1]).all():
            raise ValueError("event times must be strictly increasing")
        smallest = sizes.min()
        if not (smallest >= cutoff if cutoff > 0.0 else smallest > 0.0):
            if not smallest > 0.0:
                raise ValueError("jump sizes must be strictly positive")
            raise ValueError("jump sizes must be >= cutoff")
    return times, sizes


@dataclass(frozen=True)
class JumpPath:
    """Finite, time-sorted jump events of a truncated driver on [0, horizon].

    The path value at t is the sum of sizes with time <= t (cadlag); the
    cutoff records the truncation level the path was generated at.
    """

    horizon: float
    times: np.ndarray
    sizes: np.ndarray
    cutoff: float
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        times, sizes = _check_jumps(self.horizon, self.times, self.sizes, self.cutoff)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "_cum", np.cumsum(sizes))

    def __len__(self) -> int:
        return int(self.times.size)

    def value_at(self, t: float) -> float:
        """Cadlag path value: sum of sizes with event time <= t."""
        if t < 0.0 or t > self.horizon:
            raise ValueError(f"t={t} outside [0, {self.horizon}]")
        idx = int(np.searchsorted(self.times, t, side="right"))
        return float(self._cum[idx - 1]) if idx else 0.0

    @property
    def total(self) -> float:
        return float(self._cum[-1]) if len(self) else 0.0

    @property
    def cumulative_sizes(self) -> np.ndarray:
        """Running sum of jump sizes, aligned with the event times."""
        return self._cum


@dataclass(frozen=True)
class GridPath:
    """Exact-law driver values on a uniform grid 0 = s_0 < ... < s_m = T.

    Between grid points the path is read as a cadlag step function; values
    are non-decreasing with values[0] = 0.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or times.size < 2 or times.shape != values.shape:
            raise ValueError("grid needs matching 1-d times/values with >= 2 points")
        if times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
            raise ValueError("grid times must start at 0 and strictly increase")
        if values[0] != 0.0 or np.any(np.diff(values) < 0.0):
            raise ValueError("grid values must start at 0 and be non-decreasing")

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def value_at(self, s: float) -> float:
        """Step evaluation: value at the largest grid time <= s."""
        if s < 0.0 or s > self.horizon:
            raise ValueError(f"s={s} outside [0, {self.horizon}]")
        idx = int(np.searchsorted(self.times, s, side="right")) - 1
        return float(self.values[idx])


def levy_tail_mass(params: StableParams, eps: float) -> float:
    """Jump intensity of the eps-truncated driver: c * eps**(-alpha) / alpha."""
    if not (eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps}")
    return params.c * eps ** (-params.alpha) / params.alpha


def _overflow(params: StableParams, eps: float, driver: int) -> SamplerIntegrityError:
    return SamplerIntegrityError(
        f"jump size overflowed to inf: (1 - u)**(-1/alpha) at alpha={params.alpha!r}, "
        f"eps={eps!r}",
        driver,
    )


def _merge_repeats(times: np.ndarray, sizes: np.ndarray, offsets: list[int]):
    """Each row's repeated times, possible in floats, merged into one jump of the summed size.

    Row j, ``times[offsets[j]:offsets[j+1]]``, is sorted.  A time equal to
    the last of the row before is no repeat.  Returns the arguments when no
    row repeats a time.
    """
    # starts[k]: times[k] starts a run of equal times in its row.  The entry
    # past the times takes the offset of the end, and of any empty last row.
    starts = np.concatenate(([True], times[1:] != times[:-1], [True]))
    starts[offsets] = True
    if starts.all():
        return times, sizes, offsets
    (first,) = np.nonzero(starts[:-1])
    return times[first], np.add.reduceat(sizes, first), first.searchsorted(offsets).tolist()


def _jump_blocks(
    params: StableParams,
    horizon: float,
    eps: float,
    rngs: Iterable[np.random.Generator],
    budget: int,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, list[int]]]:
    """Compound-Poisson jumps >= eps on (0, horizon], one driver per generator of ``rngs``.

    Each driver draws from its generator a Poisson count n of mean
    ``horizon * levy_tail_mass(params, eps)``, then n uniforms u for the
    times, ``horizon * (1 - u)`` in (0, horizon], sorted, then n for the
    sizes, ``eps * (1 - u)**(-1/alpha)``, Pareto on [eps, inf).  Repeated
    times merge (_merge_repeats), so the times strictly increase.  An inf
    size raises SamplerIntegrityError, whose ``driver`` is the index of its
    generator in ``rngs``.  Nothing else here checks the jumps: JumpPath and
    the time-change kernel do (_check_jumps), and the ladder kernel checks
    the sizes it reads.

    Yields ``(first, times, sizes, offsets)``: driver ``first + j``, drawn
    from that generator of ``rngs``, has the events
    ``times[offsets[j]:offsets[j+1]]`` with ``sizes[offsets[j]:offsets[j+1]]``.
    Each generator is left where its driver's draws end; none is yielded or
    kept past its driver.

    Per driver only the generator is called: the Poisson count, then the
    times' and the sizes' uniforms, drawn with ``out=`` into two buffers of
    ``budget`` floats that every block reuses.  Per block, the time and size
    transforms make one pass each, with the operations in the order of the
    expressions above, each row of times is sorted in place, and one max
    tests the sizes, before any driver of the block is yielded.  A block
    holds whole drivers up to ``budget`` jumps; a driver with more is a block
    of its own, in arrays of its own, so at budget 0 every driver with jumps
    has arrays of its own (sample_truncated_path).  A block's arrays are
    otherwise overwritten by the next, so read them before drawing it.
    """
    if not (horizon > 0.0):
        raise ValueError(f"horizon must be positive, got {horizon}")
    mean = levy_tail_mass(params, eps) * horizon
    power = -1.0 / params.alpha
    times_buf, sizes_buf = np.empty(budget), np.empty(budget)

    def block(first: int, times: np.ndarray, sizes: np.ndarray, offsets: list[int]):
        times, sizes = times[: offsets[-1]], sizes[: offsets[-1]]
        np.subtract(1.0, times, out=times)
        np.multiply(horizon, times, out=times)
        for a, b in zip(offsets, offsets[1:]):
            times[a:b].sort()
        np.subtract(1.0, sizes, out=sizes)
        # Below alpha = 53/1024 a u near 1 gives inf, which _check_jumps would
        # pass: it tests the smallest size only.  The max below raises on it,
        # with no numpy warning beside the error.
        with np.errstate(over="ignore"):
            sizes **= power
            np.multiply(eps, sizes, out=sizes)
        if sizes.size and not sizes.max() < math.inf:
            raise _overflow(params, eps, first + bisect_right(offsets, int(sizes.argmax())) - 1)
        return first, *_merge_repeats(times, sizes, offsets)

    # The open block: its first driver and its rows in the buffers.
    first, offsets = 0, [0]
    for k, rng in enumerate(rngs):
        n = int(rng.poisson(mean))
        end = offsets[-1] + n
        if end > budget:
            if len(offsets) > 1:
                yield block(first, times_buf, sizes_buf, offsets)
            first, offsets, end = k, [0], n
            if n > budget:
                yield block(k, rng.random(n), rng.random(n), [0, n])
                first = k + 1
                continue
        rng.random(out=times_buf[offsets[-1] : end])
        rng.random(out=sizes_buf[offsets[-1] : end])
        offsets.append(end)
    if len(offsets) > 1:
        yield block(first, times_buf, sizes_buf, offsets)


def sample_truncated_path(
    params: StableParams, horizon: float, eps: float, rng: np.random.Generator
) -> JumpPath:
    """Compound-Poisson path of jumps >= eps on (0, horizon]: _jump_blocks on one generator.

    Event count is Poisson(horizon * tail_mass), times are uniform order
    statistics on (0, horizon], sizes are Pareto on [eps, inf).
    """
    ((_, times, sizes, _),) = _jump_blocks(params, horizon, eps, (rng,), 0)
    return JumpPath(horizon=horizon, times=times, sizes=sizes, cutoff=eps)


def _extend_jumps(
    params: StableParams,
    times: np.ndarray,
    sizes: np.ndarray,
    horizon: float,
    new_horizon: float,
    eps: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """A driver's events on (0, horizon], then fresh jumps >= eps on (horizon, new_horizon].

    extend_truncated_path's arrays: the tail is drawn from ``rng`` as
    sample_truncated_path draws it, shifted by ``horizon`` and merged with
    _merge_repeats.  Nothing here checks the events; JumpPath, or the
    time-change kernel that solves them, does.
    """
    ((_, tail_times, tail_sizes, _),) = _jump_blocks(
        params, new_horizon - horizon, eps, (rng,), 0
    )
    times = np.concatenate([times, horizon + tail_times])
    sizes = np.concatenate([sizes, tail_sizes])
    times, sizes, _ = _merge_repeats(times, sizes, [0, times.size])
    return times, sizes


def extend_truncated_path(
    params: StableParams, path: JumpPath, new_horizon: float, rng: np.random.Generator
) -> JumpPath:
    """Append fresh jumps on (horizon, new_horizon]; law equals sampling longer."""
    if new_horizon <= path.horizon:
        raise ValueError("new_horizon must exceed the current horizon")
    if not (path.cutoff > 0.0):
        raise ValueError("only truncated paths can be extended")
    times, sizes = _extend_jumps(
        params, path.times, path.sizes, path.horizon, new_horizon, path.cutoff, rng
    )
    return JumpPath(horizon=new_horizon, times=times, sizes=sizes, cutoff=path.cutoff)


def thin_path(path: JumpPath, new_eps: float) -> JumpPath:
    """Keep only jumps >= new_eps; the coupling device across truncation levels."""
    if new_eps < path.cutoff:
        raise ValueError(
            f"cannot thin below the sampled cutoff ({new_eps} < {path.cutoff}): "
            "jumps in between were never sampled"
        )
    keep = path.sizes >= new_eps
    return JumpPath(
        horizon=path.horizon,
        times=path.times[keep],
        sizes=path.sizes[keep],
        cutoff=new_eps,
    )


def _standard_stable(alpha: float, size: int, rng: np.random.Generator) -> np.ndarray:
    if alpha == 0.5:
        # Levy law: S = 1/(2 N**2), N standard normal, has E exp(-lam*S) =
        # exp(-lam**0.5).  N**2 is floored like W below: N = 0 gives no inf.
        out = rng.standard_normal(size)
        np.maximum(np.multiply(out, out, out=out), np.finfo(float).tiny, out=out)
        return np.divide(0.5, out, out=out)
    # Zolotarev integral representation (Kanter's sampler): for U uniform on
    # (0, pi) and W standard exponential,
    #   S = (A(U) / W) ** ((1-alpha)/alpha),
    #   A(u) = sin((1-alpha)u) * sin(alpha*u)**(alpha/(1-alpha)) / sin(u)**(1/(1-alpha))
    # has E exp(-lam*S) = exp(-lam**alpha).  Evaluated in log space to avoid
    # under/overflow near the endpoints of (0, pi).
    u = rng.uniform(0.0, np.pi, size)
    np.clip(u, 1e-300, np.nextafter(np.pi, 0.0), out=u)
    w = rng.standard_exponential(size)
    np.maximum(w, np.finfo(float).tiny, out=w)
    # log A(u), then S, term by term into the draws' own buffers: the same
    # operations in the formula's order give the one-expression form's bits.
    log_a = np.multiply(1.0 - alpha, u)
    np.log(np.sin(log_a, out=log_a), out=log_a)
    term = np.multiply(alpha, u)
    np.log(np.sin(term, out=term), out=term)
    term *= alpha / (1.0 - alpha)
    log_a += term
    np.log(np.sin(u, out=u), out=u)
    u *= 1.0 / (1.0 - alpha)
    log_a -= u
    log_a -= np.log(w, out=w)
    log_a *= (1.0 - alpha) / alpha
    return np.exp(log_a, out=log_a)


def sample_exact_increment(
    params: StableParams, dt: float, rng: np.random.Generator, size: int | None = None
):
    """Exact-law increment Z_dt (scalar, or an array when size is given)."""
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    if size is not None and size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    scale = (dt ** (1.0 / params.alpha)) * params.unit_time_scale
    # At extreme alpha the scale underflows to 0 while a draw overflows to
    # inf, or alpha * u underflows to 0 and its log is -inf; max propagates
    # the NaN of 0 * inf, and the caller's checks see the rest.  The errstate
    # is set here, in whatever thread draws, with no numpy warning beside
    # the error.
    with np.errstate(all="ignore"):
        out = _standard_stable(params.alpha, 1 if size is None else size, rng)
        out *= scale
    if math.isnan(out.max()):
        raise SamplerIntegrityError(
            f"exact increment sampler produced NaN (alpha={params.alpha!r}, dt={dt!r})"
        )
    return out if size is not None else float(out[0])


def _grid_times(horizon: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Times 0 = s_0 < ... < s_m = horizon of the uniform grid, and their steps."""
    if m < 1:
        raise ValueError("grid needs at least one step")
    if not (horizon > 0.0):
        raise ValueError(f"horizon must be positive, got {horizon}")
    times = np.linspace(0.0, horizon, m + 1)
    ds = np.diff(times)
    if not (ds > 0.0).all():
        raise ValueError("grid times must start at 0 and strictly increase")
    return times, ds


def _grid_values(
    params: StableParams, horizon: float, m: int, rng: np.random.Generator, out=None
) -> np.ndarray:
    """Driver values on the grid of _grid_times(horizon, m), into out if given: 0, then cumsums."""
    values = np.empty(m + 1) if out is None else out
    values[0] = 0.0
    np.cumsum(sample_exact_increment(params, horizon / m, rng, size=m), out=values[1:])
    return values


def sample_grid_path(
    params: StableParams, horizon: float, m: int, rng: np.random.Generator
) -> GridPath:
    """Driver on a uniform m-step grid from i.i.d. exact increments."""
    times, _ = _grid_times(horizon, m)
    return GridPath(times=times, values=_grid_values(params, horizon, m, rng))
