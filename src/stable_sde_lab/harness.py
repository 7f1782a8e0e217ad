"""Experiment orchestration: configs, replicate seeding, CSV artifacts.

Five canonical experiments, each probing one structural claim about the
equation dX = phi(X-) dZ:

  strong-construct   event-driven construction plus the monotone ladder
  ladder-monotone    finer-dominates-coarser comparison, exact, many replicates
  weak-agree         truncation solve vs time-change solve, agreement in law
  uniqueness-couple  shared-noise coupling: sup-distances shrink as the cutoff drops
  counterexample     degenerate coefficient x**beta: scaling law, recovered-noise
                     law, and the coexisting zero solution

Every replicate draws its own generator from (master seed, replicate index,
stream tag), so results are byte-reproducible and replicates are mutually
independent.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# driver_law_check, extend_truncated_path, sample_truncated_path, thin_path and
# solve_truncated are unused here: bench/spans.py looks them up in this module
# by name.
from .counterexample import (
    driver_law_check,
    nonuniqueness_demo,
    scaling_law_check,
    write_report_csv,
)
from .driver import (
    SamplerIntegrityError,
    StableParams,
    _extend_jumps,
    _jump_blocks,
    extend_truncated_path,
    levy_tail_mass,
    sample_truncated_path,
    thin_path,
)
from .phi import MonotonePhi, parse_phi
from .seeding import derive_seed, replicate_rng, replicate_rngs
from .stats import ks_two_sample
from .timechange import solve_time_change
from .truncation import (
    OVERFLOW_GUARD,
    Ladder,
    _check_cutoffs,
    build_ladder,
    ladder_violations,
    solve_ladders,
    solve_truncated,
)

__all__ = [
    "ClockCoverageError",
    "ConfigError",
    "ExperimentConfig",
    "SummaryRow",
    "ExperimentResult",
    "parse_config_text",
    "load_config",
    "run_experiment",
]

EXIT_PASS = 0
EXIT_STATISTICAL = 1
EXIT_INVARIANT = 2
EXIT_CONFIG = 3
EXIT_CRASH = 4


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    alpha: float = 0.5
    beta: float | None = None
    phi: str = "constant(1)"
    x0: float = 0.0
    horizon: float = 1.0
    cutoffs: tuple[float, ...] = (0.1, 0.01, 0.001)
    grid_m: int = 10_000
    replicates: int = 1000
    seed: int = 0
    out: str = "out"
    ks_p_threshold: float = 0.01
    couple_decay_max: float = 0.1
    min_coverage: float = 0.8

    def __post_init__(self) -> None:
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; choose from {tuple(_EXPERIMENTS)}"
            )
        # NaN passes every "must fail" comparison below, so test finiteness first.
        floats = {"x0": self.x0, "T": self.horizon}
        for key, value in (*floats.items(), *(("cutoffs", e) for e in self.cutoffs)):
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        # Outside these ranges a threshold passes or fails its row whatever the
        # samples.  Each test is the condition that must hold, so NaN fails it.
        if not 0.0 < self.ks_p_threshold < 1.0:
            raise ConfigError(f"ks_p_threshold must lie in (0, 1), got {self.ks_p_threshold}")
        for key in ("couple_decay_max", "min_coverage"):
            if not 0.0 < getattr(self, key) <= 1.0:
                raise ConfigError(f"{key} must lie in (0, 1], got {getattr(self, key)}")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.beta is not None and not (0.0 < self.beta < 1.0):
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        if self.horizon <= 0.0:
            raise ConfigError(f"T must be positive, got {self.horizon}")
        try:
            _check_cutoffs(self.cutoffs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        # Seeds are 64-bit words: a seed outside them would alias one inside.
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in 0 ... 2**64 - 1, got {self.seed}")
        if self.grid_m < 100:
            raise ConfigError("grid_m must be >= 100")
        # The levels the ladder runners sample and solve, finest last.  Only
        # the couple's eps/2 can round to 0: the cutoffs are checked positive.
        couple = self.experiment == "uniqueness-couple"
        levels = _couple_levels(self.cutoffs)[0] if couple else self.cutoffs
        if not levels[-1] > 0.0:
            raise ConfigError(
                f"uniqueness-couple needs cutoffs whose halves are > 0, got {self.cutoffs[-1]!r}"
            )
        if self.experiment == "weak-agree" and len(self.cutoffs) > 1:
            raise ConfigError(
                f"weak-agree compares the two constructions at one cutoff; "
                f"got cutoffs = {', '.join(f'{e:g}' for e in self.cutoffs)}"
            )
        if self.experiment == "counterexample":
            if self.beta is None:
                raise ConfigError("counterexample experiment requires beta")
            if self.replicates < 1000:
                raise ConfigError(
                    "counterexample experiment needs replicates >= 1000 for the KS regime"
                )
            # Grid steps on [0, T], rounded as the driver-law and non-uniqueness
            # checks round them; an infinite product never reaches round().
            steps = self.grid_m * self.horizon
            if steps < 100 and round(steps) < 100:
                raise ConfigError(
                    f"counterexample needs round(grid_m * T) >= 100, got {round(steps)}"
                )
        else:
            try:
                self.phi_object().require_admissible(
                    f"{self.experiment} needs it continuous, non-decreasing and positive"
                )
            except ValueError as exc:
                raise ConfigError(f"phi = {self.phi!r}: {exc}") from exc
            # From above the guard, the solvers' clamp would break the ladder.
            if self.x0 > OVERFLOW_GUARD:
                raise ConfigError(
                    f"x0 must be at most the overflow guard {OVERFLOW_GUARD:g}, got {self.x0!r}"
                )
            # Expected jumps of a driver at the finest level sampled, over the
            # longest span sampled: the time-change drivers' for weak-agree.
            eps = levels[-1]
            sampled = self.horizon * (_TIMECHANGE_SPAN if self.experiment == "weak-agree" else 1.0)
            try:
                jumps = levy_tail_mass(StableParams.default(self.alpha), eps) * sampled
            except OverflowError:
                jumps = math.inf
            if not jumps <= _EXTENSION_EVENTS:
                raise ConfigError(
                    f"cutoff {eps!r} gives about {jumps:.3g} jumps per driver on "
                    f"[0, {sampled!r}], more than the {_EXTENSION_EVENTS} allowed per driver"
                )
            if self.experiment == "weak-agree":
                _check_clock_reach(self, jumps)

    def phi_object(self) -> MonotonePhi:
        return parse_phi(self.phi)


# The one config key that is not its field's name.
_KEY_TO_FIELD = {"T": "horizon"}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse a flat key=value config; unknown keys are rejected outright."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        raw[key] = value.strip()
    if "experiment" not in raw:
        raise ConfigError("config must set 'experiment'")
    experiment = raw.pop("experiment")
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    # threads = 1 is accepted for existing configs.
    if "threads" in raw and _convert("threads", raw.pop("threads"), "threads") != 1:
        raise ConfigError("thread use is fixed per experiment, not configured: threads must be 1")
    spec = _EXPERIMENTS[experiment]
    unused = [key for key in raw if key not in _RUN_KEYS + spec.keys]
    if unused:
        raise ConfigError(f"{experiment} does not use {', '.join(unused)}: {spec.reason}")
    merged = dict(spec.defaults)
    for key, value in raw.items():
        field_name = _KEY_TO_FIELD.get(key, key)
        merged[field_name] = _convert(field_name, value, key)
    try:
        return ExperimentConfig(experiment=experiment, **merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _convert(field_name: str, value: str, key: str):
    try:
        if field_name in ("phi", "out"):
            return value.strip().strip('"')
        if field_name == "cutoffs":
            return tuple(float(v) for v in value.split(",") if v.strip())
        if field_name in ("grid_m", "replicates", "seed", "threads"):
            return int(value)
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {value!r}") from exc


def load_config(path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class SummaryRow:
    """One line of summary.csv plus classification for the exit code."""

    name: str
    value: float
    threshold: float
    passed: bool
    kind: str = "statistical"  # or "invariant" / "diagnostic"
    detail: str = ""


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple[SummaryRow, ...]
    exit_code: int
    artifacts: tuple[str, ...]


def _exit_code(rows: tuple[SummaryRow, ...]) -> int:
    if any(r.kind == "invariant" and not r.passed for r in rows):
        return EXIT_INVARIANT
    if any(r.kind == "statistical" and not r.passed for r in rows):
        return EXIT_STATISTICAL
    return EXIT_PASS


def _write_summary(out_dir: Path, rows: tuple[SummaryRow, ...]) -> str:
    path = out_dir / "summary.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,value,threshold,pass\n")
        for r in rows:
            fh.write(f"{r.name},{r.value:.17g},{r.threshold:.17g},{str(r.passed).lower()}\n")
    return str(path)


# The jump budget of a block of replicates, sampled and solved as one.  The
# ladder kernel's cost per event rank is mostly fixed numpy overhead (about 11
# calls on ladder-deep), so a block takes as many whole replicates as fit, and
# the sampler's two reused 1 MiB buffers bound a run's jump memory whatever
# its replicate count.  A replicate with more jumps is a block of its own.
_BLOCK_JUMPS = 1 << 17


def _replicate_error(exc: Exception, cfg: ExperimentConfig, replicate: int, tag: str):
    """exc again, its message prefixed with the replicate and its derived seed."""
    seed = derive_seed(cfg.seed, replicate, tag)
    return type(exc)(f"replicate {replicate} (seed {seed}): {exc}")


def _replicate_jumps(cfg: ExperimentConfig, tag: str, horizon: float, eps: float):
    """_jump_blocks of the drivers of replicates r, from streams (master seed, r, tag)."""
    rngs = replicate_rngs(cfg.seed, range(cfg.replicates), tag)
    try:
        yield from _jump_blocks(StableParams.default(cfg.alpha), horizon, eps, rngs, _BLOCK_JUMPS)
    except SamplerIntegrityError as exc:
        raise _replicate_error(exc, cfg, exc.driver, tag) from exc


def _solve_replicate_ladders(
    cfg: ExperimentConfig, tag: str, levels: tuple[float, ...], pairs=()
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Final states, guard hits, ladder violations and pair gaps of every replicate.

    Base paths are sampled at the finest of the decreasing ``levels`` by
    _replicate_jumps, and each block it yields is solved as drawn, at every
    level, by one solve_ladders call, which checks the sizes.  A failure
    names the first replicate that fails and its derived seed.
    """
    phi = cfg.phi_object()

    def solve(first: int, sizes: np.ndarray, offsets) -> tuple[np.ndarray, ...]:
        try:
            return solve_ladders(phi, cfg.x0, sizes, offsets, levels, pairs)
        except FloatingPointError:
            # The block stops at the first event rank where a path fails, which
            # need not be its first failing replicate: solve them one at a time.
            for j, (a, b) in enumerate(zip(offsets, offsets[1:])):
                try:
                    solve_ladders(phi, cfg.x0, sizes[a:b], [0, b - a], levels, pairs)
                except FloatingPointError as exc:
                    raise _replicate_error(exc, cfg, first + j, tag) from exc
            raise  # a path fails alone as it fails in its block: not reached

    blocks = [
        solve(first, sizes, offsets)
        for first, _, sizes, offsets in _replicate_jumps(cfg, tag, cfg.horizon, levels[-1])
    ]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> ExperimentResult:
    """Run one experiment, write its artifacts, and classify the outcome."""
    out = Path(out_dir if out_dir is not None else cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    rows, artifacts = _EXPERIMENTS[cfg.experiment].run(cfg, out)
    rows = tuple(rows)
    artifacts = artifacts + (_write_summary(out, rows),)
    return ExperimentResult(
        config=cfg, rows=rows, exit_code=_exit_code(rows), artifacts=tuple(artifacts)
    )


# ---- strong-construct / ladder-monotone ----


# The stream of strong-construct's and ladder-monotone's drivers.
_LADDER_TAG = "ladder-driver"


def _build_replicate_ladder(cfg: ExperimentConfig, replicate: int) -> Ladder:
    phi = cfg.phi_object()
    params = StableParams.default(cfg.alpha)
    rng = replicate_rng(cfg.seed, replicate, _LADDER_TAG)
    return build_ladder(phi, cfg.x0, params, cfg.horizon, cfg.cutoffs, rng)


def _solve_ladder_run(cfg: ExperimentConfig):
    """The ladders of every replicate and their ladder-monotone-violations row."""
    final, guard_hits, violations, _ = _solve_replicate_ladders(cfg, _LADDER_TAG, cfg.cutoffs)
    total = int(violations.sum())
    detail = ""
    if total:
        first = int(np.flatnonzero(violations)[0])
        seed = derive_seed(cfg.seed, first, _LADDER_TAG)
        detail = f"first violation at replicate {first} (seed {seed})"
    row = SummaryRow(
        "ladder-monotone-violations", float(total), 0.0, total == 0, "invariant", detail
    )
    return final, guard_hits, violations, row


def _write_ladder_csv(path: Path, ladder: Ladder) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("eps,t,x\n")
        for eps, sol in zip(ladder.cutoffs, ladder.solutions):
            fh.write(f"{eps:.17g},0,{sol.x0:.17g}\n")
            for t, x in zip(sol.times, sol.post_values):
                fh.write(f"{eps:.17g},{t:.17g},{x:.17g}\n")


def _run_strong_construct(cfg: ExperimentConfig, out: Path):
    final, guard_hits, violations, violations_row = _solve_ladder_run(cfg)
    if final.shape[1] > 1:
        tail_gaps = final[:, -1] - final[:, -2]
    else:
        tail_gaps = np.zeros(cfg.replicates)
    # Replay determinism: replicate 0's full ladder, rebuilt from its seed by
    # the scalar reference, must agree bit for bit with the kernel.
    ladder = _build_replicate_ladder(cfg, 0)
    replay_final = np.array([sol.final for sol in ladder.solutions])
    replay_ok = (
        replay_final.tobytes() == final[0].tobytes()
        and [sol.guard_hits for sol in ladder.solutions] == guard_hits[0].tolist()
        and ladder_violations(ladder) == int(violations[0])
    )
    rows = [
        violations_row,
        SummaryRow("replay-determinism", float(replay_ok), 1.0, replay_ok, "invariant"),
        SummaryRow(
            "monotone-tail-gap-mean",
            float(np.mean(tail_gaps)),
            math.inf,
            True,
            "diagnostic",
        ),
        SummaryRow(
            "overflow-guard-hits", float(guard_hits.sum()), 0.0, True, "diagnostic"
        ),
    ]
    ladder_csv = out / "ladder.csv"
    _write_ladder_csv(ladder_csv, ladder)
    solution_csv = out / "solution.csv"
    ladder.solutions[-1].write_csv(solution_csv)
    return rows, (str(ladder_csv), str(solution_csv))


def _run_ladder_monotone(cfg: ExperimentConfig, out: Path):
    rows = [
        _solve_ladder_run(cfg)[3],
        SummaryRow(
            "replicates-checked", float(cfg.replicates), 1.0, True, "diagnostic"
        ),
    ]
    return rows, ()


# ---- weak-agree ----


# A driver with more events than this is not extended again: each extension
# about doubles them, and a clock that all but stops (a phi that grows very
# fast) would double them until memory runs out.  A config that expects more
# jumps than this per driver is a config error.
_EXTENSION_EVENTS = 1 << 20

# A time-change driver is first sampled on [0, _TIMECHANGE_SPAN * T].
_TIMECHANGE_SPAN = 2.0


def _check_clock_reach(cfg: ExperimentConfig, jumps: float) -> None:
    """ConfigError where _timechange_x is certain to fail on every driver of cfg.

    The jumps and phi are positive, so every state is at least x0, and phi is
    non-decreasing, so no clock slope exceeds phi(x0)**-alpha: no clock passes
    T before its driver spans u0 = T * phi(x0)**alpha.  The span doubles from
    _TIMECHANGE_SPAN * T as _timechange_x doubles it, with ``jumps``, the
    expected events at the first span; up to the spread of the Poisson count,
    a driver fails as the error says.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        phi0 = cfg.phi_object().eval(cfg.x0)
    try:
        slope = phi0**-cfg.alpha
    except OverflowError:
        slope = math.inf
    if not 0.0 < slope < math.inf:
        raise ConfigError(
            f"phi = {cfg.phi!r}: the time-change clock's first slope, phi(x0)**-alpha at "
            f"x0 = {cfg.x0!r}, is {slope!r}, not positive and finite"
        )
    reach = cfg.horizon * phi0**cfg.alpha
    never = (
        f"phi = {cfg.phi!r}: no time-change clock passes T before its driver spans "
        f"T * phi(x0)**alpha = {reach:.3g}"
    )
    span = _TIMECHANGE_SPAN * cfg.horizon
    for _ in range(64):
        if span > reach:
            return
        if jumps > _EXTENSION_EVENTS:
            raise ConfigError(
                f"{never}, but at span {span:.3g} a driver has about {jumps:.3g} jumps, "
                f"past the {_EXTENSION_EVENTS} that may be extended"
            )
        span, jumps = 2.0 * span, 2.0 * jumps
    raise ConfigError(
        f"{never}, past {span / 2.0:.3g}, the span of the 63rd extension, the last one solved"
    )


class ClockCoverageError(RuntimeError):
    """A time-change clock ends at or before T on a driver that is not extended again."""


def _timechange_x(
    cfg: ExperimentConfig, phi: MonotonePhi, times, sizes, horizon, replicate: int, tag: str
) -> float:
    """X at T by time change, on the events of replicate's driver on [0, horizon].

    While its clock ends at or before T, the driver is extended from its
    stream (master seed, replicate, tag), never resampled, and solved again:
    a stopping rule on one jump stream, so the marginal law is untouched.
    The first extension replays the stream: the one-driver _jump_blocks draws
    the driver again and leaves the generator where the block pass left it.
    The extension stays in arrays, so each solve makes the only check of the
    events it solves.  Past _EXTENSION_EVENTS events, or 64 extensions, it
    raises ClockCoverageError.
    """
    (eps,) = cfg.cutoffs
    params = StableParams.default(cfg.alpha)
    rng = None
    for _ in range(64):
        states, _, _, values = solve_time_change(phi, cfg.x0, times, sizes, horizon, eps, cfg.alpha)
        n = times.size
        if values[-1] > cfg.horizon:
            return states[values[1 : n + 1].searchsorted(cfg.horizon, "right")]
        if n > _EXTENSION_EVENTS:
            raise ClockCoverageError(
                f"time-change clock failed to cover the evaluation time on a driver "
                f"of {n} events, past the {_EXTENSION_EVENTS} that may be extended"
            )
        if rng is None:
            rng = replicate_rng(cfg.seed, replicate, tag)
            ((_, times, sizes, _),) = _jump_blocks(params, horizon, eps, (rng,), 0)
        times, sizes = _extend_jumps(params, times, sizes, horizon, 2.0 * horizon, eps, rng)
        horizon *= 2.0
    raise ClockCoverageError(
        "time-change clock failed to cover the evaluation time after 64 extensions"
    )


def _timechange_samples(cfg: ExperimentConfig, tag: str) -> np.ndarray:
    """X at T from the time-change construction, for every replicate.

    Each driver on [0, _TIMECHANGE_SPAN * T] goes to _timechange_x as views of
    its _replicate_jumps block.  A failure names the replicate and its seed.
    """
    phi = cfg.phi_object()
    horizon = _TIMECHANGE_SPAN * cfg.horizon
    xs = np.empty(cfg.replicates)
    for first, times, sizes, offsets in _replicate_jumps(cfg, tag, horizon, cfg.cutoffs[0]):
        for r, (a, b) in enumerate(zip(offsets, offsets[1:]), first):
            try:
                xs[r] = _timechange_x(cfg, phi, times[a:b], sizes[a:b], horizon, r, tag)
            except (ValueError, RuntimeError, FloatingPointError) as exc:
                raise _replicate_error(exc, cfg, r, tag) from exc
    return xs


def _run_weak_agree(cfg: ExperimentConfig, out: Path):
    # Every event lies in (0, T], so the final state is X at T.
    final, _, _, _ = _solve_replicate_ladders(cfg, "weak-agree-truncation", cfg.cutoffs)
    xs_trunc = final[:, 0]
    xs_time = _timechange_samples(cfg, "weak-agree-timechange")
    ks = ks_two_sample(xs_trunc, xs_time)
    samples_csv = out / "weak_agree_samples.csv"
    with open(samples_csv, "w", encoding="utf-8") as fh:
        fh.write("replicate,x_truncation,x_timechange\n")
        for r, (a, b) in enumerate(zip(xs_trunc, xs_time)):
            fh.write(f"{r},{a:.17g},{b:.17g}\n")
    rows = [
        SummaryRow(
            "weak-agree-ks-p",
            ks.p_value,
            cfg.ks_p_threshold,
            ks.p_value > cfg.ks_p_threshold,
            "statistical",
            f"D={ks.statistic:.6g} at n=m={cfg.replicates}",
        ),
        SummaryRow("weak-agree-ks-d", ks.statistic, 1.0, True, "diagnostic"),
    ]
    return rows, (str(samples_csv),)


# ---- uniqueness-couple ----


def _couple_levels(cutoffs) -> tuple[tuple[float, ...], list[tuple[int, int]]]:
    """The decreasing ladder levels of the couple, and each cutoff's (eps/2, eps) indices."""
    levels = tuple(sorted({*cutoffs, *(eps / 2.0 for eps in cutoffs)}, reverse=True))
    return levels, [(levels.index(eps / 2.0), levels.index(eps)) for eps in cutoffs]


def _couple_gaps(cfg: ExperimentConfig) -> np.ndarray:
    """Sup-distances of the eps and eps/2 solutions: two levels of one ladder."""
    return _solve_replicate_ladders(cfg, "couple-driver", *_couple_levels(cfg.cutoffs))[3]


def _run_uniqueness_couple(cfg: ExperimentConfig, out: Path):
    medians = [float(statistics.median(gaps)) for gaps in _couple_gaps(cfg).T]
    non_increasing = all(b <= a for a, b in zip(medians, medians[1:]))
    # With every first sup-distance 0 (near the overflow guard, every jump
    # rounds away against x0) the ratio is 0/0: no evidence either way.
    inconclusive = medians[0] == 0.0
    decay = math.nan if inconclusive else medians[-1] / medians[0]
    couple_csv = out / "couple_medians.csv"
    with open(couple_csv, "w", encoding="utf-8") as fh:
        fh.write("eps,median_sup_distance\n")
        for eps, med in zip(cfg.cutoffs, medians):
            fh.write(f"{eps:.17g},{med:.17g}\n")
    rows = [
        SummaryRow(
            "couple-medians-non-increasing",
            float(non_increasing),
            1.0,
            non_increasing,
            "statistical",
            "medians: " + ", ".join(f"{m:.6g}" for m in medians),
        ),
        SummaryRow(
            "couple-final-over-first",
            decay,
            cfg.couple_decay_max,
            inconclusive or decay < cfg.couple_decay_max,
            "statistical",
            "inconclusive: first median is 0" if inconclusive else "",
        ),
    ]
    return rows, (str(couple_csv),)


# ---- counterexample ----


def _grid_check(check, cfg: ExperimentConfig, tag: str, *args, **kwargs):
    """check(alpha, beta, *args, replicates, rng, m_per_unit=grid_m, **kwargs).

    rng is the stream (master seed, 0, tag) that the check spawns its grid
    runs from; a failed run is named by the check, and here by the stream
    tag and its derived seed, and keeps its type.
    """
    rng = replicate_rng(cfg.seed, 0, tag)
    try:
        return check(
            cfg.alpha, cfg.beta, *args, cfg.replicates, rng, m_per_unit=cfg.grid_m, **kwargs
        )
    except (ValueError, SamplerIntegrityError) as exc:
        seed = derive_seed(cfg.seed, 0, tag)
        raise type(exc)(f"stream '{tag}' (seed {seed}): {exc}") from exc


def _run_counterexample_experiment(cfg: ExperimentConfig, out: Path):
    scaling = _grid_check(
        scaling_law_check, cfg, "counterexample-scaling", 1.0, 2.0, seed=cfg.seed
    )
    # One pass over the T runs gives the driver-law row and the demo's rows.
    tag = "counterexample-driver-law"
    demo = _grid_check(nonuniqueness_demo, cfg, tag, cfg.horizon, seed=cfg.seed)
    law = demo.driver_law
    report_csv = out / "counterexample_report.csv"
    write_report_csv(report_csv, [scaling, law])
    rows = [
        SummaryRow(
            "scaling-law-ks-p",
            scaling.p_value,
            cfg.ks_p_threshold,
            scaling.p_value > cfg.ks_p_threshold,
            "statistical",
            f"D={scaling.statistic:.6g}",
        ),
        SummaryRow(
            "driver-law-ks-p",
            law.p_value,
            cfg.ks_p_threshold,
            law.inconclusive or law.p_value > cfg.ks_p_threshold,
            "statistical",
            "inconclusive: coverage < 0.5" if law.inconclusive else f"D={law.statistic:.6g}",
        ),
        SummaryRow(
            "driver-law-coverage",
            law.coverage,
            cfg.min_coverage,
            law.coverage >= cfg.min_coverage,
            "statistical",
        ),
        SummaryRow(
            "zero-solution-residual",
            demo.zero_solution_residual,
            0.0,
            demo.zero_solution_residual == 0.0,
            "invariant",
        ),
        SummaryRow(
            "nonzero-solution-positive-fraction",
            demo.positive_fraction,
            0.99,
            demo.positive_fraction >= 0.99,
            "statistical",
            f"coverage {demo.coverage:.4g}",
        ),
        SummaryRow(
            "sde-replay-relative-residual",
            demo.replay_residual,
            1e-9,
            demo.replay_residual <= 1e-9,
            "invariant",
            f"replicate {demo.replay_worst_replicate} of stream '{tag}' "
            f"(stream seed {derive_seed(cfg.seed, 0, tag)})",
        ),
    ]
    return rows, (str(report_csv),)


# ---- The experiments ----


@dataclass(frozen=True)
class _Experiment:
    """One experiment: its runner, the config keys it reads and its defaults."""

    run: Callable[[ExperimentConfig, Path], tuple[list[SummaryRow], tuple[str, ...]]]
    keys: tuple[str, ...]  # read beside experiment, threads and _RUN_KEYS
    reason: str  # why it reads no other key
    defaults: dict  # ExperimentConfig fields, applied under explicit config keys


_RUN_KEYS = ("replicates", "seed", "out")
_SOLVE_KEYS = ("alpha", "phi", "x0", "T", "cutoffs")

_EXPERIMENTS = {
    "strong-construct": _Experiment(
        _run_strong_construct,
        _SOLVE_KEYS,
        "it compares ladder levels exactly",
        {
            "alpha": 0.7,
            "phi": "shifted-arctan(2,0.6366)",
            "cutoffs": (0.1, 0.03, 0.01, 0.003, 0.001),
            "replicates": 8,
        },
    ),
    "ladder-monotone": _Experiment(
        _run_ladder_monotone,
        _SOLVE_KEYS,
        "it compares ladder levels exactly",
        {
            "alpha": 0.7,
            "phi": "shifted-arctan(2,0.6366)",
            "cutoffs": (0.1, 0.03, 0.01, 0.003, 0.001),
            "replicates": 1000,
        },
    ),
    "weak-agree": _Experiment(
        _run_weak_agree,
        (*_SOLVE_KEYS, "ks_p_threshold"),
        "it compares two constructions by one KS test",
        {
            "alpha": 0.4,
            "phi": "shifted-arctan(2,0.6366)",
            "cutoffs": (0.001,),
            "replicates": 5000,
        },
    ),
    "uniqueness-couple": _Experiment(
        _run_uniqueness_couple,
        (*_SOLVE_KEYS, "couple_decay_max"),
        "it tests the decay of coupled sup-distances",
        {
            "alpha": 0.1,
            "phi": "shifted-arctan(2,0.6366)",
            "horizon": 30.0,
            "cutoffs": (0.1, 0.05, 0.025, 0.0125, 0.00625),
            "replicates": 500,
        },
    ),
    "counterexample": _Experiment(
        _run_counterexample_experiment,
        ("alpha", "beta", "T", "grid_m", "ks_p_threshold", "min_coverage"),
        "it runs phi = power(beta) from x0 = 0 on exact grid increments",
        {"alpha": 0.5, "beta": 0.5, "horizon": 4.0, "replicates": 2000},
    ),
}

# Every config key that some experiment reads, and threads; any other is unknown.
_KEYS = {
    "experiment",
    "threads",
    *_RUN_KEYS,
    *(key for spec in _EXPERIMENTS.values() for key in spec.keys),
}
