import math
import struct
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from references import clock_eval
from stable_sde_lab import (
    BEYOND_HORIZON,
    SamplerIntegrityError,
    StableParams,
    driver_law_check,
    ks_two_sample,
    nonuniqueness_demo,
    run_counterexample,
    sample_exact_increment,
    scaling_law_check,
)
from stable_sde_lab import counterexample
from stable_sde_lab.counterexample import (
    _check_grid,
    _clock_values,
    _map_runs,
    _noise_increments,
    _replay_relative_residual,
    _run_outcome,
    derive_run,
)
from stable_sde_lab.driver import GridPath, _grid_values, sample_grid_path
from stable_sde_lab.phi import PowerPhi


class TestRunConstruction:
    def test_grid_positive_and_clock_increasing(self):
        run = run_counterexample(0.5, 0.5, 1.0, 5000, np.random.default_rng(0))
        assert np.all(run.grid.values[1:] > 0.0)
        assert np.all(np.diff(run.clock.values) > 0.0)
        assert run.head_value > 0.0
        assert run.head_coeff > 0.0

    def test_inverse_identity_within_tolerance(self):
        run = run_counterexample(0.5, 0.5, 1.0, 5000, np.random.default_rng(1))
        for t in np.linspace(0.01, 0.95, 10) * run.clock_total:
            g = run.inverse_time(t)
            assert g != BEYOND_HORIZON
            assert abs(clock_eval(run.clock, g) - t) <= 1e-9

    def test_inverse_monotone(self):
        run = run_counterexample(0.5, 0.5, 1.0, 5000, np.random.default_rng(2))
        ts = np.linspace(0.0, 0.99, 25) * run.clock_total
        gs = [run.inverse_time(t) for t in ts]
        assert all(b >= a for a, b in zip(gs, gs[1:]))

    def test_solution_positive_after_first_mapped_time(self):
        run = run_counterexample(0.5, 0.5, 1.0, 5000, np.random.default_rng(3))
        first_mapped = run.head_value
        for t in np.linspace(1.001, 20.0, 8) * first_mapped:
            if run.covers(t):
                assert run.solution_at(t) > 0.0

    def test_zero_function_solves_exactly(self):
        # phi(0) = 0 annihilates every recovered-noise increment: the zero
        # path satisfies the equation with residual exactly 0.
        run = run_counterexample(0.5, 0.5, 1.0, 5000, np.random.default_rng(4))
        noise_inc = np.diff(run.noise_values)
        residual = np.max(np.abs(0.0**0.5 * noise_inc))
        assert residual == 0.0

    def test_rejects_coarse_grid_and_bad_beta(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            run_counterexample(0.5, 0.5, 1.0, 50, rng)
        with pytest.raises(ValueError):
            run_counterexample(0.5, 1.0, 1.0, 5000, rng)
        with pytest.raises(ValueError):
            run_counterexample(1.5, 0.5, 1.0, 5000, rng)

    def test_sampler_integrity_abort(self):
        times = np.linspace(0.0, 1.0, 201)
        values = np.linspace(0.0, 1.0, 201)
        values[3] = values[2]  # flat step: still a legal grid path
        grid = GridPath(times=times, values=values)
        derive_run(0.5, 0.5, grid)  # flat but positive is fine
        zeroed = values.copy()
        zeroed[1] = 0.0
        zeroed[2] = 0.0
        zeroed[3] = 0.0
        with pytest.raises(SamplerIntegrityError):
            derive_run(0.5, 0.5, GridPath(times=times, values=zeroed))


class TestScalingLaw:
    def test_reported_exponent_is_one_minus_beta(self):
        # The rescale factor applied to B(t2) is (t2/t1)**(beta-1), the
        # exponent of the law identity itself.
        t1, t2, beta = 1.0, 2.0, 0.5
        assert (t2 / t1) ** (1.0 - beta) == pytest.approx(2.0**0.5, rel=1e-15)

    def test_equal_horizons_concentrate_near_zero(self):
        rep = scaling_law_check(
            0.5, 0.5, 1.0, 1.0, 1000, np.random.default_rng(5), m_per_unit=2000
        )
        assert rep.statistic < 0.08
        assert rep.p_value > 0.01

    def test_canonical_parameters_pass(self):
        rep = scaling_law_check(
            0.5, 0.5, 1.0, 2.0, 2000, np.random.default_rng(6), m_per_unit=2000
        )
        assert rep.p_value > 0.01
        assert rep.check == "scaling-law"

    def test_beta_near_one_stays_finite(self):
        # Scaling exponent 1 - beta ~ 0.01: the clock barely depends on the
        # horizon after rescaling, and every run stays finite.
        rep = scaling_law_check(
            0.5, 0.99, 1.0, 2.0, 1000, np.random.default_rng(7), m_per_unit=1000
        )
        assert np.isfinite(rep.statistic)
        assert rep.p_value > 0.001

    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            scaling_law_check(0.5, 0.5, 1.0, 2.0, 10, np.random.default_rng(0))


class TestDriverLaw:
    def test_same_law_baseline(self):
        # Sanity floor: two independent exact driver samples must not be
        # distinguishable.
        params = StableParams.default(0.5)
        rng = np.random.default_rng(11)
        a = sample_exact_increment(params, 1.0, rng, size=2000)
        b = sample_exact_increment(params, 1.0, rng, size=2000)
        assert ks_two_sample(a, b).p_value > 0.005

    def test_canonical_parameters_pass(self):
        rep = driver_law_check(
            0.5, 0.5, 4.0, 1200, np.random.default_rng(12), m_per_unit=2000
        )
        assert rep.p_value > 0.01
        assert rep.coverage > 0.8
        assert not rep.inconclusive

    def test_beta_near_zero_sanity(self):
        # phi(x) = x**0.05 is close to 1 away from 0, so the recovered noise
        # nearly equals the driver itself.
        rep = driver_law_check(
            0.5, 0.05, 2.0, 1000, np.random.default_rng(13), m_per_unit=2000
        )
        assert rep.p_value > 0.01

    def test_short_horizon_flags_inconclusive(self):
        rep = driver_law_check(
            0.5, 0.5, 0.05, 1000, np.random.default_rng(14), m_per_unit=4000
        )
        assert rep.coverage < 0.5
        assert rep.inconclusive


class TestNonUniqueness:
    def test_report_contents(self):
        rep = nonuniqueness_demo(
            0.5, 0.5, 4.0, 250, np.random.default_rng(15), m_per_unit=2000
        )
        assert rep.zero_solution_residual == 0.0
        assert rep.positive_fraction >= 0.99
        assert rep.coverage > 0.8
        assert rep.replay_residual <= 1e-9

    def test_names_the_worst_replay_replicate(self):
        rng = np.random.default_rng(15)
        rep = nonuniqueness_demo(0.5, 0.5, 4.0, 40, rng, m_per_unit=500)
        streams = np.random.default_rng(15).spawn(2)[0].spawn(40)
        residuals = []
        for g in streams[: counterexample.REPLAY_RUNS]:
            run = run_counterexample(0.5, 0.5, 4.0, 2000, g)
            z = run.grid.values
            residuals.append(_replay_relative_residual(z, 0.5, _noise_increments(z, 0.5)))
        assert rep.replay_residual == max(residuals) > 0.0
        assert rep.replay_worst_replicate == residuals.index(max(residuals))

    def test_replay_keeps_a_nan_increment(self):
        run = run_counterexample(0.5, 0.5, 1.0, 200, np.random.default_rng(15))
        z = run.grid.values
        inc = _noise_increments(z, 0.5)
        assert _replay_relative_residual(z, 0.5, inc) <= 1e-9
        inc[5] = np.nan
        assert math.isnan(_replay_relative_residual(z, 0.5, inc))

    def test_beta_one_rejected(self):
        with pytest.raises(ValueError):
            nonuniqueness_demo(0.5, 1.0, 4.0, 100, np.random.default_rng(0))


class TestHeadCorrection:
    def test_head_shrinks_with_grid(self):
        # The singular head covers [0, s_1]; refining the grid must shrink it.
        coarse = run_counterexample(0.5, 0.5, 1.0, 1000, np.random.default_rng(17))
        fine = run_counterexample(0.5, 0.5, 1.0, 100_000, np.random.default_rng(17))
        assert fine.head_value < coarse.head_value


class TestReplicateIndependence:
    def test_spawned_streams_are_index_stable(self):
        # Child k of a spawning generator depends on k alone, not on how many
        # children are requested: replicate k survives changes to n.
        few = np.random.default_rng(18).spawn(4)
        many = np.random.default_rng(18).spawn(9)
        assert np.array_equal(few[2].random(8), many[2].random(8))

    def test_check_is_deterministic_given_generator(self):
        r1 = scaling_law_check(
            0.5, 0.5, 1.0, 2.0, 1000, np.random.default_rng(18), m_per_unit=1000
        )
        r2 = scaling_law_check(
            0.5, 0.5, 1.0, 2.0, 1000, np.random.default_rng(18), m_per_unit=1000
        )
        assert r1.statistic == r2.statistic
        assert r1.p_value == r2.p_value


def _with_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(counterexample.os, "sched_getaffinity", lambda pid: set(range(cpus)))


class TestWorkerCount:
    """The grid runs give the same reports on any number of worker threads."""

    CHECKS = {
        "scaling-law": lambda rng: scaling_law_check(
            0.5, 0.5, 1.0, 2.0, 1000, rng, m_per_unit=100
        ),
        "driver-law": lambda rng: driver_law_check(0.5, 0.5, 2.0, 1000, rng, m_per_unit=100),
        # 3 workers split 40 runs into [0, 13), [13, 26) and [26, 40): the
        # REPLAY_RUNS = 16 replay runs span the first two chunks.
        "nonuniqueness": lambda rng: nonuniqueness_demo(0.5, 0.5, 2.0, 40, rng, m_per_unit=100),
    }

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_reports_do_not_depend_on_cpus(self, monkeypatch, check):
        reports = []
        for cpus in (1, 2, 3):  # 3 workers split the runs unevenly
            _with_cpus(monkeypatch, cpus)
            reports.append(self.CHECKS[check](np.random.default_rng(23)))
        assert reports[0] == reports[1] == reports[2]

    def test_results_keep_spawn_order(self, monkeypatch):
        _with_cpus(monkeypatch, 3)
        runs = _map_runs("t", lambda k, g, buf: (k, g * g, buf.shape), list(range(10)), 100)
        assert runs == [(k, k * k, (3, 101)) for k in range(10)]
        assert _map_runs("t", lambda k, g, buf: g, [], 100) == []

    def test_first_failure_in_spawn_order_raises(self, monkeypatch):
        # Chunks [0, 3), [3, 6), [6, 10): run 8 fails first in time, but run 3
        # comes first in spawn order.
        _with_cpus(monkeypatch, 3)

        def fn(k, g, buf):
            if k == 3:
                time.sleep(0.2)
            if k in (3, 8):
                raise (ValueError if k == 3 else SamplerIntegrityError)(g)
            return g

        with pytest.raises(ValueError) as excinfo:
            _map_runs("t", fn, list(range(10)), 100)
        assert str(excinfo.value) == "t run 3: 3"
        assert type(excinfo.value) is ValueError

    def test_one_map_per_horizon(self, monkeypatch):
        # The demo maps all its runs, replay runs included, in one call; the
        # scaling check maps each of its two horizons once.
        calls = []

        def counting(check, fn, generators, m):
            calls.append((check, len(generators), m))
            return _map_runs(check, fn, generators, m)

        monkeypatch.setattr(counterexample, "_map_runs", counting)
        nonuniqueness_demo(0.5, 0.5, 2.0, 40, np.random.default_rng(23), m_per_unit=100)
        assert calls == [("driver-law", 40, 200)]
        calls.clear()
        self.CHECKS["scaling-law"](np.random.default_rng(23))
        assert calls == [("scaling-law t1=1", 1000, 100), ("scaling-law t2=2", 1000, 200)]

    def test_platform_without_affinity_counts_cpus(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity.
        _with_cpus(monkeypatch, 1)
        one_cpu = self.CHECKS["scaling-law"](np.random.default_rng(23))
        monkeypatch.delattr(counterexample.os, "sched_getaffinity")
        monkeypatch.setattr(counterexample.os, "cpu_count", lambda: 3)
        assert self.CHECKS["scaling-law"](np.random.default_rng(23)) == one_cpu


def _bits(x) -> bytes | None:
    return None if x is None else struct.pack("<d", x)


def _outcome(fn):
    """The value fn returns, or the type of the exception it raises."""
    try:
        return fn()
    except (ValueError, FloatingPointError, SamplerIntegrityError) as exc:
        return type(exc)


def _run_reference(run, beta: float, t: float):
    """One run's outcome in nonuniqueness_demo, read off the full derive_run path."""
    z = run.grid.values
    zero = float(np.max(np.abs(PowerPhi(beta).eval(0.0) * np.diff(run.noise_values))))
    residual = _replay_relative_residual(z, beta, _noise_increments(z, beta))
    if not run.covers(t):
        return None, zero, residual, False, False
    return run.recovered_noise_at(t), zero, residual, True, run.solution_at(t) > 0.0


def _assert_same_run_outcome(got, want):
    noise, zero, residual, covered, positive = got
    assert _bits(noise) == _bits(want[0])
    assert _bits(zero) == _bits(want[1]) and _bits(residual) == _bits(want[2])
    assert covered is want[3] and positive is want[4]


def _assert_same_runs(runs, want):
    """runs: one run's outcome with the replay, then without it."""
    _assert_same_run_outcome(runs[0], want)
    _assert_same_run_outcome(runs[1], (*want[:2], None, *want[3:]))


unit_open = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


class TestLeanPaths:
    """The array paths of the grid runs against the full derive_run path."""

    @given(
        alpha=unit_open,
        beta=unit_open,
        horizon=st.floats(min_value=0.05, max_value=8.0),
        m=st.integers(min_value=100, max_value=3000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        t=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=80, deadline=None)
    # On this grid B(s_1), B(s_2), B(s_3) are 0.221, 0.291, 0.358: t inverts
    # to grid index 0 (at s = 0, then inside the head interval), 1 and 2,
    # where the recovered noise is 0, its head term, and one or two
    # increments past it.
    @example(alpha=0.5, beta=0.5, horizon=1.0, m=100, seed=1, t=0.0)
    @example(alpha=0.5, beta=0.5, horizon=1.0, m=100, seed=1, t=0.1)
    @example(alpha=0.5, beta=0.5, horizon=1.0, m=100, seed=1, t=0.25)
    @example(alpha=0.5, beta=0.5, horizon=1.0, m=100, seed=1, t=0.32)
    def test_bit_equal_to_full_run(self, alpha, beta, horizon, m, seed, t):
        def lean(fn):
            # What a check does per run: one shared time grid, then z alone.
            times, ds, params = _check_grid(alpha, beta, horizon, m)
            z = _grid_values(params, horizon, m, np.random.default_rng(seed))
            return fn(times, ds, z)

        with np.errstate(all="ignore"):
            full = _outcome(
                lambda: run_counterexample(alpha, beta, horizon, m, np.random.default_rng(seed))
            )
            total = _outcome(lambda: lean(lambda *grid: _clock_values(alpha, beta, *grid)[0][-1]))
            runs = [
                _outcome(lambda: lean(lambda *grid: _run_outcome(alpha, beta, *grid, t, replay)))
                for replay in (True, False)
            ]
            want = full if isinstance(full, type) else _outcome(
                lambda: _run_reference(full, beta, t)
            )
        if isinstance(full, type):
            assert total is full and runs == [full, full]
            return
        assert _bits(total) == _bits(full.clock_total)
        if isinstance(want, type):
            assert runs == [want, want]
        else:
            _assert_same_runs(runs, want)

    @given(
        m=st.integers(min_value=100, max_value=2000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        position=st.floats(min_value=0.0, max_value=1.0),
        corruption=st.sampled_from(
            ["zero-first", "nan", "inf", "inf-last", "huge-last", "decrease"]
        ),
        t_eval=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_corrupted_grids_raise_the_same_type(self, m, seed, position, corruption, t_eval):
        grid = sample_grid_path(StableParams.default(0.5), 1.0, m, np.random.default_rng(seed))
        inc = np.diff(grid.values)
        expected = None  # the full run's outcome, when it raises nothing
        if corruption == "zero-first":
            inc[0] = 0.0
            expected = SamplerIntegrityError
        elif corruption == "nan":
            inc[int(position * (m - 1))] = np.nan
            expected = SamplerIntegrityError
        elif corruption == "inf":
            inc[int(position * (m - 2))] = np.inf
            expected = SamplerIntegrityError
        elif corruption == "inf-last":
            # Unread by the clock's left-endpoint sums, but a sampler failure.
            inc[-1] = np.inf
            expected = SamplerIntegrityError
        elif corruption == "huge-last":
            # Finite, but past the bound that lets a run skip the noise sum
            # beyond t: the full sum decides the zero residual.
            inc[-1] = 1e300
        else:
            inc[int(position * (m - 1))] *= -1.0
            expected = ValueError
        times, ds = grid.times, np.diff(grid.times)
        with np.errstate(all="ignore"):
            z = np.concatenate(([0.0], np.cumsum(inc)))
            full = _outcome(lambda: derive_run(0.5, 0.5, GridPath(times=times, values=z)))
            total = _outcome(lambda: _clock_values(0.5, 0.5, times, ds, z)[0][-1])
            runs = [
                _outcome(lambda: _run_outcome(0.5, 0.5, times, ds, z, t_eval, replay))
                for replay in (True, False)
            ]
            want = full if isinstance(full, type) else _outcome(
                lambda: _run_reference(full, 0.5, t_eval)
            )
        if expected is not None:
            assert full is expected and total is expected and runs == [expected, expected]
            return
        assert _bits(total) == _bits(full.clock_total)
        _assert_same_runs(runs, want)

    @pytest.mark.parametrize("replay", [False, True])
    def test_worker_buffers_keep_nothing_between_runs(self, replay):
        # One worker's buffers take a good grid, then a grid whose run fills
        # them with inf and raises, then another good grid: the last run
        # gives what it gives on fresh buffers.
        alpha, beta, horizon, m = 0.5, 0.5, 4.0, 400
        times, ds, params = _check_grid(alpha, beta, horizon, m)
        buf = np.empty((3, m + 1))

        def run(z, buffers):
            return (
                _clock_values(alpha, beta, times, ds, z, buffers)[0][-1],
                _run_outcome(alpha, beta, times, ds, z, 1.0, replay, buffers),
            )

        run(_grid_values(params, horizon, m, np.random.default_rng(1), buf[0]), buf[1:])
        buf[0, m // 2 :] = np.inf
        with np.errstate(all="ignore"), pytest.raises(SamplerIntegrityError, match="inf"):
            run(buf[0], buf[1:])
        z = _grid_values(params, horizon, m, np.random.default_rng(2), buf[0])
        total, outcome = run(z, buf[1:])
        want_total, want = run(z.copy(), None)
        assert outcome[3], "the run must cover t = 1 to read the noise prefix"
        assert _bits(total) == _bits(want_total)
        _assert_same_run_outcome(outcome, want)

    def test_reports_read_the_reference_runs(self, monkeypatch):
        # The driver-law KS test takes V at t = 1 of derive_run over the
        # demo's run streams, and both reports count the same covered runs.
        alpha, beta, horizon, n, m_per_unit = 0.5, 0.5, 2.0, 1000, 100
        inputs = []

        def recording_ks(x, y):
            inputs.append((np.asarray(x), np.asarray(y)))
            return ks_two_sample(x, y)

        monkeypatch.setattr(counterexample, "ks_two_sample", recording_ks)
        rep = nonuniqueness_demo(
            alpha, beta, horizon, n, np.random.default_rng(29), m_per_unit=m_per_unit, seed=29
        )
        run_parent, exact_parent = np.random.default_rng(29).spawn(2)
        params = StableParams.default(alpha)
        m = int(round(m_per_unit * horizon))
        runs = [
            derive_run(alpha, beta, sample_grid_path(params, horizon, m, g))
            for g in run_parent.spawn(n)
        ]
        recovered = np.array([r.recovered_noise_at(1.0) for r in runs if r.covers(1.0)])
        exact = sample_exact_increment(params, 1.0, exact_parent, size=n)
        [(got_recovered, got_exact)] = inputs
        assert got_recovered.tobytes() == recovered.tobytes()
        assert got_exact.tobytes() == exact.tobytes()
        assert rep.driver_law.coverage == rep.coverage == len(recovered) / n
        assert rep.driver_law.seed == 29 and not rep.driver_law.inconclusive
        law = driver_law_check(
            alpha, beta, horizon, n, np.random.default_rng(29), m_per_unit=m_per_unit, seed=29
        )
        assert law == rep.driver_law
