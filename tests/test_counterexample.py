import math
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stable_sde_lab import (
    BEYOND_HORIZON,
    SampleSet,
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
    _clock_total,
    _map_runs,
    _noise_increments,
    _nonuniqueness_outcome,
    _recovered_noise,
    _replay_relative_residual,
    derive_run,
)
from stable_sde_lab.driver import GridPath, _grid_values, sample_grid_path
from stable_sde_lab.phi import PowerPhi
from stable_sde_lab.timechange import clock_eval


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
        assert ks_two_sample(SampleSet(a), SampleSet(b)).p_value > 0.005

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
        streams = np.random.default_rng(15).spawn(40)
        residuals = []
        for g in streams[:16]:
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
        "nonuniqueness": lambda rng: nonuniqueness_demo(
            0.5, 0.5, 2.0, 1000, rng, m_per_unit=100, replay_runs=40
        ),
    }

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_reports_do_not_depend_on_cpus(self, monkeypatch, check):
        reports = []
        for cpus in (1, 2, 3):  # 3 workers split 1000 runs (and 40 replays) unevenly
            _with_cpus(monkeypatch, cpus)
            reports.append(self.CHECKS[check](np.random.default_rng(23)))
        assert reports[0] == reports[1] == reports[2]

    def test_results_keep_spawn_order(self, monkeypatch):
        _with_cpus(monkeypatch, 3)
        assert _map_runs(lambda i: i * i, list(range(10))) == [i * i for i in range(10)]
        assert _map_runs(lambda i: i, []) == []

    def test_first_failure_in_spawn_order_raises(self, monkeypatch):
        # Chunks [0, 3), [3, 6), [6, 10): run 8 fails first in time, but run 3
        # comes first in spawn order.
        _with_cpus(monkeypatch, 3)

        def fn(i):
            if i == 3:
                time.sleep(0.2)
            if i in (3, 8):
                raise ValueError(i)
            return i

        with pytest.raises(ValueError) as excinfo:
            _map_runs(fn, list(range(10)))
        assert excinfo.value.args == (3,)


def _bits(x) -> bytes | None:
    return None if x is None else struct.pack("<d", x)


def _outcome(fn):
    """The value fn returns, or the type of the exception it raises."""
    try:
        return fn()
    except (ValueError, SamplerIntegrityError) as exc:
        return type(exc)


def _demo_reference(run, beta: float, t_eval: float):
    """One run's outcome in nonuniqueness_demo, read off the full derive_run path."""
    z = run.grid.values
    zero = float(np.max(np.abs(PowerPhi(beta).eval(0.0) * np.diff(run.noise_values))))
    residual = _replay_relative_residual(z, beta, _noise_increments(z, beta))
    covered = run.covers(t_eval)
    return zero, residual, covered, covered and run.solution_at(t_eval) > 0.0


def _assert_same_demo_outcome(got, want):
    zero, residual, covered, positive = got
    assert _bits(zero) == _bits(want[0]) and _bits(residual) == _bits(want[1])
    assert covered is want[2] and positive is want[3]


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
            total = _outcome(lambda: lean(lambda *grid: _clock_total(alpha, beta, *grid)))
            noise = _outcome(lambda: lean(lambda *grid: _recovered_noise(alpha, beta, *grid, t)))
            demo = _outcome(
                lambda: lean(lambda *grid: _nonuniqueness_outcome(alpha, beta, *grid, t, True))
            )
            want = full if isinstance(full, type) else _outcome(
                lambda: _demo_reference(full, beta, t)
            )
        if isinstance(full, type):
            assert total is full and noise is full and demo is full
            return
        assert _bits(total) == _bits(full.clock_total)
        expected = full.recovered_noise_at(t) if full.covers(t) else None
        assert _bits(noise) == _bits(expected)
        if isinstance(want, type):
            assert demo is want
        else:
            _assert_same_demo_outcome(demo, want)

    @given(
        m=st.integers(min_value=100, max_value=2000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        position=st.floats(min_value=0.0, max_value=1.0),
        corruption=st.sampled_from(["zero-first", "nan", "inf", "inf-last", "decrease"]),
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
            # The clock's left-endpoint sums never read the last grid value,
            # so the infinite step lands on one of the first m - 1.
            inc[int(position * (m - 2))] = np.inf
            expected = ValueError
        elif corruption == "inf-last":
            # Unread by the clock, read by the recovered noise: NaN residuals.
            inc[-1] = np.inf
        else:
            inc[int(position * (m - 1))] *= -1.0
            expected = ValueError
        times, ds = grid.times, np.diff(grid.times)
        with np.errstate(all="ignore"):
            z = np.concatenate(([0.0], np.cumsum(inc)))
            full = _outcome(lambda: derive_run(0.5, 0.5, GridPath(times=times, values=z)))
            total = _outcome(lambda: _clock_total(0.5, 0.5, times, ds, z))
            noise = _outcome(lambda: _recovered_noise(0.5, 0.5, times, ds, z, 0.5))
            demo = _outcome(lambda: _nonuniqueness_outcome(0.5, 0.5, times, ds, z, t_eval, True))
            want = full if isinstance(full, type) else _outcome(
                lambda: _demo_reference(full, 0.5, t_eval)
            )
        if expected is not None:
            assert full is expected and total is expected and noise is expected
            assert demo is expected
            return
        assert _bits(total) == _bits(full.clock_total)
        assert math.isnan(want[0]) and math.isnan(want[1])
        _assert_same_demo_outcome(demo, want)
