import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import (
    build_forward_clock,
    clock_eval,
    clock_roundtrip_residual,
    solve_path,
    x_at,
)
from stable_sde_lab import timechange
from stable_sde_lab import (
    BEYOND_HORIZON,
    Clock,
    ConstantPhi,
    JumpPath,
    MonotonePhi,
    PiecewiseLinearPhi,
    PowerPhi,
    ShiftedArctanPhi,
    SoftRampPhi,
    SolutionPath,
    StableParams,
    invert_clock,
    sample_truncated_path,
    solve_time_change,
    solve_truncated,
)

ARCTAN = ShiftedArctanPhi(2.0, 2.0 / math.pi)


def make_path(times, sizes, horizon=1.0, cutoff=0.5):
    return JumpPath(
        horizon=horizon,
        times=np.asarray(times, dtype=float),
        sizes=np.asarray(sizes, dtype=float),
        cutoff=cutoff,
    )


def single_jump_clock():
    return Clock(*solve_path(ARCTAN, 0.0, make_path([0.5], [1.0]), 0.5)[1:])


class TestBuildClock:
    """The clock that solve_time_change builds on the driver timeline."""

    def test_unit_coefficient_gives_identity_clock(self):
        path = make_path([0.25, 0.75], [1.0, 2.0])
        clock = Clock(*solve_path(ConstantPhi(1.0), 0.0, path, 0.5)[1:])
        assert np.all(clock.slopes == 1.0)
        assert clock.total == 1.0
        for t in (0.1, 0.3, 0.9):
            assert clock_eval(clock, t) == t

    def test_two_segment_hand_oracle(self):
        # B(1) = 0.5 * phi(0)**-0.5 + 0.5 * phi(1)**-0.5 with phi(0)=3, phi(1)=3.5.
        clock = single_jump_clock()
        expected = 0.5 * 3.0**-0.5 + 0.5 * 3.5**-0.5
        assert expected == pytest.approx(0.5559363765072373, rel=1e-15)
        assert clock.total == pytest.approx(expected, rel=1e-14)
        assert clock.values[1] == pytest.approx(0.5 * 3.0**-0.5, rel=1e-14)

    def test_empty_driver_single_segment(self):
        clock = Clock(*solve_path(ARCTAN, 1.0, make_path([], []), 0.5)[1:])
        phi_at_x = ARCTAN.eval(1.0)
        assert clock.breakpoints.tolist() == [0.0, 1.0]
        assert clock.total == pytest.approx(phi_at_x**-0.5, rel=1e-14)

    def test_slopes_strictly_positive(self):
        params = StableParams.default(0.7)
        path = sample_truncated_path(params, 1.0, 0.01, np.random.default_rng(0))
        clock = Clock(*solve_path(ARCTAN, 0.0, path, 0.7)[1:])
        assert np.all(clock.slopes > 0.0)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_vanishing_phi_is_rejected(self):
        # A phi that claims admissibility but vanishes: its zero state gives
        # the clock an infinite slope, which Clock's checks reject.
        class VanishingPhi(MonotonePhi):
            assumption_ok = True

            def eval(self, x):
                return np.zeros_like(np.asarray(x, dtype=float))

            def describe(self):
                return "vanishing"

        with pytest.raises(ValueError, match="slopes must be positive and finite"):
            solve_path(VanishingPhi(), 0.0, make_path([0.5], [1.0]), 0.5)

    def test_rejects_degenerate_phi(self):
        with pytest.raises(ValueError):
            solve_path(PowerPhi(0.5), 0.0, make_path([0.5], [1.0]), 0.5)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            solve_path(ARCTAN, 0.0, make_path([0.5], [1.0]), 1.0)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value", "ignore:divide by zero")
    def test_clocks_checks_run_only_on_a_clock_it_cannot_explain(self, monkeypatch):
        # solve_time_change makes its own two checks.  It calls Clock's only
        # on a clock that fails them where phi is finite and some slope is
        # not positive and finite; a non-finite phi, or a total that
        # overflowed from finite slopes, raises FloatingPointError first.
        checks = []
        real = timechange._check_clock

        def counting(*arrays):
            checks.append(None)
            real(*arrays)

        monkeypatch.setattr(timechange, "_check_clock", counting)
        path = make_path([0.25, 0.75], [1.0, 2.0])
        solve_time_change(ARCTAN, 0.0, path.times, path.sizes, 1.0, 0.5, 0.5)
        with pytest.raises(FloatingPointError, match="non-finite"):
            solve_time_change(SoftRampPhi(1.0, 1e308), 0.0, path.times, path.sizes, 1.0, 0.5, 0.5)
        # Finite slopes of about 1e270 over a length of 2**1000 overflow the values.
        with pytest.raises(FloatingPointError, match="overflowed to inf"):
            solve_time_change(
                ConstantPhi(1e-300), 0.0, np.array([2.0**999]), np.ones(1), 2.0**1000, 0.5, 0.9
            )
        assert not checks
        # phi = 5e-324 is finite, but its slope phi**-alpha overflows to inf.
        with pytest.raises(ValueError, match="slopes must be positive"):
            solve_time_change(
                ConstantPhi(5e-324), 0.0, path.times, path.sizes, 1.0, 0.5, 0.9999999
            )
        assert len(checks) == 1


class TestInvertClock:
    def test_identity_clock_inverts_bitwise(self):
        clock = Clock(*solve_path(ConstantPhi(1.0), 0.0, make_path([0.5], [1.0]), 0.5)[1:])
        for t in (0.0, 0.125, 0.3, 0.99999):
            assert invert_clock(clock, t) == t

    def test_breakpoint_value_maps_to_breakpoint(self):
        clock = single_jump_clock()
        assert invert_clock(clock, clock.values[1]) == 0.5
        assert invert_clock(clock, 0.0) == 0.0

    def test_interior_segment_solution(self):
        clock = single_jump_clock()
        t = 0.5 * clock.values[1]
        s = invert_clock(clock, t)
        assert clock_eval(clock, s) == pytest.approx(t, rel=1e-14)
        assert s == pytest.approx(0.25, rel=1e-12)  # first segment is linear

    def test_beyond_horizon_sentinel(self):
        clock = single_jump_clock()
        assert invert_clock(clock, clock.total) == BEYOND_HORIZON
        assert invert_clock(clock, clock.total + 1.0) == BEYOND_HORIZON

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            invert_clock(single_jump_clock(), -0.1)


class TestClockValidation:
    def test_rejects_inconsistent_values(self):
        with pytest.raises(ValueError):
            Clock(
                breakpoints=np.array([0.0, 1.0]),
                slopes=np.array([1.0]),
                values=np.array([0.0, 2.0]),
            )

    def test_rejects_nonpositive_slopes(self):
        with pytest.raises(ValueError):
            Clock(
                breakpoints=np.array([0.0, 1.0]),
                slopes=np.array([0.0]),
                values=np.array([0.0, 0.0]),
            )

    @pytest.mark.parametrize(
        "breakpoints, slopes, values, message",
        [
            ([0.5, 1.0], [1.0], [0.0, 0.5], "start at 0 and strictly increase"),
            ([0.0, 1.0, 1.0], [1.0, 1.0], [0.0, 1.0, 1.0], "start at 0 and strictly increase"),
            ([0.0, math.nan], [1.0], [0.0, 1.0], "start at 0 and strictly increase"),
            ([0.0, 1.0], [1.0], [0.5, 1.5], "clock must start at 0"),
            ([0.0, 1.0], [-1.0], [0.0, -1.0], "positive and finite"),
            ([0.0, 1.0], [math.inf], [0.0, math.inf], "positive and finite"),
            ([0.0, 1.0], [math.nan], [0.0, 1.0], "positive and finite"),
            ([0.0, 1.0, 2.0], [1.0, 1.0], [0.0, 1.0, 2.0 + 1e-9], "replay tolerance"),
            ([0.0, 1.0], [1.0], [0.0, math.nan], "replay tolerance"),
        ],
    )
    def test_names_what_is_broken(self, breakpoints, slopes, values, message):
        with pytest.raises(ValueError, match=message):
            Clock(
                breakpoints=np.array(breakpoints),
                slopes=np.array(slopes),
                values=np.array(values),
            )

    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(ValueError):
            Clock(
                breakpoints=np.array([0.0, 1.0, 0.5]),
                slopes=np.array([1.0, 1.0]),
                values=np.array([0.0, 1.0, 0.5]),
            )


class TestSolveTimeChange:
    def test_unit_coefficient_is_identity_time_change(self):
        path = make_path([0.25, 0.75], [1.0, 2.0])
        states, _, _, values = solve_path(ConstantPhi(1.0), 0.5, path, 0.5)
        assert values[-1] == 1.0
        for t in (0.1, 0.25, 0.8, 0.999):
            assert x_at(states, values, t) == 0.5 + path.value_at(t)

    def test_single_jump_maps_to_clock_value(self):
        states, _, _, values = solve_path(ARCTAN, 0.0, make_path([0.5], [1.0]), 0.5)
        jump_time = 0.5 * 3.0**-0.5
        assert values[1] == pytest.approx(jump_time, rel=1e-14)
        assert x_at(states, values, values[1]) == 1.0
        assert x_at(states, values, 0.5 * jump_time) == 0.0

    def test_jump_sizes_survive_the_time_change(self):
        # The time change relabels jump times but not jump sizes; the stored
        # values are running sums, so sizes are recovered within a few ulps
        # of the running value.
        params = StableParams.default(0.6)
        path = sample_truncated_path(params, 1.0, 0.02, np.random.default_rng(9))
        states = solve_path(ARCTAN, 0.0, path, 0.6)[0]
        gap = np.abs(np.diff(states) - path.sizes)
        assert np.all(gap <= 4.0 * np.spacing(states[1:]))

    def test_sde_form_cross_check(self):
        # The recovered driver dV = dX / phi(X-) turns the event-driven solver
        # into a reconstruction of the same path: X must replay exactly.
        params = StableParams.default(0.6)
        path = sample_truncated_path(params, 1.0, 0.02, np.random.default_rng(10))
        states, _, _, values = solve_path(ARCTAN, 0.25, path, 0.6)
        dv = np.diff(states) / ARCTAN.eval(states[:-1])
        recovered = JumpPath(
            horizon=values[-1], times=values[1 : len(path) + 1], sizes=dv, cutoff=float(dv.min())
        )
        replay = solve_truncated(ARCTAN, 0.25, recovered)
        assert np.allclose(replay.post_values, states[1:], rtol=1e-12, atol=0.0)

    def test_constant_phi_composition_identity(self):
        # For phi = c the solution clock is t * c**alpha: X_t = x + Z(t * c**alpha).
        c, alpha = 3.0, 0.5
        params = StableParams.default(alpha)
        path = sample_truncated_path(params, 1.0, 0.02, np.random.default_rng(12))
        states, _, _, values = solve_path(ConstantPhi(c), 0.0, path, alpha)
        rate = c**alpha
        for t in (0.1, 0.2, 0.3):
            if t < values[-1]:
                assert x_at(states, values, t) == path.value_at(min(t * rate, 1.0))


class TestRoundtrip:
    def test_constant_phi_residual_zero(self):
        path = make_path([0.25, 0.75], [1.0, 2.0])
        assert clock_roundtrip_residual(ConstantPhi(1.0), 0.0, path, 0.5) == 0.0

    def test_single_jump_residual_tiny(self):
        path = make_path([0.5], [1.0])
        assert clock_roundtrip_residual(ARCTAN, 0.0, path, 0.5) <= 1e-12

    def test_random_runs_bounded(self):
        params = StableParams.default(0.7)
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(100):
            path = sample_truncated_path(params, 1.0, 0.005, rng)
            worst = max(worst, clock_roundtrip_residual(ARCTAN, 0.0, path, 0.7))
        assert worst <= 1e-9

    def test_forward_clock_inverts_backward_clock(self):
        params = StableParams.default(0.5)
        path = sample_truncated_path(params, 1.0, 0.02, np.random.default_rng(6))
        states, breakpoints, _, values = solve_path(ARCTAN, 0.0, path, 0.5)
        forward = build_forward_clock(ARCTAN, states, values[1 : len(path) + 1], values[-1], 0.5)
        assert np.allclose(forward.values, breakpoints, rtol=0.0, atol=1e-12)


def _reference_time_change(phi, x, driver, alpha):
    """The per-replicate object path the kernel replaced: (SolutionPath, Clock)."""
    states = x + np.concatenate(([0.0], driver.cumulative_sizes))
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not phi.assumption_ok:
        raise ValueError(
            f"{phi.describe()} violates the admissibility assumptions; "
            "the clock would not be strictly increasing"
        )
    if not (driver.cutoff > 0.0):
        raise ValueError("clock construction requires a finite-activity driver")
    if driver.times.size and driver.times[-1] == driver.horizon:
        breakpoints = np.concatenate(([0.0], driver.times))
    else:
        breakpoints = np.concatenate(([0.0], driver.times, [driver.horizon]))
    slopes = np.atleast_1d(phi.eval(states[: breakpoints.size - 1]) ** -alpha)
    values = np.zeros(breakpoints.size)
    np.cumsum(slopes * (breakpoints[1:] - breakpoints[:-1]), out=values[1:])
    clock = Clock(breakpoints=breakpoints, slopes=slopes, values=values)
    n = len(driver)
    solution = SolutionPath(
        x0=float(x),
        horizon=clock.total,
        times=clock.values[1 : n + 1].copy(),
        post_values=states[1:],
    )
    return solution, clock


def _outcome(fn):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)


def _clock_checked_outcome(phi, x, times, sizes, horizon, cutoff, alpha):
    """The kernel's arrays as bytes, each clock checked in full, or what it raised.

    phi is checked finite at every state first, as solve_truncated checks it.
    A total that is not finite over slopes that all are, positive too, can
    only have overflowed: it raises FloatingPointError before Clock's checks.
    """
    def checked():
        arrays = timechange._time_change_arrays(phi, x, times, sizes, horizon, cutoff, alpha)
        states, _, slopes, values = arrays
        for k, state in enumerate(states[: slopes.size].tolist()):
            if not math.isfinite(phi.eval(state)):
                raise FloatingPointError(f"phi evaluated non-finite at state {state!r} (event {k})")
        slopes = slopes.tolist()
        if all(0.0 < slope < math.inf for slope in slopes) and not math.isfinite(values[-1]):
            raise FloatingPointError(
                f"time-change clock overflowed to inf, with finite slopes up to {max(slopes)!r}"
            )
        timechange._check_clock(*arrays[1:])
        return arrays

    return _as_bytes(_outcome(checked))


def _as_bytes(outcome):
    return outcome if isinstance(outcome[0], type) else tuple(a.tobytes() for a in outcome)


_POSITIVE = st.floats(0.05, 5.0)
_PHIS = st.one_of(
    st.builds(ConstantPhi, _POSITIVE),
    st.builds(ShiftedArctanPhi, _POSITIVE, st.floats(0.0, 3.0)),
    st.builds(SoftRampPhi, _POSITIVE, st.floats(0.0, 3.0)),
    st.builds(
        lambda x0, dx, y0, dy: PiecewiseLinearPhi((x0, x0 + dx), (y0, y0 + dy)),
        st.floats(-3.0, 3.0),
        st.floats(0.1, 4.0),
        _POSITIVE,
        st.floats(0.0, 3.0),
    ),
)


class TestTimeChangeKernel:
    """solve_time_change on arrays equals the object path it replaced, bit for bit."""

    @given(
        phi=_PHIS,
        x=st.one_of(st.just(-0.0), st.just(0.0), st.floats(-5.0, 5.0)),
        alpha=st.floats(0.05, 0.95),
        horizon=st.floats(0.1, 4.0),
        eps=st.floats(0.002, 3.0),
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["sampled", "empty", "last-on-horizon"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_object_path(self, phi, x, alpha, horizon, eps, seed, shape):
        params = StableParams.default(alpha)
        path = sample_truncated_path(params, horizon, eps, np.random.default_rng(seed))
        times, sizes = path.times, path.sizes
        if shape == "empty":
            times, sizes = times[:0], sizes[:0]
        elif shape == "last-on-horizon" and times.size:
            times[-1] = horizon
        driver = JumpPath(horizon, times, sizes, eps)
        want, clock = _reference_time_change(phi, x, driver, alpha)
        states, breakpoints, slopes, values = solve_path(phi, x, driver, alpha)
        assert states.tobytes() == want.states.tobytes()
        assert breakpoints.tobytes() == clock.breakpoints.tobytes()
        assert slopes.tobytes() == clock.slopes.tobytes()
        assert values.tobytes() == clock.values.tobytes()
        n = sizes.size
        assert values.size == n + 1 + (shape != "last-on-horizon" or n == 0)
        for t in np.linspace(0.0, clock.total, 9)[:-1]:
            got = x_at(states, values, t)
            assert np.float64(got).tobytes() == np.float64(want.value_at(t)).tobytes()

    # The kernel tests only positive slopes and a finite total.  On every clock
    # it builds, that must decide as Clock's full check does: the same bytes
    # returned, or the same exception and message.  A stretch by a power of 2
    # keeps the times exact and lets constant(1e-300) overflow the values.
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @given(
        phi=st.one_of(
            _PHIS, st.just(SoftRampPhi(1.0, 1e308)), st.just(ConstantPhi(1e-300))
        ),
        x=st.one_of(st.sampled_from([-0.0, 0.0, math.nan]), st.floats(-5.0, 5.0)),
        alpha=st.floats(0.05, 0.95),
        horizon=st.floats(0.1, 4.0),
        eps=st.floats(0.002, 3.0),
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["sampled", "empty", "last-on-horizon", "inf-size"]),
        stretch=st.sampled_from([1.0, 2.0**80, 2.0**1000]),
    )
    @settings(max_examples=300, deadline=None)
    def test_its_check_decides_as_clock_does(
        self, phi, x, alpha, horizon, eps, seed, shape, stretch
    ):
        params = StableParams.default(alpha)
        path = sample_truncated_path(params, horizon, eps, np.random.default_rng(seed))
        times, sizes = path.times, path.sizes
        if shape == "empty":
            times, sizes = times[:0], sizes[:0]
        elif shape == "last-on-horizon" and times.size:
            times[-1] = horizon
        elif shape == "inf-size" and sizes.size:
            sizes[sizes.size // 2] = math.inf
        times, horizon = times * stretch, horizon * stretch
        want = _clock_checked_outcome(phi, x, times, sizes, horizon, eps, alpha)
        got = _outcome(lambda: solve_time_change(phi, x, times, sizes, horizon, eps, alpha))
        assert _as_bytes(got) == want

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize(
        "phi, x, times, sizes, horizon, alpha, message",
        [
            # inf**-alpha is a slope of 0.
            (SoftRampPhi(1.0, 1e308), 0.0, [0.5], [2.0], 1.0, 0.5, "phi evaluated non-finite"),
            (SoftRampPhi(1.0, 1.0), 0.0, [0.5], [math.inf], 1.0, 0.5, "phi evaluated non-finite"),
            # A NaN start makes every slope NaN.
            (ARCTAN, math.nan, [0.5], [1.0], 1.0, 0.5, "phi evaluated non-finite"),
            # Finite slopes of about 1e270 over a length of 2**1000 overflow the values.
            (ConstantPhi(1e-300), 0.0, [2.0**999], [1.0], 2.0**1000, 0.9, "overflowed to inf"),
            # arctan(inf) is finite, so an inf size leaves a sound clock.
            (ARCTAN, 0.0, [0.5], [math.inf], 1.0, 0.5, None),
            (ARCTAN, -0.0, [], [], 1.0, 0.5, None),
            (ARCTAN, 0.0, [0.25, 1.0], [1.0, 2.0], 1.0, 0.5, None),
            # A finite phi of 5e-324 whose slope phi**-alpha overflows.
            (ConstantPhi(5e-324), 0.0, [0.5], [1.0], 1.0, 0.9999999, "positive and finite"),
        ],
    )
    def test_poisoned_clocks_fail_as_clock_fails(
        self, phi, x, times, sizes, horizon, alpha, message
    ):
        # Where phi is not finite, FloatingPointError names the state, and
        # where the total overflowed from finite slopes, it says so; every
        # other clock fails with Clock's ValueError.
        times, sizes = np.array(times, dtype=float), np.array(sizes, dtype=float)
        want = _clock_checked_outcome(phi, x, times, sizes, horizon, 0.5, alpha)
        got = _outcome(lambda: solve_time_change(phi, x, times, sizes, horizon, 0.5, alpha))
        assert _as_bytes(got) == want
        if message is None:
            assert not isinstance(want[0], type)
            return
        error = ValueError if message == "positive and finite" else FloatingPointError
        assert want[0] is error and message in want[1]

    def test_negative_zero_start_is_kept(self):
        states = solve_time_change(ARCTAN, -0.0, np.empty(0), np.empty(0), 1.0, 0.5, 0.5)[0]
        assert states.tobytes() == np.float64(-0.0).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize(
        "phi, times, sizes, horizon, cutoff, alpha, message",
        [
            (ARCTAN, [0.5, 0.5], [1.0, 1.0], 1.0, 0.5, 0.5, "strictly increasing"),
            (ARCTAN, [0.5, 0.25], [1.0, 1.0], 1.0, 0.5, 0.5, "strictly increasing"),
            (ARCTAN, [0.0], [1.0], 1.0, 0.5, 0.5, "lie in (0, horizon]"),
            (ARCTAN, [1.5], [1.0], 1.0, 0.5, 0.5, "lie in (0, horizon]"),
            (ARCTAN, [math.nan], [1.0], 1.0, 0.5, 0.5, "lie in (0, horizon]"),
            (ARCTAN, [0.5], [0.25], 1.0, 0.5, 0.5, "must be >= cutoff"),
            (ARCTAN, [0.5], [-1.0], 1.0, 0.5, 0.5, "strictly positive"),
            (ARCTAN, [0.5], [0.0], 1.0, 0.5, 0.5, "strictly positive"),
            (ARCTAN, [0.5], [math.nan], 1.0, 0.5, 0.5, "strictly positive"),
            (ARCTAN, [0.5], [1.0], 1.0, -0.5, 0.5, "cutoff must be >= 0"),
            (ARCTAN, [0.5], [1.0], 0.0, 0.5, 0.5, "horizon must be positive"),
            (ARCTAN, [0.5], [1.0], math.inf, 0.5, 0.5, "horizon must be positive"),
            (ARCTAN, [0.5, 0.7], [1.0], 1.0, 0.5, 0.5, "equal length"),
            (ARCTAN, [0.5], [1.0], 1.0, 0.5, 1.0, "alpha must lie in (0, 1)"),
            (PowerPhi(0.5), [0.5], [1.0], 1.0, 0.5, 0.5, "admissibility"),
            (ARCTAN, [0.5], [1.0], 1.0, 0.0, 0.5, "finite-activity driver"),
        ],
    )
    def test_fails_as_the_object_path_fails(
        self, phi, times, sizes, horizon, cutoff, alpha, message
    ):
        times, sizes = np.array(times), np.array(sizes)
        want = _outcome(
            lambda: _reference_time_change(
                phi, 0.0, JumpPath(horizon, times, sizes, cutoff), alpha
            )
        )
        got = _outcome(
            lambda: solve_time_change(phi, 0.0, times, sizes, horizon, cutoff, alpha)
        )
        assert want[0] is ValueError and message in want[1]
        assert got == want
