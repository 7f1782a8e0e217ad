import math

import numpy as np
import pytest

from stable_sde_lab import (
    BEYOND_HORIZON,
    Clock,
    ConstantPhi,
    JumpPath,
    MonotonePhi,
    PowerPhi,
    ShiftedArctanPhi,
    StableParams,
    build_clock,
    build_forward_clock,
    clock_eval,
    clock_roundtrip_residual,
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
    return build_clock(ARCTAN, 0.0, make_path([0.5], [1.0]), 0.5)


class TestBuildClock:
    def test_unit_coefficient_gives_identity_clock(self):
        path = make_path([0.25, 0.75], [1.0, 2.0])
        clock = build_clock(ConstantPhi(1.0), 0.0, path, 0.5)
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
        clock = build_clock(ARCTAN, 1.0, make_path([], []), 0.5)
        phi_at_x = ARCTAN.eval(1.0)
        assert clock.breakpoints.tolist() == [0.0, 1.0]
        assert clock.total == pytest.approx(phi_at_x**-0.5, rel=1e-14)

    def test_slopes_strictly_positive(self):
        params = StableParams.default(0.7)
        path = sample_truncated_path(params, 1.0, 0.01, np.random.default_rng(0))
        clock = build_clock(ARCTAN, 0.0, path, 0.7)
        assert np.all(clock.slopes > 0.0)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_vanishing_phi_is_rejected(self):
        # A phi that claims admissibility but vanishes: its zero state gives
        # the clock an infinite slope, which Clock rejects.
        class VanishingPhi(MonotonePhi):
            assumption_ok = True

            def eval(self, x):
                return np.zeros_like(np.asarray(x, dtype=float))

            def describe(self):
                return "vanishing"

        with pytest.raises(ValueError, match="slopes must be positive and finite"):
            build_clock(VanishingPhi(), 0.0, make_path([0.5], [1.0]), 0.5)

    def test_rejects_degenerate_phi(self):
        with pytest.raises(ValueError):
            build_clock(PowerPhi(0.5), 0.0, make_path([0.5], [1.0]), 0.5)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            build_clock(ARCTAN, 0.0, make_path([0.5], [1.0]), 1.0)


class TestInvertClock:
    def test_identity_clock_inverts_bitwise(self):
        clock = build_clock(ConstantPhi(1.0), 0.0, make_path([0.5], [1.0]), 0.5)
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
        sol, clock = solve_time_change(ConstantPhi(1.0), 0.5, path, 0.5)
        assert clock.total == 1.0
        for t in (0.1, 0.25, 0.8, 0.999):
            assert sol.value_at(t) == 0.5 + path.value_at(t)

    def test_single_jump_maps_to_clock_value(self):
        path = make_path([0.5], [1.0])
        sol, clock = solve_time_change(ARCTAN, 0.0, path, 0.5)
        jump_time = 0.5 * 3.0**-0.5
        assert sol.times[0] == pytest.approx(jump_time, rel=1e-14)
        assert sol.value_at(sol.times[0]) == 1.0
        assert sol.value_at(0.5 * jump_time) == 0.0

    def test_jump_sizes_survive_the_time_change(self):
        # The time change relabels jump times but not jump sizes; the stored
        # values are running sums, so sizes are recovered within a few ulps
        # of the running value.
        params = StableParams.default(0.6)
        path = sample_truncated_path(params, 1.0, 0.02, np.random.default_rng(9))
        sol, _ = solve_time_change(ARCTAN, 0.0, path, 0.6)
        gap = np.abs((sol.post_values - sol.pre_values) - path.sizes)
        assert np.all(gap <= 4.0 * np.spacing(sol.post_values))

    def test_sde_form_cross_check(self):
        # The recovered driver dV = dX / phi(X-) turns the event-driven solver
        # into a reconstruction of the same path: X must replay exactly.
        params = StableParams.default(0.6)
        path = sample_truncated_path(params, 1.0, 0.02, np.random.default_rng(10))
        sol, clock = solve_time_change(ARCTAN, 0.25, path, 0.6)
        dv = (sol.post_values - sol.pre_values) / ARCTAN.eval(sol.pre_values)
        recovered = JumpPath(
            horizon=clock.total, times=sol.times, sizes=dv, cutoff=float(dv.min())
        )
        replay = solve_truncated(ARCTAN, 0.25, recovered)
        assert np.allclose(replay.post_values, sol.post_values, rtol=1e-12, atol=0.0)

    def test_constant_phi_composition_identity(self):
        # For phi = c the solution clock is t * c**alpha: X_t = x + Z(t * c**alpha).
        c, alpha = 3.0, 0.5
        params = StableParams.default(alpha)
        path = sample_truncated_path(params, 1.0, 0.02, np.random.default_rng(12))
        sol, clock = solve_time_change(ConstantPhi(c), 0.0, path, alpha)
        rate = c**alpha
        for t in (0.1, 0.2, 0.3):
            if t < clock.total:
                assert sol.value_at(t) == path.value_at(min(t * rate, 1.0))


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
        sol, clock = solve_time_change(ARCTAN, 0.0, path, 0.5)
        forward = build_forward_clock(ARCTAN, sol, 0.5)
        assert np.allclose(forward.values, clock.breakpoints, rtol=0.0, atol=1e-12)

