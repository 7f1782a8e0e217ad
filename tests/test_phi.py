import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stable_sde_lab import (
    ConstantPhi,
    PiecewiseLinearPhi,
    PowerPhi,
    ShiftedArctanPhi,
    SoftRampPhi,
    parse_config_text,
    parse_phi,
    solve_ladders,
    solve_time_change,
    solve_truncated,
)
from stable_sde_lab.driver import JumpPath

ADMISSIBLE = [
    ConstantPhi(1.0),
    ShiftedArctanPhi(2.0, 2.0 / math.pi),
    SoftRampPhi(0.5, 3.0),
    PiecewiseLinearPhi((-1.0, 0.0, 2.0), (0.5, 1.0, 4.0)),
]


class TestValidation:
    def test_constant_all_clauses_hold(self):
        assert ConstantPhi(1.0).assumption_ok

    def test_power_fails_positivity_only(self):
        # Continuous and non-decreasing, but it vanishes at 0.
        assert not PowerPhi(0.5).assumption_ok
        assert PowerPhi(0.5).eval(0.0) == 0.0

    @pytest.mark.parametrize(
        "gate, message",
        [
            (
                lambda phi: solve_truncated(phi, 0.0, JumpPath(1.0, [0.5], [1.0], 0.5)),
                "power(0.5) violates the admissibility assumptions; "
                "degenerate coefficients are only accepted by the counterexample lab",
            ),
            (
                lambda phi: solve_ladders(phi, 0.0, [1.0], [0, 1], [0.5]),
                "power(0.5) violates the admissibility assumptions; "
                "degenerate coefficients are only accepted by the counterexample lab",
            ),
            (
                lambda phi: solve_time_change(
                    phi, 0.0, np.array([0.5]), np.array([1.0]), 1.0, 0.5, 0.5
                ),
                "power(0.5) violates the admissibility assumptions; "
                "the clock would not be strictly increasing",
            ),
            (
                lambda phi: parse_config_text(f"experiment = weak-agree\nphi = {phi.describe()}\n"),
                "phi = 'power(0.5)': power(0.5) violates the admissibility assumptions; "
                "weak-agree needs it continuous, non-decreasing and positive",
            ),
        ],
        ids=["solve_truncated", "solve_ladders", "solve_time_change", "config"],
    )
    def test_every_gate_raises_the_admissibility_message(self, gate, message):
        with pytest.raises(ValueError) as info:
            gate(PowerPhi(0.5))
        assert str(info.value) == message

    def test_admissible_families_pass_the_gate(self):
        for phi in ADMISSIBLE:
            phi.require_admissible("not raised")

    def test_decreasing_knots_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseLinearPhi((0.0, 1.0), (2.0, 1.0))

    def test_unsorted_knots_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseLinearPhi((1.0, 0.0), (1.0, 2.0))

    def test_nonpositive_levels_rejected(self):
        with pytest.raises(ValueError):
            ConstantPhi(0.0)
        with pytest.raises(ValueError):
            ShiftedArctanPhi(-1.0, 1.0)
        with pytest.raises(ValueError):
            SoftRampPhi(1.0, -0.5)
        with pytest.raises(ValueError):
            PiecewiseLinearPhi((0.0,), (0.0,))

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, -0.2])
    def test_power_exponent_domain(self, beta):
        with pytest.raises(ValueError):
            PowerPhi(beta)


class TestEval:
    def test_shifted_arctan_at_zero(self):
        phi = ShiftedArctanPhi(2.0, 2.0 / math.pi)
        assert phi.eval(0.0) == pytest.approx(3.0, rel=1e-15)

    def test_power_at_four(self):
        assert PowerPhi(0.5).eval(4.0) == pytest.approx(2.0, rel=1e-15)

    def test_constant_everywhere(self):
        phi = ConstantPhi(2.5)
        for x in (-1e9, 0.0, 3.7, 1e12):
            assert phi.eval(x) == 2.5

    def test_power_rejects_negative(self):
        with pytest.raises(ValueError):
            PowerPhi(0.5).eval(-1.0)

    def test_piecewise_linear_interpolation_and_tails(self):
        phi = PiecewiseLinearPhi((0.0, 1.0), (1.0, 3.0))
        assert phi.eval(0.5) == pytest.approx(2.0, rel=1e-15)
        assert phi.eval(-100.0) == 1.0  # constant left tail
        assert phi.eval(100.0) == 3.0  # constant right tail

    def test_piecewise_linear_equals_interp_on_the_knots(self):
        phi = PiecewiseLinearPhi((-1.0, 0.0, 2.0, 3.5), (0.5, 1.0, 4.0, 4.0))
        x = np.random.default_rng(0).normal(0.0, 3.0, (50, 4))
        assert phi.eval(x).tobytes() == np.interp(x, phi.xs, phi.ys).tobytes()
        assert phi == PiecewiseLinearPhi((-1.0, 0.0, 2.0, 3.5), (0.5, 1.0, 4.0, 4.0))

    def test_vectorized_eval(self):
        phi = SoftRampPhi(1.0, 2.0)
        out = phi.eval(np.array([-1.0, 0.0, 2.0]))
        assert out.tolist() == [1.0, 1.0, 5.0]


class TestMonotonicityAndPositivity:
    @given(
        x=st.floats(min_value=-1e6, max_value=1e6),
        y=st.floats(min_value=-1e6, max_value=1e6),
    )
    @settings(max_examples=300, deadline=None)
    def test_sampled_monotone_and_positive(self, x, y):
        lo, hi = sorted((x, y))
        for phi in ADMISSIBLE:
            assert phi.assumption_ok
            assert phi.eval(lo) <= phi.eval(hi)
            assert phi.eval(lo) > 0.0

    @given(
        x=st.floats(min_value=0.0, max_value=1e6),
        y=st.floats(min_value=0.0, max_value=1e6),
    )
    @settings(max_examples=150, deadline=None)
    def test_power_monotone_on_nonnegatives(self, x, y):
        lo, hi = sorted((x, y))
        phi = PowerPhi(0.3)
        assert phi.eval(lo) <= phi.eval(hi)


class TestParsing:
    @pytest.mark.parametrize(
        "spec, cls",
        [
            ("constant(1)", ConstantPhi),
            ("shifted-arctan(2,0.6366)", ShiftedArctanPhi),
            ("soft-ramp(0.5, 3)", SoftRampPhi),
            ("power(0.5)", PowerPhi),
            ("piecewise-linear(0:1, 1:2, 3:2.5)", PiecewiseLinearPhi),
        ],
    )
    def test_families_parse(self, spec, cls):
        assert isinstance(parse_phi(spec), cls)

    def test_parse_matches_direct_construction(self):
        phi = parse_phi("shifted-arctan(2,0.6366)")
        assert phi.eval(0.0) == ShiftedArctanPhi(2.0, 0.6366).eval(0.0)

    @pytest.mark.parametrize(
        "bad",
        [
            "gaussian(1)",
            "constant()",
            "constant(1,2)",
            "power(2)",
            "piecewise-linear(0:2, 1:1)",
            "constant(one)",
            "constant",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_phi(bad)

    def test_describe_round_trips(self):
        for phi in ADMISSIBLE:
            again = parse_phi(phi.describe())
            assert type(again) is type(phi)
            for x in (-3.0, 0.0, 7.0):
                assert again.eval(x) == phi.eval(x)
