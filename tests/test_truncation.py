import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import sup_gap
from stable_sde_lab import (
    ConstantPhi,
    JumpPath,
    Ladder,
    MonotonePhi,
    PiecewiseLinearPhi,
    PowerPhi,
    ShiftedArctanPhi,
    SoftRampPhi,
    StableParams,
    build_ladder,
    ladder_violations,
    sample_truncated_path,
    solve_ladders,
    solve_truncated,
    thin_path,
)

ARCTAN = ShiftedArctanPhi(2.0, 2.0 / math.pi)


def make_path(times, sizes, horizon=1.0, cutoff=None):
    sizes = np.asarray(sizes, dtype=float)
    if cutoff is None:
        cutoff = float(sizes.min()) if sizes.size else 1.0
    return JumpPath(
        horizon=horizon, times=np.asarray(times, dtype=float), sizes=sizes, cutoff=cutoff
    )


class TestSolveTruncated:
    def test_empty_driver_stays_at_start(self):
        sol = solve_truncated(ConstantPhi(1.0), 2.5, make_path([], []))
        assert len(sol) == 0
        assert sol.value_at(0.0) == 2.5
        assert sol.value_at(1.0) == 2.5

    def test_unit_coefficient_adds_driver(self):
        sol = solve_truncated(ConstantPhi(1.0), 1.0, make_path([0.5], [2.0]))
        assert sol.value_at(0.49) == 1.0
        assert sol.value_at(1.0) == 3.0

    def test_two_jump_hand_iteration(self):
        # Oracle: iterate the recursion x -> x + phi(x)*dz by hand arithmetic.
        phi0 = 2.0 + (2.0 / math.pi) * (math.atan(0.0) + math.pi / 2.0)
        x_after_first = 0.0 + phi0 * 1.0
        phi1 = 2.0 + (2.0 / math.pi) * (math.atan(x_after_first) + math.pi / 2.0)
        x_after_second = x_after_first + phi1 * 1.0
        assert phi0 == pytest.approx(3.0, rel=1e-15)
        assert x_after_second == pytest.approx(6.795167235300866, rel=1e-12)

        sol = solve_truncated(ARCTAN, 0.0, make_path([0.3, 0.6], [1.0, 1.0]))
        assert sol.value_at(0.3) == pytest.approx(x_after_first, rel=1e-15)
        assert sol.value_at(1.0) == pytest.approx(x_after_second, rel=1e-15)

    def test_linearity_oracle(self):
        # Constant coefficient c: X_t - x0 = c * Z_t at every event time.
        params = StableParams.default(0.5)
        rng = np.random.default_rng(8)
        for _ in range(50):
            path = sample_truncated_path(params, 1.0, 0.01, rng)
            sol = solve_truncated(ConstantPhi(2.0), 1.0, path)
            expected = 1.0 + 2.0 * path.cumulative_sizes
            if len(path):
                rel = np.abs(sol.post_values - expected) / np.abs(expected)
                assert rel.max() < 1e-12

    def test_rejects_degenerate_phi(self):
        with pytest.raises(ValueError):
            solve_truncated(PowerPhi(0.5), 0.0, make_path([0.5], [1.0]))

    def test_rejects_untruncated_driver(self):
        grid_like = make_path([0.5], [1.0], cutoff=0.0)
        with pytest.raises(ValueError):
            solve_truncated(ConstantPhi(1.0), 0.0, grid_like)

    def test_nonfinite_phi_aborts(self):
        phi = SoftRampPhi(1.0, 1e308)
        path = make_path([0.2, 0.4], [10.0, 10.0])
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            solve_truncated(phi, 0.0, path)

    def test_overflow_guard_caps_and_counts(self):
        phi = SoftRampPhi(1.0, 1.0)
        path = make_path([0.2, 0.4, 0.6], [1e200, 1e200, 1.0])
        sol = solve_truncated(phi, 0.0, path)
        assert sol.guard_hits >= 1
        assert sol.final <= 1e300

    def test_start_above_the_guard_is_rejected(self):
        # Clamped to the guard, a level that takes a jump from above it would
        # fall below a level that does not.  At the guard every level stays put.
        for solve in (
            lambda x0: solve_truncated(ARCTAN, x0, make_path([0.5], [1.0])),
            lambda x0: solve_ladders(ARCTAN, x0, [1.0], [0, 1], [0.1]),
        ):
            for x0 in (1e301, math.inf, math.nan):
                with pytest.raises(ValueError, match="at most the overflow guard"):
                    solve(x0)
            solve(1e300)
        final, guard, violations, _ = solve_ladders(
            ARCTAN, 1e300, [1e290, 0.05, 1e290], [0, 3], [0.1, 0.01]
        )
        assert final.tolist() == [[1e300, 1e300]]
        assert guard.tolist() == [[2, 2]] and violations.tolist() == [0]

    def test_replay_is_bit_identical(self):
        params = StableParams.default(0.7)
        path = sample_truncated_path(params, 1.0, 0.01, np.random.default_rng(5))
        a = solve_truncated(ARCTAN, 0.0, path)
        b = solve_truncated(ARCTAN, 0.0, path)
        assert np.array_equal(a.post_values, b.post_values)
        # replay from the stored event log: post = pre + phi(pre) * dz
        replayed = a.pre_values + ARCTAN.eval(a.pre_values) * path.sizes
        assert np.array_equal(replayed, a.post_values)

    def test_monotone_in_initial_value(self):
        params = StableParams.default(0.6)
        rng = np.random.default_rng(13)
        for _ in range(50):
            path = sample_truncated_path(params, 1.0, 0.02, rng)
            lo = solve_truncated(ARCTAN, 0.0, path)
            hi = solve_truncated(ARCTAN, 0.5, path)
            ts = np.concatenate(([0.0], path.times))
            assert np.all(lo.values_at(ts) <= hi.values_at(ts))


class TestLadder:
    def test_single_cutoff_trivially_monotone(self):
        params = StableParams.default(0.5)
        ladder = build_ladder(
            ARCTAN, 0.0, params, 1.0, [0.05], np.random.default_rng(3)
        )
        assert ladder_violations(ladder) == 0
        values = [sol.value_at(1.0) for sol in ladder.solutions]
        assert len(values) == 1
        assert np.diff(values).size == 0

    def test_thousand_replicates_zero_violations(self):
        params = StableParams.default(0.5)
        total = 0
        for seed in range(1000):
            ladder = build_ladder(
                ARCTAN, 0.0, params, 1.0, [0.1, 0.01], np.random.default_rng(seed)
            )
            total += ladder_violations(ladder)
        assert total == 0

    def test_constant_phi_differences_equal_thinned_mass(self):
        params = StableParams.default(0.5)
        c = 3.0
        ladder = build_ladder(
            ConstantPhi(c), 0.0, params, 1.0, [0.1, 0.01], np.random.default_rng(21)
        )
        coarse_mass = ladder.solutions[0].final
        fine_mass = ladder.solutions[1].final
        band_mass = ladder.base.total - thin_path(ladder.base, 0.1).total
        assert fine_mass - coarse_mass == pytest.approx(c * band_mass, rel=1e-12)
        diff = ladder.solutions[1].value_at(1.0) - ladder.solutions[0].value_at(1.0)
        assert diff == pytest.approx(c * band_mass, rel=1e-12)

    def test_differences_are_nonnegative(self):
        params = StableParams.default(0.7)
        ladder = build_ladder(
            ARCTAN, 0.0, params, 1.0, [0.1, 0.03, 0.01], np.random.default_rng(2)
        )
        for t in (0.25, 0.5, 1.0):
            values = [sol.value_at(t) for sol in ladder.solutions]
            assert np.all(np.diff(values) >= 0.0)

    def test_rejects_nondecreasing_cutoffs(self):
        params = StableParams.default(0.5)
        with pytest.raises(ValueError):
            build_ladder(ARCTAN, 0.0, params, 1.0, [0.01, 0.1], np.random.default_rng(0))
        with pytest.raises(ValueError):
            build_ladder(ARCTAN, 0.0, params, 1.0, [0.1, -0.01], np.random.default_rng(0))

    @pytest.mark.parametrize(
        "cutoffs, message",
        [
            ([], "cutoffs must be positive"),
            ([0.1, 0.0], "cutoffs must be positive"),
            ([0.1, math.nan], "cutoffs must be positive"),
            ([math.nan, 0.1], "cutoffs must be positive"),
            ([0.01, 0.1], "cutoffs must be strictly decreasing"),
            ([0.1, 0.1], "cutoffs must be strictly decreasing"),
        ],
    )
    def test_both_ladder_solvers_reject_bad_cutoffs_alike(self, cutoffs, message):
        params = StableParams.default(0.5)
        for solve in (
            lambda: build_ladder(ARCTAN, 0.0, params, 1.0, cutoffs, np.random.default_rng(0)),
            lambda: solve_ladders(ARCTAN, 0.0, [1.0], [0, 1], cutoffs),
        ):
            with pytest.raises(ValueError) as info:
                solve()
            assert str(info.value) == message


class TestCoupledPairDistance:
    """The eps and eps/2 solutions on one noise path: two levels of one ladder."""

    def test_constant_phi_closed_form(self):
        # For phi = c the two solutions differ by exactly c times the mass of
        # jumps in [eps/2, eps); reproduce that with the same seed.
        params = StableParams.default(0.5)
        c, eps = 2.0, 0.1
        seed = 77
        ladder = build_ladder(
            ConstantPhi(c), 0.0, params, 1.0, (eps, eps / 2.0), np.random.default_rng(seed)
        )
        coarse, fine = ladder.solutions
        distance = sup_gap(fine, coarse)
        base = sample_truncated_path(params, 1.0, eps / 2.0, np.random.default_rng(seed))
        band_mass = base.total - thin_path(base, eps).total
        assert distance == pytest.approx(c * band_mass, rel=1e-12)

    def test_identical_levels_give_zero(self):
        params = StableParams.default(0.5)
        path = sample_truncated_path(params, 1.0, 0.05, np.random.default_rng(1))
        sol = solve_truncated(ARCTAN, 0.0, path)
        assert sup_gap(sol, sol) == 0.0

    def test_nonnegative(self):
        params = StableParams.default(0.5)
        ladder = build_ladder(ARCTAN, 0.0, params, 1.0, (0.1, 0.05), np.random.default_rng(4))
        coarse, fine = ladder.solutions
        assert sup_gap(fine, coarse) >= 0.0


class TestSolutionCSV:
    def test_schema(self, tmp_path):
        sol = solve_truncated(ConstantPhi(1.0), 1.0, make_path([0.5], [2.0]))
        out = tmp_path / "solution.csv"
        sol.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x_pre,x_post"
        t, pre, post = map(float, lines[1].split(","))
        assert (t, pre, post) == (0.5, 1.0, 3.0)


class DecreasingPhi(MonotonePhi):
    """3 - arctan(x): positive but decreasing, so ladders do cross.

    It claims admissibility so that both solvers accept it: the kernel's
    violation counts must equal the reference's when they are not zero.
    """

    assumption_ok = True

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        out = 3.0 - np.arctan(x)
        return float(out) if out.ndim == 0 else out

    def describe(self) -> str:
        return "3 - arctan(x)"


def _bases(params, cutoffs, seed, n_paths):
    """Path j's base path, drawn from stream (seed, j) as build_ladder draws it."""
    return [
        sample_truncated_path(params, 1.0, cutoffs[-1], np.random.default_rng([seed, j]))
        for j in range(n_paths)
    ]


class BandPhi(MonotonePhi):
    """1, except ``value`` (inf or NaN) on [2, 2.5): a phi the kernel must not read there.

    It claims admissibility so that both solvers accept it.
    """

    assumption_ok = True

    def __init__(self, value: float) -> None:
        self.value = value

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= 2.0) & (x < 2.5), self.value, 1.0)
        return float(out) if out.ndim == 0 else out

    def describe(self) -> str:
        return f"1, {self.value} on [2, 2.5)"


def _scalar_ladders(phi, x0, bases, cutoffs, pairs=()):
    """build_ladder's solves of each base path, read the way the kernel reports them.

    The gap of the pair (fine, coarse) is sup_gap of the solutions on the
    two thinnings of the base path.
    """
    ladders = [
        Ladder(
            tuple(cutoffs),
            tuple(solve_truncated(phi, x0, thin_path(base, eps)) for eps in cutoffs),
            base,
        )
        for base in bases
    ]
    shape = (len(bases), len(cutoffs))
    final = [sol.final for lad in ladders for sol in lad.solutions]
    guard = [sol.guard_hits for lad in ladders for sol in lad.solutions]
    violations = [ladder_violations(lad) for lad in ladders]
    gaps = [
        sup_gap(lad.solutions[fine], lad.solutions[coarse])
        for lad in ladders
        for fine, coarse in pairs
    ]
    return (
        np.array(final, dtype=float).reshape(shape),
        np.array(guard, dtype=np.int64).reshape(shape),
        np.array(violations, dtype=np.int64),
        np.array(gaps, dtype=float).reshape(len(bases), len(pairs)),
    )


def _kernel_ladders(phi, x0, bases, cutoffs, pairs=()):
    """solve_ladders on the same base paths, as one block."""
    offsets = np.cumsum([0] + [len(base) for base in bases])
    sizes = np.concatenate([np.empty(0)] + [base.sizes for base in bases])
    return solve_ladders(phi, x0, sizes, offsets, cutoffs, pairs)


def _outcome(solver, *args):
    """The solver's result, or the type of the exception it raised."""
    try:
        with np.errstate(over="ignore"):
            return solver(*args)
    except (FloatingPointError, ValueError) as exc:
        return type(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@st.composite
def _phis(draw):
    """The four admissible families, plus the decreasing test coefficient."""
    positive = st.floats(0.05, 5.0)
    slope = st.floats(0.0, 5.0)
    kind = draw(st.sampled_from(["constant", "arctan", "ramp", "linear", "decreasing"]))
    if kind == "constant":
        return ConstantPhi(draw(positive))
    if kind == "arctan":
        return ShiftedArctanPhi(draw(positive), draw(slope))
    if kind == "ramp":
        # A huge slope makes phi overflow: both solvers must raise.
        return SoftRampPhi(draw(positive), draw(st.sampled_from([0.0, 1.0, 3.0, 1e308])))
    if kind == "linear":
        knots = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4, unique=True)
        xs = sorted(draw(knots))
        rises = st.lists(st.floats(0.0, 2.0), min_size=len(xs) - 1, max_size=len(xs) - 1)
        ys = np.cumsum([draw(positive)] + draw(rises))
        return PiecewiseLinearPhi(tuple(xs), tuple(ys.tolist()))
    return DecreasingPhi()


class TestSolveLadders:
    @settings(deadline=None, max_examples=150)
    @given(
        phi=_phis(),
        alpha=st.floats(0.05, 0.95),
        cutoffs=st.lists(st.floats(2e-3, 1.0), min_size=1, max_size=5, unique=True),
        x0=st.one_of(st.floats(-10.0, 10.0), st.just(1e298)),
        # Up to 40 paths of unequal lengths: the paths alive at a rank, a
        # prefix of every level's row, shrink over many columns.
        n_paths=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
        pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=4),
    )
    def test_equals_scalar_reference(self, phi, alpha, cutoffs, x0, n_paths, seed, pairs):
        cutoffs = sorted(cutoffs, reverse=True)
        # (fine, coarse) level pairs, adjacent or not, and equal levels too.
        levels = len(cutoffs)
        pairs = [sorted((i % levels, j % levels), reverse=True) for i, j in pairs]
        bases = _bases(StableParams.default(alpha), cutoffs, seed, n_paths)
        args = (phi, x0, bases, cutoffs, pairs)
        got, want = _outcome(_kernel_ladders, *args), _outcome(_scalar_ladders, *args)
        _assert_same_outcome(got, want)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_nonfinite_phi_at_a_level_that_skips_the_jump(self, value):
        # Path 0's coarse level skips its first and last jumps and sits at 2
        # before the last, where phi is not finite; the fine level takes every
        # jump from where phi is 1.  Neither solver evaluates phi there.
        phi = BandPhi(value)
        paths = [([0.2, 0.5, 0.7], [0.5, 2.0, 0.5]), ([0.3], [1.5])]
        bases = [make_path(t, s, cutoff=0.1) for t, s in paths]
        args = (phi, 0.0, bases, [1.0, 0.1], [(1, 0)])
        got = _kernel_ladders(*args)
        _assert_same_outcome(got, _scalar_ladders(*args))
        assert got[0].tolist() == [[2.0, 3.0], [1.5, 1.5]]

    def test_finite_speeds_whose_sum_overflows(self):
        # 1e308 at 80 entries sums to inf; every state a jump of more than
        # 1.8 takes is clamped at the guard.
        phi = ConstantPhi(1e308)
        bases = _bases(StableParams.default(0.5), [1.0, 0.1], 3, 40)
        got = _kernel_ladders(phi, 0.0, bases, [1.0, 0.1], [(1, 0)])
        _assert_same_outcome(got, _scalar_ladders(phi, 0.0, bases, [1.0, 0.1], [(1, 0)]))
        assert got[1].sum() > 0

    def test_negative_zero_start(self):
        # A level that takes no jump ends at -0.0, not 0.0.
        cutoffs = [1.0, 0.5]
        bases = _bases(StableParams.default(0.3), cutoffs, 11, 40)
        got = _kernel_ladders(ARCTAN, -0.0, bases, cutoffs, [(1, 0)])
        _assert_same_outcome(got, _scalar_ladders(ARCTAN, -0.0, bases, cutoffs, [(1, 0)]))
        assert np.signbit(got[0]).sum() > len(bases) // 4

    @pytest.mark.parametrize(
        "phi, x0",
        [(DecreasingPhi(), 0.0), (SoftRampPhi(1.0, 1.0), 1e298)],
        ids=["decreasing", "guard"],
    )
    def test_equals_reference_where_counts_are_not_zero(self, phi, x0):
        # Admissible phi never crosses, so equal violation counts would be
        # vacuous; these two make the counts and the guard hits non-zero.
        # The pairs hold adjacent, non-adjacent and equal levels.
        pairs = [(1, 0), (3, 0), (2, 1), (3, 1), (2, 2)]
        cutoffs = [0.1, 0.03, 0.01, 0.003]
        args = (phi, x0, _bases(StableParams.default(0.6), cutoffs, 17, 60), cutoffs, pairs)
        got = _kernel_ladders(*args)
        _assert_same_outcome(got, _scalar_ladders(*args))
        assert got[3][:, :4].sum() > 0
        if x0 == 0.0:
            assert got[2].sum() > 0
        else:
            assert got[1].sum() > 0

    def test_empty_and_unequal_paths(self):
        # Path 1 has no jumps and path 2 is the longest: the kernel reorders
        # paths by length and must hand the results back in input order.
        paths = [make_path([0.1, 0.2], [0.5, 0.05]), make_path([], [], cutoff=0.05),
                 make_path([0.1, 0.3, 0.6], [0.05, 0.7, 0.2])]
        cutoffs = [0.1, 0.05]
        final, guard, violations, gaps = solve_ladders(
            ARCTAN, 1.0, np.concatenate([p.sizes for p in paths]), [0, 2, 2, 5], cutoffs,
            pairs=[(1, 0)],
        )
        for j, path in enumerate(paths):
            sols = [solve_truncated(ARCTAN, 1.0, thin_path(path, e)) for e in cutoffs]
            assert final[j].tolist() == [sol.final for sol in sols]
            assert gaps[j].tolist() == [sup_gap(sols[1], sols[0])]
        assert not guard.any() and not violations.any()

    def test_rejects_what_the_reference_rejects(self):
        with pytest.raises(ValueError):
            solve_ladders(PowerPhi(0.5), 0.0, [1.0], [0, 1], [0.1])
        with pytest.raises(ValueError):
            solve_ladders(ARCTAN, 0.0, [1.0], [0, 1], [0.01, 0.1])
        with pytest.raises(ValueError):
            solve_ladders(ARCTAN, 0.0, [1.0], [0, 1], [0.1, 0.0])
        with pytest.raises(ValueError):
            solve_ladders(ARCTAN, 0.0, [1.0, math.nan], [0, 2], [0.1])
        with pytest.raises(ValueError):
            solve_ladders(ARCTAN, 0.0, [1.0, 2.0], [0, 1], [0.1])

    def test_pairs_must_index_the_cutoffs(self):
        for pair in [(2, 0), (1, -1)]:
            with pytest.raises(ValueError, match="pairs"):
                solve_ladders(ARCTAN, 0.0, [1.0], [0, 1], [0.1, 0.01], pairs=[pair])
        assert solve_ladders(ARCTAN, 0.0, [1.0], [0, 1], [0.1])[3].shape == (1, 0)

    def test_nonfinite_phi_names_the_first_path(self):
        # phi(10) overflows.  Path 0 skips its only jump at this cutoff, path
        # 1 has none; paths 2 and 3 take their first jumps, and the kernel
        # visits the longer path 3 first.
        phi = SoftRampPhi(1.0, 1e308)
        sizes = [1e-3, 1.0, 5.0, 1.0, 1.0]
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match=r"\(path 2, "):
            solve_ladders(phi, 10.0, sizes, [0, 1, 1, 2, 5], [0.5])

    def test_nonfinite_phi_names_its_state_and_level(self):
        # phi(3) overflows.  Both levels of path 0 take its jump of 3; at its
        # second jump the fine level takes 0.5 from 3, while path 1's coarse
        # level sits at 0.
        phi = SoftRampPhi(1.0, 1e308)
        message = r"at state 3\.0 \(path 0, event 1, level 1\)$"
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match=message):
            solve_ladders(phi, 0.0, [3.0, 0.5, 0.2, 0.2], [0, 2, 4], [1.0, 0.1])
