import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc
from scipy.stats import kstest

from stable_sde_lab import (
    GridPath,
    JumpPath,
    SamplerIntegrityError,
    StableParams,
    laplace_exponent,
    levy_tail_mass,
    sample_exact_increment,
    sample_grid_path,
    sample_truncated_path,
    thin_path,
)
from stable_sde_lab.driver import (
    _grid_times,
    _jump_blocks,
    _standard_stable,
)
from stable_sde_lab.stats import ks_two_sample


def quadrature_tail_mass(alpha: float, c: float, eps: float) -> float:
    """Independent oracle: integrate the jump density above the cutoff."""
    val, err = quad(lambda h: c * h ** (-1.0 - alpha), eps, np.inf)
    assert err < 1e-6
    return val


class TestTailMass:
    def test_matches_quadrature_alpha_half(self):
        params = StableParams(0.5, 0.5 / math.sqrt(math.pi))
        assert levy_tail_mass(params, 1.0) == pytest.approx(
            quadrature_tail_mass(0.5, params.c, 1.0), rel=1e-12
        )
        assert levy_tail_mass(params, 1.0) == pytest.approx(0.5641895835477563, rel=1e-12)

    def test_matches_quadrature_alpha_07(self):
        params = StableParams(0.7, 1.0)
        assert levy_tail_mass(params, 0.01) == pytest.approx(
            quadrature_tail_mass(0.7, 1.0, 0.01), rel=1e-9
        )
        assert levy_tail_mass(params, 0.01) == pytest.approx(35.88409187870828, rel=1e-12)

    def test_vanishes_for_huge_cutoff(self):
        params = StableParams(0.5, 1.0)
        assert levy_tail_mass(params, 1e300) < 1e-140

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_rejects_nonpositive_cutoff(self, eps):
        with pytest.raises(ValueError):
            levy_tail_mass(StableParams.default(0.5), eps)


class TestLaplaceExponent:
    def test_default_normalization_anchor(self):
        params = StableParams.default(0.5)
        assert laplace_exponent(params, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert laplace_exponent(params, 4.0) == pytest.approx(2.0, rel=1e-12)

    def test_homogeneity_in_lambda(self):
        params = StableParams(0.3, 2.7)
        ratios = [laplace_exponent(params, lam) / lam**0.3 for lam in (0.1, 1.0, 17.0)]
        assert max(ratios) - min(ratios) < 1e-12 * max(ratios)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            laplace_exponent(StableParams.default(0.5), 0.0)


class TestStableParams:
    def test_domain_checks(self):
        with pytest.raises(ValueError):
            StableParams(1.0, 1.0)
        with pytest.raises(ValueError):
            StableParams(0.5, 0.0)

    def test_default_scale_is_unit(self):
        assert StableParams.default(0.5).unit_time_scale == pytest.approx(1.0, rel=1e-12)


class TestTruncatedPath:
    def test_event_count_mean_matches_intensity(self):
        params = StableParams(0.5, 0.5 / math.sqrt(math.pi))
        rate = levy_tail_mass(params, 1.0)
        rng = np.random.default_rng(2024)
        n = 30_000
        counts = np.array(
            [len(sample_truncated_path(params, 1.0, 1.0, rng)) for _ in range(n)]
        )
        band = 3.0 * math.sqrt(rate / n)  # Poisson variance equals the mean
        assert abs(counts.mean() - rate) < band

    def test_jump_size_median_is_pareto_median(self):
        # Pareto CDF 1 - (eps/h)**alpha gives median eps * 2**(1/alpha) = 4.
        params = StableParams.default(0.5)
        rng = np.random.default_rng(7)
        sizes = np.concatenate(
            [sample_truncated_path(params, 50.0, 1.0, rng).sizes for _ in range(40)]
        )
        frac_below = np.mean(sizes <= 4.0)
        assert abs(frac_below - 0.5) < 3.0 * 0.5 / math.sqrt(sizes.size)

    def test_vanishing_intensity_gives_empty_path(self):
        params = StableParams.default(0.5)
        eps = 1e30  # tail mass ~ 1e-15
        assert levy_tail_mass(params, eps) * 1.0 < 1e-12
        path = sample_truncated_path(params, 1.0, eps, np.random.default_rng(0))
        assert len(path) == 0
        assert path.value_at(1.0) == 0.0
        assert path.total == 0.0

    def test_deterministic_given_seed(self):
        params = StableParams.default(0.7)
        a = sample_truncated_path(params, 2.0, 0.01, np.random.default_rng(99))
        b = sample_truncated_path(params, 2.0, 0.01, np.random.default_rng(99))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.sizes, b.sizes)

    def test_times_inside_interval_and_sorted(self):
        params = StableParams.default(0.6)
        path = sample_truncated_path(params, 3.0, 0.02, np.random.default_rng(5))
        assert np.all(path.times > 0.0)
        assert np.all(path.times <= 3.0)
        assert np.all(np.diff(path.times) > 0.0)
        assert np.all(path.sizes >= 0.02)

    def test_rejects_bad_horizon_or_eps(self):
        params = StableParams.default(0.5)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_truncated_path(params, 0.0, 0.1, rng)
        with pytest.raises(ValueError):
            sample_truncated_path(params, 1.0, -0.1, rng)


class TestPathValue:
    def test_empty_path(self):
        path = JumpPath(horizon=1.0, times=np.array([]), sizes=np.array([]), cutoff=0.5)
        assert path.value_at(0.7) == 0.0

    def test_cadlag_convention(self):
        path = JumpPath(
            horizon=1.0, times=np.array([0.5]), sizes=np.array([2.0]), cutoff=0.5
        )
        assert path.value_at(0.49) == 0.0
        assert path.value_at(0.5) == 2.0

    def test_sum_of_sizes(self):
        path = JumpPath(
            horizon=1.0,
            times=np.array([0.2, 0.7]),
            sizes=np.array([1.0, 0.5]),
            cutoff=0.25,
        )
        assert path.value_at(1.0) == 1.5

    def test_rejects_out_of_range(self):
        path = JumpPath(horizon=1.0, times=np.array([]), sizes=np.array([]), cutoff=0.5)
        with pytest.raises(ValueError):
            path.value_at(1.5)
        with pytest.raises(ValueError):
            path.value_at(-0.1)


class TestThinning:
    def _path(self):
        return JumpPath(
            horizon=1.0,
            times=np.array([0.2, 0.5, 0.9]),
            sizes=np.array([0.3, 1.2, 0.05]),
            cutoff=0.05,
        )

    def test_keeps_only_large_jumps(self):
        thinned = thin_path(self._path(), 0.5)
        assert thinned.sizes.tolist() == [1.2]
        assert thinned.times.tolist() == [0.5]
        assert thinned.cutoff == 0.5

    def test_identity_at_own_cutoff(self):
        path = self._path()
        same = thin_path(path, path.cutoff)
        assert np.array_equal(same.times, path.times)
        assert np.array_equal(same.sizes, path.sizes)

    def test_composition(self):
        path = self._path()
        twice = thin_path(thin_path(path, 0.1), 0.5)
        once = thin_path(path, 0.5)
        assert np.array_equal(twice.times, once.times)
        assert np.array_equal(twice.sizes, once.sizes)

    def test_rejects_thinning_below_cutoff(self):
        with pytest.raises(ValueError):
            thin_path(self._path(), 0.01)

    def test_thinned_value_dominated_exactly(self):
        params = StableParams.default(0.6)
        path = sample_truncated_path(params, 1.0, 0.01, np.random.default_rng(3))
        thinned = thin_path(path, 0.1)
        for t in np.linspace(0.0, 1.0, 101):
            assert thinned.value_at(t) <= path.value_at(t)

    @given(
        e1=st.floats(min_value=0.01, max_value=1.0),
        e2=st.floats(min_value=0.01, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_composition_property(self, e1, e2, seed):
        lo, hi = sorted((e1, e2))
        params = StableParams.default(0.5)
        path = sample_truncated_path(params, 1.0, 0.01, np.random.default_rng(seed))
        via_lo = thin_path(thin_path(path, lo), hi)
        direct = thin_path(path, hi)
        assert np.array_equal(via_lo.times, direct.times)

    def test_thinning_coherence_in_law(self):
        # thin(sample(eps1), eps2) must match sample(eps2) in law: KS on the
        # terminal values and on event counts.
        params = StableParams.default(0.5)
        rng = np.random.default_rng(11)
        n = 1500
        thinned_totals, direct_totals = np.empty(n), np.empty(n)
        thinned_counts, direct_counts = np.empty(n), np.empty(n)
        for i in range(n):
            fine = sample_truncated_path(params, 1.0, 0.05, rng)
            coarse = thin_path(fine, 0.2)
            direct = sample_truncated_path(params, 1.0, 0.2, rng)
            thinned_totals[i], direct_totals[i] = coarse.total, direct.total
            thinned_counts[i], direct_counts[i] = len(coarse), len(direct)
        ks_totals = ks_two_sample(thinned_totals, direct_totals)
        assert ks_totals.p_value > 0.01
        ks_counts = ks_two_sample(thinned_counts, direct_counts)
        assert ks_counts.p_value > 0.01


class TestExactIncrement:
    def test_laplace_transform_at_unit_time(self):
        params = StableParams.default(0.5)
        rng = np.random.default_rng(123)
        z = sample_exact_increment(params, 1.0, rng, size=100_000)
        probe = np.exp(-z)
        band = 3.0 * probe.std(ddof=1) / math.sqrt(probe.size)
        assert abs(probe.mean() - math.exp(-1.0)) < band

    def test_laplace_transform_general_scale(self):
        # E exp(-Z_t) = exp(-t * psi(1)) for any admissible (alpha, c).
        params = StableParams(0.7, 2.0)
        rng = np.random.default_rng(321)
        z = sample_exact_increment(params, 0.5, rng, size=100_000)
        target = math.exp(-0.5 * laplace_exponent(params, 1.0))
        probe = np.exp(-z)
        band = 3.0 * probe.std(ddof=1) / math.sqrt(probe.size)
        assert abs(probe.mean() - target) < band

    def test_self_similarity_ks(self):
        params = StableParams.default(0.5)
        rng = np.random.default_rng(17)
        small = sample_exact_increment(params, 0.25, rng, size=4000)
        scaled = 0.25 ** (1.0 / 0.5) * sample_exact_increment(params, 1.0, rng, size=4000)
        report = ks_two_sample(small, scaled)
        assert report.p_value > 0.01

    def test_small_dt_medians_shrink(self):
        params = StableParams.default(0.5)
        rng = np.random.default_rng(29)
        tiny = sample_exact_increment(params, 1e-6, rng, size=4000)
        small = sample_exact_increment(params, 1e-3, rng, size=4000)
        assert np.median(tiny) < np.median(small)
        assert np.all(tiny > 0.0)

    def test_nan_draw_raises(self):
        # At this alpha the scale underflows to 0 while draws overflow to inf.
        with np.errstate(all="ignore"), pytest.raises(SamplerIntegrityError, match="NaN"):
            sample_grid_path(StableParams.default(0.001953125), 1.0, 100, np.random.default_rng(4))

    def test_scalar_mode_and_preconditions(self):
        params = StableParams.default(0.5)
        value = sample_exact_increment(params, 1.0, np.random.default_rng(0))
        assert isinstance(value, float) and value > 0.0
        with pytest.raises(ValueError):
            sample_exact_increment(params, 0.0, np.random.default_rng(0))


def _reference_standard_stable(alpha: float, size: int, rng: np.random.Generator):
    # The sampler as one expression, before it was evaluated into buffers.
    if alpha == 0.5:
        n = rng.standard_normal(size)
        return 0.5 / np.maximum(n * n, np.finfo(float).tiny)
    u = rng.uniform(0.0, np.pi, size)
    np.clip(u, 1e-300, np.nextafter(np.pi, 0.0), out=u)
    w = np.maximum(rng.standard_exponential(size), np.finfo(float).tiny)
    log_a = (
        np.log(np.sin((1.0 - alpha) * u))
        + (alpha / (1.0 - alpha)) * np.log(np.sin(alpha * u))
        - (1.0 / (1.0 - alpha)) * np.log(np.sin(u))
    )
    return np.exp(((1.0 - alpha) / alpha) * (log_a - np.log(w)))


class TestInPlaceSampler:
    # At alpha = 1/2 the sampler draws 1/(2 N**2), elsewhere Kanter's transform;
    # the neighbours of 1/2 hold both sides of that switch to the reference.
    @pytest.mark.parametrize(
        "alpha",
        [0.1, 0.3, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 0.7, 0.9],
    )
    @given(
        size=st.integers(min_value=1, max_value=5000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dt=st.floats(min_value=1e-6, max_value=10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_equal_to_reference_expression(self, alpha, size, seed, dt):
        params = StableParams.default(alpha)
        scale = (dt ** (1.0 / alpha)) * params.unit_time_scale
        horizon = dt * size
        with np.errstate(over="ignore"):
            ref = _reference_standard_stable(alpha, size, np.random.default_rng(seed))
            got = _standard_stable(alpha, size, np.random.default_rng(seed))
            inc = sample_exact_increment(params, dt, np.random.default_rng(seed), size=size)
            grid = sample_grid_path(params, horizon, size, np.random.default_rng(seed))
            grid_inc = ((horizon / size) ** (1.0 / alpha)) * params.unit_time_scale * ref
        assert got.tobytes() == ref.tobytes()
        assert inc.tobytes() == (scale * ref).tobytes()
        assert grid.values.tobytes() == np.concatenate(([0.0], np.cumsum(grid_inc))).tobytes()


class TestHalfAlphaSwitch:
    # Both sides of alpha = 1/2 against the Levy CDF P(S <= x) = erfc(1/(2 sqrt x)),
    # the law with E exp(-lam*S) = exp(-lam**0.5).
    @pytest.mark.parametrize("alpha", [0.5, np.nextafter(0.5, 0.0)])
    def test_draws_follow_the_levy_law(self, alpha):
        draws = _standard_stable(alpha, 20_000, np.random.default_rng(2024))
        result = kstest(draws, lambda x: erfc(0.5 / np.sqrt(x)))
        assert result.pvalue > 0.01

    def test_zero_normal_gives_a_finite_draw(self):
        # numpy's ziggurat can return an exact 0, and 1/(2 * 0**2) is inf.
        draws = _standard_stable(0.5, 8, SimpleNamespace(standard_normal=np.zeros))
        assert np.isfinite(draws).all() and (draws > 0.0).all()


class TestGridTimes:
    @given(
        horizon=st.floats(min_value=1e-3, max_value=100.0),
        m=st.integers(min_value=1, max_value=20_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_times_are_linspace_bit_for_bit(self, horizon, m):
        times, ds = _grid_times(horizon, m)
        want = np.linspace(0.0, horizon, m + 1)
        assert times.tobytes() == want.tobytes()
        assert ds.tobytes() == np.diff(want).tobytes()
        path = sample_grid_path(StableParams.default(0.5), horizon, m, np.random.default_rng(0))
        assert path.times.tobytes() == want.tobytes()

    def test_rejects_what_sample_grid_path_rejects(self):
        for horizon, m in ((1.0, 0), (0.0, 10), (math.nan, 10)):
            with pytest.raises(ValueError):
                _grid_times(horizon, m)


def _reference_jumps(params, horizon, eps, rng):
    """The truncated path's draws, written out: count, times, then sizes."""
    n = int(rng.poisson(params.c * eps ** (-params.alpha) / params.alpha * horizon))
    times = np.sort(horizon * (1.0 - rng.random(n)))
    sizes = eps * (1.0 - rng.random(n)) ** (-1.0 / params.alpha)
    return times, sizes


class TestObjectFreeSampler:
    # The sampler computes these expressions in the draws' own buffers; at
    # alpha = 1/2 the size exponent is -2.0 exactly.
    @given(
        alpha=st.one_of(
            st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]), st.floats(min_value=0.05, max_value=0.95)
        ),
        horizon=st.floats(min_value=0.01, max_value=4.0),
        eps=st.floats(min_value=1e-4, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_draws_as_sample_truncated_path(self, alpha, horizon, eps, seed):
        params = StableParams.default(alpha)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        path = sample_truncated_path(params, horizon, eps, rng)
        want_times, want_sizes = _reference_jumps(params, horizon, eps, ref)
        assert path.times.tobytes() == want_times.tobytes()
        assert path.sizes.tobytes() == want_sizes.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_a_driver_with_no_jumps(self):
        # The one-driver form draws an empty driver's uniforms into an empty
        # view of its buffers, which must take nothing from the generator.
        params = StableParams.default(0.5)
        rng, ref = np.random.default_rng(0), np.random.default_rng(0)
        path = sample_truncated_path(params, 1.0, 5.0, rng)
        want_times, _ = _reference_jumps(params, 1.0, 5.0, ref)
        assert want_times.size == 0
        for got in (path.times, path.sizes):
            assert got.dtype == np.float64 and got.shape == (0,)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_inf_size_raises(self):
        # alpha = 0.01: about 107,000 jumps, of which some 80 overflow to inf.
        params = StableParams.default(0.01)
        with (
            np.errstate(over="ignore"),
            pytest.raises(SamplerIntegrityError, match="overflowed to inf"),
        ):
            sample_truncated_path(params, 1e5, 1e-3, np.random.default_rng(1))


def _state(rng):
    """A generator's state, or what a _Scripted one has left to draw."""
    return rng.bit_generator.state if isinstance(rng, np.random.Generator) else rng.uniforms[:]


def _block_rows(params, horizon, eps, rngs, budget):
    """Every driver _jump_blocks yields, in order, and the blocks' row counts.

    A row is copies of its times and sizes, and its generator's state once
    every block is drawn.
    """
    rngs = list(rngs)
    drawn, lengths = [], []
    for first, times, sizes, offsets in _jump_blocks(params, horizon, eps, rngs, budget):
        assert first == len(drawn)
        assert offsets[0] == 0 and offsets[-1] == times.size == sizes.size
        lengths.append(np.diff(offsets))
        drawn += [(times[a:b].copy(), sizes[a:b].copy()) for a, b in zip(offsets, offsets[1:])]
    assert len(drawn) == len(rngs)
    rows = [(times, sizes, _state(g)) for (times, sizes), g in zip(drawn, rngs)]
    return rows, lengths


def _reference_merge(times, sizes):
    """Repeated times merged, written out: each time once, with the sum of its sizes."""
    if not times.size:
        return times, sizes
    times, start = np.unique(times, return_index=True)
    return times, np.add.reduceat(sizes, start)


class _Scripted:
    """A generator stand-in: a fixed Poisson count, then the given uniforms in order."""

    def __init__(self, n, uniforms):
        self.n, self.uniforms = n, list(uniforms)

    def poisson(self, lam):
        return self.n

    def random(self, size=None, out=None):
        k = out.size if out is not None else size
        draws, self.uniforms = np.array(self.uniforms[:k], dtype=float), self.uniforms[k:]
        if out is None:
            return draws
        out[...] = draws
        return out


def _assert_equals_reference(params, horizon, eps, seeds, budget):
    """Each driver of _jump_blocks is _reference_jumps's on its seed.

    Its generator is left in the state _reference_jumps leaves.
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    rows, lengths = _block_rows(params, horizon, eps, rngs, budget)
    assert len(rows) == len(seeds)
    assert all(n.size == 1 or n.sum() <= budget for n in lengths)
    for (times, sizes, state), s in zip(rows, seeds):
        ref = np.random.default_rng(s)
        want_times, want_sizes = _reference_jumps(params, horizon, eps, ref)
        assert times.tobytes() == want_times.tobytes()
        assert sizes.tobytes() == want_sizes.tobytes()
        assert state == ref.bit_generator.state


# The size exponent -1/alpha is -2.0 exactly at 1/2, and not at its neighbour.
_SIZE_ALPHAS = [0.05, 0.3, np.nextafter(0.5, 0.0), 0.5, 0.7, 0.95]


class TestBlockSampler:
    """_jump_blocks against _reference_jumps, driver by driver, bit for bit."""

    @given(
        alpha=st.one_of(st.sampled_from(_SIZE_ALPHAS), st.floats(min_value=0.05, max_value=0.95)),
        # Powers of two, and horizons that are not.
        horizon=st.sampled_from([0.25, 1.0, 2.0, 8.0, 0.7, 3.0]),
        # Up to about 40 jumps a driver on the longest horizon, and none at all.
        eps=st.floats(min_value=0.01, max_value=50.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        drivers=st.integers(min_value=0, max_value=30),
        # Budget 0 is the one-driver form's: each driver with jumps alone.
        budget=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_reference_jumps(self, alpha, horizon, eps, seed, drivers, budget):
        seeds = [(seed, k) for k in range(drivers)]
        _assert_equals_reference(StableParams.default(alpha), horizon, eps, seeds, budget)

    @pytest.mark.parametrize("alpha", _SIZE_ALPHAS)
    @pytest.mark.parametrize("budget", [0, 40])
    def test_equals_reference_jumps_at_fixed_alphas(self, alpha, budget):
        # 30 drivers of about 10 to 40 jumps each.
        _assert_equals_reference(StableParams.default(alpha), 8.0, 0.01, range(30), budget)

    def test_blocks_take_whole_drivers_up_to_the_budget(self):
        # Empty drivers, blocks of several drivers, blocks split by the
        # budget and drivers over it, alone: the edges the property test draws.
        params = StableParams.default(0.5)
        budget = 6
        rngs = [np.random.default_rng(k) for k in range(200)]
        rows, lengths = _block_rows(params, 1.0, 0.05, rngs, budget)
        assert len(rows) == 200
        assert any((n == 0).any() for n in lengths)
        assert any(n.size > 1 and n.sum() == budget for n in lengths)
        assert any(n.size == 1 and n[0] > budget for n in lengths)
        flat = np.concatenate(lengths)
        for n, following in zip(lengths, lengths[1:]):
            assert n.size == 1 or n.sum() <= budget
            assert n.sum() + following[0] > budget
        ref = [np.random.default_rng(k) for k in range(200)]
        assert flat.tolist() == [len(sample_truncated_path(params, 1.0, 0.05, g)) for g in ref]

    def test_repeated_times_merge(self):
        # Times horizon * (1 - u): equal uniforms give equal times.  Rows: no
        # jumps; one repeat; none; no jumps; all equal; a row whose first time
        # equals the last time of the row before, which is no repeat; a
        # repeat at the end; and no jumps.  The empty first and last rows
        # put offsets 0 and len inside a block.
        scripts = [
            (0, []),
            (5, [0.5, 0.25, 0.5, 0.75, 0.125] + [0.1, 0.2, 0.3, 0.4, 0.6]),
            (3, [0.3, 0.2, 0.1] + [0.9, 0.8, 0.7]),
            (0, []),
            (3, [0.6, 0.6, 0.6] + [0.1, 0.2, 0.3]),
            (2, [0.1, 0.9] + [0.5, 0.5]),
            (2, [0.05, 0.1] + [0.25, 0.75]),
            (3, [0.9, 0.5, 0.5] + [0.1, 0.2, 0.3]),
            (0, []),
        ]
        params = StableParams.default(0.7)
        for budget in (100, 7, 4, 3, 1, 0):
            rows, _ = _block_rows(
                params, 2.0, 0.1, [_Scripted(n, u) for n, u in scripts], budget
            )
            for (times, sizes, left), (n, u) in zip(rows, scripts):
                want_times, want_sizes = _reference_merge(
                    *_reference_jumps(params, 2.0, 0.1, _Scripted(n, u))
                )
                assert times.tobytes() == want_times.tobytes()
                assert sizes.tobytes() == want_sizes.tobytes()
                assert left == []
            assert [t.size for t, *_ in rows] == [0, 4, 3, 0, 1, 2, 2, 2, 0]

    def test_inf_size_names_its_driver(self):
        # Below alpha = 53/1024 a uniform near 1 gives (1 - u)**(-1/alpha) = inf.
        params = StableParams.default(0.01)
        first_inf = None
        for k in range(3000):
            try:
                with np.errstate(over="ignore"):
                    sample_truncated_path(params, 1.0, 1e-3, np.random.default_rng(k))
            except SamplerIntegrityError:
                first_inf = k
                break
        assert first_inf is not None
        rngs = (np.random.default_rng(k) for k in range(3000))
        with np.errstate(over="ignore"), pytest.raises(SamplerIntegrityError) as info:
            _block_rows(params, 1.0, 1e-3, rngs, 64)
        assert info.value.driver == first_inf
        assert "overflowed to inf" in str(info.value)


class TestTruncatedLaplace:
    def test_against_quadrature_oracle(self):
        # E exp(-Z^eps_1) = exp(-int_eps^inf (1-e^-h) nu(dh)); the integral is
        # evaluated by quadrature, the expectation by Monte Carlo.
        params = StableParams.default(0.5)
        eps = 0.1
        integral, err = quad(
            lambda h: (1.0 - np.exp(-h)) * params.c * h ** (-1.5), eps, np.inf
        )
        assert err < 1e-8
        target = math.exp(-integral)
        assert target == pytest.approx(0.43845297940986366, rel=1e-9)
        rng = np.random.default_rng(41)
        n = 20_000
        probe = np.array(
            [
                math.exp(-sample_truncated_path(params, 1.0, eps, rng).total)
                for _ in range(n)
            ]
        )
        band = 3.0 * probe.std(ddof=1) / math.sqrt(n)
        assert abs(probe.mean() - target) < band


class TestGridPath:
    def test_shape_and_monotonicity(self):
        params = StableParams.default(0.5)
        grid = sample_grid_path(params, 2.0, 500, np.random.default_rng(1))
        assert grid.times[0] == 0.0
        assert grid.values[0] == 0.0
        assert grid.horizon == 2.0
        assert np.all(np.diff(grid.values) > 0.0)

    def test_step_evaluation(self):
        grid = GridPath(times=np.array([0.0, 1.0, 2.0]), values=np.array([0.0, 3.0, 5.0]))
        assert grid.value_at(0.5) == 0.0
        assert grid.value_at(1.0) == 3.0
        assert grid.value_at(1.999) == 3.0
        assert grid.value_at(2.0) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GridPath(times=np.array([0.0, 1.0]), values=np.array([0.0, -1.0]))
        with pytest.raises(ValueError):
            GridPath(times=np.array([0.5, 1.0]), values=np.array([0.0, 1.0]))


class TestJumpPathValidation:
    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            JumpPath(
                horizon=1.0,
                times=np.array([0.5, 0.2]),
                sizes=np.array([1.0, 1.0]),
                cutoff=0.5,
            )

    def test_rejects_sizes_below_cutoff(self):
        with pytest.raises(ValueError):
            JumpPath(
                horizon=1.0,
                times=np.array([0.5]),
                sizes=np.array([0.01]),
                cutoff=0.5,
            )

    def test_rejects_times_outside_horizon(self):
        with pytest.raises(ValueError):
            JumpPath(
                horizon=1.0,
                times=np.array([1.5]),
                sizes=np.array([1.0]),
                cutoff=0.5,
            )

    @pytest.mark.parametrize(
        "times, sizes, cutoff",
        [
            ([math.nan, 0.5], [1.0, 1.0], 0.5),
            ([0.2, math.nan, 0.7], [1.0, 1.0, 1.0], 0.5),
            ([0.2, math.nan], [1.0, 1.0], 0.5),
            ([0.2, 0.7], [1.0, math.nan], 0.5),
            ([0.2], [math.nan], 0.0),
        ],
    )
    def test_rejects_nan(self, times, sizes, cutoff):
        with pytest.raises(ValueError):
            JumpPath(
                horizon=1.0, times=np.array(times), sizes=np.array(sizes), cutoff=cutoff
            )


# One way each to break a path of three jumps >= 0.5 inside (0, 1], with the
# message JumpPath gives.
CORRUPTIONS = {
    "time-zero": (lambda t, z: (np.concatenate(([0.0], t[1:])), z), r"lie in \(0, horizon\]"),
    "past-horizon": (lambda t, z: (np.concatenate((t[:-1], [1.5])), z), r"lie in \(0, horizon\]"),
    "unsorted": (lambda t, z: (t[::-1].copy(), z), "strictly increasing"),
    "repeated-time": (lambda t, z: (np.concatenate((t[:1], t[:-1])), z), "strictly increasing"),
    "nan-time": (
        lambda t, z: (np.concatenate((t[:1], [math.nan], t[2:])), z),
        "strictly increasing",
    ),
    "small-size": (lambda t, z: (t, np.concatenate((z[:-1], [0.25]))), ">= cutoff"),
    "nan-size": (lambda t, z: (t, np.concatenate(([math.nan], z[1:]))), "strictly positive"),
    "negative-size": (lambda t, z: (t, np.concatenate(([-1.0], z[1:]))), "strictly positive"),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_jump_path_names_what_is_broken(kind):
    corrupt, message = CORRUPTIONS[kind]
    times, sizes = corrupt(np.array([0.2, 0.5, 0.8]), np.array([0.5, 1.0, 2.0]))
    with pytest.raises(ValueError, match=message):
        JumpPath(horizon=1.0, times=times, sizes=sizes, cutoff=0.5)
