import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kolmogorov as scipy_kolmogorov

from stable_sde_lab import SampleSet, ks_two_sample
from stable_sde_lab.stats import kolmogorov_sf


def brute_force_ks(xs, ys):
    """Oracle: evaluate both ECDFs on a dense grid spanning the pooled data."""
    xs, ys = np.sort(xs), np.sort(ys)
    pooled = np.concatenate([xs, ys])
    lo, hi = pooled.min() - 1.0, pooled.max() + 1.0
    grid = np.unique(np.concatenate([pooled, np.linspace(lo, hi, 2001)]))
    fa = np.searchsorted(xs, grid, side="right") / xs.size
    fb = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.max(np.abs(fa - fb)))


class TestKS:
    def test_identical_multisets_give_zero(self):
        s = SampleSet(np.array([1.0, 2.0, 2.0, 5.0]))
        report = ks_two_sample(s, SampleSet(np.array([1.0, 2.0, 2.0, 5.0])))
        assert report.statistic == 0.0
        assert report.p_value == 1.0

    def test_hand_enumerated_example(self):
        # F jumps at 0 and 1; G jumps at 0.5 and 1.5; the largest gap is 1/2.
        report = ks_two_sample(
            SampleSet(np.array([0.0, 1.0])), SampleSet(np.array([0.5, 1.5]))
        )
        assert report.statistic == 0.5

    def test_disjoint_uniforms(self):
        rng = np.random.default_rng(0)
        a = SampleSet(rng.random(1000))
        b = SampleSet(rng.random(1000) + 0.5)
        report = ks_two_sample(a, b)
        assert abs(report.statistic - 0.5) < 0.06
        assert report.p_value < 1e-10

    def test_matches_brute_force_on_small_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n, m = rng.integers(1, 51), rng.integers(1, 51)
            xs = np.round(rng.normal(size=n), 1)  # rounding forces ties
            ys = np.round(rng.normal(size=m), 1)
            report = ks_two_sample(SampleSet(xs), SampleSet(ys))
            assert report.statistic == pytest.approx(brute_force_ks(xs, ys), abs=1e-15)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_rank_statistic_invariance(self, seed):
        # D is unchanged by any common strictly increasing transform.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=60)
        b = rng.normal(size=40) + 0.3
        base = ks_two_sample(SampleSet(a), SampleSet(b)).statistic
        for transform in (np.exp, np.arctan, lambda v: v**3 + 5.0 * v):
            moved = ks_two_sample(
                SampleSet(transform(a)), SampleSet(transform(b))
            ).statistic
            assert moved == pytest.approx(base, abs=1e-12)

    def test_p_value_monotone_in_statistic(self):
        # Fixed sizes: a larger gap can only be less plausible under the null.
        n = m = 200
        en = math.sqrt(n * m / (n + m))
        ps = [kolmogorov_sf(en * d) for d in (0.05, 0.1, 0.2, 0.4)]
        assert all(b < a for a, b in zip(ps, ps[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SampleSet(np.array([]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            SampleSet(np.array([1.0, float("nan")]))


class TestKolmogorovSF:
    def test_against_scipy(self):
        for x in (0.3, 0.5, 1.0, 1.36, 2.0, 3.0):
            assert kolmogorov_sf(x) == pytest.approx(float(scipy_kolmogorov(x)), rel=1e-10)

    def test_boundaries(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(10.0) < 1e-80

