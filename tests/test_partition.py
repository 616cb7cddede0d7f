import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import covered_log2_range, gamma_sup_on_modes, sum_of_squares
from psilab.partition import SmoothStep, build_partition, smooth_step


def sample_points(lo_exp, hi_exp, n=1000, seed=0):
    rng = np.random.default_rng(seed)
    return np.exp2(rng.uniform(lo_exp, hi_exp, n))


class TestSmoothStep:
    def test_flat_regions_exact(self):
        S = SmoothStep()
        assert S(-1.0) == 0.0 and S(0.0) == 0.0
        assert S(1.0) == 1.0 and S(7.5) == 1.0

    def test_monotone(self):
        u = np.linspace(-0.5, 1.5, 400)
        v = smooth_step(u)
        assert np.all(np.diff(v) >= 0.0)

    def test_reflection_identity(self):
        u = np.linspace(-0.5, 1.5, 400)
        assert np.max(np.abs(smooth_step(u) + smooth_step(1.0 - u) - 1.0)) < 1e-13


class TestUndeformed:
    def test_telescoping_sum(self):
        p = build_partition(1.0, 8)
        xs = sample_points(-7, 7)
        assert np.max(np.abs(sum_of_squares(p, xs) - 1.0)) < 1e-12

    def test_adjacency_exact(self):
        p = build_partition(1.0, 8)
        xs = sample_points(-7, 7, seed=1)
        for i in range(-6, 5):
            assert np.max(p.gamma(i, xs) * p.gamma(i + 2, xs)) == 0.0

    def test_central_support(self):
        p = build_partition(1.0, 4)
        assert p.support(0) == (0.5, 2.0)
        assert p.gamma(0, 0.49) == 0.0 and p.gamma(0, 2.01) == 0.0

    def test_translate_law(self):
        p = build_partition(1.0, 6)
        xs = sample_points(-5, 5, seed=2)
        for i in (1, 2, -3):
            assert np.max(np.abs(p.gamma(i, xs) - p.gamma(0, xs / 2.0 ** i))) < 1e-13

    def test_gamma0_at_one(self):
        # cut recipe gives (gamma_0)^2(1) = S(1) - S(0) = 1
        p = build_partition(1.0, 4)
        assert p.gamma(0, 1.0) == pytest.approx(1.0, abs=1e-15)


class TestDeformed:
    def test_support_and_plateau(self):
        p = build_partition(0.25, 6)
        assert p.support(0) == (2.0 ** -4, 2.0 ** 4)
        assert p.gamma(0, 8.0) == pytest.approx(1.0)  # 2^{1/s-1} = 8
        for x in (0.2, 1.0, 7.9):
            assert p.gamma(0, x) == pytest.approx(1.0, abs=1e-15) or 0.0 <= p.gamma(0, x) <= 1.0
        assert p.support(1) == (2.0 ** 3, 2.0 ** 5)
        assert p.support(-1) == (2.0 ** -5, 2.0 ** -3)

    def test_plateau_region_is_one(self):
        p = build_partition(0.25, 6)
        xs = np.exp2(np.linspace(-3.0, 3.0, 101))
        assert np.max(np.abs(p.gamma(0, xs) - 1.0)) < 1e-15

    @pytest.mark.parametrize("s", [1.0, 0.5, 0.25, 0.125])
    def test_telescoping_all_s(self, s):
        p = build_partition(s, 6)
        lo, hi = covered_log2_range(p)
        xs = np.exp2(np.random.default_rng(3).uniform(lo, hi, 1000))
        assert np.max(np.abs(sum_of_squares(p, xs) - 1.0)) < 1e-12

    @pytest.mark.parametrize("s", [0.5, 0.25, 0.125])
    def test_adjacency_all_s(self, s):
        p = build_partition(s, 6)
        lo, hi = covered_log2_range(p)
        xs = np.exp2(np.random.default_rng(4).uniform(lo - 1, hi + 1, 1000))
        for i in range(-4, 3):
            assert np.max(p.gamma(i, xs) * p.gamma(i + 2, xs)) == 0.0

    def test_outward_translate_law(self):
        p = build_partition(0.25, 6)
        xs = sample_points(2, 6, seed=5)
        assert np.max(np.abs(p.gamma(2, xs) - p.gamma(1, xs / 2.0))) < 1e-13
        assert np.max(np.abs(p.gamma(-2, xs ** -1) - p.gamma(-1, 2.0 * xs ** -1))) < 1e-13

    def test_snapping(self):
        p = build_partition(0.3, 4)  # 1/s = 10/3 snaps to 3.5
        assert p.inv_s == 3.5


class TestStrictConvergenceSurrogate:
    def test_shoulder_sup_vanishes(self):
        sups = [gamma_sup_on_modes(build_partition(s, 6), 1, 256)
                for s in (0.5, 0.25, 0.125, 0.1)]
        assert sups[-1] == 0.0  # support [2^9, 2^11] has no mode <= 256
        assert all(b <= a for a, b in zip(sups, sups[1:]))


class TestValidation:
    def test_s_range(self):
        for s in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                build_partition(s, 4)

    def test_L_minimum(self):
        with pytest.raises(ValueError):
            build_partition(1.0, 1)

    def test_index_range(self):
        p = build_partition(1.0, 4)
        with pytest.raises(ValueError):
            p.gamma(5, 1.0)

    def test_positive_argument(self):
        p = build_partition(1.0, 4)
        with pytest.raises(ValueError):
            p.gamma(0, 0.0)


class TestSumOfSquaresProperty:
    # s >= 2**-9 keeps the covered x-range, up to 2**(1/s + L), a finite float
    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(2.0 ** -9, 1.0), L=st.integers(2, 8))
    def test_sum_of_squares_is_one(self, s, L):
        p = build_partition(s, L)
        lo, hi = covered_log2_range(p)
        xs = np.exp2(np.linspace(lo, hi, 4001))
        assert np.max(np.abs(sum_of_squares(p, xs) - 1.0)) <= 1e-12
