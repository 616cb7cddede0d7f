import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import matrix_loop, tail_norm, unit_commutator
from psilab.bands import _band_product, _dense
from psilab.config import parse_profile
from psilab.connes_higson import (ch_apply, ch_extended_apply, default_unit,
                                  kappa, kappa_inv, tail_deformed_unit)
from psilab.experiments import EXACT_TOL
from psilab.numerics import CircleGrid, operator_norm
from psilab.quantize import t_quantize
from psilab.symbols import (HomogeneousSymbol, Loop, Symbol, SymbolClass,
                            RadialProfile, constant_profile, rational_decay_profile,
                            rational_vanishing_profile, smash)
from psilab.presets import loop_c1


def shift_symbol():
    return HomogeneousSymbol(Loop.from_scalar_modes({1: 1.0}), Loop.identity(1))


class TestReparametrization:
    def test_round_trip(self):
        v = np.linspace(1e-3, 1.0, 997)
        assert np.max(np.abs(kappa_inv(kappa(v)) - v)) <= 1e-13
        v = np.linspace(1e-4, 1.0, 1001)
        assert np.max(np.abs(kappa_inv(kappa(v)) - v)) < 1e-13

    def test_endpoint_and_monotone(self):
        assert kappa(1.0) == 0.0
        v = np.linspace(0.01, 1.0, 200)
        assert np.all(np.diff(kappa(v)) < 0.0)


class TestApproximateUnit:
    def test_range_and_monotone(self, grid64):
        for unit in (default_unit(), tail_deformed_unit()):
            vals = unit.values(4.0, grid64)
            assert np.min(vals) >= 0.0 and np.max(vals) <= 1.0
            assert np.all(np.diff(vals[grid64.N:]) <= 1e-13)  # nonincreasing in |n|

    def test_tends_to_one(self, grid64):
        unit = default_unit()
        v_small = unit.values(2.0, grid64)
        v_big = unit.values(1024.0, grid64)
        assert np.min(v_big) > 0.99 * np.min(np.maximum(v_small, 0.2))
        assert np.min(v_big) > 0.79

    def test_each_unit_numerically_compact(self, grid64):
        u = default_unit().values(4.0, grid64)
        U = np.diag(u.astype(complex))
        tails = [tail_norm(U, grid64, K) for K in (8, 16, 32, 60)]
        assert all(y < x for x, y in zip(tails, tails[1:]))

    def test_units_differ_beyond_onset(self, grid64):
        # the alternative profile is a genuinely different approximate unit
        d = default_unit().values(1.0, grid64) - tail_deformed_unit().values(1.0, grid64)
        assert np.max(np.abs(d)) > 1e-4


class TestQuasicentrality:
    def test_fiber_independent_commutes(self, grid64, theta):
        two = Loop.constant(np.array([[2.0]]))
        const = HomogeneousSymbol(two, two)
        assert unit_commutator(default_unit(), 4.0, const, theta, grid64) < 1e-14

    def test_unit_symbol_commutes(self, grid64, theta):
        assert unit_commutator(default_unit(), 4.0,
                               HomogeneousSymbol.unit(1), theta, grid64) < 1e-14

    def test_shift_defect_decay(self, grid64, theta):
        # frozen from a direct sweep: the defect peaks once the profile's
        # variation clears the cutting region (t = 4), then falls like 1/t
        ts = 2.0 ** np.arange(2, 9)
        vals = np.array([unit_commutator(default_unit(), t, shift_symbol(), theta, grid64)
                         for t in ts])
        assert np.all(np.diff(vals) < 0.0)
        tail = slice(3, None)  # fit over t in [32, 256]
        slope = np.polyfit(np.log2(ts[tail]), np.log2(vals[tail]), 1)[0]
        assert slope <= -0.8
        assert vals[0] == pytest.approx(0.06678791649080973, rel=1e-9)


class TestChApply:
    def test_zero_profile(self, grid64, theta):
        f = rational_vanishing_profile() * constant_profile(0.0)
        out = ch_apply(f, shift_symbol(), 4.0, default_unit(), theta, grid64)
        assert operator_norm(out) == 0.0

    def test_unit_symbol_diagonal_weights(self, grid64, theta):
        f = rational_vanishing_profile()
        out = _dense(ch_apply(f, HomogeneousSymbol.unit(1), 8.0, default_unit(), theta, grid64))
        modes = grid64.modes
        sel = np.abs(modes) >= theta.r0
        expect = np.real([f(abs(m) / 8.0) for m in modes])
        assert np.allclose(np.real(np.diag(out))[sel], expect[sel], atol=1e-13)

    def test_requires_vanishing_profile(self, grid64, theta):
        with pytest.raises(ValueError):
            ch_apply(rational_decay_profile(), shift_symbol(), 4.0,
                     default_unit(), theta, grid64)

    @pytest.mark.parametrize("unit_maker", [default_unit, tail_deformed_unit])
    def test_matches_rescaled_quantization_asymptotically(self, grid64, theta,
                                                          unit_maker):
        unit = unit_maker()
        f = rational_vanishing_profile()
        d = shift_symbol()
        vals = []
        for t in (4.0, 16.0, 64.0):
            CH = ch_apply(f, d, t, unit, theta, grid64)
            T = t_quantize(smash(f, d), t, grid64)
            vals.append(operator_norm(CH - T))
        assert vals[2] < vals[1] < vals[0]
        assert vals[2] < 0.1 * vals[0]


class TestChExtended:
    def test_approaches_identity_strongly(self, grid64):
        g = rational_decay_profile()
        out_small = _dense(ch_extended_apply(g, Loop.identity(1), 4.0,
                                             default_unit(), grid64))
        out_big = _dense(ch_extended_apply(g, Loop.identity(1), 4096.0,
                                           default_unit(), grid64))
        probe = grid64.N + 8  # mode n = 8
        assert abs(out_big[probe, probe] - 1.0) < 1e-3
        assert abs(out_big[probe, probe]) > abs(out_small[probe, probe])

    def test_exact_entry_formula(self, grid64):
        c = Loop.from_scalar_modes({1: 1.0})
        g = rational_decay_profile()
        out = _dense(ch_extended_apply(g, c, 8.0, default_unit(), grid64))
        n0 = grid64.N
        for m in (-5, 0, 7):
            expect = np.real(g(abs(m) / 8.0))
            assert out[n0 + m + 1, n0 + m] == pytest.approx(expect, abs=1e-13)

    def test_default_unit_reproduces_quantization_exactly(self, grid64):
        # with the bundled pair the multiplication lifting makes the two
        # constructions literally identical
        c = loop_c1()
        g = rational_decay_profile()
        even = RadialProfile(lambda xi: g.fn(np.abs(np.asarray(xi, dtype=float))),
                             g.vanishes_at_zero, g.vanishes_at_infinity)
        sym = Symbol.separable(c, even, SymbolClass.FULL_C0)
        for t in (4.0, 32.0):
            CH = ch_extended_apply(g, c, t, default_unit(), grid64)
            T = t_quantize(sym, t, grid64)
            assert operator_norm(CH - T) < 1e-13

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 2), seed=st.integers(0, 2**32 - 1), degree=st.integers(0, 3),
           t=st.floats(4.0, 64.0),
           record=st.one_of(
               st.builds(lambda hi: {"kind": "cap", "hi": hi}, st.floats(0.5, 64.0)),
               st.builds(lambda scale: {"kind": "rational_decay", "scale": scale},
                         st.floats(0.25, 16.0)),
               st.builds(lambda lo, width: {"kind": "bump", "lo": lo, "hi": lo + width},
                         st.floats(0.0, 8.0), st.floats(1.0, 64.0))))
    def test_property_default_unit_is_exact(self, k, seed, degree, t, record):
        # CH_t(g (x) c) = T_t(g(|xi|) c) with the default unit, for any loop c
        # and config profile g; the grid reaches |n| / t = 64, past the onset
        # r = 32 of the tail-deformed unit
        grid = CircleGrid(J=1028, N=256, k=k)
        c, g = matrix_loop(k=k, seed=seed, degree=degree), parse_profile(record)
        CH = ch_extended_apply(g, c, t, default_unit(), grid)
        T = t_quantize(Symbol.separable(c, g.even(), SymbolClass.FULL_C0), t, grid)
        assert operator_norm(CH - T) <= EXACT_TOL

    def test_branch_compatibility(self, grid64, theta):
        # on the overlap (vanishing profile, fiber-constant symbol) the two
        # liftings differ by a finite-rank block with a dying weight
        unit = default_unit()
        f = rational_vanishing_profile()
        c = loop_c1()
        vals = []
        for t in (4.0, 16.0, 64.0, 256.0):
            A = ch_apply(f, HomogeneousSymbol(c, c), t, unit, theta, grid64)
            B = ch_extended_apply(f, c, t, unit, grid64)
            vals.append(operator_norm(A - B))
        assert all(y < x for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 0.05 * vals[0]


class TestChAlgebra:
    def test_asymptotic_multiplicativity(self, grid64, theta):
        unit = default_unit()
        f1, f2 = rational_vanishing_profile(), rational_vanishing_profile(2.0)
        d1, d2 = shift_symbol(), HomogeneousSymbol.unit(1)
        d12 = HomogeneousSymbol(d1.plus * d2.plus, d1.minus * d2.minus)
        vals = []
        for t in (4.0, 16.0, 64.0):
            lhs = ch_apply(f1 * f2, d12, t, unit, theta, grid64)
            rhs = _band_product(ch_apply(f1, d1, t, unit, theta, grid64),
                                ch_apply(f2, d2, t, unit, theta, grid64))
            vals.append(operator_norm(_dense(lhs) - _dense(rhs)))
        assert vals[2] < vals[1] < vals[0]

    def test_output_numerically_compact(self, grid64, theta):
        out = ch_apply(rational_vanishing_profile(), shift_symbol(), 4.0,
                       default_unit(), theta, grid64)
        tails = [tail_norm(out, grid64, K) for K in (8, 16, 32, 60)]
        assert all(y < x for x, y in zip(tails, tails[1:]))
        assert tails[-1] < 0.2 * tails[0]
