"""The extension 0 -> K -> Psi(M) -> C(S*M) -> 0 on its finite model: the
product and commutator defects of Op lie in the ideal (their tail norms
decay), and Op lifts fiber-constant symbols exactly off the cut region."""

import numpy as np

from oracles import (fiber_constant_loops, lifting_tail, matrix_loop, op_defects,
                     smooth_loop, tail_norm)
from psilab.bands import _band_adjoint, _band_diff
from psilab.numerics import operator_norm
from psilab.quantize import op_quantize, t_quantize
from psilab.symbols import (HomogeneousSymbol, Loop,
                            rational_vanishing_profile, smash)
from psilab.presets import loop_c1


def shift_symbol():
    return HomogeneousSymbol(Loop.from_scalar_modes({1: 1.0}), Loop.identity(1))


def adjoint(a):
    return HomogeneousSymbol(a.plus.adjoint(), a.minus.adjoint())


def tails(a, b, theta, grid, K_list):
    """Tail norms of the product and of the commutator defect at each K."""
    product, commutator = op_defects(a, b, theta, grid)
    return ([tail_norm(product, grid, K) for K in K_list],
            [tail_norm(commutator, grid, K) for K in K_list])


def smooth_pair(rate=3.0, degree=40):
    a = HomogeneousSymbol(smooth_loop(seed=23, degree=degree, rate=rate),
                          smooth_loop(seed=24, degree=degree, rate=rate))
    b = HomogeneousSymbol(smooth_loop(seed=25, degree=degree, rate=rate),
                          smooth_loop(seed=26, degree=degree, rate=rate))
    return a, b


class TestSymbolMapDefect:
    def test_unit_pair_vanishes(self, grid64, theta):
        u = HomogeneousSymbol.unit(1)
        product, commutator = tails(u, u, theta, grid64, [8, 16, 32])
        assert max(product) < 1e-13
        assert max(commutator) < 1e-13

    def test_fiber_constant_times_sign_band(self, grid64, theta):
        # defect is the commutator of a band matrix with a diagonal sign:
        # supported below K = deg c + r0, so the tail there is exactly zero
        a = HomogeneousSymbol(loop_c1(), loop_c1())
        b = HomogeneousSymbol(Loop.identity(1), Loop.constant(-1.0))
        K = 2 + int(theta.r0)
        product, commutator = tails(a, b, theta, grid64, [K])
        assert product[0] < 1e-13
        assert commutator[0] < 1e-13

    def test_shift_pair_tails_are_exact_zeros(self, grid64, theta):
        # the defect of a degree-one pair is finite rank below the first
        # cutoff: every tail from K = 8 on is an exact zero (frozen from a
        # direct computation; the defect support ends at |m| = r0 + 1)
        a = shift_symbol()
        product, commutator = tails(a, adjoint(a), theta, grid64, [8, 16, 32])
        assert max(product) < 1e-12
        assert max(commutator) < 1e-12

    def test_smooth_pair_tails_halve(self, grid64, theta):
        a, b = smooth_pair()
        for vals in tails(a, b, theta, grid64, [4, 8, 16, 32]):
            assert all(y < x for x, y in zip(vals, vals[1:]))
            assert all(y <= 0.5 * x for x, y in zip(vals, vals[1:]))
            assert vals[-1] < 1e-3  # in the ideal at the half-range cutoff N/2

    def test_tail_sequences_nonincreasing(self, grid64, theta):
        a, b = smooth_pair()
        product, _ = tails(a, b, theta, grid64, list(range(2, 33, 3)))
        assert all(y <= x + 1e-13 for x, y in zip(product, product[1:]))


class TestLiftingCheck:
    def test_three_fiber_constant_symbols(self, grid64, theta):
        for c in fiber_constant_loops():
            assert lifting_tail(c, theta, grid64) == 0.0


class TestIdealMembership:
    def test_adjoint_compatible_modulo_tails(self, grid64, theta):
        a, _ = smooth_pair()
        X = op_quantize(a, theta, grid64)
        Y = op_quantize(adjoint(a), theta, grid64)
        diff = _band_diff(_band_adjoint(X), Y)
        vals = [tail_norm(diff, grid64, K) for K in (8, 16, 32, 60)]
        assert all(y <= x + 1e-13 for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6

    def test_zero_symbol_quantizes_to_zero(self, grid64, theta):
        zero = HomogeneousSymbol(Loop.constant(np.zeros((1, 1))),
                                 Loop.constant(np.zeros((1, 1))))
        assert operator_norm(op_quantize(zero, theta, grid64)) == 0.0

    def test_vanishing_symbol_lands_in_ideal(self, grid64):
        g = smash(rational_vanishing_profile(), shift_symbol())
        T = t_quantize(g, 4.0, grid64)
        vals = [tail_norm(T, grid64, K) for K in (8, 16, 32, 60)]
        assert all(y < x for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 0.2 * vals[0]


class TestMatrixCoefficients:
    def test_symbol_map_defect_at_k2(self, theta):
        from psilab.numerics import CircleGrid
        g = CircleGrid(J=132, N=32, k=2)
        a = HomogeneousSymbol(matrix_loop(k=2, seed=41), matrix_loop(k=2, seed=42))
        b = HomogeneousSymbol(matrix_loop(k=2, seed=43), matrix_loop(k=2, seed=44))
        product, commutator = tails(a, b, theta, g, [8, 12, 16])
        # the product defect is always in the ideal (finite rank here) ...
        assert product[-1] < 1e-12
        # ... but with noncommuting matrix values the operator commutator
        # carries the symbol commutator, which is not in the ideal
        assert commutator[-1] > 0.1

    def test_commuting_matrix_symbols_have_compact_commutator(self, theta):
        from psilab.numerics import CircleGrid
        g = CircleGrid(J=132, N=32, k=2)
        a = HomogeneousSymbol(matrix_loop(k=2, seed=41), matrix_loop(k=2, seed=42))
        a2 = HomogeneousSymbol(a.plus * a.plus, a.minus * a.minus)
        _, commutator = tails(a, a2, theta, g, [12, 16])
        assert commutator[-1] < 1e-12

    def test_lifting_check_at_k2(self, theta):
        from psilab.numerics import CircleGrid
        g = CircleGrid(J=132, N=32, k=2)
        c = matrix_loop(k=2, seed=45)
        assert lifting_tail(c, theta, g) == 0.0
