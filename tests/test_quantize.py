from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from oracles import (dense_assemble, dense_gram_norm, dense_multiplication_operator,
                     dense_op_quantize, dense_t_quantize, dilated, matrix_loop,
                     padded_chart_quantization, restrict_to, sampled_quantization)
from psilab import config, quantize
from psilab.bands import _band_adjoint, _band_product, _crop, _dense
from psilab.connes_higson import ch_apply, default_unit
from psilab.numerics import CircleGrid, operator_norm
from psilab.quantize import (CHART_PAD, Atlas, _assemble, _live_modes, _t_terms, _width,
                             chart_pieces, corner_product, multiplication_operator,
                             op_quantize, op_terms, padded_grid, t_quantize,
                             t_quantize_charts)
from psilab.symbols import (HomogeneousSymbol, Loop, RadialProfile, Symbol,
                            SymbolClass, bump_profile, cap_profile, constant_profile,
                            rational_decay_profile,
                            rational_vanishing_profile)
from psilab.presets import chart_symbol, loop_c1

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def fiber_only(grid):
    return Symbol.separable(Loop.identity(grid.k), rational_decay_profile(),
                            SymbolClass.FULL_C0)


class TestTQuantize:
    def test_fiber_only_diagonal(self, grid32):
        T = _dense(t_quantize(fiber_only(grid32), 2.0, grid32))
        expect = 1.0 / (1.0 + (grid32.modes / 2.0) ** 2)
        assert np.allclose(np.diag(T), expect, atol=1e-14)
        off = T - np.diag(np.diag(T))
        assert np.max(np.abs(off)) < 1e-14

    def test_x_only_toeplitz_t_independent(self, grid32):
        sym = Symbol.separable(loop_c1(), constant_profile(1.0), SymbolClass.FULL_C0)
        T1 = _dense(t_quantize(sym, 1.0, grid32))
        T2 = _dense(t_quantize(sym, 11.7, grid32))
        assert np.array_equal(T1, T2)
        n0 = grid32.N
        assert T1[n0 + 1, n0] == pytest.approx(0.5)
        assert T1[n0 - 2, n0] == pytest.approx(0.25)

    @pytest.mark.parametrize("s", [0.5, 2.0, 3.0])
    def test_translation_invariance(self, grid32, s):
        sym = Symbol.separable(loop_c1(), cap_profile(2.0), SymbolClass.COMPACT_SUPPORT)
        for t in (1.0, 4.0):
            lhs = t_quantize(sym, t * s, grid32)
            rhs = t_quantize(dilated(sym, s), t, grid32)
            assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_linearity(self, grid32):
        a = Symbol.separable(loop_c1(), cap_profile(2.0), SymbolClass.COMPACT_SUPPORT)
        b = Symbol.separable(Loop.from_scalar_modes({-1: 1.0}),
                             rational_vanishing_profile(), SymbolClass.VANISHING_00)
        scaled = Symbol(tuple((Loop.constant(2.5) * loop, prof) for loop, prof in b.terms),
                        b.k, b.tag)
        combined = Symbol(a.terms + scaled.terms, 1, SymbolClass.FULL_C0)
        expect = _dense(t_quantize(a, 2.0, grid32)) + 2.5 * _dense(t_quantize(b, 2.0, grid32))
        assert np.allclose(_dense(t_quantize(combined, 2.0, grid32)), expect, atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
           t=st.floats(0.125, 64.0), s=st.floats(0.125, 8.0))
    def test_translation_invariance_property(self, random_symbol, k, seed, t, s):
        # T_{ts}(a) = T_t(a_s): the frequencies m/(ts) and (m/t)/s differ by rounding
        g = CircleGrid(J=68, N=16, k=k)
        sym = random_symbol(k, seed)
        lhs = t_quantize(sym, t * s, g)
        rhs = t_quantize(dilated(sym, s), t, g)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_requires_positive_t(self, grid32):
        with pytest.raises(ValueError):
            t_quantize(fiber_only(grid32), 0.0, grid32)

    def test_matrix_valued(self):
        g = CircleGrid(J=132, N=32, k=2)
        sym = Symbol.separable(matrix_loop(k=2), cap_profile(3.0),
                               SymbolClass.COMPACT_SUPPORT)
        T = t_quantize(sym, 2.0, g)
        assert T.shape == (2 * 2 + 1, g.n_modes, 2, 2)
        assert _dense(T).shape == (g.dim, g.dim)

    def test_sampled_assembly_matches_exact(self, grid32):
        sym = Symbol.separable(loop_c1(), rational_decay_profile(),
                               SymbolClass.FULL_C0)

        def fn(x, xis):
            (loop, prof), = sym.terms
            return loop.fn(x)[:, None] * prof(xis)[None, :, None, None]

        exact = _dense(t_quantize(sym, 3.0, grid32))
        sampled = sampled_quantization(fn, 3.0, grid32)
        assert np.max(np.abs(exact - sampled)) < 1e-13


class TestOpQuantize:
    def test_unit_symbol_diagonal(self, grid32, theta):
        O = _dense(op_quantize(HomogeneousSymbol.unit(1), theta, grid32))
        assert np.allclose(np.diag(O), theta(np.abs(grid32.modes)), atol=1e-15)

    def test_sign_symbol(self, grid32, theta):
        sign = HomogeneousSymbol(Loop.identity(1), Loop.constant(-1.0))
        O = _dense(op_quantize(sign, theta, grid32))
        expect = np.sign(grid32.modes) * theta(np.abs(grid32.modes))
        assert np.allclose(np.diag(O), expect, atol=1e-14)
        off = O - np.diag(np.diag(O))
        assert np.max(np.abs(off)) < 1e-14

    def test_fiber_constant_finite_rank_vs_multiplication(self, grid32, theta):
        c = loop_c1()
        diff = (_dense(op_quantize(HomogeneousSymbol(c, c), theta, grid32))
                - _dense(multiplication_operator(c, grid32)))
        # columns with |m| >= r0 carry weight one: difference confined below
        mask = grid32.tail_mask(int(theta.r0) + 2)
        assert operator_norm(diff[:, mask]) == 0.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_is_the_gather_of_its_terms(self, theta, k):
        # bit for bit: entry (n, m) is c_+(n - m) w_+(m) + c_-(n - m) w_-(m)
        # over the terms that the Fredholm band shares
        g = CircleGrid(J=68, N=16, k=k)
        sigma = HomogeneousSymbol(matrix_loop(k, seed=5), matrix_loop(k, seed=6))
        (cp, wp), (cm, wm) = op_terms(sigma, theta, g)
        n = g.n_modes
        lag = np.arange(n)[:, None] - np.arange(n)[None, :] + 2 * g.N
        expect = (cp[lag] * wp[None, :, None, None]) + (cm[lag] * wm[None, :, None, None])
        expect = expect.transpose(0, 2, 1, 3).reshape(g.dim, g.dim)
        assert np.array_equal(_dense(op_quantize(sigma, theta, g)), expect)
        w = theta(np.abs(g.modes))
        assert np.array_equal(wp + wm, w.astype(complex))

    def test_zero_column_at_origin(self, grid32, theta):
        O = _dense(op_quantize(HomogeneousSymbol(loop_c1(), loop_c1().adjoint()), theta,
                               grid32))
        col = O[:, grid32.N]
        assert np.max(np.abs(col)) == 0.0

    def test_wrong_type(self, grid32, theta):
        with pytest.raises(TypeError):
            op_quantize(fiber_only(grid32), theta, grid32)


class TestMultiplication:
    def test_identity(self, grid32):
        P = _dense(multiplication_operator(Loop.identity(1), grid32))
        assert np.allclose(P, np.eye(grid32.dim), atol=1e-15)

    def test_adjoint_compatibility(self, grid32):
        c = loop_c1()
        assert np.max(np.abs(_dense(multiplication_operator(c, grid32)).conj().T
                             - _dense(multiplication_operator(c.adjoint(), grid32)))) < 1e-14

    def test_band_confinement(self, grid32):
        c = Loop.from_scalar_modes({1: 0.5, -2: 1.0})
        d = Loop.from_scalar_modes({3: 1.0})
        D = (_dense(multiplication_operator(c, grid32)) @ _dense(multiplication_operator(d, grid32))
             - _dense(multiplication_operator(c * d, grid32)))
        K = grid32.N - 2 - 3
        keep = ~grid32.tail_mask(K)
        # the homomorphism defect lives entirely in the boundary band
        assert np.max(np.abs(D[np.ix_(keep, keep)])) < 1e-14
        assert np.max(np.abs(D[keep, :])) < 1e-14

    def test_padded_product_exact(self, grid32):
        c = Loop.from_scalar_modes({1: 0.5, -2: 1.0})
        d = Loop.from_scalar_modes({3: 1.0})
        big = padded_grid(grid32, 5)
        D = (_dense(multiplication_operator(c, big)) @ _dense(multiplication_operator(d, big))
             - _dense(multiplication_operator(c * d, big)))
        D = restrict_to(D, grid32)
        assert operator_norm(D) < 1e-13

    def test_degree_cap(self, grid32):
        with pytest.raises(ValueError):
            multiplication_operator(Loop.from_scalar_modes({grid32.N + 1: 1.0}), grid32)


def wide_loop(k, seed, degree):
    """Random loop with coefficients of size 1 / (1 + |j|) up to ``degree``."""
    rng = np.random.default_rng(seed)
    shape = (2 * degree + 1, k, k)
    damp = 1.0 / (1.0 + np.abs(np.arange(-degree, degree + 1)))[:, None, None]
    return Loop.from_coeffs(damp * (rng.normal(size=shape) + 1j * rng.normal(size=shape)))


def full_rows(right, grid):
    """``corner_product``'s row function of a full right factor: its rows for
    a mode slice, on the columns of ``grid``'s range."""
    k, start = grid.k, (right.shape[1] - grid.dim) // 2
    return lambda rows: right[rows.start * k:rows.stop * k, start:start + grid.dim]


class TestCornerProduct:
    PAD = 8

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 2), kind=st.sampled_from(("compact", "annular", "full", "zero")),
           seed=st.integers(0, 2**32 - 1), t=st.floats(0.25, 8.0),
           lo=st.floats(0.1, 2.0), width=st.floats(0.5, 4.0))
    def test_equals_restricted_full_product(self, k, kind, seed, t, lo, width):
        # loops of degree PAD couple the outermost padded column to the corner,
        # so every live column, the range ends included, reaches the result
        grid = CircleGrid(J=68, N=16, k=k)
        big = padded_grid(grid, self.PAD)
        top = big.N / t  # largest rescaled frequency on the padded range
        profile = {"compact": cap_profile(width),
                   "annular": bump_profile(lo, lo + width),  # zero columns around m = 0
                   "full": rational_decay_profile(width),
                   "zero": bump_profile(top + lo, top + lo + width)}[kind]
        left = _dense(t_quantize(Symbol.separable(wide_loop(k, seed, self.PAD), profile,
                                                  SymbolClass.FULL_C0), t, big))
        right = _dense(multiplication_operator(wide_loop(k, seed + 1, self.PAD), big))
        cols = _live_modes([np.asarray(profile(big.modes / t))])
        got = corner_product(left, cols, full_rows(right, grid), grid)
        expect = restrict_to(left @ right, grid)
        assert got.shape == (grid.dim, grid.dim)
        bound = 1e-13 * operator_norm(left) * operator_norm(right)
        assert np.max(np.abs(got - expect)) <= bound
        if kind == "zero":
            assert not left.any()
            assert np.array_equal(got, np.zeros((grid.dim, grid.dim)))

    def test_grids_checked(self, grid32):
        big = padded_grid(grid32, 4)
        eye, cols = np.eye(big.dim, dtype=complex), range(big.n_modes)
        with pytest.raises(ValueError, match="different grids"):
            corner_product(eye, cols, full_rows(np.eye(grid32.dim, dtype=complex), grid32),
                           grid32)
        with pytest.raises(ValueError, match="exceeds"):
            corner_product(eye, cols, full_rows(eye, grid32), padded_grid(grid32, 5))
        with pytest.raises(ValueError, match="block sizes"):
            corner_product(eye, cols, full_rows(eye, grid32), CircleGrid(J=132, N=32, k=2))


class TestCharts:
    def test_default_atlas_valid(self, grid32):
        assert Atlas.default_two_charts().validate(grid32)

    def test_zero_symbol(self, grid32):
        zero = Symbol.separable(Loop.constant(np.zeros((1, 1))),
                                constant_profile(1.0), SymbolClass.FULL_C0)
        with patch.object(quantize, "CHART_PAD", 8):
            T = t_quantize_charts(zero, 2.0, Atlas.default_two_charts(), grid32)
        assert operator_norm(T) == 0.0

    def test_degenerate_atlas_collapses(self, grid32):
        sym = Symbol.separable(loop_c1(), constant_profile(1.0), SymbolClass.FULL_C0)
        # a single effective chart: phi_1 = psi_1 = 1, phi_2 = psi_2 = 0
        one, zero = np.ones_like, np.zeros_like
        with patch.object(quantize, "CHART_PAD", 8):
            Tc = t_quantize_charts(sym, 2.0, Atlas((one, zero), (one, zero)), grid32)
        Tg = _dense(t_quantize(sym, 2.0, grid32))
        assert operator_norm(Tc - Tg) < 1e-13

    def test_defect_decays(self, grid64, theta):
        # frozen from a direct sweep at this scale; values are grid-stable
        atlas = Atlas.default_two_charts()
        a = chart_symbol()
        with patch.object(quantize, "CHART_PAD", 32):
            vals = [operator_norm(t_quantize_charts(a, 2.0 ** k, atlas, grid64)
                                  - _dense(t_quantize(a, 2.0 ** k, grid64)))
                    for k in range(0, 7)]
        assert all(y < x for x, y in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(0.6102122099282878, rel=1e-9)
        assert vals[6] == pytest.approx(1.4711487597018585e-03, rel=1e-9)
        assert vals[6] < 0.05 * vals[0]

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_full_product_reference(self, grid64, k):
        # the corner summed over the live columns against the full padded product
        atlas = Atlas.default_two_charts()
        g = CircleGrid(J=grid64.J, N=grid64.N, k=k)
        syms = [Symbol.separable(matrix_loop(k=k, seed=41), cap_profile(3.0),
                                 SymbolClass.COMPACT_SUPPORT),
                Symbol.separable(matrix_loop(k=k, seed=42), rational_decay_profile(2.0),
                                 SymbolClass.FULL_C0)]
        if k == 1:
            syms.append(chart_symbol())
        for a in syms:
            for t in 2.0 ** np.arange(-2, 8):
                got = t_quantize_charts(a, t, atlas, g)
                ref = padded_chart_quantization(a, t, atlas, g)
                assert got.shape == (g.dim, g.dim)
                assert np.max(np.abs(got - ref)) <= 1e-13 * operator_norm(ref)

    @pytest.mark.parametrize("path", [None, "example.json"])
    def test_live_columns_are_the_scanned_columns(self, path):
        # on the shipped configs the column range read from the profile
        # weights is the range outside which the windowed quantization is zero
        data = config.load_config(None if path is None else str(CONFIGS / path))
        grid, cfg = config.build_grid(data), config.defect_sweep_cfg(data)
        big = padded_grid(grid, CHART_PAD)
        for sym, _ in chart_pieces(cfg["chart_symbol"], Atlas.default_two_charts(), grid):
            for e in cfg["t_exponents"]:
                terms = _t_terms(sym, 2.0 ** e, big)
                live = np.flatnonzero(_assemble(big, terms).any(axis=0))
                assert _live_modes([w for _, w in terms]) == range(live[0], live[-1] + 1)

    def test_invalid_atlas(self, grid32):
        bad = Atlas((lambda x: np.full_like(x, 0.7),
                     lambda x: np.full_like(x, 0.7)),
                    (lambda x: np.ones_like(x),) * 2)
        with pytest.raises(ValueError):
            bad.validate(grid32)


def reference_table(coeffs, weights, grid):
    """Explicit double loop: block (n, m) = c(n - m) * w(m)."""
    k, N = grid.k, grid.N
    out = np.zeros((grid.dim, grid.dim), dtype=complex)
    for n in range(grid.n_modes):
        for m in range(grid.n_modes):
            out[n * k:(n + 1) * k, m * k:(m + 1) * k] = coeffs[n - m + 2 * N] * weights[m]
    return out


def known_loop(k, degree, seed):
    """Trigonometric polynomial with known coefficients, zero-padded to |j| <= 2N."""
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(2 * degree + 1, k, k)) + 1j * rng.normal(size=(2 * degree + 1, k, k))
    return Loop.from_coeffs(coeffs), coeffs


def padded(coeffs, N):
    degree = (coeffs.shape[0] - 1) // 2
    out = np.zeros((4 * N + 1,) + coeffs.shape[1:], dtype=complex)
    out[2 * N - degree:2 * N + degree + 1] = coeffs
    return out


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("N", [5, 16])
class TestAssemblyAgainstDoubleLoop:
    def grid(self, N, k):
        return CircleGrid(J=4 * N + 4, N=N, k=k)

    def test_t_quantize(self, N, k):
        g = self.grid(N, k)
        la, ca = known_loop(k, 3, seed=1)
        lb, cb = known_loop(k, 2, seed=2)
        pa, pb = rational_decay_profile(2.0), rational_vanishing_profile(1.5)
        sym = Symbol(((la, pa), (lb, pb)), k, SymbolClass.FULL_C0)
        t = 3.0
        expect = (reference_table(padded(ca, N), pa(g.modes / t), g)
                  + reference_table(padded(cb, N), pb(g.modes / t), g))
        assert np.max(np.abs(_dense(t_quantize(sym, t, g)) - expect)) < 1e-12

    def test_op_quantize(self, N, k, theta):
        g = self.grid(N, k)
        lp, cp = known_loop(k, 2, seed=3)
        lm, cm = known_loop(k, 3, seed=4)
        w = theta(np.abs(g.modes))
        expect = (reference_table(padded(cp, N), np.where(g.modes >= 0, w, 0.0), g)
                  + reference_table(padded(cm, N), np.where(g.modes < 0, w, 0.0), g))
        got = _dense(op_quantize(HomogeneousSymbol(lp, lm), theta, g))
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_multiplication_operator(self, N, k):
        g = self.grid(N, k)
        loop, c = known_loop(k, 4, seed=5)
        expect = reference_table(padded(c, N), np.ones(g.n_modes), g)
        assert np.max(np.abs(_dense(multiplication_operator(loop, g)) - expect)) < 1e-12


class TestNonFiniteEntries:
    """Values enter an operator only through the assembly, which checks each
    weight vector before building anything, and through ``Loop.table``,
    which checks a loop's coefficient table once, when it is made."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_profile_value_rejected(self, grid32, bad):
        prof = RadialProfile(lambda xi: np.where(np.abs(xi) > 3.0, bad, 1.0))
        sym = Symbol.separable(loop_c1(), prof, SymbolClass.FULL_C0)
        with pytest.raises(ValueError, match="operator entries must be finite"):
            t_quantize(sym, 2.0, grid32)

    def test_loop_sample_rejected(self, grid32, theta):
        loop = Loop(lambda x: np.full((np.size(x), 1, 1), np.nan), 1, None)
        sym = Symbol.separable(loop, constant_profile(1.0), SymbolClass.FULL_C0)
        with pytest.raises(ValueError, match="operator entries must be finite"):
            t_quantize(sym, 2.0, grid32)
        with pytest.raises(ValueError, match="operator entries must be finite"):
            op_quantize(HomogeneousSymbol(loop, loop), theta, grid32)


class TestBlockSizeMismatch:
    def test_scalar_symbol_on_matrix_grid_raises(self):
        g = CircleGrid(J=132, N=32, k=2)
        sym = Symbol.separable(loop_c1(), cap_profile(3.0), SymbolClass.COMPACT_SUPPORT)
        with pytest.raises(ValueError, match="block size"):
            t_quantize(sym, 2.0, g)

    def test_scalar_loop_on_matrix_grid_raises(self, theta):
        g = CircleGrid(J=132, N=32, k=2)
        with pytest.raises(ValueError, match="block size"):
            multiplication_operator(loop_c1(), g)
        with pytest.raises(ValueError, match="block size"):
            op_quantize(HomogeneousSymbol(loop_c1(), loop_c1()), theta, g)


# -- write-once kernels against the slow references they replace -------------


def full_temporary_assemble(grid, terms):
    """Reference kernel: the first term written into a new table, each later
    one added as a full-size temporary."""
    n, table = grid.n_modes, None
    for coeffs, weights in terms:
        toeplitz = sliding_window_view(coeffs, n, axis=0)[..., ::-1].transpose(0, 1, 3, 2)
        term = toeplitz * weights[None, None, :, None]
        if table is None:
            table = term
        else:
            table += term
    return table.reshape(grid.dim, grid.dim)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("N", [5, 32, 70])
class TestWriteOnceAgainstReference:
    """Bitwise equality (== treats -0 and +0 alike) with the replaced kernels."""

    def grid(self, N, k):
        return CircleGrid(J=4 * N + 6, N=N, k=k)

    def terms(self, g, t):
        sym = Symbol(((matrix_loop(k=g.k, seed=31), rational_decay_profile(2.0)),
                      (matrix_loop(k=g.k, seed=32, degree=3), cap_profile(5.0)),
                      (Loop.identity(g.k), rational_vanishing_profile(1.5))),
                     g.k, SymbolClass.FULL_C0)
        return sym, [(loop.coefficients(g),
                      np.asarray(prof(g.modes / t), dtype=complex))
                     for loop, prof in sym.terms]

    def test_assemble(self, N, k):
        g = self.grid(N, k)
        sym, terms = self.terms(g, 3.0)
        for count in range(len(terms) + 1):
            got = _assemble(g, terms[:count])
            assert np.array_equal(got, dense_assemble(g, terms[:count]))
        assert np.array_equal(_dense(t_quantize(sym, 3.0, g)), dense_assemble(g, terms))

    def test_blocks_into_a_buffer(self, N, k):
        # 65 and 141 modes are no multiple of the 32-row scratch block, nor
        # is a 37-row block; the block lands in the leading entries of a
        # larger buffer, bit for bit
        g = self.grid(N, k)
        _, terms = self.terms(g, 3.0)
        n = g.n_modes
        blocks = [(slice(None), slice(None)), (slice(2, n - 1), slice(n // 3, n)),
                  (slice(max(0, n - 37), n), slice(0, 5))]
        for count in (1, 2, 3):
            full = full_temporary_assemble(g, terms[:count]).reshape(n, k, n, k)
            for rows, cols in blocks:
                buf = np.full(g.dim * g.dim + 7, np.nan, dtype=complex)
                got = _assemble(g, terms[:count], out=buf, rows=rows, cols=cols)
                expect = full[rows, :, cols, :]
                assert np.shares_memory(got, buf)
                assert got.shape == (expect.shape[0] * k, expect.shape[2] * k)
                assert np.array_equal(got.view(np.uint64),
                                      expect.reshape(got.shape).view(np.uint64))

    def test_op_quantize_and_multiplication(self, N, k, theta):
        g = self.grid(N, k)
        plus, minus = matrix_loop(k=k, seed=33), matrix_loop(k=k, seed=34, degree=3)
        w = np.asarray(theta(np.abs(g.modes)), dtype=complex)
        expect = dense_assemble(g, [
            (plus.coefficients(g), np.where(g.modes >= 0, w, 0.0)),
            (minus.coefficients(g), np.where(g.modes < 0, w, 0.0))])
        assert np.array_equal(_dense(op_quantize(HomogeneousSymbol(plus, minus), theta, g)),
                              expect)
        expect = dense_assemble(g, [(plus.coefficients(g),
                                           np.ones(g.n_modes, dtype=complex))])
        assert np.array_equal(_dense(multiplication_operator(plus, g)), expect)


# -- band tables against the dense reference ------------------------------------


def random_loop(k, seed, degree):
    """Loop with coefficients of size 1 / (1 + |j|) and random phases."""
    rng = np.random.default_rng(seed)
    shape = (2 * degree + 1, k, k)
    damp = 1.0 / (1.0 + np.abs(np.arange(-degree, degree + 1)))[:, None, None]
    return Loop.from_coeffs(damp * (rng.normal(size=shape) + 1j * rng.normal(size=shape)))


def mass(sym, t, grid):
    """The l1 mass of T_t(sym)'s coefficients times its largest weight, per
    term and added: a bound on the sum of the moduli along any row."""
    return sum(np.sum(np.abs(loop.coeffs)) * np.max(np.abs(prof(grid.modes / t)))
               for loop, prof in sym.terms)


class TestBandTablesAgainstDense:
    """Every band table expands to the dense assembly (``oracles``)."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(k=st.integers(1, 2), seed=st.integers(0, 2**32 - 2),
           degrees=st.tuples(st.integers(0, 12), st.integers(0, 12)),
           kind=st.sampled_from(("plus", "minus", "cap", "bump")),
           t=st.sampled_from((0.25, 1.0, 3.0, 16.0)))
    def test_property_tables_products_and_norms(self, theta, k, seed, degrees, kind, t):
        g = CircleGrid(J=4 * 24 + 4, N=24, k=k)
        profile = {"plus": rational_vanishing_profile(1.5).one_sided(+1),
                   "minus": rational_decay_profile(2.0).one_sided(-1),
                   "cap": cap_profile(3.0),
                   "bump": bump_profile(0.5, 6.0)}[kind]
        la, lb = (random_loop(k, seed + i, d) for i, d in enumerate(degrees))
        a = Symbol.separable(la, profile, SymbolClass.FULL_C0)
        b = Symbol(((lb, cap_profile(4.0)), (la.adjoint(), profile)), k, SymbolClass.FULL_C0)
        d = HomogeneousSymbol(la, lb)
        # the tables are the dense assembly bit for bit (== takes -0 as 0)
        T = t_quantize(a, t, g)
        assert np.array_equal(_dense(T), dense_t_quantize(a, t, g))
        assert np.array_equal(_dense(t_quantize(b, t, g)), dense_t_quantize(b, t, g))
        X = op_quantize(d, theta, g)
        assert np.array_equal(_dense(X), dense_op_quantize(d, theta, g))
        assert np.array_equal(_dense(multiplication_operator(lb, g)),
                              dense_multiplication_operator(lb, g))
        assert np.array_equal(_dense(_band_adjoint(T)), dense_t_quantize(a, t, g).conj().T)
        f, unit = rational_vanishing_profile(1.0), default_unit()
        w = np.repeat(unit.weight(f, t, g), k)[None, :]
        assert np.array_equal(_dense(ch_apply(f, d, t, unit, theta, g, X)),
                              dense_op_quantize(d, theta, g) * w)
        # the band product sums every intermediate mode of the dense product
        pad = min(_width([loop for loop, _ in s.terms], g) for s in (a, b))
        big = padded_grid(g, pad)
        product = _crop(_band_product(t_quantize(a, t, big), t_quantize(b, t, big)), pad)
        expect = restrict_to(dense_t_quantize(a, t, big) @ dense_t_quantize(b, t, big), g)
        bound = 1e-15 * mass(a, t, big) * mass(b, t, big)
        assert np.max(np.abs(_dense(product) - expect)) <= bound
        # the table norm and the dense Gram Lanczos agree within the certificate
        for op in (T, product):
            top = np.linalg.svd(_dense(op), compute_uv=False)[0]
            assert abs(operator_norm(op) - dense_gram_norm(_dense(op))) <= 5e-14 * top
