import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import translation_symbols
from psilab import presets, symbols
from psilab.numerics import CircleGrid, fourier_coefficients

from psilab.symbols import (CutFunction, HomogeneousSymbol, Loop, Symbol,
                            SymbolClass, bump_profile, cap_profile,
                            constant_profile, gamma_profile,
                            rational_decay_profile, rational_vanishing_profile,
                            smash, step_profile)
from psilab.partition import build_partition

RNG = np.random.default_rng(42)
POINTS = [(RNG.uniform(0, 2 * np.pi), RNG.uniform(-10, 10)) for _ in range(100)]


def simple_symbol():
    loop = Loop.from_scalar_modes({1: 0.5, 0: 1.0, -2: 0.25j})
    return Symbol.separable(loop, rational_decay_profile(), SymbolClass.FULL_C0)


def homog_example(k=1):
    return HomogeneousSymbol(Loop.from_scalar_modes({1: 1.0}, k=k), Loop.identity(k))


class TestLoop:
    def test_coefficient_eval(self):
        loop = Loop.from_scalar_modes({2: 1.0 + 0.5j})
        x = np.array([0.3, 1.2])
        assert np.allclose(loop(x)[:, 0, 0], (1.0 + 0.5j) * np.exp(2j * x))

    def test_product_degree(self):
        a = Loop.from_scalar_modes({1: 1.0})
        b = Loop.from_scalar_modes({-2: 1.0, 0: 3.0})
        assert (a * b).degree == 3

    def test_adjoint_matrix(self):
        mat = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
        loop = Loop.constant(mat)
        assert np.allclose(loop.adjoint()(0.0), mat.conj().T)

    def test_block_size_mismatch(self):
        with pytest.raises(ValueError):
            Loop.identity(1) * Loop.identity(2)


#: (degree, block size, points) of the loop-evaluation checks
EVAL_CASES = [(d, k, M) for d in range(17) for k in (1, 2)
              for M in (68, 260, 516, 1028, 1092, 1284, 4096)]


def random_coeffs(rng, d, k):
    shape = (2 * d + 1, k, k)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestLoopEvaluation:
    def test_blocks_give_the_bits_of_one_product(self):
        rng = np.random.default_rng(5)
        for d, k, M in EVAL_CASES:
            coeffs = random_coeffs(rng, d, k)
            x = 2.0 * np.pi * np.arange(M) / M
            phases = np.exp(1j * np.outer(x, np.arange(-d, d + 1)))
            whole = np.tensordot(phases, coeffs, axes=([1], [0]))
            assert Loop.from_coeffs(coeffs).fn(x).tobytes() == whole.tobytes(), (d, k, M)

    def test_products_stay_below_the_threading_size(self, monkeypatch):
        # rows x (2d + 1) k^2 of every product stays below the size from
        # which OpenBLAS wakes its worker thread, with no one-row product
        sizes, tensordot = [], np.tensordot
        monkeypatch.setattr(np, "tensordot", lambda a, b, axes: sizes.append(
            (len(a), b.size)) or tensordot(a, b, axes))
        rng = np.random.default_rng(6)
        for d, k, M in EVAL_CASES + [(d, 2, M) for d in (0, 16) for M in (4, 5, 7)]:
            sizes.clear()
            Loop.from_coeffs(random_coeffs(rng, d, k)).fn(np.linspace(0.0, 1.0, M))
            assert sum(rows for rows, _ in sizes) == M
            assert all(2 <= rows and rows * size < symbols._LOOP_PRODUCT_LIMIT
                       for rows, size in sizes), (d, k, M, sizes)


class TestLoopTable:
    GRID = CircleGrid(J=68, N=16)

    def test_taken_once_per_grid(self, monkeypatch):
        calls = []
        coefficients = Loop.coefficients
        monkeypatch.setattr(Loop, "coefficients",
                            lambda loop, g: calls.append(g) or coefficients(loop, g))
        loop = Loop.from_scalar_modes({1: 0.5, -2: 0.25j})
        table = loop.table(self.GRID)
        assert loop.table(self.GRID) is table
        assert loop.table(CircleGrid(J=68, N=16)) is table  # an equal grid
        wider = loop.table(CircleGrid(J=132, N=32))
        assert wider is not table and wider.shape == (129, 1, 1)
        assert calls == [self.GRID, CircleGrid(J=132, N=32)]

    def test_bits_of_the_transform(self):
        loop = Loop.from_scalar_modes({1: 0.5, 0: 1.0, -2: 0.25j}, k=2) * Loop.constant(
            np.array([[1.0, 2.0j], [0.5, -1.0]]))
        assert loop.table(self.GRID).tobytes() == loop.coefficients(self.GRID).tobytes()

    def test_read_only(self):
        table = Loop.from_scalar_modes({1: 0.5}).table(self.GRID)
        with pytest.raises(ValueError):
            table[0] = 1.0

    def test_nonfinite_samples_rejected(self):
        loop = Loop(lambda x: np.full((np.size(x), 1, 1), np.nan), 1, None)
        with pytest.raises(ValueError, match="operator entries must be finite"):
            loop.table(self.GRID)


class TestExactCoefficients:
    """Tables of loops with coefficients against the grid FFT of their
    samples."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("grid_size", [(68, 16), (140, 16), (132, 32)])
    def test_tables_match_the_fft(self, k, grid_size):
        J, N = grid_size
        g = CircleGrid(J=J, N=N, k=k)
        rng = np.random.default_rng(J + N + k)
        for da in range(7):
            a = Loop.from_coeffs(random_coeffs(rng, da, k))
            b = Loop.from_coeffs(random_coeffs(rng, int(rng.integers(0, 7)), k))
            for loop in (a, a.adjoint(), a * b, (a * b).adjoint(), a * a.adjoint()):
                table = loop.table(g)
                fft = fourier_coefficients(g, loop.fn(g.x))
                assert np.max(np.abs(table - fft)) <= 1e-15 * np.sum(np.abs(loop.coeffs))
                past = np.abs(np.arange(-2 * N, 2 * N + 1)) > loop.degree
                assert not table[past].any()
                assert np.array_equal(table[~past], loop.coeffs)

    def test_product_and_adjoint_closed_forms(self):
        a = Loop.from_scalar_modes({1: 2.0, 0: 1j}, k=2)
        b = Loop.constant(np.array([[1.0, 2.0j], [0.0, -1.0]]))
        prod = (a * b).coeffs
        assert prod.shape == (3, 2, 2)
        assert np.array_equal(prod[0], np.zeros((2, 2)))
        assert np.array_equal(prod[1], 1j * b.coeffs[0])
        assert np.array_equal(prod[2], 2.0 * b.coeffs[0])
        adj = (a * b).adjoint().coeffs  # c*(j) = c(-j)^H
        assert np.array_equal(adj, prod[::-1].conj().transpose(0, 2, 1))

    def test_degree_past_the_table_is_cut(self):
        # a degree above 2N keeps the modes |j| <= 2N, which the operators read
        g = CircleGrid(J=68, N=4)
        coeffs = np.arange(1, 24, dtype=complex)[:, None, None]  # degree 11
        table = Loop.from_coeffs(coeffs).table(g)
        assert np.array_equal(table, coeffs[3:20])

    def test_coefficients_are_copied_and_read_only(self):
        coeffs = np.ones((3, 1, 1), dtype=complex)
        loop = Loop.from_coeffs(coeffs)
        coeffs[0] = 5.0
        assert loop.coeffs[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            loop.coeffs[0] = 2.0

    def test_windows_keep_the_fft(self):
        window = Loop(lambda x: np.cos(np.asarray(x))[:, None, None] ** 2, 1, None)
        assert window.coeffs is None
        assert (window * Loop.identity()).coeffs is None
        g = CircleGrid(J=68, N=16)
        assert np.array_equal(window.table(g), fourier_coefficients(g, window.fn(g.x)))


class TestSmash:
    def test_zero_profile(self):
        f = rational_vanishing_profile() * constant_profile(0.0)
        g = smash(f, homog_example())
        for x, xi in POINTS[:10]:
            assert np.max(np.abs(g(x, xi))) == 0.0

    def test_fiber_constant_branches(self):
        f = rational_vanishing_profile()
        g = smash(f, HomogeneousSymbol.unit(1))
        for x, xi in POINTS[:30]:
            expect = f(abs(xi)) if xi != 0 else 0.0
            assert np.allclose(g(x, xi)[0, 0], expect)

    def test_zero_at_zero_section(self):
        g = smash(rational_vanishing_profile(), homog_example())
        for x in np.linspace(0, 2 * np.pi, 17):
            assert np.max(np.abs(g(x, 0.0))) == 0.0

    def test_requires_vanishing_at_zero(self):
        with pytest.raises(ValueError):
            smash(rational_decay_profile(), homog_example())

    def test_class_is_vanishing(self):
        g = smash(bump_profile(0.5, 4.0), homog_example())
        assert g.tag == SymbolClass.VANISHING_00


class TestAlgebra:
    def test_unimodular_inverse(self):
        a = Symbol.separable(Loop.from_scalar_modes({1: 1.0}), constant_profile(1.0),
                             SymbolClass.FULL_C0)
        b = Symbol.separable(Loop.from_scalar_modes({-1: 1.0}), constant_profile(1.0),
                             SymbolClass.FULL_C0)
        prod = a * b
        for x, xi in POINTS[:20]:
            assert np.allclose(prod(x, xi), np.eye(1))

    def test_adjoint_involution(self):
        a = simple_symbol()
        aa = a.adjoint().adjoint()
        for x, xi in POINTS[:30]:
            assert np.allclose(aa(x, xi), a(x, xi), atol=1e-14)

    def test_product_adjoint_identity(self):
        a = simple_symbol()
        b = Symbol.separable(Loop.from_scalar_modes({-1: 2.0, 1: 0.5j}),
                             rational_vanishing_profile(), SymbolClass.VANISHING_00)
        lhs = (a * b).adjoint()
        rhs = b.adjoint() * a.adjoint()
        for x, xi in POINTS:
            assert np.allclose(lhs(x, xi), rhs(x, xi), atol=1e-13)

    def test_tag_combination(self):
        cs = Symbol.separable(Loop.identity(1), cap_profile(1.0),
                              SymbolClass.COMPACT_SUPPORT)
        full = simple_symbol()
        assert (cs * full).tag == SymbolClass.COMPACT_SUPPORT
        v = smash(rational_vanishing_profile(), homog_example())
        assert (v * full).tag == SymbolClass.VANISHING_00

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            simple_symbol() * Symbol.separable(Loop.identity(2), constant_profile(1.0),
                                               SymbolClass.FULL_C0)


class TestInvariants:
    def test_periodicity(self):
        a = simple_symbol()
        for x, xi in POINTS[:30]:
            assert np.allclose(a(x + 2 * np.pi, xi), a(x, xi), atol=1e-12)

    def test_homogeneity(self):
        h = homog_example()
        for x, xi in POINTS[:30]:
            if xi != 0:
                for lam in (0.5, 3.0, 17.0):
                    assert np.allclose(h(x, lam * xi), h(x, xi))

    def test_compact_support_requires_supported_profiles(self):
        with pytest.raises(ValueError):
            Symbol.separable(Loop.identity(1), rational_decay_profile(),
                             SymbolClass.COMPACT_SUPPORT)

    def test_vanishing_requires_flags(self):
        with pytest.raises(ValueError):
            Symbol.separable(Loop.identity(1), rational_decay_profile(),
                             SymbolClass.VANISHING_00)


class TestCutFunction:
    def test_endpoints(self):
        th = CutFunction(4.0)
        assert th(0.0) == 0.0
        assert th(4.0) == 1.0 and th(100.0) == 1.0

    def test_range_and_monotone(self):
        th = CutFunction(4.0)
        r = np.linspace(0, 5, 300)
        v = th(r)
        assert np.all((0.0 <= v) & (v <= 1.0))
        assert np.all(np.diff(v) >= 0.0)


class TestProfiles:
    def test_bump_support_exact(self):
        p = bump_profile(0.5, 4.0)
        assert p(0.4) == 0.0 and p(4.1) == 0.0 and p(0.0) == 0.0
        assert abs(p(2.0)) > 0.0

    def test_step_profile(self):
        p = step_profile(1.0, 2.0)
        assert p(0.5) == 0.0 and p(3.0) == 1.0

    def test_gamma_profile_matches_partition(self):
        part = build_partition(1.0, 4)
        p = gamma_profile(part, 1)
        xs = np.array([1.5, 2.0, 3.0, -3.0])
        assert np.allclose(np.real([p(x) for x in xs]),
                           part.gamma(1, np.abs(xs)))

    def test_one_sided(self):
        p = rational_vanishing_profile().one_sided(+1)
        assert p(-3.0) == 0.0 and abs(p(3.0)) > 0.0

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    def test_rational_profiles_past_overflow(self, scale):
        # (xi / scale)^2 overflows: the vanishing profile is scale / |xi|
        # (not r / inf = 0, nor inf / inf = NaN), the decaying one is 0
        xi = np.array([1e308, -1e308, 1e200, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = rational_vanishing_profile(scale)(xi)
            d = rational_decay_profile(scale)(xi)
            assert rational_vanishing_profile(0.5)(1e308) == 0.5 / 1e308
        assert np.array_equal(v, (scale / np.abs(xi)).astype(complex))
        assert np.array_equal(d, np.zeros(xi.size, dtype=complex))

    @pytest.mark.parametrize("scale", [0.5, 1.0, 1.4, 2.0])
    def test_rational_vanishing_below_overflow_unchanged(self, scale):
        # bitwise the plain formula wherever (xi / scale)^2 is finite
        rng = np.random.default_rng(7)
        mags = np.concatenate([np.logspace(-300, 160, 4001),
                               rng.uniform(0.0, 1e4, 4000), [0.0]])
        xi = np.concatenate([mags, -mags])
        r = np.abs(xi) / scale
        with np.errstate(over="ignore"):
            keep = np.isfinite(r * r)
        assert 0 < keep.sum() < xi.size
        r = r[keep]
        assert np.array_equal(rational_vanishing_profile(scale)(xi[keep]),
                              (r / (1.0 + r * r)).astype(complex))


def stacked_svd_sup_norm(sym, x_samples=256, xi_max=64.0, xi_samples=2048):
    """Reference: the stacked SVD of every sample of every block, unpruned,
    on the sample grid of the SUP_NORM_* defaults unless told otherwise."""
    x = 2.0 * np.pi * np.arange(x_samples) / x_samples
    xs = np.linspace(-xi_max, xi_max, xi_samples)
    loops = [np.asarray(loop.fn(x)) for loop, _ in sym.terms]
    step = max(1, symbols.SUP_NORM_BLOCK_BYTES // (16 * x_samples * sym.k * sym.k))
    best = 0.0
    for start in range(0, xi_samples, step):
        block = xs[start:start + step]
        vals = np.zeros((block.size, x_samples, sym.k, sym.k), dtype=complex)
        for loop_vals, (_, prof) in zip(loops, sym.terms):
            vals += loop_vals * prof(block)[:, None, None, None]
        best = max(best, float(np.max(np.linalg.svd(vals, compute_uv=False))))
    return best


def one_sided_product(sym, h):
    """a(x, xi) h(x, sign xi): each term split at xi = 0 onto the branch loops."""
    terms = tuple((loop * h.branch(sign), prof.one_sided(sign))
                  for loop, prof in sym.terms for sign in (+1, -1))
    return Symbol(terms, sym.k, SymbolClass.FULL_C0)


def sup_norm_cases():
    a, b = presets.cs_pair()
    c, d = presets.v00_pair()
    smashed = [smash(f, h) for _, f, h in presets.ch_cases()]
    cases = {"cs_a": a, "cs_b": b, "v00_a": c, "v00_b": d,
             "t0": presets.t0_symbol(), "chart": presets.chart_symbol(),
             "sum": Symbol(a.terms + b.terms, a.k, a.tag), "product": a * b, "product_v00": c * d,
             "mixed": one_sided_product(c, homog_example()),
             "zero": Symbol.separable(Loop.constant(np.zeros((2, 2))), constant_profile(0.0),
                                      SymbolClass.FULL_C0)}
    cases.update({f"smash{i}": sym for i, sym in enumerate(smashed)})
    cases.update({f"translation{i}": sym
                  for i, sym in enumerate(translation_symbols())})
    # every sample of a constant symbol ties for the maximum, exactly or to rounding
    cases["ties"] = Symbol.separable(Loop.constant(np.diag([1.0, 1.0])),
                                     constant_profile(1.0), SymbolClass.FULL_C0)
    cases["unimodular"] = Symbol.separable(Loop.from_scalar_modes({3: 1.0}),
                                           constant_profile(1.0), SymbolClass.FULL_C0)
    return cases


class TestSupNormPruning:
    """The pruned sup norm equals the full stacked SVD bit for bit."""

    @pytest.mark.parametrize("name", sorted(sup_norm_cases()))
    def test_matches_stacked_svd(self, name):
        sym = sup_norm_cases()[name]
        assert sym.sup_norm() == stacked_svd_sup_norm(sym)

    @pytest.mark.parametrize("name", sorted(sup_norm_cases()))
    def test_block_size_leaves_the_value(self, name):
        # every block keeps its own largest sample, so 4 MB blocks (512 xi
        # samples at k = 1) and 1 MB blocks give the same maximum
        sym = sup_norm_cases()[name]
        values = []
        for size in (2 ** 22, 2 ** 20):
            with patch.object(symbols, "SUP_NORM_BLOCK_BYTES", size):
                values.append(sym.sup_norm())
        assert values[0] == values[1]

    @pytest.mark.parametrize("scale", [1e-160, 1e-300, 1e160])
    def test_extreme_scales_match(self, scale):
        # squared norms that underflow or overflow send the block to the SVD whole
        sym = Symbol.separable(Loop.constant(scale) * presets.loop_c1(),
                               rational_decay_profile(), SymbolClass.FULL_C0)
        with patch.object(symbols, "SUP_NORM_XI_SAMPLES", 64):
            assert sym.sup_norm() == stacked_svd_sup_norm(sym, xi_samples=64)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
           xi_max=st.floats(1.0, 100.0))
    def test_property_matches_stacked_svd(self, random_symbol, k, seed, xi_max):
        sym = random_symbol(k, seed)
        # blocks of 16 xi samples: 8 blocks per call
        with patch.multiple(symbols, SUP_NORM_BLOCK_BYTES=16 * 16 * 64 * k * k,
                            SUP_NORM_X_SAMPLES=64, SUP_NORM_XI_MAX=xi_max,
                            SUP_NORM_XI_SAMPLES=128):
            got = sym.sup_norm()
            ref = stacked_svd_sup_norm(sym, x_samples=64, xi_max=xi_max, xi_samples=128)
        assert got == ref
