from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (band_matrix, clutching_projection, clutching_samples,
                     corner, four_shift_band_count, ldl_error_bound, matrix_band,
                     naive_trace_pairing, per_t_pairing_count, sampled_quantization)
from psilab import index_theory
from psilab.index_theory import (PAIRING_GAP, InconclusiveIndexError,
                                 _band_coefficients, _band_count, _band_ldl, _band_small_count,
                                 _band_tables, _branch_factors, _count_above_half,
                                 _fredholm_bands, _gapped_small_count, _gram_band,
                                 _ldl_solve, _pairing_band, _pairing_count,
                                 _pairing_matrix, _pairing_tables, analytic_index,
                                 fredholm_index_svd, higson_trace_index,
                                 index_report, winding_number)
from psilab import config
from psilab.config import DEFAULTS
from psilab.numerics import CircleGrid
from psilab.quantize import op_quantize, op_terms, padded_grid
from psilab.symbols import CutFunction, HomogeneousSymbol, Loop
from psilab.presets import index_suite, winding_pair

PAIRS = [((0, 0), 0), ((1, 0), -1), ((0, 1), 1), ((2, -1), -3)]
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def graph_projection(B):
    """Slow reference: projection onto the graph of B through an inverse.

    For any matrix b the block matrix
        [[ (1+b*b)^-1,      (1+b*b)^-1 b* ],
         [ b (1+b*b)^-1,  b (1+b*b)^-1 b* ]]
    is an exact orthogonal projection of trace k.
    """
    k = B.shape[-1]
    BH = np.swapaxes(B.conj(), -1, -2)
    G = np.linalg.inv(np.eye(k)[None] + BH @ B)
    top = np.concatenate([G, G @ BH], axis=-1)
    bot = np.concatenate([B @ G, B @ G @ BH], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def reference_samples(sigma, x, xis):
    """p_sigma - corner column by column, one inverse per sample."""
    return np.stack([graph_projection(abs(xi) * sigma(x, xi))
                     - corner(sigma.k)[None] for xi in xis], axis=1)


def dominant_loop(k, shift, perturbation):
    """e^{i shift x} (I + sum_j c_j e^{ijx}): invertible whenever the
    perturbation has total norm below one, with determinant winding
    k * shift; not unitary, so its singular values vary with x."""
    d = 2
    coeffs = np.zeros((2 * d + 1 + 2 * abs(shift), k, k), dtype=complex)
    centre = d + abs(shift) + shift
    coeffs[centre] = np.eye(k)
    for j, c in zip((-2, -1, 1, 2), perturbation):
        coeffs[centre + j] += c
    return Loop.from_coeffs(coeffs)


def random_block(rng, k, size):
    """Complex k x k matrix of spectral norm ``size``."""
    m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return size * m / np.linalg.norm(m, 2)


def random_dominant_loop(seed, k, shift, total=0.6):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(4)) * total
    return dominant_loop(k, shift, [random_block(rng, k, w) for w in weights])


class TestWinding:
    def test_constant_loop(self):
        assert winding_number(Loop.identity(1)) == 0

    def test_plus_two(self):
        assert winding_number(Loop.from_scalar_modes({2: 1.0})) == 2

    def test_minus_three_times_unitary(self):
        assert winding_number(Loop.from_scalar_modes({-3: np.exp(0.7j)})) == -3

    def test_matrix_loop_determinant(self):
        loop = Loop.from_coeffs(np.array([
            np.diag([0.0, 1.0]), np.zeros((2, 2)), np.diag([1.0, 0.0])
        ], dtype=complex))  # diag(e^{ix}, e^{-ix}): det = 1
        assert winding_number(loop) == 0

    def test_non_invertible_rejected(self):
        loop = Loop.from_scalar_modes({1: 0.5, -1: 0.5})  # cos x vanishes
        with pytest.raises(ValueError):
            winding_number(loop)

    def test_undersampled_rejected(self):
        # raw samples of a degree-40 loop at 64 points: wrapped steps are
        # ambiguous and must be rejected
        x = 2 * np.pi * np.arange(64) / 64
        with pytest.raises(ValueError):
            winding_number(np.exp(40j * x))

    def test_sampled_array_input(self):
        x = 2 * np.pi * np.arange(512) / 512
        assert winding_number(np.exp(-2j * x)) == -2


class TestFredholm:
    @pytest.mark.parametrize("windings,expect", PAIRS)
    def test_calibration_suite(self, grid64, theta, windings, expect):
        assert fredholm_index_svd(winding_pair(*windings), theta, grid64) == expect

    def test_fiber_constant_unimodular(self, grid64, theta):
        # compact perturbation of a unitary multiplication: index zero
        shift = Loop.from_scalar_modes({1: 1.0})
        sigma = HomogeneousSymbol(shift, shift)
        assert fredholm_index_svd(sigma, theta, grid64) == 0

    def test_adjoint_antisymmetry(self, grid32, theta):
        for windings, expect in PAIRS:
            sigma = winding_pair(*windings)
            adjoint = HomogeneousSymbol(sigma.plus.adjoint(), sigma.minus.adjoint())
            assert (fredholm_index_svd(adjoint, theta, grid32)
                    == -fredholm_index_svd(sigma, theta, grid32))

    def test_multiplicative(self, grid32, theta):
        a, b = winding_pair(1, 0), winding_pair(2, -1)
        ab = HomogeneousSymbol(a.plus * b.plus, a.minus * b.minus)
        assert fredholm_index_svd(ab, theta, grid32) == (
            fredholm_index_svd(a, theta, grid32)
            + fredholm_index_svd(b, theta, grid32))

    def test_stable_under_refinement(self, grid32, grid64, theta):
        sigma = winding_pair(2, -1)
        v32 = fredholm_index_svd(sigma, theta, grid32)
        v64 = fredholm_index_svd(sigma, theta, grid64)
        with patch.object(index_theory, "EPS_RANK", 1e-7):
            v_eps = fredholm_index_svd(sigma, theta, grid64)
        assert v32 == v64 == v_eps == -3

    def test_positive_multiplier_invariance(self, grid32, theta):
        # multiplying by an invertible positive fiber-constant symbol does
        # not move the index
        sigma = winding_pair(1, 0)
        positive = Loop.from_scalar_modes({0: 2.0, 1: 0.3, -1: 0.3})
        product = HomogeneousSymbol(positive * sigma.plus, positive * sigma.minus)
        assert fredholm_index_svd(product, theta, grid32) == -1

    @pytest.mark.parametrize("seed,total", [(31061, 0.5625),
                                            (3907307436, 0.5778580368127912)])
    def test_slow_cokernel_tail_is_refined(self, grid32, theta, seed, total):
        # index 0 with a kernel vector at the cut and a cokernel vector whose
        # tail beyond N = 32 leaves a singular value of 1.4e-6 (first draw)
        # or 1.9e-5 (second): at N = 32 alone the first count is
        # inconclusive and the second a wrong 1; at 2N both tails are < 1e-9.
        # Both tails lie between EPS_RANK and a = 1e4 EPS_RANK, so the band
        # leaves the cokernel count at N = 32 to the SVD and decides both
        # counts at 2N: one SVD, for the one count the band declined
        sigma = HomogeneousSymbol(random_dominant_loop(seed, 1, 0, total),
                                  random_dominant_loop(seed + 1, 1, 0, total))
        assert check_band_against_svd(sigma, theta, grid32) == (1, None)
        assert check_band_against_svd(sigma, theta, grid32, 64) == (1, 1)
        calls = []
        svd = np.linalg.svd
        with patch.object(np.linalg, "svd", lambda *a, **kw: calls.append(a) or svd(*a, **kw)):
            assert fredholm_index_svd(sigma, theta, grid32) == 0
        assert len(calls) == 1

    def test_counted_value_keeps_the_relative_gap(self):
        # a genuine small singular value above eps does not block a count
        # that has a value below eps and a 1e3 gap to it
        assert _gapped_small_count(np.array([1e-10, 5e-4, 0.3]), 1e-6) == 1
        with pytest.raises(InconclusiveIndexError):
            _gapped_small_count(np.array([5e-4, 0.3]), 1e-6)

    @pytest.mark.parametrize("N", [16, 64])
    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e6, 1e16, 1e20, 1e30])
    def test_scaled_branch_is_counted_or_inconclusive(self, theta, N, scale):
        # plus = scale e^{ix}, index -1; past about 1e8 the band's rounding
        # margin declines, and the SVD's rounding floor sigma_max * n * eps
        # reaches EPS_RANK, where a conclusive 0 came out before
        sigma = HomogeneousSymbol(Loop.from_scalar_modes({1: scale}), Loop.identity(1))
        rep = index_report(sigma, CircleGrid(J=4 * N + 4, N=N), theta, [2.0], "scaled")
        if scale <= 1e6:
            assert (rep.fredholm_index, rep.fredholm_inconclusive) == (-1, False)
        else:
            assert (rep.fredholm_index, rep.fredholm_inconclusive) == (None, True)

    def test_svd_rounding_floor_is_inconclusive(self):
        # 1e9 * 2 * eps = 4.4e-7 stays below eps = 1e-6, 2e9 * 3 * eps = 1.3e-6 does not
        assert _gapped_small_count(np.array([1e-10, 1e9]), 1e-6) == 1
        with pytest.raises(InconclusiveIndexError, match="rounding floor"):
            _gapped_small_count(np.array([1e-10, 1.0, 2e9]), 1e-6)

    def test_no_gap_is_inconclusive(self, grid32, theta):
        # eps placed inside the cutting-weight cluster: no usable gap
        with patch.object(index_theory, "EPS_RANK", 0.1), \
                pytest.raises(InconclusiveIndexError):
            fredholm_index_svd(winding_pair(1, 0), theta, grid32)

    def test_non_invertible_symbol_rejected(self, grid32, theta):
        bad = HomogeneousSymbol(Loop.from_scalar_modes({1: 0.5, -1: 0.5}),
                                Loop.identity(1))
        with pytest.raises(ValueError):
            fredholm_index_svd(bad, theta, grid32)


def fredholm_setup(sigma, theta, grid, n=None):
    """The bands of ``fredholm_index_svd`` at size n (default N) and the
    dense truncation they come from, with its kept modes."""
    n = n or grid.N
    deg = sigma.degree
    big = padded_grid(grid, n - grid.N + deg + 8)
    keep = ~big.tail_mask(n)
    return _fredholm_bands(op_terms(sigma, theta, big), big, n, deg), op_quantize(sigma, theta, big), keep


def svd_count(mat):
    """The reference count of ``fredholm_index_svd``, None when inconclusive."""
    try:
        return _gapped_small_count(np.linalg.svd(mat, compute_uv=False), index_theory.EPS_RANK)
    except InconclusiveIndexError:
        return None


def check_band_against_svd(sigma, theta, grid, n=None):
    """(kernel, cokernel) of the band, each None where it leaves the count to
    the SVD, after holding every count it decides against the full SVD."""
    (kernel, cokernel, s, d), X, keep = fredholm_setup(sigma, theta, grid, n)
    counts = []
    for band, dense in ((kernel, X[:, keep]), (cokernel, X.conj().T[:, keep])):
        count = _band_small_count(band, s, d)
        if count is not None:
            assert count == svd_count(dense)
        counts.append(count)
    return tuple(counts)


def no_svd(*args, **kwargs):
    raise AssertionError("the band was expected to decide")


class TestFredholmBand:
    """The banded kernel count against the full singular values."""

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
           shift=st.integers(-2, 2), total=st.floats(0.05, 0.9))
    def test_property_matches_svd(self, theta, k, seed, shift, total):
        sigma = HomogeneousSymbol(random_dominant_loop(seed, k, shift, total),
                                  random_dominant_loop(seed + 1, k, -shift, total))
        check_band_against_svd(sigma, theta, CircleGrid(J=132, N=32, k=k))

    @pytest.mark.parametrize("N", [64, 256, 512])
    def test_shipped_suite_decides_on_the_band(self, monkeypatch, theta, N):
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        g = CircleGrid(J=4 * N + 4, N=N)
        for _, sigma in index_suite():
            assert fredholm_index_svd(sigma, theta, g) == analytic_index(sigma)

    def test_nonunitary_cases_decide_on_the_band(self, monkeypatch, theta):
        # the cokernel vectors spread over many modes, so the count rests on
        # the frame of the inverse iteration
        data = config.load_config(str(CONFIGS / "index-nonunitary.json"))
        g = config.build_grid(data)
        cases = config.index_cfg(data)["cases"]
        assert len(cases) == 2
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for _, sigma in cases:
            (kernel, cokernel, s, d), _, _ = fredholm_setup(sigma, theta, g)
            assert _band_small_count(cokernel, s, d) > 0
            assert fredholm_index_svd(sigma, theta, g) == analytic_index(sigma)

    @pytest.mark.parametrize("k", [1, 2])
    def test_bands_are_the_dense_entries(self, theta, k):
        # bit for bit: the kernel band is a slice of the dense truncation, the
        # cokernel band a slice of its adjoint
        g = CircleGrid(J=132, N=32, k=k)
        sigma = HomogeneousSymbol(random_dominant_loop(7, k, 1),
                                  random_dominant_loop(8, k, -1))
        (kernel, cokernel, _, _), X, _ = fredholm_setup(sigma, theta, g)
        b, n = sigma.degree, g.N
        big = padded_grid(g, b + 8)
        inner = ~big.tail_mask(n + b)
        square = X[np.ix_(inner, inner)]
        assert np.array_equal(kernel, matrix_band(square, k, b)[:, b:-b])
        assert np.array_equal(cokernel, matrix_band(square.conj().T, k, b)[:, b:-b])

    @pytest.mark.parametrize("k", [1, 2])
    def test_gram_bands_match_the_dense_products(self, theta, k):
        # within the Gram's rounding, the dropped band and the rounding of
        # the dense product
        g = CircleGrid(J=132, N=32, k=k)
        sigma = HomogeneousSymbol(random_dominant_loop(7, k, 1),
                                  random_dominant_loop(8, k, -1))
        (kernel, cokernel, s, d), X, keep = fredholm_setup(sigma, theta, g)
        eps = np.finfo(float).eps
        rho = ((2 * sigma.degree + 1) * k + 4) * eps * s * s
        dense_rounding = (X.shape[0] + 4) * eps * s * s
        for band, Z in ((kernel, X[:, keep]), (cokernel, X.conj().T[:, keep])):
            gram = band_matrix(_gram_band(band))
            assert np.linalg.norm(gram - Z.conj().T @ Z, 2) <= rho + d * (2 * s + d) + dense_rounding
            assert np.array_equal(gram, gram.conj().T)

    def test_shift_below_the_pivot_floor_goes_to_the_svd(self, monkeypatch, theta, grid32):
        # EPS_RANK = 1e-9 puts a^2 = 1e-10 below the pivot floor of 1e-8:
        # the band declines and both counts come from the SVD
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(index_theory, "EPS_RANK", 1e-9)
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(a) or svd(*a, **kw))
        assert fredholm_index_svd(winding_pair(2, -1), theta, grid32) == -3
        assert len(calls) == 2

    def test_ldl_solve_matches_dense_solve(self):
        rng = np.random.default_rng(2)
        n, k2, b = 37, 2, 3
        mat = rng.normal(size=(n * k2, n * k2)) + 1j * rng.normal(size=(n * k2, n * k2))
        band = matrix_band(0.3 * hermitian(mat), k2, b)
        dense = hermitian(band_matrix(band))
        vals, vecs, sub, _ = _band_ldl(band, np.array([0.05, -2.0]))
        rhs = np.zeros((vals.shape[0] * vals.shape[2], 3), dtype=complex)
        rhs[:n * k2] = rng.normal(size=(n * k2, 3))
        got = _ldl_solve(vals[:, 1], vecs[:, 1], sub, rhs)
        expect = np.linalg.solve(dense + 2.0 * np.eye(n * k2), rhs[:n * k2])
        assert np.max(np.abs(got[:n * k2] - expect)) <= 1e-10 * np.max(np.abs(expect))
        assert np.max(np.abs(got[n * k2:])) == 0.0


class TestAnalytic:
    @pytest.mark.parametrize("windings,expect", PAIRS)
    def test_calibrated_formula(self, windings, expect):
        assert analytic_index(winding_pair(*windings)) == expect

    def test_equal_windings_cancel(self):
        assert analytic_index(winding_pair(1, 1)) == 0

    def test_matches_fredholm_on_suite(self, grid64, theta):
        for windings, _ in PAIRS:
            sigma = winding_pair(*windings)
            assert analytic_index(sigma) == fredholm_index_svd(sigma, theta, grid64)


class TestBottProjection:
    def test_identity_symbol_gives_equal_pair(self):
        sigma = HomogeneousSymbol.unit(1)
        x = np.linspace(0, 2 * np.pi, 9)
        for xi in (-3.0, 0.0, 2.0, 50.0):
            assert np.max(np.abs(clutching_projection(sigma, x, xi)
                                 - clutching_projection(HomogeneousSymbol.unit(1), x, xi))) == 0.0

    def test_pointwise_projection_algebra(self):
        sigma = winding_pair(1, 0)
        rng = np.random.default_rng(7)
        worst_idem = worst_adj = worst_trace = 0.0
        for _ in range(1000):
            x = np.array([rng.uniform(0, 2 * np.pi)])
            xi = rng.uniform(-50, 50)
            p = clutching_projection(sigma, x, xi)[0]
            worst_idem = max(worst_idem, float(np.max(np.abs(p @ p - p))))
            worst_adj = max(worst_adj, float(np.max(np.abs(p - p.conj().T))))
            worst_trace = max(worst_trace, abs(float(np.trace(p).real) - sigma.k))
        assert worst_idem < 1e-12
        assert worst_adj < 1e-12
        assert worst_trace < 1e-12

    def test_difference_vanishes_at_fiber_infinity(self):
        sigma = winding_pair(1, 0)
        x = np.array([0.3])
        diffs = [np.max(np.abs(clutching_projection(sigma, x, xi)
                               - clutching_projection(HomogeneousSymbol.unit(1), x, xi)))
                 for xi in (10.0, 100.0, 1000.0)]
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 1e-3

    def test_non_invertible_rejected(self, grid32):
        bad = HomogeneousSymbol(Loop.from_scalar_modes({1: 0.5, -1: 0.5}),
                                Loop.identity(1))
        with pytest.raises(ValueError):
            higson_trace_index(bad, 8.0, grid32)


class TestClosedFormAgainstReference:
    XIS = np.array([-40.0, -7.5, -1.0, -0.25, 0.0, 0.5, 3.0, 64.0])

    @pytest.mark.parametrize("k", [1, 2])
    def test_entrywise_against_inverse(self, k):
        sigma = HomogeneousSymbol(random_dominant_loop(1, k, 1),
                                  random_dominant_loop(2, k, -2))
        x = 2 * np.pi * np.arange(36) / 36
        s = np.linalg.svd(sigma.plus(x), compute_uv=False)
        assert np.ptp(s) > 0.5  # the branch is far from unitary
        # both signs in one block, and blocks of one sign only
        for xis in (self.XIS, self.XIS[:4], self.XIS[4:]):
            fast = clutching_samples(sigma, x, xis)
            assert np.max(np.abs(fast - reference_samples(sigma, x, xis))) <= 1e-13

    @pytest.mark.parametrize("k", [1, 2])
    def test_singular_branch_needs_no_inverse(self, k):
        # u with a zero singular value somewhere: the closed form still
        # matches the graph projection
        sigma = HomogeneousSymbol(Loop.from_scalar_modes({1: 0.5, -1: 0.5}, k=k),
                                  Loop.identity(k))  # higson_trace_index rejects u
        x = np.array([0.0, np.pi / 2, 1.0])
        fast = clutching_samples(sigma, x, self.XIS)
        assert np.max(np.abs(fast - reference_samples(sigma, x, self.XIS))) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
           shift=st.integers(-2, 2), total=st.floats(0.05, 0.9),
           xi=st.floats(-100.0, 100.0))
    def test_property_projection_algebra(self, k, seed, shift, total, xi):
        sigma = HomogeneousSymbol(random_dominant_loop(seed, k, shift, total),
                                  random_dominant_loop(seed + 1, k, -shift, total))
        x = 2 * np.pi * np.arange(24) / 24
        p = clutching_projection(sigma, x, xi)
        assert np.max(np.abs(p @ p - p)) <= 1e-12
        assert np.max(np.abs(p - np.swapaxes(p.conj(), -1, -2))) <= 1e-12
        assert np.max(np.abs(np.trace(p, axis1=1, axis2=2) - k)) <= 1e-12

    @pytest.mark.parametrize("label,sigma", index_suite())
    def test_counts_match_per_column_reference(self, grid32, label, sigma):
        g2 = CircleGrid(J=grid32.J, N=grid32.N, k=2 * sigma.k)
        for t in (4.0, 8.0, 16.0):
            mat = sampled_quantization(lambda x, xis: reference_samples(sigma, x, xis), t, g2)
            mat += np.kron(np.eye(g2.n_modes), corner(sigma.k))
            evals = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
            count, gap = _count_above_half(_branch_factors(sigma, grid32), t, grid32)
            assert count == int(np.sum(evals > 0.5))
            assert gap == pytest.approx(float(np.min(np.abs(evals - 0.5))), abs=1e-12)


class TestPairingMatrix:
    """Bitwise equality (== treats -0 and +0 alike) with a gather reference."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("N", [5, 32, 70])
    def test_matches_gather(self, N, k):
        # N = 70 has 141 column modes: two column blocks of the assembly
        g = CircleGrid(J=4 * N + 6, N=N, k=k)
        sigma = HomogeneousSymbol(random_dominant_loop(3, k, 1),
                                  random_dominant_loop(4, k, -2))
        expect = sampled_quantization(lambda x, xis: clutching_samples(sigma, x, xis),
                                      2.5, CircleGrid(J=g.J, N=N, k=2 * k))
        assert np.array_equal(_pairing_matrix(_branch_factors(sigma, g), 2.5, g), expect)


def hermitian(mat):
    return 0.5 * (mat + mat.conj().T)


def check_band_against_dense(sigma, t, grid):
    """(band width, verdict) of the pairing count at t, after holding the
    band against the dense matrix: its drop bound covers the distance, and a
    verdict it reaches is the dense one.  The verdict is whether the band
    found the count conclusive, None when it left the count to the dense
    solve; the width is None when the band gave up."""
    tables = _pairing_tables(sigma, grid)
    count, gap = _count_above_half(tables[0], t, grid)
    dense_verdict = (count, True) if gap >= PAIRING_GAP else False
    assert _pairing_count(tables, t, grid)[1] == (gap >= PAIRING_GAP)
    band = _pairing_band(tables, t, grid)
    if band is None:
        return None, None
    table, delta = band
    dense = (_pairing_matrix(tables[0], t, grid)
             + np.kron(np.eye(grid.n_modes), corner(sigma.k)))
    assert np.linalg.norm(hermitian(dense) - hermitian(band_matrix(table)), 2) <= delta
    verdict = _band_count(table, delta)
    if verdict is not None:
        assert (verdict if verdict[1] else False) == dense_verdict
    return table.shape[0] // 2, None if verdict is None else verdict[1]


class TestBandCount:
    """The banded inertia count against the dense eigenvalue solve."""

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
           shift=st.integers(-2, 2), total=st.floats(0.05, 0.9),
           t=st.sampled_from([2.0, 4.0, 8.0]))
    def test_property_matches_dense(self, k, seed, shift, total, t):
        sigma = HomogeneousSymbol(random_dominant_loop(seed, k, shift, total),
                                  random_dominant_loop(seed + 1, k, -shift, total))
        check_band_against_dense(sigma, t, CircleGrid(J=132, N=32, k=k))

    @pytest.mark.parametrize("k,seed,shift,total,t,expect", [
        (1, 4, 0, 0.1, 4.0, (8, True)),      # degree 2 widens through 4 to 8
        (2, 0, 1, 0.1, 8.0, (6, True)),      # degree 3 widens to 6
        (1, 3, -2, 0.1, 2.0, (8, False)),    # an eigenvalue near 1/2, found on the band
        (1, 3, 0, 0.4, 4.0, (None, None)),   # passes N / 4 = 8: dense
        (2, 2, 0, 0.8, 8.0, (None, None)),
    ])
    def test_band_widths(self, k, seed, shift, total, t, expect):
        sigma = HomogeneousSymbol(random_dominant_loop(seed, k, shift, total),
                                  random_dominant_loop(seed + 1, k, -shift, total))
        assert check_band_against_dense(sigma, t, CircleGrid(J=132, N=32, k=k)) == expect

    @pytest.mark.parametrize("label,sigma", index_suite())
    def test_unitary_branches_need_their_degree(self, grid64, label, sigma):
        for t in (8.0, 16.0, 32.0):
            assert check_band_against_dense(sigma, t, grid64) == (sigma.degree or 1, True)

    @pytest.mark.parametrize("k", [1, 2])
    def test_coefficients_match_fft(self, k):
        # N = 70: two column blocks; the DFT-matrix product against the FFT
        g = CircleGrid(J=4 * 70 + 6, N=70, k=k)
        sigma = HomogeneousSymbol(random_dominant_loop(3, k, 1),
                                  random_dominant_loop(4, k, -2))
        factors = _branch_factors(sigma, g)
        band, _ = _band_coefficients(_band_tables(factors, g, 5), 2.5, g)
        dense = _pairing_matrix(factors, 2.5, g) + np.kron(np.eye(g.n_modes), corner(k))
        assert np.max(np.abs(band - matrix_band(dense, 2 * k, 5))) <= 1e-13

    @pytest.mark.parametrize("k", [1, 2])
    def test_factored_mass_matches_samples(self, monkeypatch, k):
        # N = 70: two column blocks of the sampler; non-unitary branches
        g = CircleGrid(J=4 * 70 + 6, N=70, k=k)
        sigma = HomogeneousSymbol(random_dominant_loop(3, k, 1),
                                  random_dominant_loop(4, k, -2))
        vals = clutching_samples(sigma, g.x, g.modes / 2.5)
        sampled = np.vdot(vals, vals).real / g.J
        masses = []
        factored = index_theory._factored_band

        def recorded(*args):
            coeffs, mass = factored(*args)
            masses.append(mass)
            return coeffs, mass

        monkeypatch.setattr(index_theory, "_factored_band", recorded)
        _band_coefficients(_band_tables(_branch_factors(sigma, g), g, 1), 2.5, g)
        assert len(masses) == 2
        assert sum(masses) == pytest.approx(sampled, rel=1e-12)

    @pytest.mark.parametrize("N,J,exponents", [
        (256, 1028, DEFAULTS["index_compare"]["higson_t_exponents"]),
        (512, 2052, [6]),  # the refinement grid of criterion 09
    ])
    def test_shipped_suite_decides_on_the_first_try(self, monkeypatch, N, J, exponents):
        # one band per pairing, at the degree of every shipped case, with
        # room below the tolerance
        widths = []
        coefficients = index_theory._band_coefficients
        monkeypatch.setattr(index_theory, "_band_coefficients",
                            lambda *args: widths.append(args[0][0]) or coefficients(*args))
        g = CircleGrid(J=J, N=N, k=1)
        for _, sigma in index_suite():
            tables = _pairing_tables(sigma, g)
            for t in 2.0 ** np.array(exponents):
                widths.clear()
                band, delta = _pairing_band(tables, t, g)
                assert widths == [sigma.degree or 1]
                assert band.shape[0] == 2 * (sigma.degree or 1) + 1
                assert delta <= index_theory._BAND_TOL / 4

    def test_widths_double_to_the_cap(self, monkeypatch):
        # degree 3 at N = 32: widths 3, 6 and the cap N / 4 = 8; when none
        # fits, the count is dense
        widths, dense = [], []
        monkeypatch.setattr(index_theory, "_band_coefficients",
                            lambda tables, t, grid: widths.append(tables[0]) or (None, 1.0))
        monkeypatch.setattr(index_theory, "_count_above_half",
                            lambda *args: dense.append(args) or (-1, 1.0))
        sigma = HomogeneousSymbol(Loop.from_scalar_modes({3: 1.0}), Loop.identity(1))
        assert sigma.degree == 3
        g = CircleGrid(J=132, N=32)
        assert _pairing_count(_pairing_tables(sigma, g), 4.0, g) == (-1, True)
        assert widths == [3, 6, 8]
        assert len(dense) == 1

    @pytest.mark.parametrize("n,k2,b", [(37, 2, 1), (40, 4, 3), (50, 2, 20)])
    def test_inertia_matches_eigvalsh(self, n, k2, b):
        # several super-blocks, a padded last one, and b above the
        # super-block floor
        rng = np.random.default_rng(n + b)
        mat = rng.normal(size=(n * k2, n * k2)) + 1j * rng.normal(size=(n * k2, n * k2))
        band = matrix_band(0.3 * hermitian(mat), k2, b)
        evals = np.linalg.eigvalsh(hermitian(band_matrix(band)))
        shifts = np.array([0.05, 0.1, 0.45, 1.3])  # positive, as the pairing uses
        vals, _, _, err = _band_ldl(band, shifts)
        assert list(np.sum(vals > 0.0, axis=(0, 2))) == [int(np.sum(evals > s)) for s in shifts]
        assert err <= index_theory._LDL_ALLOWANCE

    @pytest.mark.parametrize("n,k2,b", [(37, 2, 1), (40, 4, 3), (50, 2, 20)])
    def test_error_bound_matches_the_pivot_loop(self, n, k2, b):
        rng = np.random.default_rng(n + b)
        mat = rng.normal(size=(n * k2, n * k2)) + 1j * rng.normal(size=(n * k2, n * k2))
        vals, _, sub, err = _band_ldl(matrix_band(0.3 * hermitian(mat), k2, b),
                                      np.array([0.05, 0.1, 0.45, 1.3]))
        assert err == pytest.approx(ldl_error_bound(vals, sub), rel=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_non_finite_pivot_declines(self, entry):
        # a non-finite entry in the second super-block: the first pivot is
        # factored, the second declines before its eigen-solve
        band = matrix_band(np.diag(np.full(40, 0.9)).astype(complex), 2, 1)
        band[1, index_theory._SUPER + 1] = entry
        with patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            assert _band_ldl(band, np.array([0.3, 0.7])) is None
        assert eigh.call_count == 1


SHIFTS = ("lo - m", "lo + m", "hi - m", "hi + m")


def planted_band(k2, b, n, seed, delta, planted, pivot):
    """A Hermitian band table of n modes, blocks k2 x k2, width b: random
    eigenvalues away from [0.3, 0.7] plus the ``planted`` ones at places
    relative to the window [0.4 - m, 0.6 + m], m = delta + the allowance,
    mixed by unitaries on groups of b + 1 modes that straddle the
    super-blocks.  ``pivot`` names a shift at which the first pivot gets an
    eigenvalue of 1e-12, or is None: the last entry of the first super-block
    and the first of the next, left out of the mixing, then hold
    [[s + 1e-12, 1], [1, s]], whose eigenvalues s -+ 1 lie far from the
    window."""
    rng = np.random.default_rng(seed)
    m = delta + index_theory._LDL_ALLOWANCE
    lo, hi = 0.5 - PAIRING_GAP, 0.5 + PAIRING_GAP
    dim = n * k2
    evals = np.where(rng.random(dim) < 0.5, rng.uniform(-1.0, 0.3, dim),
                     rng.uniform(0.7, 2.0, dim))
    places = {"inside": lambda u: lo + m + u * (hi - lo - 2 * m),
              "lo margin": lambda u: lo - m + 2 * u * m,
              "hi margin": lambda u: hi - m + 2 * u * m,
              "below": lambda u: lo - m - (0.01 + u) * m,
              "above": lambda u: hi + m + (0.01 + u) * m}
    for i, place in enumerate(planted):
        evals[3 * i + 1] = places[place](rng.random())
    q = np.eye(dim, dtype=complex)
    g = (b + 1) * k2
    cut = max(b, index_theory._SUPER) * k2  # the first entry of the second super-block
    spans = [(0, dim)] if pivot is None else [(0, cut - 1), (cut + 1, dim)]
    for first, end in spans:
        for start in range(first + int(rng.integers(0, g)), end - g + 1, g):
            z = rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g))
            q[start:start + g, start:start + g] = np.linalg.qr(z)[0]
    mat = q @ np.diag(evals) @ q.conj().T
    if pivot is not None:
        s = dict(zip(SHIFTS, (lo - m, lo + m, hi - m, hi + m)))[pivot]
        mat[cut - 1, cut - 1], mat[cut, cut] = s + 1e-12, s
        mat[cut - 1, cut] = mat[cut, cut - 1] = 1.0
    return matrix_band(hermitian(mat), k2, b)


class TestOuterShiftsFirst:
    """The band count against the four-shift reference that it replaces."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(k2=st.sampled_from([2, 4]), b=st.integers(1, 4), n=st.integers(8, 24),
           seed=st.integers(0, 2**32 - 1), delta=st.sampled_from([0.0, 1e-7, 1e-5, 1e-3]),
           planted=st.lists(st.sampled_from(["inside", "lo margin", "hi margin",
                                             "below", "above"]), max_size=2),
           pivot=st.sampled_from((None,) + SHIFTS))
    def test_property_matches_four_shifts(self, k2, b, n, seed, delta, planted, pivot):
        band = planted_band(k2, b, n, seed, delta, planted, pivot)
        expect = four_shift_band_count(band, delta)
        got = _band_count(band, delta)
        if expect is not None:
            assert got == expect
        elif got is not None:
            # the outer shifts decided where an inner one declined (a small
            # pivot or a larger backward error there): the dense spectrum
            # must confirm the verdict
            evals = np.linalg.eigvalsh(hermitian(band_matrix(band)))
            assert got[1]
            assert got[0] == int(np.sum(evals > 0.5))
            assert not np.any((evals > 0.5 - PAIRING_GAP) & (evals <= 0.5 + PAIRING_GAP))

    @pytest.mark.parametrize("pivot", SHIFTS)
    def test_small_pivot_at_each_shift(self, pivot):
        # only a small pivot at an outer shift stops the outer count; one at
        # an inner shift is never factored once the outer counts agree
        band = planted_band(2, 1, 16, 7, 1e-3, [], pivot)
        expect = four_shift_band_count(band, 1e-3)
        assert expect is None
        got = _band_count(band, 1e-3)
        if pivot in ("lo - m", "hi + m"):
            assert got is None
        else:
            evals = np.linalg.eigvalsh(hermitian(band_matrix(band)))
            assert got == (int(np.sum(evals > 0.5)), True)

    @pytest.mark.parametrize("place,shifts", [
        ([], [2]), (["below", "above"], [2]), (["inside"], [2, 4]),
        (["lo margin"], [2, 4]), (["hi margin"], [2, 4])])
    def test_inner_shifts_only_when_the_outer_counts_differ(self, place, shifts):
        calls = []
        ldl = index_theory._band_ldl
        band = planted_band(2, 2, 20, 3, 1e-5, place, None)
        with patch.object(index_theory, "_band_ldl",
                          lambda band, s: calls.append(s.size) or ldl(band, s)):
            _band_count(band, 1e-5)
        assert calls == shifts


class TestBandFallback:
    """What the band cannot decide goes to the dense count, observed through
    a stand-in for it."""

    DELTA = 1e-3

    def count(self, monkeypatch, mat):
        band = matrix_band(mat, 2, 1)
        calls = []
        monkeypatch.setattr(index_theory, "_pairing_band", lambda *args: (band, self.DELTA))
        monkeypatch.setattr(index_theory, "_count_above_half",
                            lambda *args: calls.append(args) or (-1, 1.0))
        g = CircleGrid(J=132, N=32)
        return _pairing_count(_pairing_tables(winding_pair(1, 0), g), 4.0, g), bool(calls)

    def placed(self, value):
        # eigenvalues 0.1 and 0.9 and one placed value, mixed by unitaries on
        # pairs of modes so that the matrix has band width one
        evals = np.tile([0.1, 0.9], 20)
        evals[13] = value
        rng = np.random.default_rng(5)
        q = np.zeros((40, 40), dtype=complex)
        for i in range(0, 40, 4):
            z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q[i:i + 4, i:i + 4] = np.linalg.qr(z)[0]
        return q @ np.diag(evals) @ q.conj().T

    @pytest.mark.parametrize("value", [0.4 - 5e-4, 0.4 + 5e-4, 0.6 - 5e-4, 0.6 + 5e-4])
    def test_eigenvalue_within_delta_of_the_edge(self, monkeypatch, value):
        assert self.count(monkeypatch, self.placed(value)) == ((-1, True), True)

    def test_clear_band_decides_alone(self, monkeypatch):
        assert self.count(monkeypatch, self.placed(0.3)) == ((19, True), False)
        assert self.count(monkeypatch, self.placed(0.7)) == ((20, True), False)
        assert self.count(monkeypatch, self.placed(0.5)) == ((19, False), False)

    def test_small_pivot(self, monkeypatch):
        # a pair across the first super-block boundary with eigenvalues near
        # s -+ 1, far from the window, but a pivot of 1e-12 at the shift s
        s = 0.5 - PAIRING_GAP - self.DELTA - index_theory._LDL_ALLOWANCE
        mat = np.diag(np.full(40, 0.9)).astype(complex)
        i, j = 2 * index_theory._SUPER - 2, 2 * index_theory._SUPER
        mat[i, i], mat[j, j] = s + 1e-12, s
        mat[i, j] = mat[j, i] = 1.0
        assert self.count(monkeypatch, mat) == ((-1, True), True)

    def test_pivot_growth(self, monkeypatch):
        # the same pair with a pivot of 1e-7, above the floor: the coupling
        # through its inverse puts the rounding bound of the factorization
        # past the allowance
        s = 0.5 - PAIRING_GAP - self.DELTA - index_theory._LDL_ALLOWANCE
        mat = np.diag(np.full(40, 0.9)).astype(complex)
        i, j = 2 * index_theory._SUPER - 2, 2 * index_theory._SUPER
        mat[i, i], mat[j, j] = s + 1e-7, s
        mat[i, j] = mat[j, i] = 1.0
        assert self.count(monkeypatch, mat) == ((-1, True), True)


class TestSpectralPairing:
    @pytest.mark.parametrize("windings,expect", PAIRS)
    def test_calibration_suite(self, grid64, windings, expect):
        for t in (8.0, 16.0, 32.0):
            assert higson_trace_index(winding_pair(*windings), t, grid64) == expect

    def test_inconclusive_at_lattice_edge(self, grid32):
        # once t reaches the cutoff the clutching cannot complete
        with pytest.raises(InconclusiveIndexError):
            higson_trace_index(winding_pair(2, -1), 4096.0, grid32)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t,scale", [(2.0 ** -1000, 1.0), (2.0 ** -900, 1e30)])
    def test_inconclusive_where_the_weights_overflow(self, grid16, t, scale):
        # (N / t * S)^2 is no finite float: the weights are never formed
        sigma = HomogeneousSymbol(Loop.from_scalar_modes({1: scale}), Loop.identity(1))
        with pytest.raises(InconclusiveIndexError, match="overflows a float"):
            higson_trace_index(sigma, t, grid16)

    @pytest.mark.parametrize("N", [16, 32])
    @pytest.mark.parametrize("k", [1, 2])
    def test_base_count_is_exact(self, N, k):
        # the x-independent companion deforms to one rank-k projection per
        # mode; this is the slow reference for the analytic base count
        base = HomogeneousSymbol.unit(k)
        g2 = CircleGrid(J=4 * N + 4, N=N, k=2 * k)
        for t in (2.0, N / 4.0):
            mat = sampled_quantization(lambda x, xis: np.stack(
                [clutching_projection(base, x, xi) - corner(k)[None] for xi in xis],
                axis=1), t, g2)
            mat += np.kron(np.eye(g2.n_modes), corner(k))
            evals = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
            assert int(np.sum(evals > 0.5)) == k * (2 * N + 1)
            assert abs(np.min(np.abs(evals - 0.5)) - 0.5) < 1e-12

    def test_entrywise_trace_is_rigid(self, grid32):
        # both projections have pointwise trace k, so the literal trace
        # pairing vanishes identically; the class lives in the counts
        assert abs(naive_trace_pairing(winding_pair(1, 0), 8.0, grid32)) < 1e-10


class TestReport:
    def test_identity_symbol_all_zero(self, grid32, theta):
        rep = index_report(HomogeneousSymbol.unit(1), grid32, theta=theta,
                           t_grid=(8.0, 16.0), label="unit")
        assert rep.analytic_index == 0
        assert rep.fredholm_index == 0
        assert rep.higson_rounded == 0
        assert rep.agree

    def test_three_way_agreement(self, grid64, theta):
        rep = index_report(winding_pair(2, -1), grid64, theta=theta,
                           t_grid=(8.0, 16.0, 32.0), label="w(2,-1)")
        assert rep.agree
        assert rep.fredholm_index == rep.analytic_index == rep.higson_rounded == -3
        assert rep.higson_trace == (-3.0, -3.0, -3.0)

    def test_inconclusive_marks_no_false_agreement(self, grid32, theta):
        with patch.object(index_theory, "EPS_RANK", 0.1):
            rep = index_report(winding_pair(1, 0), grid32, theta=theta,
                               t_grid=(8.0,), label="cluster")
        assert rep.fredholm_inconclusive
        assert rep.fredholm_index is None
        assert not rep.agree

    def test_fredholm_outside_resolution_window(self, grid16):
        # the cutting function never reaches one below the cutoff: every
        # singular value vanishes, so a count would read 0 against -1
        rep = index_report(winding_pair(1, 0), grid16, theta=CutFunction(1e6),
                           t_grid=(4.0,), label="wide-theta")
        assert rep.analytic_index == -1
        assert rep.fredholm_inconclusive
        assert rep.fredholm_index is None
        assert not rep.agree
        with pytest.raises(InconclusiveIndexError):
            fredholm_index_svd(winding_pair(1, 0), CutFunction(15.0), grid16)

    @pytest.mark.parametrize("t_grid", [(8.0,), (4.0, 8.0), (2.0, 4.0, 8.0, 4096.0)])
    def test_branches_factored_once_per_case(self, monkeypatch, grid32, theta, t_grid):
        calls = []
        factors = index_theory._clutching_factors
        monkeypatch.setattr(index_theory, "_clutching_factors",
                            lambda u: calls.append(u) or factors(u))
        for windings, _ in PAIRS:
            calls.clear()
            index_report(winding_pair(*windings), grid32, theta=theta, t_grid=t_grid,
                         label="w")
            assert len(calls) == 2

    @pytest.mark.parametrize("k,shift,total", [(1, 1, 0.1), (1, 0, 0.4), (2, 1, 0.1),
                                               (1, -2, 0.8)])
    def test_matches_the_per_t_reference(self, grid32, theta, k, shift, total):
        # factors and first band tables taken once against every t apart,
        # with the four-shift band count: degree 2 widens through 4 to 8,
        # and total = 0.4 and 0.8 pass N / 4 to the dense count
        sigma = HomogeneousSymbol(random_dominant_loop(4, k, shift, total),
                                  random_dominant_loop(5, k, -shift, total))
        g = CircleGrid(J=grid32.J, N=grid32.N, k=k)
        t_grid = (2.0, 4.0, 8.0, 16.0)
        expect = []
        for t in t_grid:
            count, conclusive = per_t_pairing_count(sigma, t, g)
            expect.append(float(count - k * g.n_modes) if conclusive else None)
        rep = index_report(sigma, g, theta=theta, t_grid=t_grid, label="r")
        assert rep.higson_trace == tuple(expect)

    def test_windings_taken_once(self, monkeypatch, grid32, theta):
        calls = []
        monkeypatch.setattr(index_theory, "winding_number",
                            lambda loop: calls.append(loop) or winding_number(loop))
        sigma = winding_pair(2, -1)
        rep = index_report(sigma, grid32, theta=theta, t_grid=(4.0, 8.0), label="w")
        assert rep.agree
        assert calls == [sigma.plus, sigma.minus]

    def test_report_serializes(self, grid32, theta):
        rep = index_report(winding_pair(0, 1), grid32, theta=theta,
                           t_grid=(8.0,), label="w(0,1)")
        d = rep.to_dict()
        assert d["label"] == "w(0,1)"
        assert d["agree"] is True


class TestMatrixCoefficients:
    def test_three_routes_agree_at_k2(self, theta):
        from psilab.numerics import CircleGrid
        g = CircleGrid(J=132, N=32, k=2)
        coeffs = np.zeros((3, 2, 2), dtype=complex)
        coeffs[1, 1, 1] = 1.0   # constant in the lower diagonal entry
        coeffs[2, 0, 0] = 1.0   # e^{ix} in the upper diagonal entry
        sigma = HomogeneousSymbol(Loop.from_coeffs(coeffs), Loop.identity(2))
        assert analytic_index(sigma) == -1
        assert fredholm_index_svd(sigma, theta, g) == -1
        assert higson_trace_index(sigma, 8.0, g) == -1.0

    def test_determinant_winding_drives_the_index(self, theta):
        from psilab.numerics import CircleGrid
        g = CircleGrid(J=132, N=32, k=2)
        coeffs = np.zeros((3, 2, 2), dtype=complex)
        coeffs[2, 0, 0] = 1.0   # e^{ix}
        coeffs[0, 1, 1] = 1.0   # e^{-ix}: determinant winding zero
        sigma = HomogeneousSymbol(Loop.from_coeffs(coeffs), Loop.identity(2))
        assert analytic_index(sigma) == 0
        assert fredholm_index_svd(sigma, theta, g) == 0


class TestIndexTheoremProperty:
    # Gohberg-Krein: for invertible trigonometric-polynomial branches the
    # Fredholm index, the winding formula and the spectral pairing give the
    # same integer, w(minus) - w(plus) times the block size.
    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(1, 2), w_plus=st.integers(-2, 2), w_minus=st.integers(-2, 2),
           seed=st.integers(0, 2**32 - 1), total=st.floats(0.05, 0.6))
    def test_three_routes_agree(self, grid32, theta, k, w_plus, w_minus, seed, total):
        sigma = HomogeneousSymbol(random_dominant_loop(seed, k, w_plus, total),
                                  random_dominant_loop(seed + 1, k, w_minus, total))
        g = CircleGrid(J=grid32.J, N=grid32.N, k=k)
        rep = index_report(sigma, g, theta=theta, t_grid=(4.0, 8.0), label="random")
        expect = k * (w_minus - w_plus)
        assert rep.agree
        assert rep.fredholm_index == rep.analytic_index == rep.higson_rounded == expect
