import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (block_band_matrix, dense_gram_norm, full_band, gathered_diagonals,
                     inverse_fourier, matrix_band, restrict_to, tail_norm)
from psilab import numerics
from psilab.bands import _dense, _diagonal_gram, _flat_diagonals, _flat_width
from psilab.numerics import (CircleGrid, fourier_coefficients, hashed_normals, operator_norm,
                             row_blocks)
from psilab.presets import t0_symbol
from psilab.quantize import t_quantize


def random_operator(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(grid.dim, grid.dim)) + 1j * rng.normal(size=(grid.dim, grid.dim))


def power_iteration_norm(mat, iters=2000):
    # independent route to the largest singular value
    v = np.ones(mat.shape[1], dtype=complex)
    v /= np.linalg.norm(v)
    last = 0.0
    for _ in range(iters):
        w = mat.conj().T @ (mat @ v)
        n = np.linalg.norm(w)
        v = w / n
        est = np.sqrt(n)
        if abs(est - last) < 1e-14 * est:
            break
        last = est
    return est


class TestGridValidation:
    def test_sampling_rule(self):
        with pytest.raises(ValueError):
            CircleGrid(J=64, N=16)  # 64 < 4*16+4

    def test_odd_J_rejected(self):
        with pytest.raises(ValueError):
            CircleGrid(J=69, N=16)

    @pytest.mark.parametrize("N,k", [(0, 1), (4, 0)])
    def test_positive_sizes(self, N, k):
        with pytest.raises(ValueError):
            CircleGrid(J=64, N=N, k=k)


class TestFourier:
    def test_constant(self, grid16):
        c = fourier_coefficients(grid16, np.ones(grid16.J))
        expect = np.zeros(4 * grid16.N + 1)
        expect[2 * grid16.N] = 1.0
        assert np.allclose(c, expect, atol=1e-14)

    def test_pure_mode(self, grid16):
        c = fourier_coefficients(grid16, np.exp(1j * grid16.x))
        assert abs(c[2 * grid16.N + 1] - 1.0) < 1e-14
        c[2 * grid16.N + 1] = 0.0
        assert np.max(np.abs(c)) < 1e-14

    def test_round_trip_band_limited(self, grid16):
        rng = np.random.default_rng(0)
        c = rng.normal(size=grid16.n_modes) + 1j * rng.normal(size=grid16.n_modes)
        back = fourier_coefficients(grid16, inverse_fourier(grid16, c))
        N = grid16.N
        assert np.max(np.abs(back[N:3 * N + 1] - c)) < 1e-12

    def test_matrix_samples(self):
        g = CircleGrid(J=68, N=16, k=2)
        samples = np.exp(1j * g.x)[:, None, None] * np.eye(2)
        c = fourier_coefficients(g, samples)
        assert np.allclose(c[2 * g.N + 1], np.eye(2), atol=1e-14)

    def test_sample_count_mismatch(self, grid16):
        with pytest.raises(ValueError):
            fourier_coefficients(grid16, np.ones(grid16.J + 2))


class TestOperatorNorm:
    def test_identity(self, grid16):
        eye = np.eye(grid16.dim, dtype=complex)
        assert operator_norm(eye) == pytest.approx(1.0)

    def test_diagonal(self, grid16):
        mat = np.zeros((grid16.dim, grid16.dim), dtype=complex)
        mat[0, 0], mat[1, 1], mat[2, 2] = 3.0, 1.0, 0.0
        assert operator_norm(mat) == pytest.approx(3.0)

    def test_against_power_iteration(self, grid16):
        X = random_operator(grid16, 1)
        assert operator_norm(X) == pytest.approx(power_iteration_norm(X), rel=1e-10)

    def test_submultiplicative_and_adjoint(self, grid16):
        for seed in range(5):
            X = random_operator(grid16, 10 + seed)
            Y = random_operator(grid16, 20 + seed)
            assert operator_norm(X @ Y) <= operator_norm(X) * operator_norm(Y) * (1 + 1e-12)
            assert operator_norm(X.conj().T) == pytest.approx(operator_norm(X), rel=1e-12)

    def test_nonfinite_rejected(self, grid16):
        # the norm is where a matrix becomes a printed number
        for bad in (complex(np.nan, 0.0), complex(np.inf, 0.0), complex(-np.inf, 0.0),
                    complex(0.0, np.nan), complex(0.0, np.inf), complex(0.0, -np.inf)):
            mat = np.zeros((grid16.dim, grid16.dim), dtype=complex)
            mat[3, 5] = bad
            with pytest.raises(ValueError, match="operator entries must be finite"):
                operator_norm(mat)


def svd_norm(mat):
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def random_matrix(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def clustered_matrix(rows, cols, seed, gap):
    """Random singular vectors with top singular values 1, 1 - gap, 1 - 2 gap,
    1 - 3 gap and the rest spread over [0, 0.5]."""
    rng = np.random.default_rng(seed)
    r = min(rows, cols)
    u, _ = np.linalg.qr(random_matrix(rows, r, seed))
    v, _ = np.linalg.qr(random_matrix(cols, r, seed + 1))
    svals = np.concatenate([1.0 - gap * np.arange(min(r, 4)),
                            np.sort(rng.uniform(0.0, 0.5, max(r - 4, 0)))[::-1]])
    return (u * svals) @ v.conj().T


@pytest.fixture
def svd_calls(monkeypatch):
    # counts the full SVDs operator_norm falls back to
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


class TestLanczosAgainstSVD:
    """The Lanczos norm engine against the full SVD as oracle."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_operators(self, grid64, seed, svd_calls):
        X = random_operator(grid64, 100 + seed)
        expect = svd_norm(X)
        svd_calls.clear()
        assert operator_norm(X) == pytest.approx(expect, rel=1e-12)
        assert svd_calls == []

    @pytest.mark.parametrize("t", [4.0, 16.0])
    def test_paired_top_singular_values(self, grid64, t):
        X = t_quantize(t0_symbol(), t, grid64)
        svals = np.linalg.svd(_dense(X), compute_uv=False)
        assert svals[1] / svals[0] > 0.999  # the top values come in a pair
        assert operator_norm(X) == pytest.approx(svals[0], rel=1e-12)

    @pytest.mark.parametrize("K", [0, 20, 50, 63])
    def test_tail_slices(self, grid64, K):
        X = random_operator(grid64, 7)
        mask = grid64.tail_mask(K)
        tall, wide = X[:, mask], X[mask, :]
        assert operator_norm(tall) == pytest.approx(svd_norm(tall), rel=1e-12)
        assert operator_norm(wide) == pytest.approx(svd_norm(wide), rel=1e-12)
        assert tail_norm(X, grid64, K) == pytest.approx(
            max(svd_norm(tall), svd_norm(wide)), rel=1e-12)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (1, 1), (7, 3), (3, 7), (65, 65)])
    def test_zero_and_empty_exactly_zero(self, shape, svd_calls):
        assert operator_norm(np.zeros(shape, dtype=complex)) == 0.0
        assert svd_calls == []

    def test_tiny_entries_take_svd(self, svd_calls):
        # A^H A underflows; the value must still be the SVD's, not 0
        mat = 1e-170 * random_matrix(6, 6, 3)
        assert operator_norm(mat) == svd_norm(mat)
        assert len(svd_calls) == 2

    def test_clustered_spectrum_falls_back_to_svd(self, svd_calls):
        # half the singular values within 1e-6 of the top one: no certificate
        # within the step cap, so the value is the SVD's
        n = numerics._LANCZOS_MAX_STEPS + 80
        svals = np.concatenate([1.0 - np.linspace(0.0, 1e-6, n // 2),
                                np.linspace(0.5, 0.0, n - n // 2)])
        mat = np.diag(svals).astype(complex)
        assert operator_norm(mat) == svd_norm(mat)
        assert len(svd_calls) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e160, 1e200, 1e300])
    def test_gram_overflow(self, scale, svd_calls):
        # from 1e150 on A^H A or the norm of A^H A v overflows, in the dense
        # apply and in the band apply of a table of half-width 2: the norm
        # then comes from the full SVD
        for op in (random_matrix(40, 40, 11), matrix_band(block_band_matrix(40, 1, 2, 11), 1, 2)):
            op = scale * op
            mat = op if op.ndim == 2 else _dense(op)
            expect = svd_norm(mat)
            svd_calls.clear()
            assert abs(operator_norm(op) - expect) <= 5e-14 * expect
            assert len(svd_calls) == (scale > 1.0)

    def test_deterministic(self, grid64):
        X = random_operator(grid64, 9)
        assert operator_norm(X) == operator_norm(X)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 64), cols=st.integers(1, 64),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-9, 1.0, 1e6]))
    def test_property_matches_svd(self, rows, cols, seed, scale):
        mat = scale * random_matrix(rows, cols, seed)
        assert operator_norm(mat) == pytest.approx(svd_norm(mat), rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(rows=st.integers(1, 64), cols=st.integers(1, 64),
           seed=st.integers(0, 2**32 - 2), scale=st.sampled_from([1e-9, 1.0, 1e6]),
           gap=st.sampled_from([None, 1e-3, 1e-6, 1e-9]))
    def test_property_certified_to_5e_14(self, rows, cols, seed, scale, gap):
        # the certified bound, on random matrices and on clustered top
        # singular values
        mat = scale * (random_matrix(rows, cols, seed) if gap is None
                       else clustered_matrix(rows, cols, seed, gap))
        expect = svd_norm(mat)
        assert abs(operator_norm(mat) - expect) <= 5e-14 * expect


class TestBandGram:
    """The Gram apply from the stacked diagonals of a band table, against
    the dense Gram Lanczos (``oracles.dense_gram_norm``) and the SVD."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 96), k=st.integers(1, 2), b=st.integers(0, 16),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-9, 1.0, 1e6]))
    def test_property_matches_the_dense_gram(self, n, k, b, seed, scale):
        # block half-widths from 0 to past the crossover, where the dense
        # apply takes over
        mat = scale * block_band_matrix(n, k, min(b, n - 1), seed)
        band = matrix_band(mat, k, min(b, n - 1))
        assert _flat_width(band) == min((min(b, n - 1) + 1) * k, n * k) - 1
        expect = svd_norm(mat)
        got = operator_norm(band)
        assert abs(got - dense_gram_norm(mat)) <= 5e-14 * expect
        assert abs(got - expect) <= 5e-14 * expect

    @pytest.mark.parametrize("k", [1, 2, 3])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 24), b=st.integers(0, 6), cut=st.integers(0, 20),
           seed=st.integers(0, 2**32 - 1))
    def test_sliced_diagonals_equal_the_gather(self, k, n, b, cut, seed):
        # entries past the flat offset ``cut`` are zeroed, so the flat
        # half-width h falls below (b + 1) k - 1 and even below b k; the
        # arrays agree bit for bit, signed zeros included
        b = min(b, n - 1)
        mat = block_band_matrix(n, k, b, seed)
        offset = np.arange(n * k)[None, :] - np.arange(n * k)[:, None]
        mat[np.abs(offset) > cut] = 0.0
        band = matrix_band(mat, k, b)
        h = _flat_width(band)
        for got, expect in zip(_flat_diagonals(band, h), gathered_diagonals(band, h)):
            assert got.shape == expect.shape == (n * k, 2 * h + 1)
            assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))

    @pytest.mark.parametrize("dim,h,band", [(513, 3, True), (513, 42, True), (513, 43, False),
                                            (65, 4, True), (65, 5, False), (1, 0, False)])
    def test_crossover(self, dim, h, band, monkeypatch):
        # the band apply runs iff numerics._BAND_GRAM_COST (2h + 1) < dim, with
        # the cost 6: up to h = 42 at dim 513 and h = 4 at dim 65
        calls = []
        monkeypatch.setattr(numerics, "_diagonal_gram",
                            lambda band, h: calls.append(h) or _diagonal_gram(band, h))
        mat = block_band_matrix(dim, 1, h, dim + h)
        expect = svd_norm(mat)
        got = operator_norm(matrix_band(mat, 1, min(h, dim - 1)))
        assert abs(got - dense_gram_norm(mat)) <= 5e-14 * expect
        assert abs(got - expect) <= 5e-14 * expect
        assert calls == ([h] if band else [])

    def test_zero_and_diagonal(self):
        for k in (1, 2):
            assert operator_norm(np.zeros((3, 64, k, k), dtype=complex)) == 0.0
        diag = np.diag(np.linspace(-3.0, 2.0, 64)).astype(complex)
        assert operator_norm(diag) == pytest.approx(3.0, rel=5e-14)
        assert operator_norm(matrix_band(diag, 1, 0)) == pytest.approx(3.0, rel=5e-14)


class TestHalfWidth:
    """The flat half-width reader of band tables (``bands._flat_width``) on
    the tables of planted matrices."""

    @pytest.mark.parametrize("dim", [1, 2, 7, 64])
    def test_single_entries(self, dim):
        for k in (1, 2) if dim % 2 == 0 else (1,):
            assert _flat_width(full_band(np.zeros((dim, dim), dtype=complex), k)) == 0
            for i, j in [(0, dim - 1), (dim - 1, 0), (dim // 2, dim // 3), (dim - 1, dim - 1)]:
                for value in (1.0, 1j, 5e-324, -5e-324j):
                    mat = np.zeros((dim, dim), dtype=complex)
                    mat[i, j] = value
                    assert _flat_width(full_band(mat, k)) == abs(i - j), (k, i, j, value)

    def test_signed_zeros_are_zero(self):
        # conjugating a zero leaves -0.0 in its imaginary part
        mat = np.conjugate(np.diag(np.ones(9, dtype=complex)))
        mat[0, 8] = mat[8, 0] = complex(-0.0, -0.0)
        assert _flat_width(full_band(mat, 1)) == 0

    def test_one_sided_and_any_layout(self):
        rng = np.random.default_rng(4)
        for lower, upper in [(0, 5), (5, 0), (2, 7), (9, 1)]:
            mat = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            offset = np.arange(12)[None, :] - np.arange(12)[:, None]
            mat[(offset > upper) | (offset < -lower)] = 0.0
            for form in (mat, mat.real.copy(), mat.T, mat[:, ::-1][:, ::-1]):
                expect = max(lower, upper)
                for k in (1, 2, 3):
                    assert _flat_width(full_band(form, k)) == expect


class TestRowBlocks:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 300), st.integers(1, 40))
    def test_near_equal_cover(self, n, size):
        blocks = row_blocks(n, size)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        rows = [hi - lo for lo, hi in blocks]
        assert max(rows) - min(rows) <= 1
        if n > 1:
            assert min(rows) >= 2
        if size >= 3 or n % 2 == 0:
            assert max(rows) <= max(size, 2)

    def test_examples(self):
        assert row_blocks(513, 32) == [(i * 513 // 17, (i + 1) * 513 // 17) for i in range(17)]
        assert row_blocks(5, 2) == [(0, 2), (2, 5)]
        assert row_blocks(1, 1) == [(0, 1)]
        assert row_blocks(0, 8) == [(0, 0)]


@pytest.mark.filterwarnings("error")
class TestHashedNormals:
    """The closed-form Gaussian start vectors of the Lanczos norm and the
    kernel frame; seeds up to 2**64 - 1 wrap without a warning."""

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_repeatable(self, seed):
        first = hashed_normals(513, seed)
        assert first.dtype == complex and first.shape == (513,)
        assert np.array_equal(first, hashed_normals(513, seed))

    def test_shape(self):
        frame = hashed_normals((33, 3), 0)
        assert frame.shape == (33, 3)
        assert np.array_equal(frame.ravel(), hashed_normals(99, 0))
        assert hashed_normals((0, 2), 0).shape == (0, 2)

    def test_seeds_differ(self):
        assert not np.any(hashed_normals(64, 0) == hashed_normals(64, 1))

    def test_moments(self):
        # 1e5 draws: means within about 4.5 standard errors of 0, variances
        # within 2 % of 1, real and imaginary parts uncorrelated
        g = hashed_normals(100_000, 0)
        for part in (g.real, g.imag):
            assert abs(np.mean(part)) < 0.015
            assert abs(np.var(part) - 1.0) < 0.02
        assert abs(np.mean(g.real * g.imag)) < 0.015
        assert np.all(np.isfinite(g))


class TestCompactTail:
    """The tail-norm oracle of the ideal-membership tests, against closed forms."""

    def test_finite_rank_corner(self, grid16):
        mat = np.zeros((grid16.dim, grid16.dim), dtype=complex)
        inner = np.abs(grid16.mode_of_index()) <= 5
        mat[np.ix_(inner, inner)] = 1.0
        assert tail_norm(mat, grid16, 5) == 0.0

    def test_identity(self, grid16):
        X = np.eye(grid16.dim, dtype=complex)
        for K in (0, 5, 10):
            assert tail_norm(X, grid16, K) == pytest.approx(1.0)

    def test_decaying_diagonal_formula(self, grid16):
        vals = 1.0 / (1.0 + np.abs(grid16.mode_of_index()))
        X = np.diag(vals.astype(complex))
        for K in (2, 5, 9):
            assert tail_norm(X, grid16, K) == pytest.approx(1.0 / (2.0 + K))

    def test_monotone_in_K(self, grid16):
        X = random_operator(grid16, 3)
        tails = [tail_norm(X, grid16, K) for K in range(0, grid16.N + 1)]
        assert all(b <= a + 1e-13 for a, b in zip(tails, tails[1:]))

    def test_cutoff_bound(self, grid16):
        with pytest.raises(ValueError):
            tail_norm(random_operator(grid16, 4), grid16, grid16.N + 1)


class TestRestrict:
    def test_corner(self, grid16):
        X = random_operator(grid16, 6)
        target = CircleGrid(J=grid16.J, N=8)
        sub = restrict_to(X, target)
        assert sub.shape == (target.dim, target.dim)
        keep = ~grid16.tail_mask(8)
        assert np.array_equal(sub, X[np.ix_(keep, keep)])
