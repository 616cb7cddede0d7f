import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import inverse_fourier, tail_norm
from psilab import numerics
from psilab.numerics import CircleGrid, fourier_coefficients, operator_norm
from psilab.presets import t0_symbol
from psilab.quantize import restrict_to, t_quantize


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
        svals = np.linalg.svd(X, compute_uv=False)
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

    def test_deterministic(self, grid64):
        X = random_operator(grid64, 9)
        assert operator_norm(X) == operator_norm(X)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 64), cols=st.integers(1, 64),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-9, 1.0, 1e6]))
    def test_property_matches_svd(self, rows, cols, seed, scale):
        mat = scale * random_matrix(rows, cols, seed)
        assert operator_norm(mat) == pytest.approx(svd_norm(mat), rel=1e-12)


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
