"""Dense Fourier-mode linear algebra on the circle.

Functions live on the ``J``-point uniform grid ``x_j = 2*pi*j/J``; operators
act on the truncated mode range ``|n| <= N`` tensored with a ``k x k``
coefficient block.  Everything is dense complex128.  "Compact" has no literal
meaning at finite size, so it is replaced throughout by the decay of tail
norms against the mode-cutoff projections ``P_K``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CircleGrid",
    "FourierOperator",
    "fourier_coefficients",
    "inverse_fourier",
    "operator_norm",
    "compact_tail_norm",
    "svd_kernel_dim",
]


@dataclass(frozen=True)
class CircleGrid:
    """Sampling/truncation parameters for the circle model.

    J : number of spatial samples, J even and J >= 4N + 4 so that products
        of trigonometric polynomials up to degree 2N stay alias-free.
    N : frequency cutoff, operators act on modes |n| <= N.
    k : size of the matrix coefficient block.
    """

    J: int
    N: int
    k: int = 1

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"need N >= 1, got {self.N}")
        if self.k < 1:
            raise ValueError(f"need k >= 1, got {self.k}")
        if self.J % 2 != 0:
            raise ValueError(f"need J even, got {self.J}")
        if self.J < 4 * self.N + 4:
            raise ValueError(f"need J >= 4N + 4 = {4 * self.N + 4}, got {self.J}")

    @property
    def x(self):
        """Spatial sample points 2*pi*j/J."""
        return 2.0 * np.pi * np.arange(self.J) / self.J

    @property
    def modes(self):
        """Mode indices -N..N in ascending order."""
        return np.arange(-self.N, self.N + 1)

    @property
    def n_modes(self):
        return 2 * self.N + 1

    @property
    def dim(self):
        return self.n_modes * self.k

    def mode_of_index(self):
        """Mode index of every matrix row/column (length ``dim``)."""
        return np.repeat(self.modes, self.k)

    def tail_mask(self, K):
        """Boolean mask selecting rows/columns with |mode| > K."""
        if K > self.N:
            raise ValueError(f"cutoff K={K} exceeds N={self.N}")
        return np.abs(self.mode_of_index()) > K

    def with_cutoff(self, N2):
        """Same k, new frequency cutoff (J grows to keep the sampling rule)."""
        J2 = max(self.J, 4 * N2 + 4)
        if J2 % 2:
            J2 += 1
        return CircleGrid(J=J2, N=N2, k=self.k)


@dataclass(frozen=True)
class FourierOperator:
    """Dense operator on truncated Fourier modes tensored with k x k blocks.

    ``mat`` is indexed by (mode n, block row) x (mode m, block col) with the
    flat index (n + N) * k + alpha.
    """

    grid: CircleGrid
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = self.grid.dim
        if self.mat.shape != (d, d):
            raise ValueError(f"matrix shape {self.mat.shape} != ({d}, {d})")
        if not np.all(np.isfinite(self.mat.real)) or not np.all(np.isfinite(self.mat.imag)):
            raise ValueError("operator entries must be finite")

    # -- algebra ---------------------------------------------------------
    def __add__(self, other):
        self._check(other)
        return FourierOperator(self.grid, self.mat + other.mat)

    def __sub__(self, other):
        self._check(other)
        return FourierOperator(self.grid, self.mat - other.mat)

    def __matmul__(self, other):
        self._check(other)
        return FourierOperator(self.grid, self.mat @ other.mat)

    def __mul__(self, scalar):
        return FourierOperator(self.grid, self.mat * scalar)

    __rmul__ = __mul__

    def adjoint(self):
        return FourierOperator(self.grid, self.mat.conj().T)

    def apply(self, vec):
        return self.mat @ np.asarray(vec, dtype=complex)

    def norm(self):
        return operator_norm(self)

    def _check(self, other):
        if self.grid != other.grid:
            raise ValueError("operators live on different grids")

    # -- constructors / reshaping ----------------------------------------
    @staticmethod
    def identity(grid):
        return FourierOperator(grid, np.eye(grid.dim, dtype=complex))

    @staticmethod
    def zero(grid):
        return FourierOperator(grid, np.zeros((grid.dim, grid.dim), dtype=complex))


# -- sampling <-> coefficients -------------------------------------------


def fourier_coefficients(grid, samples, max_mode=None):
    """Fourier coefficients c(j), |j| <= max_mode (default N), of grid samples.

    ``samples`` holds J values (scalar or (J, k, k) matrix samples); the
    transform runs along axis 0 with the convention
    c(j) = (1/J) * sum_l samples[l] * exp(-i j x_l).
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.shape[0] != grid.J:
        raise ValueError(f"expected {grid.J} samples, got {samples.shape[0]}")
    max_mode = grid.N if max_mode is None else max_mode
    if max_mode > grid.J // 2 - 1:
        raise ValueError(f"mode {max_mode} not resolvable with J={grid.J}")
    spectrum = np.fft.fft(samples, axis=0) / grid.J
    idx = np.arange(-max_mode, max_mode + 1) % grid.J
    return spectrum[idx]


def inverse_fourier(grid, coeffs):
    """Evaluate sum_n c(n) e^{i n x} on the sample grid (exact inverse)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape[0] != grid.n_modes:
        raise ValueError(f"expected {grid.n_modes} coefficients")
    spectrum = np.zeros((grid.J,) + coeffs.shape[1:], dtype=complex)
    spectrum[grid.modes % grid.J] = coeffs
    return np.fft.ifft(spectrum, axis=0) * grid.J


# -- norms and rank ------------------------------------------------------


def _svdvals(mat):
    if mat.size == 0:
        return np.zeros(0)
    return np.linalg.svd(mat, compute_uv=False)


# Lanczos norm engine: certificate tolerance on the Ritz residual relative to
# the Ritz value, step cap before the SVD fallback, seed of the start vector,
# and the Gram-eigenvalue floor below which A^H A may have underflowed.
_LANCZOS_TOL = 1e-13
_LANCZOS_MAX_STEPS = 120
_LANCZOS_SEED = 0
_GRAM_FLOOR = 1e-250


def operator_norm(op):
    """Largest singular value (spectral norm), certified to 5e-14 relative.

    Lanczos with full reorthogonalization runs on the smaller Gram matrix,
    ``A^H A`` or ``A A^H``, applied as two matrix-vector products per step,
    from a complex Gaussian start vector with a fixed seed (so the result is
    byte-deterministic).  It stops when the Ritz residual ``beta_j * |y_j|``
    of the top Ritz value ``theta`` is at most ``1e-13 * theta``: some
    eigenvalue of the Gram matrix then lies within that distance of
    ``theta`` (Weyl), so ``sqrt(theta)`` is within 5e-14 relative of a
    singular value; Kuczynski & Wozniakowski (1992) bound the chance that
    a random start settles on a smaller one.  Exact zeros (empty
    matrices, or a breakdown with ``theta = 0`` on a zero matrix) return
    exactly ``0.0``.  If the certificate is not met within
    ``min(dim, 120)`` steps, or the Gram matrix may have underflowed, the
    value comes from the full ``np.linalg.svd`` instead.
    """
    mat = op.mat if isinstance(op, FourierOperator) else np.asarray(op)
    if mat.size == 0:
        return 0.0
    rows, cols = mat.shape
    if cols <= rows:
        dim = cols
        def gram(v):  # A^H (A v)
            return ((mat @ v).conj() @ mat).conj()
    else:
        dim = rows
        def gram(u):  # A (A^H u)
            return mat @ (u.conj() @ mat).conj()
    rng = np.random.default_rng(_LANCZOS_SEED)
    q = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    steps = min(dim, _LANCZOS_MAX_STEPS)
    basis = np.empty((steps, dim), dtype=complex)
    tri = np.zeros((steps, steps))
    for j in range(steps):
        basis[j] = q
        w = gram(q)
        span = basis[:j + 1]
        coef = span.conj() @ w
        w -= coef @ span
        coef2 = span.conj() @ w  # second pass: "twice is enough"
        w -= coef2 @ span
        tri[j, j] = (coef[j] + coef2[j]).real
        beta = np.linalg.norm(w)
        vals, vecs = np.linalg.eigh(tri[:j + 1, :j + 1])
        theta = vals[-1]
        if beta * abs(vecs[-1, -1]) <= _LANCZOS_TOL * theta:
            if theta >= _GRAM_FLOOR:
                return float(np.sqrt(theta))
            if not mat.any():
                return 0.0
            break
        if beta == 0.0 or j + 1 == steps:
            break
        tri[j, j + 1] = tri[j + 1, j] = beta
        q = w / beta
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def compact_tail_norm(op, K):
    """max(||X (I - P_K)||, ||(I - P_K) X||) with P_K the cutoff projection.

    Decay of this quantity as K grows is the finite-size surrogate for
    membership of X in the compact ideal.
    """
    mask = op.grid.tail_mask(K)
    col = operator_norm(op.mat[:, mask])
    row = operator_norm(op.mat[mask, :])
    return max(col, row)


def svd_kernel_dim(op, eps):
    """Number of singular values below eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    mat = op.mat if isinstance(op, FourierOperator) else np.asarray(op)
    return int(np.count_nonzero(_svdvals(mat) < eps))
