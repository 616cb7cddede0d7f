"""Dense Fourier-mode linear algebra on the circle.

Functions live on the ``J``-point uniform grid ``x_j = 2*pi*j/J``; operators
act on the truncated mode range ``|n| <= N`` tensored with a ``k x k``
coefficient block.  Everything is dense complex128: an operator is a plain
``(dim, dim)`` array indexed by (mode n, block row) x (mode m, block col) with
the flat index (n + N) * k + alpha.  "Compact" has no literal
meaning at finite size, so it is replaced throughout by the decay of tail
norms against the mode-cutoff projections ``P_K``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CircleGrid",
    "fourier_coefficients",
    "hashed_normals",
    "operator_norm",
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


# -- sampling -> coefficients -------------------------------------------


def fourier_coefficients(grid, samples):
    """Fourier coefficients c(j), |j| <= 2N, of grid samples.

    ``samples`` holds J values (scalar or (J, k, k) matrix samples); the
    transform runs along axis 0 with the convention
    c(j) = (1/J) * sum_l samples[l] * exp(-i j x_l).  J >= 4N + 4 resolves
    every mode up to 2N, the range of c(n - m) for |n|, |m| <= N.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.shape[0] != grid.J:
        raise ValueError(f"expected {grid.J} samples, got {samples.shape[0]}")
    idx = np.arange(-2 * grid.N, 2 * grid.N + 1) % grid.J
    coeffs = np.fft.fft(samples, axis=0)[idx]
    coeffs /= grid.J
    return coeffs


# -- start vectors -------------------------------------------------------

_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def hashed_normals(shape, seed):
    """Complex array of the given shape with standard Gaussian real and
    imaginary parts, a closed-form function of ``shape`` and ``seed``.

    For n entries the words w_i = (i + seed (4n + 1)) * 0x9E3779B97F4A7C15,
    1 <= i <= 4n, go through the SplitMix64 finalizer in wrapping uint64
    arithmetic, so that seed 0 gives the first 4n outputs of SplitMix64
    from the state 0 (the word 0, a fixed point of the finalizer, is never
    used) and distinct seeds draw disjoint words.  The top 53 bits of each
    give a uniform u_i = ((z_i >> 11) + 1/2) 2^-53 in (0, 1), and
    Box-Muller turns the pairs (u_i, u_{2n + i}), 1 <= i <= 2n, into the
    normals sqrt(-2 ln u_i) cos(2 pi u_{2n + i}).  The first n normals are
    the real parts, the next n the imaginary parts.
    """
    n = int(np.prod(shape, dtype=np.int64))
    # the seed enters as an array, so its product wraps instead of warning
    base = np.array([seed], dtype=np.uint64) * np.uint64(4 * n + 1)
    z = (np.arange(1, 4 * n + 1, dtype=np.uint64) + base) * _GOLDEN_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z ^= z >> np.uint64(31)
    u = ((z >> np.uint64(11)).astype(float) + 0.5) * 2.0 ** -53
    g = np.sqrt(-2.0 * np.log(u[:2 * n])) * np.cos(2.0 * np.pi * u[2 * n:])
    return (g[:n] + 1j * g[n:]).reshape(shape)


# -- norms ---------------------------------------------------------------


def check_finite(values):
    """Raise unless every entry is finite (run by _assemble and operator_norm)."""
    if not np.isfinite(values).all():
        raise ValueError("operator entries must be finite")


# Lanczos norm engine: certificate tolerance on the Ritz residual relative to
# the Ritz value, step cap before the SVD fallback, seed of the start vector
# (``hashed_normals``), and the Gram-eigenvalue floor below which A^H A may
# have underflowed.
_LANCZOS_TOL = 1e-13
_LANCZOS_MAX_STEPS = 120
_LANCZOS_SEED = 0
_GRAM_FLOOR = 1e-250


def operator_norm(mat):
    """Largest singular value (spectral norm), certified to 5e-14 relative;
    non-finite entries raise ``ValueError``.

    Lanczos with full reorthogonalization runs on the Gram matrix ``A^H A``
    (pass a wide matrix as its adjoint to get the smaller one), applied as
    two matrix-vector products per step, from the complex Gaussian start
    vector ``hashed_normals(dim, _LANCZOS_SEED)``, a closed-form hash of the
    entry index (so the result is byte-deterministic, and no random number
    generator is loaded).  It stops when the Ritz residual ``beta_j * |y_j|``
    of the top Ritz value ``theta`` is at most ``1e-13 * theta``: some
    eigenvalue of the Gram matrix then lies within that distance of
    ``theta`` (Weyl), so ``sqrt(theta)`` is within 5e-14 relative of a
    singular value; Kuczynski & Wozniakowski (1992) bound the chance that
    a random start settles on a smaller one, which needs only a start
    chosen without looking at the matrix.  Exact zeros (empty
    matrices, or a breakdown with ``theta = 0`` on a zero matrix) return
    exactly ``0.0``.  If the certificate is not met within
    ``min(dim, 120)`` steps, or the Gram matrix may have underflowed, the
    value comes from the full ``np.linalg.svd`` instead, and so it does if
    the Gram matrix overflows (a step's diagonal entry or beta is not
    finite); LAPACK scales a matrix with huge entries itself.
    """
    mat = np.asarray(mat)
    check_finite(mat)
    if mat.size == 0:
        return 0.0
    dim = mat.shape[1]

    def gram(v):  # A^H (A v)
        return ((mat @ v).conj() @ mat).conj()

    q = hashed_normals(dim, _LANCZOS_SEED)
    q /= np.linalg.norm(q)
    steps = min(dim, _LANCZOS_MAX_STEPS)
    basis = np.empty((steps, dim), dtype=complex)
    conj_basis = np.empty((steps, dim), dtype=complex)  # each row conjugated once
    tri = np.zeros((steps, steps))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(steps):
            basis[j] = q
            np.conjugate(q, out=conj_basis[j])
            w = gram(q)
            span, conj_span = basis[:j + 1], conj_basis[:j + 1]
            coef = conj_span @ w
            w -= coef @ span
            coef2 = conj_span @ w  # second pass: "twice is enough"
            w -= coef2 @ span
            tri[j, j] = (coef[j] + coef2[j]).real
            beta = np.linalg.norm(w)
            if not (np.isfinite(beta) and np.isfinite(tri[j, j])):
                break
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
