"""Quantization of symbols into dense Fourier-mode operators.

Three assembly rules, all Kohn-Nirenberg ordered (frequency multiplier
first, then the x-dependence):

* ``t_quantize``     -- rescaled family: mode m is multiplied by a(x, m/t)
                        and re-expanded, so entry (n, m) is the x-Fourier
                        coefficient of a(., m/t) at frequency n - m.
* ``op_quantize``    -- order-zero operator of a homogeneous symbol with a
                        cutting function: entry (n, m) is
                        a_hat_{sign m}(n - m) * theta(|m|).
* ``multiplication_operator`` -- pi(c): plain convolution by the loop c.

Chart-local assembly sums windowed quantizations against a partition of
unity on two arcs.  Arcs of the circle carry the global angle coordinate,
so chart-local quantization on the mode lattice coincides with windowed
global assembly; products are formed on an enlarged mode range and only
their corner on the target range is kept, which keeps corner entries free of
truncation artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import CircleGrid, check_finite
from .partition import smooth_step
from .symbols import HomogeneousSymbol, Loop, Symbol

__all__ = [
    "Atlas",
    "corner_product",
    "t_quantize",
    "t_quantize_charts",
    "op_quantize",
    "op_terms",
    "multiplication_operator",
    "padded_grid",
    "restrict_to",
]


# -- low-level assembly ----------------------------------------------------


def _check_block(block_shape, k):
    if tuple(block_shape) != (k, k):
        raise ValueError(f"coefficient block {tuple(block_shape)} differs from the "
                         f"grid block size k={k}")


def _assemble(grid, terms):
    """Operator with entries sum c(n - m) * w(m) over (coeffs, weights) terms.

    ``coeffs`` holds c(j), |j| <= 2N, with shape (4N+1, k, k); ``weights``
    holds one value per column mode; a non-finite value in either raises
    ``ValueError``.  The first term is written straight
    into an uninitialized (n, k, n, k) table through a strided Toeplitz
    view of its coefficients and later terms are added in place, so every
    entry is written once per term and the table reshapes to the flat
    (dim, dim) matrix without a copy.  No terms give the zero operator.
    """
    n, k = grid.n_modes, grid.k
    table = None
    for coeffs, weights in terms:
        _check_block(coeffs.shape[1:], k)
        check_finite(coeffs)
        check_finite(weights)
        # window[r, :, :, l] = c(r + l - 2N); reversing l gives c(r - m)
        toeplitz = sliding_window_view(coeffs, n, axis=0)[..., ::-1].transpose(0, 1, 3, 2)
        weighted = weights[None, None, :, None]
        if table is None:
            table = np.multiply(toeplitz, weighted,
                                out=np.empty((n, k, n, k), dtype=complex))
        else:
            table += toeplitz * weighted
    if table is None:
        return np.zeros((grid.dim, grid.dim), dtype=complex)
    return table.reshape(grid.dim, grid.dim)


def padded_grid(grid, pad):
    """Same sampling density, mode range enlarged by ``pad`` on both sides."""
    return CircleGrid(J=grid.J + 4 * pad, N=grid.N + pad, k=grid.k)


def _corner(size, grid):
    """Flat index range of the modes |n| <= grid.N on a matrix of side
    ``size = (2N' + 1) k`` over modes |n| <= N', with the grid's block size k."""
    if size % (2 * grid.k) != grid.k:
        raise ValueError("block sizes differ")
    if size < grid.dim:
        raise ValueError("target cutoff exceeds the source cutoff")
    start = (size - grid.dim) // 2
    return slice(start, start + grid.dim)


def restrict_to(op, grid):
    """Corner compression of an operator onto a coarser target grid."""
    keep = _corner(op.shape[0], grid)
    return op[keep, keep].copy()


def corner_product(left, right, grid):
    """The product left right restricted to ``grid``, summed over the live
    columns of ``left``.

    Only the kept corner is computed, and only over the column range
    [lo, hi) outside which ``left`` is identically zero: a symbol with
    compact frequency support leaves the columns |m| >= t * hi of T_t(a)
    zero.  Entries are finite, so the dropped terms are exact zeros and the
    result differs from the full product by summation order only.
    """
    if left.shape != right.shape:
        raise ValueError("operators live on different grids")
    keep = _corner(left.shape[0], grid)
    live = np.flatnonzero(left.any(axis=0))
    if live.size == 0:
        return np.zeros((grid.dim, grid.dim), dtype=complex)
    lo, hi = live[0], live[-1] + 1
    return left[keep, lo:hi] @ right[lo:hi, keep]


# -- the rescaled family -----------------------------------------------------


def t_quantize(a, t, grid):
    """Operator of the rescaled symbol a(x, xi/t) on the mode lattice.

    Linear in the symbol; for a separable term c(x) rho(xi) M the entry
    (n, m) is exactly c_hat(n - m) * rho(m / t) * M.
    """
    if t <= 0:
        raise ValueError("need t > 0")
    if not isinstance(a, Symbol):
        raise TypeError("t_quantize expects a separable Symbol")
    freqs = grid.modes / t
    return _assemble(grid, ((loop.coefficients(grid),
                             np.asarray(prof(freqs), dtype=complex))
                            for loop, prof in a.terms))


# -- order-zero quantization -------------------------------------------------


def op_quantize(a, theta, grid):
    """Order-zero operator of a homogeneous symbol with cutting function.

    Column m is weighted by theta(|m|) and uses the loop of the matching
    half-axis; theta(0) = 0 makes the m = 0 column vanish, so the branch
    convention there is immaterial.
    """
    if not isinstance(a, HomogeneousSymbol):
        raise TypeError("op_quantize expects a HomogeneousSymbol")
    return _assemble(grid, op_terms(a, theta, grid))


def op_terms(a, theta, grid):
    """The (coeffs, weights) terms that ``op_quantize`` assembles: the
    coefficients c(j), |j| <= 2N, of each branch with the cutting weights
    theta(|m|) on the columns of its half-axis and zero on the others."""
    modes = grid.modes
    w = np.asarray(theta(np.abs(modes)), dtype=complex)
    return [
        (a.plus.coefficients(grid), np.where(modes >= 0, w, 0.0)),
        (a.minus.coefficients(grid), np.where(modes < 0, w, 0.0)),
    ]


def multiplication_operator(c, grid):
    """pi(c): multiplication by a loop, entries c_hat(n - m).

    A declared trigonometric degree above N would alias: rejected.  Loops
    without a declared degree (smooth windows) are accepted; their
    coefficients must decay inside the band, which the construction of the
    window vocabulary guarantees.
    """
    if not isinstance(c, Loop):
        raise TypeError("multiplication_operator expects a Loop")
    if c.degree is not None and c.degree > grid.N:
        raise ValueError(f"loop degree {c.degree} exceeds the cutoff N={grid.N}")
    unit = np.ones(grid.n_modes, dtype=complex)
    return _assemble(grid, [(c.coefficients(grid), unit)])


# -- charts ------------------------------------------------------------------

#: modes added on both sides of the range on which chart products are formed
CHART_PAD = 64


def _wrap(x):
    return (np.asarray(x, dtype=float) + np.pi) % (2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class Atlas:
    """Two-chart partition of unity on the circle.

    ``phis`` sum to one, ``psis`` are plateau windows with psi_k = 1 on the
    support of phi_k (with a positive margin); ``validate`` checks both on
    the grid.  Windows are plain callables of the angle.
    """

    phis: tuple
    psis: tuple

    def validate(self, grid):
        """Check the window identities on the grid points to 1e-13."""
        tol = 1e-13
        x = grid.x
        total = sum(np.asarray(phi(x), dtype=float) for phi in self.phis)
        if np.max(np.abs(total - 1.0)) > tol:
            raise ValueError("chart windows do not sum to one")
        for phi, psi in zip(self.phis, self.psis):
            pv = np.asarray(phi(x), dtype=float)
            sv = np.asarray(psi(x), dtype=float)
            if np.min(pv) < -tol:
                raise ValueError("phi windows must be nonnegative")
            if np.max(np.abs(sv * pv - pv)) > tol:
                raise ValueError("psi must equal one on the support of phi")
        return True

    @staticmethod
    def default_two_charts():
        """Two arcs of length 3*pi/2 centered at angle 0 and pi."""
        d_phi, rise = 5.0 * np.pi / 8.0, 3.0 * np.pi / 8.0
        plateau, support = 21.0 * np.pi / 32.0, 11.0 * np.pi / 16.0

        def bump(center):
            def fn(x):
                r = np.abs(_wrap(np.asarray(x, dtype=float) - center))
                return smooth_step((d_phi - r) / rise)
            return fn

        b1, b2 = bump(0.0), bump(np.pi)

        def phi1(x):
            v1, v2 = b1(x), b2(x)
            return v1 / (v1 + v2)

        def phi2(x):
            v1, v2 = b1(x), b2(x)
            return v2 / (v1 + v2)

        def window(center):
            def fn(x):
                r = np.abs(_wrap(np.asarray(x, dtype=float) - center))
                return smooth_step((support - r) / (support - plateau))
            return fn

        return Atlas((phi1, phi2), (window(0.0), window(np.pi)))


def _windowed(a, window):
    """Multiply the x-part of every term of a separable symbol by a window."""
    terms = []
    for loop, prof in a.terms:
        def fn(x, _loop=loop, _w=window):
            return np.asarray(_w(x))[..., None, None] * np.asarray(_loop.fn(x))
        terms.append((Loop(fn, loop.k, None), prof))
    return Symbol(tuple(terms), a.k, a.tag)


def _scalar_multiplier(window, grid):
    """Multiplication operator of a scalar window (identity coefficient block)."""
    loop = Loop(lambda x, _w=window: np.asarray(_w(x))[..., None, None]
                * np.eye(grid.k)[None, :, :], grid.k, None)
    return multiplication_operator(loop, grid)


def t_quantize_charts(a, t, atlas, grid):
    """Chart-by-chart quantization f -> sum_k T_t(psi_k a)(phi_k f).

    Each chart term is the windowed quantization composed with
    multiplication by phi_k.  Both factors are assembled on a mode range
    enlarged by CHART_PAD, and ``corner_product`` forms only the corner on
    ``grid``, summed over the modes where the windowed quantization is
    nonzero, so the returned operator agrees with the untruncated product
    up to window-coefficient decay.
    """
    if t <= 0:
        raise ValueError("need t > 0")
    atlas.validate(grid)
    big = padded_grid(grid, CHART_PAD)
    products = (corner_product(t_quantize(_windowed(a, psi), t, big),
                               _scalar_multiplier(phi, big), grid)
                for phi, psi in zip(atlas.phis, atlas.psis))
    total = next(products)
    for product in products:
        total += product
    return total
