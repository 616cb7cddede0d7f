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

Every rule is linear in the Fourier coefficient tables of its loops, which
do not depend on t.  Each loop keeps its own (``Loop.table``), so a sweep
that holds its symbols across t evaluates and assembles only the column
weights per t, into work arrays that it allocates once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import CircleGrid, check_finite, row_blocks
from .partition import smooth_step
from .symbols import HomogeneousSymbol, Loop, Symbol

__all__ = [
    "Atlas",
    "chart_pieces",
    "corner_product",
    "t_quantize",
    "t_quantize_charts",
    "op_quantize",
    "op_terms",
    "multiplication_operator",
    "padded_grid",
]


# -- low-level assembly ----------------------------------------------------

#: most mode rows per block of the scratch through which later terms are added
_BLOCK_ROWS = 32


def _check_block(block_shape, k):
    if tuple(block_shape) != (k, k):
        raise ValueError(f"coefficient block {tuple(block_shape)} differs from the "
                         f"grid block size k={k}")


def _leading(out, shape):
    """The leading entries of the C-contiguous array ``out`` as an array of
    ``shape`` (a new uninitialized one when ``out`` is None)."""
    if out is None:
        return np.empty(shape, dtype=complex)
    size = int(np.prod(shape))
    if not out.flags.c_contiguous or out.size < size or out.dtype != complex:
        raise ValueError(f"output buffer cannot hold a complex block of shape {shape}")
    return out.reshape(-1)[:size].reshape(shape)


def _assemble(grid, terms, out=None, rows=slice(None), cols=slice(None)):
    """Block [rows, cols] of the operator with entries sum c(n - m) * w(m)
    over (coeffs, weights) terms.

    ``coeffs`` holds c(j), |j| <= 2N, with shape (4N+1, k, k); ``weights``
    holds one value per column mode; a non-finite weight raises
    ``ValueError`` (``Loop.table`` checks the coefficients).  ``rows`` and
    ``cols`` are slices of the mode indices 0..2N, the whole range by
    default.  The block is written into the
    leading entries of ``out`` when given (any C-contiguous complex array at
    least that large, so one work array serves blocks of every size).  The
    first term is written straight into an (rows, k, cols, k) view of it
    through a strided Toeplitz view of its coefficients, and later terms are
    formed a few rows at a time in a small scratch and added in place, so
    every entry is written once per term, no full-size temporary is made and
    the table is the flat (rows k, cols k) matrix without a copy.  No terms
    give the zero block.
    """
    n, k = grid.n_modes, grid.k
    rows, cols = range(n)[rows], range(n)[cols]
    table = _leading(out, (len(rows), k, len(cols), k))
    blocks, scratch, first = row_blocks(len(rows), _BLOCK_ROWS), None, True
    for coeffs, weights in terms:
        _check_block(coeffs.shape[1:], k)
        check_finite(weights)
        # window[r, :, :, l] = c(r + l - 2N); reversing l gives c(r - m)
        toeplitz = sliding_window_view(coeffs, n, axis=0)[..., ::-1].transpose(0, 1, 3, 2)
        toeplitz = toeplitz[rows.start:rows.stop, :, cols.start:cols.stop]
        weighted = weights[None, None, cols.start:cols.stop, None]
        if first:
            np.multiply(toeplitz, weighted, out=table)
            first = False
            continue
        if scratch is None:
            scratch = np.empty((max(hi - lo for lo, hi in blocks), k, len(cols), k),
                               dtype=complex)
        for lo, hi in blocks:
            table[lo:hi] += np.multiply(toeplitz[lo:hi], weighted, out=scratch[:hi - lo])
    if first:
        table.fill(0.0)
    return table.reshape(len(rows) * k, len(cols) * k)


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


def corner_product(left, right, grid, out=None, add=False):
    """The product left R restricted to ``grid``, summed over the live
    columns of ``left``; written into the leading entries of ``out`` (see
    ``_assemble``), or added to ``out`` with ``add``.

    ``left`` is a square operator on a mode range around ``grid``'s, and
    ``right(rows)`` returns the rows of R for a slice ``rows`` of its mode
    indices on the columns of ``grid``'s range, as a (len(rows) k, dim)
    array.  Only the kept corner is computed, and only over the column range
    [lo, hi) outside which ``left`` is identically zero: a symbol with
    compact frequency support leaves the columns |m| >= t * hi of T_t(a)
    zero, and only the rows of R that meet [lo, hi) are built.  Entries are
    finite, so the dropped terms are exact zeros and the result differs from
    the full product by summation order only.  An added product is formed a
    few rows at a time in a small scratch.
    """
    keep, k = _corner(left.shape[0], grid), grid.k
    out = _leading(out, (grid.dim, grid.dim))
    live = np.flatnonzero(left.any(axis=0))
    if live.size == 0:
        if not add:
            out.fill(0.0)
        return out
    lo, hi = live[0], live[-1] + 1
    first, stop = lo // k, -(-hi // k)
    block = right(slice(first, stop))
    if block.shape != ((stop - first) * k, grid.dim):
        raise ValueError("operators live on different grids")
    block = block[lo - first * k:hi - first * k]
    kept = left[keep, lo:hi]
    if not add:
        return np.matmul(kept, block, out=out)
    blocks = row_blocks(grid.dim, _BLOCK_ROWS)
    scratch = np.empty((max(b - a for a, b in blocks), grid.dim), dtype=complex)
    for a, b in blocks:
        out[a:b] += np.matmul(kept[a:b], block, out=scratch[:b - a])
    return out


# -- the rescaled family -----------------------------------------------------


def t_quantize(a, t, grid, out=None, rows=slice(None), cols=slice(None)):
    """Operator of the rescaled symbol a(x, xi/t) on the mode lattice.

    Linear in the symbol; for a separable term c(x) rho(xi) M the entry
    (n, m) is exactly c_hat(n - m) * rho(m / t) * M.  Only the column
    weights rho(m / t) depend on t; the loops' tables are their
    ``Loop.table``.  ``out``, ``rows`` and ``cols`` select a block and its
    buffer as for ``_assemble``.
    """
    if t <= 0:
        raise ValueError("need t > 0")
    if not isinstance(a, Symbol):
        raise TypeError("t_quantize expects a separable Symbol")
    freqs = grid.modes / t
    return _assemble(grid, ((loop.table(grid), np.asarray(prof(freqs), dtype=complex))
                            for loop, prof in a.terms),
                     out, rows, cols)


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
    ``Loop.table`` c(j), |j| <= 2N, of each branch with the cutting weights
    theta(|m|) on the columns of its half-axis and zero on the others."""
    plus, minus = a.plus.table(grid), a.minus.table(grid)
    modes = grid.modes
    w = np.asarray(theta(np.abs(modes)), dtype=complex)
    return [(plus, np.where(modes >= 0, w, 0.0)), (minus, np.where(modes < 0, w, 0.0))]


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
    return _assemble(grid, [(c.table(grid), np.ones(grid.n_modes, dtype=complex))])


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


def _scalar_window(window, k):
    """A scalar window of the angle as a loop with identity k x k blocks."""
    return Loop(lambda x: np.asarray(window(x))[..., None, None] * np.eye(k)[None, :, :],
                k, None)


def chart_pieces(a, atlas, grid):
    """What ``t_quantize_charts`` uses that does not depend on t, after
    checking the atlas on ``grid``: per chart, the windowed symbol psi_k a
    and the loop of phi_k.  Held across t, these loops keep their tables on
    the mode range enlarged by CHART_PAD (``Loop.table``)."""
    atlas.validate(grid)
    return [(_windowed(a, psi), _scalar_window(phi, grid.k))
            for phi, psi in zip(atlas.phis, atlas.psis)]


def t_quantize_charts(a, t, atlas, grid, pieces=None, out=None, work=None):
    """Chart-by-chart quantization f -> sum_k T_t(psi_k a)(phi_k f).

    Each chart term is the windowed quantization composed with
    multiplication by phi_k, both on a mode range enlarged by CHART_PAD.
    ``corner_product`` forms only the corner on ``grid``, summed over the
    modes where the windowed quantization is nonzero, and builds only the
    rows of the multiplier that meet them, so the returned operator agrees
    with the untruncated product up to window-coefficient decay.

    ``pieces`` (``chart_pieces``) are taken here when not given.  ``work``
    is a pair of C-contiguous complex arrays of at least D^2 and D dim
    entries, D the enlarged dimension, for the windowed quantization and the
    rows of the multiplier; the result goes to the leading entries of
    ``out``.  Both are allocated here when not given.
    """
    if t <= 0:
        raise ValueError("need t > 0")
    if pieces is None:
        pieces = chart_pieces(a, atlas, grid)
    big = padded_grid(grid, CHART_PAD)
    left, right = (None, None) if work is None else work
    unit = np.ones(big.n_modes, dtype=complex)
    inner = slice(CHART_PAD, CHART_PAD + grid.n_modes)
    for i, (sym, phi) in enumerate(pieces):
        windowed = t_quantize(sym, t, big, out=left)
        out = corner_product(windowed,
                             lambda rows: _assemble(big, [(phi.table(big), unit)], right,
                                                    rows, inner),
                             grid, out, add=i > 0)
    return out
