"""Band tables of block operators and the kernels that work on them.

A band table of half-width b holds the blocks of an operator on n modes
with k x k blocks: T[b + l, m] is the block (m + l, m), |l| <= b, zero
where the row m + l leaves the modes.  The index routes build their bands
(``index_theory._fredholm_bands``, ``index_theory._band_table``) and count
on them with the kernels here: the product with a vector, the Gram band,
and a block LDL^H by odd-even cyclic reduction with its solve.  The norm
sweeps hold every operator whose loops carry exact coefficients as a band
table (``quantize.t_quantize``, ``op_quantize``, ``multiplication_operator``)
and form its products, adjoints and differences here; the norm engine
(``numerics.operator_norm``) applies the Gram of a table from its stacked
flat diagonals, and ``_dense`` expands a table where a dense matrix is
needed.

The kernels are package-internal; the modules that use them import them
by name.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__: list[str] = []

#: a pivot block of the band LDL^H with an eigenvalue below this in modulus
#: sends the count to the dense eigenvalue solve
_PIVOT_FLOOR = 1e-8


def _adjoint(a):
    """Conjugate transpose of the trailing two axes."""
    return a.conj().swapaxes(-1, -2)


def _gram_band(band):
    """The band table of Z^H Z, half-width 2b, from the band table of Z
    (``index_theory._fredholm_bands``): block (m + p, m) is
    sum_l T[b + l - p, m + p]^H T[b + l, m] over |l|, |l - p| <= b.  The
    blocks below the diagonal are summed and those above are their
    adjoints."""
    w, n, k = band.shape[:3]
    b = w // 2
    gram = np.zeros((4 * b + 1, n, k, k), dtype=complex)
    adj = _adjoint(band)
    for p in range(w):
        gram[2 * b + p, :n - p] = np.einsum("lmij,lmjk->mik", adj[:w - p, p:], band[p:, :n - p])
        if p:
            gram[2 * b - p, p:] = _adjoint(gram[2 * b + p, :n - p])
    return gram


def _band_apply(band, v):
    """Z_b v for the band table of Z and v of shape (n, k, c): the rows
    -b .. n + b - 1 of the product, shape (n + 2b, k, c)."""
    w, n = band.shape[:2]
    out = np.zeros((n + w - 1,) + v.shape[1:], dtype=complex)
    for l in range(w):
        out[l:l + n] += band[l] @ v
    return out


def _dense(band):
    """The dense (n k, n k) matrix of a band table."""
    w, n, k = band.shape[:3]
    b = w // 2
    mat = np.zeros((n, k, n, k), dtype=complex)
    for l in range(max(-b, 1 - n), min(b, n - 1) + 1):
        m = np.arange(max(0, -l), min(n, n - l))
        mat[m + l, :, m, :] = band[b + l, m]
    return mat.reshape(n * k, n * k)


def _subtract_dense(mat, band):
    """mat -= the dense matrix of a band table, in place on the table's
    diagonals only: off them the dense matrix is zero, and x - 0 is x bit
    for bit, so the result equals ``mat - _dense(band)``."""
    w, n, k = band.shape[:3]
    b = w // 2
    blocks = mat.reshape(n, k, n, k)
    for l in range(max(-b, 1 - n), min(b, n - 1) + 1):
        m = np.arange(max(0, -l), min(n, n - l))
        blocks[m + l, :, m, :] -= band[b + l, m]
    return mat


def _widen(band, b):
    """The band table of half-width b >= its own with the same operator."""
    w = band.shape[0]
    if w == 2 * b + 1:
        return band
    out = np.zeros((2 * b + 1,) + band.shape[1:], dtype=complex)
    out[b - w // 2:b + w // 2 + 1] = band
    return out


def _band_diff(x, y):
    """X - Y for band tables of the same modes, of the larger half-width;
    each entry is the difference of the two operators' entries."""
    b = max(len(x), len(y)) // 2
    return _widen(x, b) - _widen(y, b)


def _band_adjoint(band):
    """The band table of Z^H: block (m + l, m) is the adjoint of the block
    (m, m + l) of Z, which sits at offset -l of column m + l."""
    w, n = band.shape[:2]
    b = w // 2
    out = np.zeros_like(band)
    for l in range(max(-b, 1 - n), min(b, n - 1) + 1):
        lo, hi = max(0, -l), min(n, n - l)
        out[b + l, lo:hi] = _adjoint(band[b - l, lo + l:hi + l])
    return out


def _band_product(x, y):
    """The band table of X Y, half-width bx + by, from those of X and Y on
    the same modes: block (m + l, m) is the sum over every intermediate mode
    j = m + q of X[bx + l - q, j] Y[by + q, m], q ascending, over the modes
    where both tables are nonzero; the operator is the product of the two
    truncations to the modes."""
    wx, n = x.shape[:2]
    wy = len(y)
    bx, by = wx // 2, wy // 2
    out = np.zeros((wx + wy - 1,) + x.shape[1:], dtype=complex)
    for q in range(max(-by, 1 - n), min(by, n - 1) + 1):
        lo, hi = max(0, -q), min(n, n - q)
        right = y[by + q, lo:hi]
        for p in range(wx):
            # X's offset p - bx, so the product's offset is p - bx + q
            out[p + q + by, lo:hi] += x[p, lo + q:hi + q] @ right
    return out


def _crop(band, pad):
    """The band table of the corner of an operator on the modes inside
    ``pad`` modes on each side: its columns there, zero where the row leaves
    them."""
    w, n = band.shape[:2]
    b, inner = w // 2, n - 2 * pad
    out = band[:, pad:pad + inner].copy()
    for l in range(1, b + 1):
        out[b + l, max(0, inner - l):] = 0.0
        out[b - l, :min(inner, l)] = 0.0
    return out


def _flat_width(band):
    """Largest |i - j| over the nonzero entries (i, j) of the flat matrix of
    a band table, 0 for the zero table: an entry (a, c) of the block at
    offset l sits at i - j = l k + a - c."""
    w, n, k = band.shape[:3]
    live = np.any(band != 0, axis=1)
    if not live.any():
        return 0
    l, a, c = np.nonzero(live)
    return int(np.max(np.abs((l - w // 2) * k + a - c)))


def _flat_diagonals(band, h):
    """The stacked flat diagonals of the matrix A of a band table of flat
    half-width h (``_flat_width``): rows[i, h + l] = A[i, i + l] and
    cols[j, h + l] = conj(A[j + l, j]), zero where the index leaves the
    matrix.

    The entry (a, c) of the blocks at offset o sits on the flat diagonal
    l = c - a - o k, so each (offset, block entry) pair within h is one
    strided slice copy into each array."""
    w, n, k = band.shape[:3]
    b, dim = w // 2, n * k
    rows = np.zeros((dim, 2 * h + 1), dtype=complex)
    cols = np.zeros_like(rows)
    for o in range(max(-b, 1 - n), min(b, n - 1) + 1):
        lo, hi = max(0, -o), min(n, n - o)
        for a in range(k):
            for c in range(k):
                l = c - a - o * k
                if abs(l) > h:
                    continue
                entries = band[b + o, lo:hi, a, c]
                # A[(m + o) k + a, m k + c] for the columns m of the offset
                rows[(lo + o) * k + a:(hi + o) * k + a:k, h + l] = entries
                cols[lo * k + c:hi * k + c:k, h - l] = entries
    return rows, np.conjugate(cols, out=cols)


def _diagonal_gram(band, h):
    """v -> A^H (A v) for the matrix A of a band table of flat half-width h
    (``_flat_width``), from its stacked flat diagonals (``_flat_diagonals``).

    Each product is a sum over a sliding window of one zero-padded work
    vector, 2 dim (2h + 1) multiply-adds in all and no BLAS call."""
    rows, cols = _flat_diagonals(band, h)
    dim, width = rows.shape
    pad = np.zeros(dim + width - 1, dtype=complex)
    windows = sliding_window_view(pad, width)

    def gram(v):
        pad[h:h + dim] = v
        pad[h:h + dim] = np.einsum("ij,ij->i", rows, windows)
        return np.einsum("ij,ij->i", cols, windows)

    return gram


def _band_ldl(band, shifts):
    """Block LDL^H factorizations of H_b - s at every shift s by odd-even
    cyclic reduction, with a backward-error bound, or None on a small or
    non-finite pivot.

    H_b is the Hermitian part of a band table (block (m + l, m) at
    band[b + l, m]) with blocks of any size k2.  Grouped into blocks of
    q = max(b, 1) modes, H_b - s is block tridiagonal, with diagonal blocks
    A_i - s and sub-diagonal blocks C_i = H_b[i + 1, i]; the last block is
    padded with zero modes, which the pivots carry as the value -s.  One
    level of the reduction (Buzbee, Golub & Nielson, 1970) takes the even
    diagonal blocks e = 0, 2, 4, ... of the matrix it reduces as the pivots
    D_e, with one batched Hermitian eigen-solve D_e = V_e diag(lambda_e)
    V_e^H over the pivots and the shifts, and leaves the Schur complement on
    the odd blocks, again block tridiagonal:

        D'_j = D_j - C_{j-1} D_{j-1}^{-1} C_{j-1}^H - C_j^H D_{j+1}^{-1} C_j,
        C'_j = -C_{j+1} D_{j+1}^{-1} C_j    (between the odd blocks j, j + 2),

    formed from the products C V_e in batched products.  The first level
    takes one eigen-solve per pivot for all shifts: A_e - s has the
    eigenvectors of A_e and the eigenvalues lambda(A_e) - s.  The next
    level reduces the complement, down to a single block, which is the last
    pivot: ceil(log2 nb) + 1 levels for nb blocks.  By Sylvester's law of
    inertia and Haynsworth's additivity the inertia of H_b - s is the sum of
    the inertias of all pivots.  The factorization does not pivot, which
    needs a guard (Bunch and Kaufman): a pivot with an eigenvalue below
    _PIVOT_FLOOR in modulus returns None, and so do pivots with an entry
    that is not finite, before they reach the eigen-solve.

    Returns (vals, vecs, links, err): vals[i, j] are the eigenvalues of the
    i-th pivot at the shift j, the pivots level by level, each level in
    block order; vecs holds per level the eigenvectors V_e of its pivots
    and links the couplings (C_e V_e, C_{e-1}^H V_e) of each pivot to the
    blocks after and before it, which ``_ldl_solve`` reads.  Their shift
    axis has length 1 at the first level, which is the same at every
    shift.  err bounds the backward error over all shifts.

    In floating point a level computes the exact Schur complement of a
    matrix whose entries on the blocks it keeps are perturbed by its
    rounding, and a perturbation of the kept blocks passes through the
    Schur complement unchanged.  So the factorization is exact for some
    H_b + E with E the sum of the levels' perturbations, and to first
    order in eps, with pivot size p = k2 q,

        ||E|| <= err = max_s sum_levels 4 p eps max_e (||D_e|| + g_e),
        g_e = (||C_{e-1}||_F^2 + ||C_e||_F^2) / min |lambda(D_e)|,

    the growth g_e through each inverted pivot taken from its own two
    couplings, at each shift s, and ||D_e|| the norm of the block that was
    factored: A_e, before the shift, at the first level.
    """
    w, n, k2 = band.shape[:3]
    b = w // 2
    q = max(b, 1)
    nb = -(-n // q)
    p = q * k2
    padded = np.zeros((w, nb * q) + band.shape[2:], dtype=complex)
    padded[:, :n] = band
    i = np.arange(q)

    def blocks(dr):
        # H_b[R_{s + dr}, R_s] for every block s with a partner s + dr
        l = dr * q + i[:, None] - i[None, :] + b
        inside = (l >= 0) & (l < w)
        s = np.arange(max(0, -dr), nb - max(0, dr))
        out = padded[np.where(inside, l, 0), (s * q)[:, None, None] + i]
        out[:, ~inside] = 0.0
        return out.transpose(0, 1, 3, 2, 4).reshape(s.size, p, p)

    # the first level's pivots are factored before the shift
    a = blocks(0)[:, None]
    a += _adjoint(a)
    a *= 0.5
    c = blocks(1)[:, None]
    c += _adjoint(blocks(-1)[:, None])
    c *= 0.5
    del padded
    shift = shifts[:, None]
    vals, vecs, links, done = np.empty((nb, shifts.size, p)), [], [], 0
    err = np.zeros(shifts.size)
    while True:
        pivots = a[0::2]
        if not np.isfinite(pivots).all():
            return None
        lam, v = np.linalg.eigh(pivots)
        top = abs(lam).max(axis=2)
        if shift is not None:
            lam = lam - shift
        low = abs(lam).min(axis=2)
        if low.min() < _PIVOT_FLOOR:
            return None
        ne, nk = len(lam), len(a) - len(lam)
        vals[done:done + ne] = lam
        done += ne
        mass = np.linalg.norm(c, axis=(2, 3)) ** 2
        growth = np.zeros((ne,) + mass.shape[1:])
        growth[:nk] += mass[0::2]
        growth[1:] += mass[1::2]
        err += 4 * p * np.finfo(float).eps * np.max(top + growth / low, axis=0)
        # down[m] = C_{2m} V_{2m} couples the pivot 2m to the block 2m + 1
        # below it, up[m] = C_{2m+1}^H V_{2m+2} the pivot 2m + 2 to the
        # block 2m + 1 above it
        down = c[0::2] @ v[:nk]
        up = _adjoint(c[1::2]) @ v[1:]
        vecs.append(v)
        links.append((down, up))
        if not nk:
            break
        kept = a[1::2] if shift is None else a[1::2] - shift[:, :, None] * np.eye(p)
        kept -= (down / lam[:nk, :, None, :]) @ _adjoint(down)
        kept[:ne - 1] -= (up / lam[1:, :, None, :]) @ _adjoint(up)
        c = -(down[1:] / lam[1:nk, :, None, :]) @ _adjoint(up[:nk - 1])
        a, shift = kept, None
    return vals, vecs, links, float(err.max())


def _ldl_solve(ldl, j, rhs):
    """(H_b - s)^{-1} rhs from the ``_band_ldl`` factors ldl at its j-th
    shift s, rhs of shape (nb q k2, c) in the padded mode order.

    The blocks of level l are every 2^l-th block from the (2^l)-th on, so
    the solve runs in place on strided views of one copy of rhs.  Level by
    level, each pivot's right-hand side is taken into its eigenbasis,
    y_e = lambda_e^{-1} V_e^H z_e, and the blocks it keeps take
    z_j - C_{j-1} V_{j-1} y_{j-1} - C_j^H V_{j+1} y_{j+1}; after the last
    level the pivots are solved back from the top: x_e = V_e (y_e -
    lambda_e^{-1} ((C_e V_e)^H x_{e+1} + (C_{e-1}^H V_e)^H x_{e-1})).
    """
    vals, vecs, links, _ = ldl
    x = rhs.reshape(-1, vals.shape[-1], rhs.shape[-1]).copy()
    levels, start, step = [], 0, 1
    for v, (down, up) in zip(vecs, links):
        lam = vals[start:start + len(v), j, :, None]
        start += len(v)
        v, down, up = (a[:, min(j, a.shape[1] - 1)] for a in (v, down, up))
        pivots, kept = x[step - 1::2 * step], x[2 * step - 1::2 * step]
        pivots[...] = (_adjoint(v) @ pivots) / lam
        kept -= down @ pivots[:len(kept)]
        kept[:len(v) - 1] -= up @ pivots[1:]
        levels.append((lam, v, down, up, pivots, kept))
        step *= 2
    for lam, v, down, up, pivots, kept in reversed(levels):
        pivots[:len(kept)] -= (_adjoint(down) @ kept) / lam[:len(kept)]
        pivots[1:] -= (_adjoint(up) @ kept[:len(v) - 1]) / lam[1:]
        pivots[...] = v @ pivots
    return x.reshape(rhs.shape)
