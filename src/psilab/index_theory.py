"""Integer index of invertible order-zero symbols, three independent ways.

* winding data of the two determinant loops (analytic route),
* kernel counting of the quantized operator and its adjoint on
  column-complete rectangular truncations (Fredholm route),
* spectral counting of the deformed clutching projections (pairing route).

Sign conventions for the boundary map differ across the literature; the
convention here is calibrated once on the loop pair (e^{ix}, 1), whose
quantization is a weighted shift of index -1, and is then

    index = winding(minus branch) - winding(plus branch).

The same calibration fixes the sign of the spectral pairing; agreement of
the three routes is the content being tested, not the convention.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .numerics import fourier_coefficients, hashed_normals
from .quantize import op_quantize, op_terms, padded_grid
from .symbols import HomogeneousSymbol, Loop

__all__ = [
    "InconclusiveIndexError",
    "IndexReport",
    "winding_number",
    "fredholm_index_svd",
    "analytic_index",
    "higson_trace_index",
    "index_report",
]

#: global sign of the analytic formula, fixed by the (e^{ix}, 1) calibration
ANALYTIC_SIGN = +1
#: global sign of the spectral pairing, fixed by the same calibration
PAIRING_SIGN = +1
#: spectral gap required around 1/2 for a conclusive eigenvalue count
PAIRING_GAP = 0.1
#: the clutching radius |xi| must reach at least this inside the mode range
PAIRING_MIN_RADIUS = 2.0
#: singular values below this count as kernel in the Fredholm route
EPS_RANK = 1e-6


class InconclusiveIndexError(RuntimeError):
    """No usable spectral gap at this resolution; increase N (or retune eps)."""


# -- winding numbers ---------------------------------------------------------


def winding_number(loop):
    """Degree of an invertible loop via the argument of its determinant.

    Accepts a Loop (determinant taken pointwise at 4096 points, or at
    16 (degree + 1) if more) or an array of nonzero scalar samples around
    the circle.  Raises on a sample of modulus below 1e-9 and when a
    wrapped phase step reaches pi/2: beyond that the true increment is
    ambiguous modulo 2*pi, so the loop counts as undersampled.
    """
    if isinstance(loop, Loop):
        samples = 4096 if loop.degree is None else max(4096, 16 * loop.degree + 16)
        x = 2.0 * np.pi * np.arange(samples) / samples
        vals = np.linalg.det(np.asarray(loop(x), dtype=complex))
    else:
        vals = np.asarray(loop, dtype=complex)
    if np.min(np.abs(vals)) < 1e-9:
        raise ValueError("loop has a (numerically) non-invertible sample")
    ratios = np.roll(vals, -1) / vals
    steps = np.angle(ratios)
    if np.max(np.abs(steps)) >= 0.5 * np.pi:
        raise ValueError("phase step >= pi/2: loop is undersampled")
    total = float(np.sum(steps)) / (2.0 * np.pi)
    w = int(np.rint(total))
    if abs(total - w) > 1e-6:
        raise ValueError(f"winding {total} did not close to an integer")
    return w


# -- Fredholm route ----------------------------------------------------------

#: an inconclusive kernel count is taken again at 2N and 4N up to this N
_REFINE_MAX_N = 256
#: the band counts the singular values below a = _KERNEL_SHIFT * EPS_RANK
_KERNEL_SHIFT = 1e4
#: inverse-iteration steps for the kernel frame before the SVD takes over
_FRAME_STEPS = 8
#: seed of the start frame of the inverse iteration (``hashed_normals``)
_FRAME_SEED = 0


def _adjoint(a):
    """Conjugate transpose of the trailing two axes."""
    return a.conj().swapaxes(-1, -2)


def _gapped_small_count(svals, eps):
    """Number of singular values below eps, conclusive only with a 1e3 gap
    and above the rounding floor of the SVD.

    A backward-stable SVD returns each singular value within
    p(m, n) epsilon sigma_max of the exact one, epsilon the machine epsilon
    and p a modest function of the size (Golub & Van Loan, *Matrix
    Computations*, section 8.6; the LAPACK Users' Guide error bounds for
    the SVD).  With p taken as the number of values, that floor,
    sigma_max * len(svals) * epsilon, must stay below eps: otherwise
    rounding alone can put a value on either side of eps, and the count is
    inconclusive.  With values below eps the smallest value above must be
    1e3 times the largest below.  With none below, it must reach 1e3 eps: a
    value in [eps, 1e3 eps) may be the cut tail of a kernel vector as well
    as a genuine singular value.
    """
    svals = np.sort(svals)
    floor = float(svals[-1]) * svals.size * np.finfo(float).eps
    if floor >= eps:
        raise InconclusiveIndexError(
            f"SVD rounding floor {floor:.3e} (sigma_max {float(svals[-1]):.3e}) "
            f"reaches eps={eps:.1e}")
    counted = svals[svals < eps]
    uncounted = svals[svals >= eps]
    top = float(counted[-1]) if counted.size else 0.0
    bottom = float(uncounted[0]) if uncounted.size else np.inf
    if counted.size and bottom < 1e3 * top:
        raise InconclusiveIndexError(
            f"singular values {top:.3e} and {bottom:.3e} straddle eps={eps:.1e} "
            "without a 1e+03 gap; increase N or adjust index_theory.EPS_RANK")
    if not counted.size and bottom < 1e3 * eps:
        raise InconclusiveIndexError(
            f"smallest singular value {bottom:.3e} sits too close to eps={eps:.1e}")
    return int(counted.size)


def _fredholm_bands(terms, grid, n, b):
    """Band tables of the kernel and cokernel truncations, with two masses.

    X = sum_t Toeplitz(c_t) diag(w_t) over the (coeffs, weights) terms of
    ``op_terms`` on ``grid``; the kernel truncation is Z = X[:, keep] and
    the cokernel truncation Z = X[keep, :]^H, keep the modes |m| <= n.
    Each table T[b + l, i] is the block (i + l, i) of the band |l| <= b of
    Z, with the columns i over keep; every row i + l lies inside the
    grid, so Z has no cut row.  The kernel entries are those of the dense
    X bit for bit, the cokernel entries their exact adjoints.

    Returns (kernel, cokernel, s, d): s bounds the 1- and inf-norms of |Z_b|
    (the l1 mass of the kept coefficients times the largest weight) and
    d >= ||Z - Z_b||_2 (Young: the l1 sum of the spectral norms of the
    dropped coefficients times the largest weight), both per term, added,
    and raised by 1.001 for the rounding of the product and of the sums.
    """
    centre, offset = grid.N, 2 * grid.N
    ls = np.arange(-b, b + 1)
    cols = np.arange(-n - b, n + b + 1) + centre
    band, s, d = None, 0.0, 0.0
    for coeffs, weights in terms:
        kept = coeffs[offset - b:offset + b + 1]
        # summed in the order of the dense assembly, which keeps its bits
        part = kept[:, None] * weights[cols][None, :, None, None]
        band = part if band is None else band + part
        top = np.max(np.abs(weights))
        s += top * np.sum(np.abs(kept))
        dropped = np.concatenate([coeffs[:offset - b], coeffs[offset + b + 1:]])
        d += top * np.sum(np.linalg.norm(dropped, axis=(1, 2)))
    i = np.arange(2 * n + 1)
    kernel = band[:, b:b + 2 * n + 1]
    # the block (i + l, i) of X[keep, :]^H is the adjoint of the block
    # (i, i + l) of X, which sits at offset -l of column i + l
    cokernel = _adjoint(band[b - ls[:, None], i[None, :] + ls[:, None] + b])
    return kernel, cokernel, 1.001 * s, 1.001 * d


def _gram_band(band):
    """The band table of Z^H Z, half-width 2b, from the band table of Z
    (``_fredholm_bands``): block (m + p, m) is sum_l T[b + l - p, m + p]^H
    T[b + l, m] over |l|, |l - p| <= b.  The blocks below the diagonal are
    summed and those above are their adjoints."""
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


def _band_small_count(band, s, d):
    """Number of singular values of Z below EPS_RANK, from the band table of
    Z (``_fredholm_bands``), or None when the band cannot decide.

    Counts by Sylvester's law of inertia on the Gram band G_b = Z_b^H Z_b
    at the shift a^2, a = _KERNEL_SHIFT * EPS_RANK (read at call time):
    ``_band_ldl`` of G~ - a^2 gives c, the number of eigenvalues below a^2
    of G~ + E, for the computed Gram band G~ and ||E|| <= err.  The margin
    of sigma_{c+1}(Z) >= lower = sqrt(a^2 - rho - err) - d holds with

    * rho = (w k + 4) eps s^2 for the rounding of G~ (each entry a sum of
      w k products, w = 2b + 1, plus its Hermitian part; entrywise within
      that factor of |Z_b|^H |Z_b|, whose norm is at most s^2);
    * err, the backward error of the block LDL^H;
    * d >= ||Z - Z_b|| for the dropped band (Weyl for singular values).

    For c > 0 a c-frame V bounds sigma_c from above by Courant-Fischer:
    sigma_c(Z) <= ||Z V|| / sigma_min(V) <= upper =
    (||Z_b V~||_F + (w k + 4) eps s ||V||_F + d ||V||) / sqrt(1 - f), with
    f >= ||V^H V - I|| (measured, plus the rounding of the product) and
    ||V|| <= sqrt(1 + f).  V comes from inverse iteration with G~ + a^2 I,
    which is positive definite, factored by the same ``_band_ldl`` at the
    shift -a^2, from the complex Gaussian start frame
    ``numerics.hashed_normals((n k, c), _FRAME_SEED)``, orthonormalized by
    QR after each of at most _FRAME_STEPS steps.

    The count is returned only when it reproduces ``_gapped_small_count``
    with room to spare: lower >= 1e3 EPS_RANK and, for c > 0,
    upper < EPS_RANK, so that an SVD finds c values below EPS_RANK and the
    next at least 1e3 times the largest of them.  A small pivot, a margin
    that eats the room, f >= 1/2 or the step cap give None.
    """
    eps_rank = EPS_RANK
    a2 = (_KERNEL_SHIFT * eps_rank) ** 2
    w, n, k = band.shape[:3]
    eps = np.finfo(float).eps
    gram = _gram_band(band)
    ldl = _band_ldl(gram, np.array([a2, -a2]))
    if ldl is None:
        return None
    vals, vecs, sub, err = ldl
    c = n * k - int(np.sum(vals[:, 0] > 0.0))
    rho = (w * k + 4) * eps * s * s
    if np.sqrt(max(a2 - rho - err, 0.0)) - d < 1e3 * eps_rank:
        return None
    if c == 0:
        return 0
    frame = np.zeros((vals[:, 1].size, c), dtype=complex)
    v = hashed_normals((n * k, c), _FRAME_SEED)
    for _ in range(_FRAME_STEPS):
        frame[:n * k] = v
        v = np.linalg.qr(_ldl_solve(vals[:, 1], vecs[:, 1], sub, frame)[:n * k])[0]
        f = 1.001 * np.linalg.norm(v.conj().T @ v - np.eye(c)) + (n * k + 4) * eps * c
        if f >= 0.5:
            return None
        norm = 1.001 * np.linalg.norm(_band_apply(band, v.reshape(n, k, c)))
        upper = (norm + (w * k + 4) * eps * s * np.sqrt(c * (1.0 + f))
                 + d * np.sqrt(1.0 + f)) / np.sqrt(1.0 - f)
        if upper < eps_rank:
            return c
    return None


def fredholm_index_svd(sigma, theta, grid):
    """Kernel count of Op(sigma) minus kernel count of its adjoint.

    Square corners of an operator can never show an index (their kernel and
    cokernel dimensions agree by rank-nullity), so both counts are taken on
    tall column-complete truncations: domain modes |m| <= N, range modes
    enlarged by the symbol bandwidth plus 8.  These converge to the kernel
    and cokernel of the untruncated operator: a kernel or cokernel vector
    decays geometrically in |m|, and its cut tail leaves a singular value
    of that size.  A count is inconclusive unless a factor 1e3 separates
    the singular values below EPS_RANK from those above it, or, with none
    below, the smallest reaches 1e3 EPS_RANK, and when the SVD's rounding
    floor sigma_max * n * eps reaches EPS_RANK (``_gapped_small_count``).
    An inconclusive count is taken again at 2N and at 4N, as far as they
    stay within 256 modes (a tail shrinks, a genuine singular value stays);
    only the last inconclusive count raises.

    Both counts are first taken on the band |n - m| <= degree of the
    truncation (16 without a declared degree), by ``_band_small_count``:
    the inertia of the Gram band at the shift a^2, a = 1e4 EPS_RANK, gives
    the count c of singular values below a, with sigma_{c+1} bounded below
    through three margins (the rounding of the Gram, the backward error of
    its block LDL^H, and the norm d of the dropped coefficients), and for
    c > 0 an inverse-iteration c-frame V bounds sigma_c <= ||X V|| from
    above.  The band decides only when an SVD would return the same count
    with room to spare: sigma_{c+1} >= 1e3 EPS_RANK and, for c > 0,
    ||X V|| < EPS_RANK.  Otherwise that count, and only that one, comes from
    the full singular values of the dense truncation, which stays the
    reference of the band count; a small pivot, a margin over its allowance
    and the inverse iteration's step cap all end there.

    Raises InconclusiveIndexError unless r0 + degree < N: otherwise the
    cutting function does not reach one on a full symbol band inside the
    mode range, and the kernel counts would report a wrong integer.
    """
    if not isinstance(sigma, HomogeneousSymbol):
        raise TypeError("expected a homogeneous symbol")
    sigma.windings  # raises ValueError unless both branches are invertible
    deg = sigma.degree if sigma.degree is not None else 16
    if not theta.r0 + deg < grid.N:
        raise InconclusiveIndexError(
            f"cutting radius {theta.r0:g} plus symbol degree {deg} reaches the "
            f"mode cutoff N={grid.N}; increase N")
    sizes = [grid.N] + [n for n in (2 * grid.N, 4 * grid.N) if n <= _REFINE_MAX_N]
    for n in sizes:
        big = padded_grid(grid, n - grid.N + deg + 8)
        kernel, cokernel, s, d = _fredholm_bands(op_terms(sigma, theta, big), big, n, deg)
        counts = [_band_small_count(band, s, d) for band in (kernel, cokernel)]
        if None in counts:
            X = op_quantize(sigma, theta, big)
            keep = ~big.tail_mask(n)
            try:
                if counts[0] is None:
                    counts[0] = _gapped_small_count(
                        np.linalg.svd(X[:, keep], compute_uv=False), EPS_RANK)
                if counts[1] is None:
                    counts[1] = _gapped_small_count(
                        np.linalg.svd(X.conj().T[:, keep], compute_uv=False), EPS_RANK)
            except InconclusiveIndexError:
                if n == sizes[-1]:
                    raise
                continue
        return counts[0] - counts[1]


def analytic_index(sigma):
    """Winding formula: ANALYTIC_SIGN * (w(minus) - w(plus))."""
    if not isinstance(sigma, HomogeneousSymbol):
        raise TypeError("expected a homogeneous symbol")
    w_plus, w_minus = sigma.windings
    return ANALYTIC_SIGN * (w_minus - w_plus)


# -- clutching projections ---------------------------------------------------


def _clutching_factors(u):
    """Split the clutching projections of a branch u into fixed pieces.

    With the SVD u = W S V^H at every sample point, the graph projection of
    b = r u minus the corner diag(0, I) is, in closed form,

        [[ V d0 V^H,  V d1 W^H ],
         [ W d1 V^H, -W d0 W^H ]],   d0 = 1/(1 + r^2 S^2),  d1 = r S d0,

    exact for any u (also where S has zeros) and with no inverse.  The
    samples are linear in the diagonals (d0, d1), so the branch is stored as
    its singular values s, shape (J, k), and the outer products of its
    singular vectors, shape (J, 2k, 4k^2): row b carries the d0_b piece and
    row k + b the d1_b piece.
    """
    W, s, Vh = np.linalg.svd(np.asarray(u, dtype=complex))
    J, k = s.shape
    v, w = np.swapaxes(Vh.conj(), -1, -2), W  # columns are singular vectors
    pieces = np.zeros((J, 2, k, 2 * k, 2 * k), dtype=complex)
    for b in range(k):
        vb, wb = v[:, :, b], w[:, :, b]
        pieces[:, 0, b, :k, :k] = vb[:, :, None] * vb.conj()[:, None, :]
        pieces[:, 0, b, k:, k:] = -(wb[:, :, None] * wb.conj()[:, None, :])
        pieces[:, 1, b, :k, k:] = vb[:, :, None] * wb.conj()[:, None, :]
        pieces[:, 1, b, k:, :k] = wb[:, :, None] * vb.conj()[:, None, :]
    return s, pieces.reshape(J, 2 * k, 4 * k * k)


def _clutching_weights(s, r):
    """The real weights w = [d0, r S d0] of the pieces at the radii r, shape
    (2k, J, len(r)): the sample of p - corner at radius r_m is
    sum_j w[j, :, m] pieces[:, j]."""
    J, k = s.shape
    w = np.empty((2 * k, J, r.size))
    rs, d0 = w[k:], w[:k]
    np.multiply(s.T[:, :, None], r, out=rs)
    np.multiply(rs, rs, out=d0)
    d0 += 1.0
    np.reciprocal(d0, out=d0)
    rs *= d0
    return w


def _clutching_samples(factors, r, out):
    """Write the samples of p - corner for b = r u into out, (J, len(r), 4k^2).

    The real weights multiply the real and imaginary parts of the pieces in
    one real product, on the interleaved float view of both.
    """
    s, pieces = factors
    weights = _clutching_weights(s, r).transpose(1, 2, 0)
    np.matmul(weights, pieces.view(float), out=out.view(float))


# -- the spectral pairing ----------------------------------------------------

#: columns of the pairing matrix sampled and transformed together
_BLOCK = 128
#: a band is used once the norm of what it drops is at most this
_BAND_TOL = 1e-4
#: the band is at most this share of N wide
_BAND_CAP = 0.25
#: a pivot block of the band LDL^H with an eigenvalue below this in modulus
#: sends the count to the dense eigenvalue solve
_PIVOT_FLOOR = 1e-8
#: margin kept for the rounding of the band LDL^H; a larger backward-error
#: bound sends the count to the dense eigenvalue solve
_LDL_ALLOWANCE = 1e-8
#: fewest mode-blocks per super-block of the band LDL^H
_SUPER = 4
#: grid points per block of the factored band product
_POINTS = 32


def _pairing_matrix(factors, t, grid):
    """T_t(p_sigma - corner) on the modes |m| <= N, 2k x 2k blocks.

    The clutching symbol is b(x, xi) = |xi| sigma(x, xi); its graph
    projection p is exact and p - diag(0, I) vanishes at fiber infinity like
    1 / |xi|.  Both branches come factored on the grid points
    (``_branch_factors``), and the columns are sampled in closed form at
    xi = m / t, 128 ascending modes m at a time: negative modes from the
    minus branch and the rest (m = 0 included) from the plus branch, as two
    contiguous column slices.  Entry (n, m) is the x-Fourier coefficient
    c_m(n - m) of column m, taken by FFT from those samples.
    """
    minus, plus = factors
    N, n, k2 = grid.N, grid.n_modes, 2 * minus[0].shape[1]
    table = np.empty((n, k2, n, k2), dtype=complex)
    for start in range(0, n, _BLOCK):
        xis = grid.modes[start:start + _BLOCK] / t
        r, cols = np.abs(xis), xis.size
        split = int(np.searchsorted(xis, 0.0))
        vals = np.empty((grid.J, cols, k2 * k2), dtype=complex)
        _clutching_samples(minus, r[:split], vals[:, :split])
        _clutching_samples(plus, r[split:], vals[:, split:])
        # centred[l + 2N, b] = c_b(l), |l| <= 2N, for the column of block index b
        centred = fourier_coefficients(grid, vals.reshape(grid.J, cols, k2, k2))
        # entry (n, b) = c_b(n - start - b): a Toeplitz view skewed by one column
        s0, s1, s2, s3 = centred.strides
        block = as_strided(centred[2 * N - start:], shape=(n, cols, k2, k2),
                           strides=(s0, s1 - s0, s2, s3), writeable=False)
        table[:, :, start:start + cols, :] = block.transpose(0, 2, 1, 3)
    return table.reshape(n * k2, n * k2)


def _count_above_half(factors, t, grid):
    """Eigenvalue count > 1/2 of P_inf + T_t(p_sigma - corner), with its gap,
    from the ``_branch_factors`` of sigma.

    P_inf is the corner diag(0, I) in every mode, added on the diagonal.
    This dense solve is the fallback of the band count and its reference.
    """
    k = factors[0][0].shape[1]
    mat = _pairing_matrix(factors, t, grid)
    bottom = (2 * k * np.arange(grid.n_modes)[:, None]
              + np.arange(k, 2 * k)[None, :]).ravel()
    mat[bottom, bottom] += 1.0
    evals = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
    gap = float(np.min(np.abs(evals - 0.5)))
    return int(np.sum(evals > 0.5)), gap


def _band_table(coeffs, k):
    """Band of M = P_inf + T_t(p_sigma - corner) from the coefficients
    coeffs[b + l, m] = c_m(l), |l| <= b, of shape (2b + 1, n, 4k^2).

    band[b + l, m] is the 2k x 2k block (m + l, m) of M, zero where row
    m + l leaves the mode range.
    """
    w, n = coeffs.shape[:2]
    b = w // 2
    band = coeffs.reshape(w, n, 2 * k, 2 * k)
    rows = np.arange(n)[None, :] + np.arange(-b, b + 1)[:, None]
    band[(rows < 0) | (rows >= n)] = 0.0
    band[b, :, k:, k:] += np.eye(k)
    return band


def _halving_sum(a):
    """Sum of a 1-d array in ceil(log2 len(a)) rounds of pairwise additions,
    so that no term passes through more additions than that; overwrites a."""
    n = len(a)
    while n > 1:
        h = n // 2
        a[:h] += a[n - h:n]
        n -= h
    return a[0]


def _piece_products(analysis, pieces):
    """The products A[l, x] P_j(x) of the analysis rows with the pieces, as
    interleaved floats of shape (2k p, rows 8k^2), one block of
    p <= _POINTS grid points at a time."""
    for x in range(0, len(pieces), _POINTS):
        q = (analysis[:, x:x + _POINTS].T[None, :, :, None]
             * pieces[x:x + _POINTS].swapaxes(0, 1)[:, :, None, :])
        yield q.view(float).reshape(q.shape[0] * q.shape[1], -1)


def _band_tables(factors, grid, b, once=False):
    """The t-independent part of ``_band_coefficients`` at the width b.

    Returns (b, branches), one (s, blocks, g) per branch of ``factors``
    (``_branch_factors``): s its singular values, blocks the
    ``_piece_products`` of the analysis rows A[l, x] = e^{-ilx} / J,
    |l| <= b, with its pieces P, and g >= max_x ||Re G(x) - 2I|| for the
    Gram G = P P^H of the pieces, measured plus 8 k^3 eps for the rounding
    of G.  The blocks are held for reuse at every t; with ``once``, for a
    width tried at one t only, they are formed as they are read, so that
    the products of a wide band are never held together.
    """
    J = grid.J
    ls = np.arange(-b, b + 1)
    # e^{-i l x_j} from the exact phase (l j mod J) / J
    analysis = np.exp(-2j * np.pi * (np.outer(ls, np.arange(J)) % J) / J) / J
    branches = []
    for s, pieces in factors:
        k = s.shape[1]
        blocks = _piece_products(analysis, pieces)
        gram = pieces @ pieces.conj().swapaxes(1, 2)
        g = np.max(np.linalg.norm(gram.real - 2.0 * np.eye(2 * k), axis=(1, 2)))
        branches.append((s, blocks if once else list(blocks),
                         g + 8 * k ** 3 * np.finfo(float).eps))
    return b, branches


def _factored_band(branch, r, rows):
    """(coeffs, mass) of one branch's columns at the radii r, from one
    (s, blocks, g) of ``_band_tables`` and never from samples.

    coeffs[i, m] are the coefficients of column m at the frequencies of the
    analysis rows i, shape (rows, len(r), 4k^2).  mass bounds
    sum_m mean_x |s(x, m)|^2 from above, up to the rounding of its sum (see
    ``_band_coefficients``).
    """
    s, blocks, g = branch
    J, k = s.shape
    coeffs = np.zeros((r.size, rows * 8 * k * k))
    # the weights are taken block by block; only their d0 half is kept
    d0 = np.empty((k, J, r.size))
    for x, q in zip(range(0, J, _POINTS), blocks):
        w = _clutching_weights(s[x:x + _POINTS], r)
        coeffs += w.reshape(-1, r.size).T @ q
        d0[:, x:x + _POINTS] = w[:k]
    mass = 2.0 * _halving_sum(d0.reshape(-1)) / J * (1.0 + 0.5 * g)
    return coeffs.view(complex).reshape(r.size, rows, 4 * k * k).swapaxes(0, 1), mass


def _branch_factors(sigma, grid):
    """``_clutching_factors`` of the (minus, plus) branches on the grid points."""
    return tuple(_clutching_factors(sigma.branch(sign).fn(grid.x)) for sign in (-1, +1))


def _band_coefficients(tables, t, grid):
    """The pairing matrix on the band |n - m| <= b, with a bound on the rest.

    Returns (band, delta) from the ``_band_tables`` of the width b: band is
    the ``_band_table`` of M, and delta bounds ||H - H_b|| for the Hermitian
    parts H of M and H_b of the band, M the pairing matrix of the samples
    built from the computed branch factors.

    The samples are never formed.  With (s, P) = ``_clutching_factors(u)``
    and the real weights w(x, r) = [d0, r S d0] a sample is
    s(x, m) = sum_j w_j(x, r_m) P_j(x), so with the analysis rows
    A[l, x] = e^{-ilx} / J, |l| <= b,

        c_m(l) = sum_{x, j} (A[l, x] P_j(x)) w_j(x, r_m),

    one real product per branch of the weights with the interleaved float
    view of A P, taken over blocks of _POINTS grid points and accumulated.
    Only the weights depend on t; the products A P come with the tables.
    By Parseval on the J grid points the dropped coefficients satisfy

        tail = sum_{m, |l| > b} |c_m(l)|^2 = mass - sum_{m, |l| <= b} |c_m(l)|^2,

    mass = sum_m mean_x |s(x, m)|^2, and tail bounds ||M - M_b||_F^2 >=
    ||H - H_b||^2.  The mass comes in closed form: the Gram G(x) = P P^H of
    the pieces is 2I in exact arithmetic (orthogonal pieces of Frobenius
    norm sqrt 2), so sum_m mean_x w^T Re G w = (2 / J) sum d0, because
    d0^2 + (r S d0)^2 = d0.  Computed pieces with ||Re G(x) - 2I|| <= g at
    every x raise it by at most the factor 1 + g / 2; g is measured, plus
    8 k^3 eps for the rounding of G.

    The rounding allowance, to first order, counting every rounding as eps
    (twice the unit roundoff):

    * a kept coefficient is a sum of terms (A P)_j w_j that passes through at
      most p = 2k _POINTS + ceil(J / _POINTS) - 1 additions (one block
      product, then the blocks), and each term carries at most 20 eps from
      the phase of A, the complex product and the weights.  For the real
      and the imaginary part apart this gives the coefficient error
      E <= (p + 20) eps ||(|A P|) w||_2 over the band, and Cauchy-Schwarz
      over (x, j) with ||P_j(x)||_F^2 <= 2 + g gives
      ||(|A P|) w||_2^2 <= 2k (2b + 1) mass;
    * the mass and the power sum |c~|^2 of the computed coefficients c~
      are sums of non-negative terms by ``_halving_sum``, each in at most
      h = ceil(log2(8 (2b + 1) k^2 J n)) rounds, so with the roundings of
      the weights and the squares both are within (h + 4) eps of their
      values together;
    * ||c|| >= ||c~|| - E, so sum |c|^2 >= power - 2 E sqrt(mass).

    So tail <= mass - power + (h + 4) eps mass + 2 E sqrt(mass), and

        delta = 1.001 sqrt(tail) + E,

    E for the error of the kept coefficients (||M_b - M~_b||_F <= E) and the
    factor 1.001 for the evaluation of the bound.
    """
    b, branches = tables
    J, n, k = grid.J, grid.n_modes, branches[0][0].shape[1]
    coeffs = np.empty((2 * b + 1, n, 4 * k * k), dtype=complex)
    xis = grid.modes / t
    split = int(np.searchsorted(xis, 0.0))
    mass = 0.0
    for branch, cols in zip(branches, (slice(None, split), slice(split, None))):
        coeffs[:, cols], part = _factored_band(branch, np.abs(xis[cols]), 2 * b + 1)
        mass += part
    power = _halving_sum(np.square(coeffs.view(float)).ravel())
    eps = np.finfo(float).eps
    p = 2 * k * _POINTS + -(-J // _POINTS) - 1
    h = np.ceil(np.log2(8 * (2 * b + 1) * k * k * J * n))
    err = (p + 20) * eps * np.sqrt(2 * k * (2 * b + 1) * mass)
    tail = mass - power + (h + 4) * eps * mass + 2 * err * np.sqrt(mass)
    return _band_table(coeffs, k), 1.001 * np.sqrt(max(tail, 0.0)) + err


def _pairing_tables(sigma, grid):
    """The t-independent part of every pairing count of sigma on grid.

    Returns (factors, first): the ``_branch_factors`` of both branches, and
    the ``_band_tables`` of the first band width b0 (the declared degree of
    the branches, 1 without one), None when b0 exceeds _BAND_CAP * N.  The
    singular values s of each branch come with the factors, so a check of
    the clutching window (where |xi| s turns through 1) can read them here.
    """
    factors = _branch_factors(sigma, grid)
    b = sigma.degree or 1
    return factors, (_band_tables(factors, grid, b) if b <= int(_BAND_CAP * grid.N)
                     else None)


def _pairing_band(tables, t, grid):
    """(band, delta) of the first width in b0, 2 b0, 4 b0, ... whose drop
    bound delta is at most _BAND_TOL, the last try clipped to exactly
    _BAND_CAP * N; or None when no width up to there fits.

    b0 is the declared degree of the branches (1 without one), at which
    unitary trigonometric branches leave nothing out.  ``tables`` are the
    ``_pairing_tables`` of the symbol, which carry the factors of both
    branches and the tables of b0; the tables of a wider try are formed from
    the factors for this t alone, and every try is formed without samples
    (``_band_coefficients``); its delta bounds what that width drops.
    """
    factors, width = tables
    cap = int(_BAND_CAP * grid.N)
    while width is not None:
        band, delta = _band_coefficients(width, t, grid)
        if delta <= _BAND_TOL:
            return band, delta
        b = width[0]
        width = None if b == cap else _band_tables(factors, grid, min(2 * b, cap), once=True)
    return None


def _band_ldl(band, shifts):
    """Block LDL^H factorizations of H_b - s at every shift s, with a
    backward-error bound, or None on a small or non-finite pivot.

    H_b is the Hermitian part of a band table (block (m + l, m) at
    band[b + l, m]) with blocks of any size k2.  Grouped into super-blocks
    of q = max(b, _SUPER) modes it is block tridiagonal, so the block
    LDL^H recurrence

        D_0 = A_0 - s,   D_i = A_i - s - C_i D_{i-1}^{-1} C_i^H

    (A_i the diagonal and C_i the sub-diagonal super-blocks) needs one
    Hermitian eigen-solve per pivot D_i, batched over the shifts.  The
    factorization does not pivot, which needs a guard (Bunch and Kaufman):
    a pivot with an eigenvalue below _PIVOT_FLOOR in modulus returns None,
    and so does a pivot with an entry that is not finite, before it reaches
    the eigen-solve.  The loop runs only the recurrence and these exits.
    The last super-block is padded with zero modes, which the pivots carry
    as the value -s.

    Returns (vals, vecs, sub, err): vals[i, j] and vecs[i, j] are the
    eigenvalues and eigenvectors of D_i at the shift j, sub[i] = C_{i+1},
    and err bounds the backward error.  In floating point the factorization
    is exact for some H_b + E, and to first order in eps the backward error
    of a block LDL^H factorization with pivot size p = k2 q is

        ||E|| <= err = 4 p eps max_i (||D_i|| + ||C_i||_F^2 / min |lambda(D_{i-1})|),

    the second term the growth through the inverted pivots, both taken
    over all pivots at once after the loop.
    """
    w, n, k2 = band.shape[:3]
    b = w // 2
    q = max(b, _SUPER)
    nb = -(-n // q)
    padded = np.zeros((w, nb * q) + band.shape[2:], dtype=complex)
    padded[:, :n] = band
    i = np.arange(q)

    def blocks(dr):
        # M_b[R_{s + dr}, R_s] for every super-block s with a partner s + dr
        l = dr * q + i[:, None] - i[None, :] + b
        inside = (l >= 0) & (l < w)
        s = np.arange(max(0, -dr), nb - max(0, dr))
        out = padded[np.where(inside, l, 0), (s * q)[:, None, None] + i]
        out[:, ~inside] = 0.0
        return out.transpose(0, 1, 3, 2, 4).reshape(s.size, q * k2, q * k2)

    diag = blocks(0)
    diag = 0.5 * (diag + _adjoint(diag))
    sub = 0.5 * (blocks(1) + _adjoint(blocks(-1)))
    shift = shifts[:, None, None] * np.eye(q * k2)
    vals = np.empty((nb, shifts.size, q * k2))
    vecs = np.empty((nb, shifts.size, q * k2, q * k2), dtype=complex)
    for s in range(nb):
        pivot = diag[s] - shift
        if s:
            g = sub[s - 1] @ vecs[s - 1]
            pivot -= (g / vals[s - 1, :, None, :]) @ _adjoint(g)
        if not np.isfinite(pivot).all():
            return None
        vals[s], vecs[s] = np.linalg.eigh(pivot)
        if abs(vals[s]).min() < _PIVOT_FLOOR:
            return None
    moduli = abs(vals).reshape(nb, -1)
    growth = np.zeros(nb)
    growth[1:] = np.linalg.norm(sub, axis=(1, 2)) ** 2 / moduli[:-1].min(axis=1)
    worst = np.max(moduli.max(axis=1) + growth)
    return vals, vecs, sub, 4 * q * k2 * np.finfo(float).eps * worst


def _ldl_solve(vals, vecs, sub, rhs):
    """(H_b - s)^{-1} rhs from the pivots (vals, vecs) of ``_band_ldl`` at
    one shift s, rhs of shape (nb q k2, c) in the padded mode order.

    With the pivot inverses D_i^{-1} and L_i = C_{i+1} D_i^{-1} the solve is
    z_i -= L_{i-1} z_{i-1}, then z = D^{-1} z, then z_i -= L_i^H z_{i+1}.
    """
    inverse = (vecs / vals[:, None, :]) @ _adjoint(vecs)
    lower = sub @ inverse[:-1]
    z = rhs.reshape(len(vals), -1, rhs.shape[-1]).copy()
    for i in range(1, len(z)):
        z[i] -= lower[i - 1] @ z[i - 1]
    z = inverse @ z
    for i in range(len(z) - 2, -1, -1):
        z[i] -= _adjoint(lower[i]) @ z[i + 1]
    return z.reshape(rhs.shape)


def _band_count(band, delta):
    """(count above 1/2, conclusive) for any H with ||H - H_b|| <= delta, or
    None when the band cannot decide.

    By Sylvester's law of inertia and Haynsworth's additivity the number of
    eigenvalues of H_b + E above a shift s is the number of positive
    eigenvalues of all pivots of the ``_band_ldl`` of H_b - s, for its
    backward error ||E|| <= err; padded zero modes add nothing to a count at
    a positive shift.  With err at most _LDL_ALLOWANCE, Weyl gives
    |lambda_i(H) - lambda_i(H_b + E)| <= m, m = delta + _LDL_ALLOWANCE.

    The two outer shifts 0.4 - m and 0.6 + m are factored first.  H has at
    most as many eigenvalues above 0.4 as H_b + E has above 0.4 - m, and at
    least as many above 0.6 as H_b + E has above 0.6 + m (Weyl, at each
    shift with its own E).  So equal counts there leave H no eigenvalue in
    (0.4, 0.6]: the count is conclusive, and it is the count above 0.6 + m.
    Only when they differ are all four shifts 0.4 -+ m, 0.6 -+ m factored:
    an eigenvalue of H_b + E in (0.4 + m, 0.6 - m] puts one of H in
    (0.4, 0.6), inconclusive, and anything else is left to the dense solve.
    So is a small or non-finite pivot, and an err above _LDL_ALLOWANCE, at
    any factored shift.
    """
    m = delta + _LDL_ALLOWANCE
    lo, hi = 0.5 - PAIRING_GAP, 0.5 + PAIRING_GAP

    def above(shifts):
        ldl = _band_ldl(band, np.array(shifts))
        if ldl is None or ldl[3] > _LDL_ALLOWANCE:
            return None
        return np.sum(ldl[0] > 0.0, axis=(0, 2))

    outer = above([lo - m, hi + m])
    if outer is None:
        return None
    if outer[0] == outer[1]:
        return int(outer[1]), True
    counts = above([lo - m, lo + m, hi - m, hi + m])
    if counts is None:
        return None
    if counts[1] > counts[2]:
        return int(counts[3]), False
    return None


def _pairing_count(tables, t, grid):
    """(count above 1/2, conclusive) of P_inf + T_t(p_sigma - corner) from
    the ``_pairing_tables`` of sigma: the band count when it decides, else
    the dense eigenvalue solve."""
    band = _pairing_band(tables, t, grid)
    counted = None if band is None else _band_count(*band)
    if counted is not None:
        return counted
    count, gap = _count_above_half(tables[0], t, grid)
    return count, gap >= PAIRING_GAP


def higson_trace_index(sigma, t, grid, tables=None):
    """Spectral pairing of the clutching class with the deformation at time t.

    Counts eigenvalues above 1/2 of the deformed clutching projection and
    subtracts the count of its trivial companion; the difference (times the
    calibrated sign) is the pairing value.  The companion, the clutching
    projection of the unit symbol, does not depend on x, so its deformation
    is block diagonal with one rank-k projection per mode: its count is
    exactly k (2N + 1), with gap 1/2.

    The count is conclusive iff no eigenvalue of the Hermitian matrix H lies
    in (0.4, 0.6).  It is taken on the band H_b of the first width in
    b0, 2 b0, 4 b0, ... (b0 the branch degree, the last try clipped to
    N / 4) whose Parseval drop bound delta >= ||H - H_b|| is at most 1e-4,
    by block LDL^H inertia, m = delta + 1e-8.  The backward-error margin is
    Weyl's: |lambda_i(H) - lambda_i(H_b)| <= delta, and the inertia is
    exact for H_b + E, ||E|| <= 1e-8 (the factorization's first-order
    backward error, checked on every count).  The two outer shifts 0.4 - m
    and 0.6 + m are factored first: equal counts there leave H no
    eigenvalue in (0.4, 0.6], and the count, taken above 0.6 + m, is
    conclusive.  Only when they differ are the inner shifts 0.4 + m and
    0.6 - m factored as well: an eigenvalue of H_b + E in (0.4 + m, 0.6 - m]
    makes the count inconclusive.  Otherwise, and when no width up to N / 4
    fits or a pivot falls below 1e-8, H is counted densely.

    ``tables`` are the ``_pairing_tables`` of sigma on grid, which do not
    depend on t: the factors of both branches (one batched SVD each) and
    the band tables of the first width.  ``index_report`` takes them once
    per symbol and hands them to every t; without them they are taken
    here.  Their per-branch singular values bound the clutching weights.

    Raises ValueError unless both branches are invertible.  Raises
    InconclusiveIndexError when the clutching cannot develop inside the mode
    range (radius N / t below PAIRING_MIN_RADIUS), when the clutching
    weights overflow (r S)^2 at the top radius r = N / t for the largest
    singular value S of the branches, or when an eigenvalue sits within
    PAIRING_GAP of 1/2; past the edge the deformation collapses to the
    zero-section value and the counts would silently agree.

    The literal entrywise trace of the difference vanishes identically
    (both projections have pointwise trace k), so the class content is
    carried entirely by the spectral counts.
    """
    sigma.windings  # raises ValueError unless both branches are invertible
    if grid.N / t < PAIRING_MIN_RADIUS:
        raise InconclusiveIndexError(
            f"clutching radius {grid.N / t:.2f} at the mode cutoff is below "
            f"{PAIRING_MIN_RADIUS}; the clutching does not complete at t={t}, "
            "reduce t or increase N")
    if tables is None:
        tables = _pairing_tables(sigma, grid)
    top = grid.N / t * max(float(s.max()) for s, _ in tables[0])
    if not np.isfinite(top * top):
        raise InconclusiveIndexError(f"clutching weight (r S)^2 = ({top:.3g})^2 at the "
                                     f"mode cutoff overflows a float at t={t}; increase t")
    cnt, conclusive = _pairing_count(tables, t, grid)
    if not conclusive:
        raise InconclusiveIndexError(
            f"eigenvalue within {PAIRING_GAP} of 1/2 at t={t}; "
            "the deformation has reached the mode cutoff, reduce t or increase N")
    return float(PAIRING_SIGN * (cnt - sigma.k * grid.n_modes))


# -- combined report ---------------------------------------------------------


@dataclass(frozen=True)
class IndexReport:
    """All index routes for one symbol, with agreement flags."""

    label: str
    winding_plus: int
    winding_minus: int
    analytic_index: int
    fredholm_index: int | None
    fredholm_inconclusive: bool
    higson_t_grid: tuple
    higson_trace: tuple
    higson_limit: float | None
    higson_rounded: int | None
    agree: bool
    params: dict

    def to_dict(self):
        return asdict(self)


def index_report(sigma, grid, theta, t_grid, label):
    """Run all three routes and flag agreement.

    Every route reads the branch windings from ``sigma.windings``, taken
    once per symbol, and the pairing at every t reads the
    ``_pairing_tables`` (the branch factors and the first band tables),
    also taken once per symbol.  Higson values that are inconclusive at large t are
    reported as None; the limit is the value at the largest conclusive t,
    rounded only when within 0.25 of an integer.  Agreement requires every
    conclusive route to give the same integer; an inconclusive route never
    counts as agreement.
    """
    w_plus, w_minus = sigma.windings
    analytic = analytic_index(sigma)

    fredholm, fredholm_bad = None, False
    try:
        fredholm = fredholm_index_svd(sigma, theta, grid)
    except InconclusiveIndexError:
        fredholm_bad = True

    tables = _pairing_tables(sigma, grid)
    traces = []
    for t in t_grid:
        try:
            traces.append(higson_trace_index(sigma, t, grid, tables))
        except InconclusiveIndexError:
            traces.append(None)
    conclusive = [v for v in traces if v is not None]
    limit = conclusive[-1] if conclusive else None
    rounded = None
    if limit is not None and abs(limit - np.rint(limit)) <= 0.25:
        rounded = int(np.rint(limit))

    agree = (not fredholm_bad and fredholm is not None and rounded is not None
             and fredholm == analytic == rounded)
    return IndexReport(
        label=label,
        winding_plus=w_plus,
        winding_minus=w_minus,
        analytic_index=analytic,
        fredholm_index=fredholm,
        fredholm_inconclusive=fredholm_bad,
        higson_t_grid=tuple(float(t) for t in t_grid),
        higson_trace=tuple(traces),
        higson_limit=limit,
        higson_rounded=rounded,
        agree=agree,
        params={"N": grid.N, "J": grid.J, "k": grid.k,
                "eps_rank": EPS_RANK, "theta_r0": theta.r0},
    )
