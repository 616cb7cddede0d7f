"""Slow references and test data for the tests (``from oracles import ...``).

Each reference states one object of the model directly, such as a dense
block assembly or a clutching projection with its corner, so that a test
can hold the program's result against it.  The dense Toeplitz assembly of
the quantizations (``dense_assemble``) is the reference of the program's
band tables."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from psilab.connes_higson import (ch_apply, ch_extended_apply, default_unit,
                                  tail_deformed_unit)
from psilab.experiments import THETA
from psilab.homotopy import _apply, _band, _inverse_block, _psi_block
from psilab.bands import _PIVOT_FLOOR, _band_diff, _band_product, _crop, _dense
from psilab.index_theory import (_BAND_CAP, _LDL_ALLOWANCE, PAIRING_GAP, _band_coefficients,
                                 _band_ldl, _band_tables, _clutching_factors,
                                 _clutching_samples, _count_above_half, _pairing_tables)
from psilab import numerics
from psilab.numerics import CircleGrid, check_finite, hashed_normals, operator_norm
from psilab.partition import build_partition
from psilab.quantize import (CHART_PAD, Atlas, _corner, _scalar_window, _width, _windowed,
                             op_quantize, op_terms, padded_grid, t_quantize)
from psilab.presets import band_vector, loop_c1, loop_c2
from psilab.symbols import (HomogeneousSymbol, Loop, RadialProfile, Symbol,
                            SymbolClass, bump_profile, cap_profile, gamma_profile,
                            rational_vanishing_profile, smash)


# -- test loops and symbols --------------------------------------------------


def matrix_loop(k=2, seed=11, degree=2):
    """Deterministic matrix-valued loop with modes damped by 0.6 ** |j|."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((2 * degree + 1, k, k), dtype=complex)
    for j in range(-degree, degree + 1):
        mag = 0.6 ** abs(j)
        coeffs[j + degree] = mag * (rng.normal(size=(k, k))
                                    + 1j * rng.normal(size=(k, k))) / (2.0 * k)
    return Loop.from_coeffs(coeffs)


def smooth_loop(seed=23, degree=96, rate=8.0):
    """Scalar trigonometric polynomial with exp(-|j|/rate) coefficient decay,
    of high enough degree that tail norms decay across the dyadic cutoffs."""
    rng = np.random.default_rng(seed)
    js = np.arange(-degree, degree + 1)
    mags = np.exp(-np.abs(js) / rate)
    phases = np.exp(2j * np.pi * rng.uniform(size=js.size))
    return Loop.from_coeffs((mags * phases)[:, None, None])


def dilated(sym, s):
    """a_s(x, xi) = a(x, xi / s), term by term."""
    terms = tuple((loop, RadialProfile(lambda xi, fn=prof.fn: fn(xi / s)))
                  for loop, prof in sym.terms)
    return Symbol(terms, sym.k, SymbolClass.FULL_C0)


def translation_symbols():
    """Three symbols for the translation-invariance grid (k = 1, 1, 2)."""
    s1 = Symbol.separable(loop_c1(), cap_profile(2.0), SymbolClass.COMPACT_SUPPORT)
    s2 = Symbol.separable(loop_c2(), rational_vanishing_profile(1.0),
                          SymbolClass.VANISHING_00)
    s3 = Symbol.separable(matrix_loop(k=2), bump_profile(0.5, 6.0),
                          SymbolClass.COMPACT_SUPPORT)
    return [s1, s2, s3]


def fiber_constant_loops():
    """Unit, one-mode and a seeded degree-3 loop (all fiber constant)."""
    rng = np.random.default_rng(31)
    modes = {j: complex(rng.normal(), rng.normal()) / (1.0 + abs(j))
             for j in range(-3, 4)}
    return [Loop.identity(1), Loop.from_scalar_modes({1: 1.0}),
            Loop.from_scalar_modes(modes)]


def homogeneous_sup_norm(a):
    """Largest singular value of either branch of a homogeneous symbol over
    720 equispaced points of the circle."""
    x = 2.0 * np.pi * np.arange(720) / 720
    return max(float(np.max(np.linalg.svd(np.asarray(branch.fn(x), dtype=complex),
                                          compute_uv=False)))
               for branch in (a.plus, a.minus))


# -- Fourier samples ----------------------------------------------------------


def inverse_fourier(grid, coeffs):
    """Samples of sum_n c(n) e^{i n x}, |n| <= N, on the grid (exact inverse)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    spectrum = np.zeros((grid.J,) + coeffs.shape[1:], dtype=complex)
    spectrum[grid.modes % grid.J] = coeffs
    return np.fft.ifft(spectrum, axis=0) * grid.J


# -- dense assembly -------------------------------------------------------------


def dense_assemble(grid, terms):
    """The dense matrix with block (n, m) = sum c(n - m) w(m) over the
    (coeffs, weights) terms, c(j) given for |j| <= 2N: every term
    accumulated into a zero-filled matrix in order."""
    n, k = grid.n_modes, grid.k
    table = np.zeros((n, k, n, k), dtype=complex)
    for coeffs, weights in terms:
        toeplitz = sliding_window_view(coeffs, n, axis=0)[..., ::-1]
        table += toeplitz.transpose(0, 1, 3, 2) * weights[None, None, :, None]
    return table.reshape(grid.dim, grid.dim)


def dense_t_quantize(a, t, grid):
    """T_t(a) assembled densely from its loops' coefficient tables."""
    return dense_assemble(grid, [(loop.table(grid), np.asarray(prof(grid.modes / t),
                                                               dtype=complex))
                                 for loop, prof in a.terms])


def dense_op_quantize(a, theta, grid):
    """Op(a) assembled densely from its two branch terms."""
    return dense_assemble(grid, op_terms(a, theta, grid))


def dense_multiplication_operator(c, grid):
    """pi(c) assembled densely."""
    return dense_assemble(grid, [(c.table(grid), np.ones(grid.n_modes, dtype=complex))])


def dense(op):
    """The dense matrix of a band table (``bands._dense``); a matrix as it is."""
    return _dense(op) if op.ndim == 4 else op


def full_band(mat, k):
    """The band table of every block of a dense matrix of k x k blocks: its
    operator norm reads the same entries as the norm of any narrower table
    of the same matrix (``numerics.operator_norm``)."""
    return matrix_band(mat, k, mat.shape[0] // k - 1)


# -- norms --------------------------------------------------------------------


def dense_gram_norm(mat):
    """``numerics.operator_norm`` with the Gram matrix always applied as two
    dense matrix-vector products, the reference of its band apply: the same
    start vector, reorthogonalization, certificate, step cap, overflow
    checks and SVD fallback."""
    mat = np.asarray(mat)
    check_finite(mat)
    if mat.size == 0:
        return 0.0
    dim = mat.shape[1]
    q = hashed_normals(dim, numerics._LANCZOS_SEED)
    q /= np.linalg.norm(q)
    steps = min(dim, numerics._LANCZOS_MAX_STEPS)
    basis = np.empty((steps, dim), dtype=complex)
    tri = np.zeros((steps, steps))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(steps):
            basis[j] = q
            w = ((mat @ q).conj() @ mat).conj()
            span = basis[:j + 1]
            coef = span.conj() @ w
            w -= coef @ span
            coef2 = span.conj() @ w
            w -= coef2 @ span
            tri[j, j] = (coef[j] + coef2[j]).real
            beta = np.linalg.norm(w)
            if not (np.isfinite(beta) and np.isfinite(tri[j, j])):
                break
            vals, vecs = np.linalg.eigh(tri[:j + 1, :j + 1])
            theta = vals[-1]
            if beta * abs(vecs[-1, -1]) <= numerics._LANCZOS_TOL * theta:
                if theta >= numerics._GRAM_FLOOR:
                    return float(np.sqrt(theta))
                if not mat.any():
                    return 0.0
                break
            if beta == 0.0 or j + 1 == steps:
                break
            tri[j, j + 1] = tri[j + 1, j] = beta
            q = w / beta
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def block_band_matrix(n, k, b, seed):
    """A random complex matrix of n x n blocks k x k, nonzero on the blocks
    (i, j) with |i - j| <= b and zero elsewhere."""
    rng = np.random.default_rng(seed)
    dim = n * k
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    modes = np.arange(dim) // k
    mat[np.abs(modes[:, None] - modes[None, :]) > b] = 0.0
    return mat


# -- dyadic partitions --------------------------------------------------------


def covered_log2_range(p):
    """(u_lo, u_hi) on which the telescoping sum of squares is exactly 1."""
    return p.cut(-p.L - 1) + 1.0, p.cut(p.L)


def sum_of_squares(p, x):
    """sum_i (gamma_i^s)^2 over every bump of the partition."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    for i in range(-p.L, p.L + 1):
        total = total + p.gamma_squared(i, x)
    return total


def gamma_sup_on_modes(p, i, N):
    """sup of gamma_i^s over the nonzero integer frequencies |m| <= N."""
    return float(np.max(p.gamma(i, np.arange(1, N + 1, dtype=float))))


# -- corner compressions ------------------------------------------------------


def restrict_to(op, grid):
    """Corner compression of an operator (a matrix or a band table) onto a
    coarser target grid, as a matrix."""
    op = dense(op)
    keep = _corner(op.shape[0], grid)
    return op[keep, keep].copy()


def live_corner_product(left, right, grid):
    """left right restricted to ``grid``, both factors in full, summed over
    the column range outside which ``left`` is zero (zero when it all is)."""
    keep = _corner(left.shape[0], grid)
    live = np.flatnonzero(left.any(axis=0))
    if live.size == 0:
        return np.zeros((grid.dim, grid.dim), dtype=complex)
    lo, hi = live[0], live[-1] + 1
    return left[keep, lo:hi] @ right[lo:hi, keep]


# -- the sweeps' rows, every operator rebuilt at every t ------------------------


def chart_quantization(a, t, atlas, grid):
    """sum_k T_t(psi_k a)(phi_k f) with both factors of every chart built in
    full on the range padded by CHART_PAD, each product's corner summed over
    the live columns and added to the first."""
    atlas.validate(grid)
    big = padded_grid(grid, CHART_PAD)
    products = (live_corner_product(dense_t_quantize(_windowed(a, psi), t, big),
                                    dense_multiplication_operator(_scalar_window(phi, grid.k),
                                                                  big),
                                    grid)
                for phi, psi in zip(atlas.phis, atlas.psis))
    total = next(products)
    for product in products:
        total += product
    return total


def band_norm(mat, k):
    """The norm of a dense matrix as ``operator_norm`` takes it of a band
    table of that matrix."""
    return operator_norm(full_band(mat, k))


def defect_sweep_rows(grid, cfg):
    """The rows of ``run_defect_sweep``, t by t: the band product of the
    factors on the modes padded by the smaller half-width, the adjoint and
    the differences taken on dense matrices."""
    a, b = cfg["pair"]
    pad = min(_width([loop for loop, _ in s.terms], grid) for s in (a, b))
    big = padded_grid(grid, pad)
    atlas = Atlas.default_two_charts()

    def row(t):
        chart = cfg["chart_symbol"]
        product = _crop(_band_product(t_quantize(a, t, big), t_quantize(b, t, big)), pad)
        return {
            "t": t,
            "mult_defect": operator_norm(_band_diff(product, t_quantize(a * b, t, grid))),
            "adjoint_defect": band_norm(dense_t_quantize(a, t, grid).conj().T
                                        - dense_t_quantize(a.adjoint(), t, grid), grid.k),
            "chart_defect": operator_norm(chart_quantization(chart, t, atlas, grid)
                                          - dense_t_quantize(chart, t, grid)),
            "t0_norm": band_norm(dense_t_quantize(cfg["t0_symbol"], t, grid), grid.k),
        }

    return [row(2.0 ** e) for e in sorted(cfg["t_exponents"])]


def ch_compare_rows(grid, cfg):
    """The rows of ``run_ch_compare``, t by t, with Op(d) and pi(c) rebuilt
    for every image and each difference taken on dense matrices."""
    units = [("default", default_unit()), ("alt", tail_deformed_unit())]

    def row(t):
        out = {"t": t}
        for label, f, d in cfg["cases"]:
            T = dense_t_quantize(smash(f, d), t, grid)
            for uname, unit in units:
                out[f"{label}|{uname}"] = band_norm(
                    _dense(ch_apply(f, d, t, unit, THETA, grid)) - T, grid.k)
        for label, g, c in cfg["extended_cases"]:
            T = dense_t_quantize(Symbol.separable(c, g.even(), SymbolClass.FULL_C0), t, grid)
            for uname, unit in units:
                out[f"ext:{label}|{uname}"] = band_norm(
                    _dense(ch_extended_apply(g, c, t, unit, grid)) - T, grid.k)
        return out

    return [row(2.0 ** e) for e in sorted(cfg["t_exponents"])]


def homotopy_rows(grid, cfg):
    """The rows of ``run_homotopy_verify``, every block quantized from its
    symbol and every difference a new array."""
    a, bands, L_list = cfg["symbol"], cfg["bands"], cfg["L_list"]
    vectors = [band_vector(grid, band, seed=3 + i) for i, band in enumerate(bands)]
    parts = {s: build_partition(s, cfg["L"]) for s in cfg["s_values"]}
    i_theta = int(np.ceil(np.log2(2.0 * THETA.r0)))
    p1 = build_partition(1.0, max(cfg["L"], max(L_list), i_theta + 3))
    op_a = op_quantize(a, THETA, grid)
    s_desc = sorted(cfg["s_values"], reverse=True)
    rows = []
    for s in s_desc:
        A = _psi_block(a, parts[s], THETA, 0, 0, grid)
        rows.append({"kind": "equ1", "key": s,
                     **{f"band{band}": float(np.linalg.norm(_apply(A, f) - _apply(op_a, f)))
                        for band, f in zip(bands, vectors)}})
    for s in s_desc:
        A = _psi_block(a, parts[s], THETA, 1, 1, grid)
        rows.append({"kind": "equ2", "key": s,
                     **{f"band{band}": float(np.linalg.norm(_apply(A, f)))
                        for band, f in zip(bands, vectors)}})
    for i in range(i_theta - 1, i_theta + 3):
        window = gamma_profile(p1, i) * gamma_profile(p1, i)
        rows.append({"kind": "theta", "key": i, "value": band_norm(
            _dense(_psi_block(a, p1, THETA, i, i, grid))
            - dense_t_quantize(smash(window, a), 1.0, grid), grid.k)})
    norms = {}
    for i, j in _band(max(L_list)):
        if abs(i) >= i_theta:
            diff = (_dense(_psi_block(a, p1, THETA, i, j, grid))
                    - _dense(_inverse_block(a, p1, i, j, grid)))
            if np.any(diff):
                norms[(i, j)] = band_norm(diff, grid.k)
    for L in L_list:
        total = 0.0
        for (i, j), value in norms.items():
            if max(abs(i), abs(j)) <= L:
                total += value
        rows.append({"kind": "endpoint", "key": L, "value": total})
    return rows


# -- block operators and the extension -----------------------------------------


def psi_blocks(a, s, p_s, theta, L, grid):
    """{(i, j): band table} of the family psi_s: the single block Op(a) at
    s = 0, else every block |i - j| <= 1 with |i|, |j| <= L."""
    if s == 0:
        return {(0, 0): op_quantize(a, theta, grid)}
    return {(i, j): _psi_block(a, p_s, theta, i, j, grid) for i, j in _band(L)}


def inverse_blocks(a, p, L, grid):
    """{(i, j): band table} of the inverse map, every block of the band up
    to L."""
    return {(i, j): _inverse_block(a, p, i, j, grid) for i, j in _band(L)}


def block_difference(A, B):
    """Blockwise A - B over the union of the keys, in set order."""
    return {key: A.get(key, 0.0) - B.get(key, 0.0) for key in set(A) | set(B)}


def block_dense(blocks, L):
    """The assembled (2L+1) dim square matrix of a dict of band tables."""
    mats = {key: _dense(band) for key, band in blocks.items()}
    d = next(iter(mats.values())).shape[0]
    out = np.zeros(((2 * L + 1) * d, (2 * L + 1) * d), dtype=complex)
    for (i, j), mat in mats.items():
        out[(i + L) * d:(i + L + 1) * d, (j + L) * d:(j + L + 1) * d] = mat
    return out


def block_apply(blocks, vec):
    """A dict of band tables applied to a block vector of shape (2L+1, dim)."""
    vec = np.asarray(vec, dtype=complex)
    L = (len(vec) - 1) // 2
    out = np.zeros_like(vec)
    for (i, j), band in blocks.items():
        out[i + L] += _dense(band) @ vec[j + L]
    return out


def tail_norm(op, grid, K):
    """max(||X (I - P_K)||, ||(I - P_K) X||) of an operator X on ``grid``, P_K
    the projection onto the modes |n| <= K; its decay in K is the finite-size
    surrogate for membership of X in the compact ideal.  X is a matrix or a
    band table."""
    op, mask = dense(op), grid.tail_mask(K)
    return max(operator_norm(op[:, mask]), operator_norm(op[mask, :].conj().T))


def op_defects(a, b, theta, grid):
    """Op(a) Op(b) - Op(ab) and [Op(a), Op(b)], formed on a range padded by
    the larger declared degree plus 8 (by 96 when neither declares one) and
    compressed onto ``grid``."""
    degs = [s.degree for s in (a, b) if s.degree is not None]
    big = padded_grid(grid, max(degs) + 8 if degs else 96)
    ab = HomogeneousSymbol(a.plus * b.plus, a.minus * b.minus)
    Xa, Xb, Xab = (dense_op_quantize(s, theta, big) for s in (a, b, ab))
    return (restrict_to(Xa @ Xb - Xab, grid),
            restrict_to(Xa @ Xb - Xb @ Xa, grid))


def lifting_tail(c, theta, grid):
    """Column tail ||(Op(c) - pi(c)) (I - P_K)|| of a fiber-constant loop c at
    K = r0 + deg c, where the cutting function reaches one on every band."""
    diff = (dense_op_quantize(HomogeneousSymbol(c, c), theta, grid)
            - dense_multiplication_operator(c, grid))
    return operator_norm(diff[:, grid.tail_mask(int(np.ceil(theta.r0)) + c.degree)])


def unit_commutator(u, t, a, theta, grid):
    """||[u_t, Op(a)]|| for the diagonal approximate unit u_t."""
    w = np.repeat(u.values(t, grid), grid.k)
    X = dense_op_quantize(a, theta, grid)
    return operator_norm(w[:, None] * X - X * w[None, :])


# -- sampled quantization -----------------------------------------------------


def sampled_quantization(fn, t, grid):
    """Dense t-quantization of a sampled matrix function a(x, xi).

    ``fn(x, xis) -> (J, len(xis), k, k)`` is called on blocks of 128
    ascending rescaled frequencies xis = m / t, the blocks of the pairing
    assembly, and entry (n, m) is gathered from the block spectrum by an
    (n - m) mod J index array.
    """
    modes = grid.modes
    n, k = grid.n_modes, grid.k
    table = np.zeros((n, k, n, k), dtype=complex)
    for start in range(0, n, 128):
        cols = modes[start:start + 128]
        vals = np.asarray(fn(grid.x, cols / t), dtype=complex)
        spectrum = np.fft.fft(vals, axis=0) / grid.J
        idx = (modes[:, None] - cols[None, :]) % grid.J
        block = spectrum[idx, np.arange(len(cols))[None, :]]
        table[:, :, start:start + len(cols), :] = block.transpose(0, 2, 1, 3)
    return table.reshape(grid.dim, grid.dim)


def padded_chart_quantization(a, t, atlas, grid, pad=64):
    """sum_k T_t(psi_k a) M(phi_k), each product formed in full on the mode
    range enlarged by ``pad`` and the sum compressed back onto ``grid``."""
    big = padded_grid(grid, pad)
    total = sum(dense_t_quantize(_windowed(a, psi), t, big)
                @ dense_multiplication_operator(_scalar_window(phi, grid.k), big)
                for phi, psi in zip(atlas.phis, atlas.psis))
    return restrict_to(total, grid)


# -- clutching projections ----------------------------------------------------


def corner(k):
    """The fiber-infinity limit diag(0, I_k) of every clutching projection."""
    out = np.zeros((2 * k, 2 * k), dtype=complex)
    out[k:, k:] = np.eye(k)
    return out


def clutching_samples(sigma, x, xis):
    """(len(x), len(xis), 2k, 2k) closed-form samples of p_sigma - corner.

    The clutching projection of b = |xi| sigma(x, xi) at ascending xis:
    negative xis from the minus branch, the rest (xi = 0 included) from the
    plus branch, each branch factored at the points x.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xis = np.asarray(xis, dtype=float)
    r, split, k = np.abs(xis), int(np.searchsorted(xis, 0.0)), sigma.k
    out = np.empty((x.size, xis.size, 4 * k * k), dtype=complex)
    for sign, cols in ((-1, slice(None, split)), (+1, slice(split, None))):
        _clutching_samples(_clutching_factors(sigma.branch(sign).fn(x)), r[cols],
                           out[:, cols])
    return out.reshape(x.size, xis.size, 2 * k, 2 * k)


def clutching_projection(sigma, x, xi):
    """(len(x), 2k, 2k) samples of the clutching projection at one xi."""
    return clutching_samples(sigma, x, [xi])[:, 0] + corner(sigma.k)


def band_matrix(band):
    """The dense matrix of a band table: block (m + l, m) is band[b + l, m]."""
    w, n, k2 = band.shape[:3]
    b = w // 2
    out = np.zeros((n, k2, n, k2), dtype=complex)
    for l in range(-b, b + 1):
        m = np.arange(max(0, -l), min(n, n - l))
        out[m + l, :, m, :] = band[b + l, m]
    return out.reshape(n * k2, n * k2)


def matrix_band(mat, k2, b):
    """Band table of the 2k x 2k blocks (n, m), |n - m| <= b, of a dense
    matrix; zero where row m + l leaves the matrix."""
    n = mat.shape[0] // k2
    blocks = mat.reshape(n, k2, n, k2)
    band = np.zeros((2 * b + 1, n, k2, k2), dtype=complex)
    for l in range(-b, b + 1):
        m = np.arange(max(0, -l), min(n, n - l))
        band[b + l, m] = blocks[m + l, :, m, :]
    return band


def naive_trace_pairing(sigma, t, grid):
    """Entrywise trace of T_t(p_sigma - p_unit), both sampled in closed form."""
    unit = HomogeneousSymbol.unit(sigma.k)

    def q_fn(x, xis):
        return clutching_samples(sigma, x, xis) - clutching_samples(unit, x, xis)

    g2 = CircleGrid(J=grid.J, N=grid.N, k=2 * sigma.k)
    return float(np.real(np.trace(sampled_quantization(q_fn, t, g2))))


def four_shift_band_count(band, delta):
    """``index_theory._band_count`` with all four shifts factored at once.

    One block LDL^H of H_b - s at s = 0.4 -+ m, 0.6 -+ m, m = delta + the
    allowance: an eigenvalue of H_b + E in (0.4 + m, 0.6 - m] is
    inconclusive, none in (0.4 - m, 0.6 + m] is conclusive, anything else
    (or a small pivot, or a backward error above the allowance at any of
    the four shifts) is None.
    """
    m = delta + _LDL_ALLOWANCE
    lo, hi = 0.5 - PAIRING_GAP, 0.5 + PAIRING_GAP
    ldl = _band_ldl(band, np.array([lo - m, lo + m, hi - m, hi + m]))
    if ldl is None:
        return None
    vals, _, _, err = ldl
    if err > _LDL_ALLOWANCE:
        return None
    above = np.sum(vals > 0.0, axis=(0, 2))
    if above[1] > above[2]:
        return int(above[3]), False
    if above[0] == above[3]:
        return int(above[3]), True
    return None


#: the drop bound up to which ``tolerance_band`` takes a width
BAND_TOL = 1e-4


def tolerance_band(tables, t, grid):
    """(band, delta) of the first width in b0, 2 b0, 4 b0, ... whose drop
    bound delta is at most BAND_TOL, the last try clipped to exactly
    _BAND_CAP * N, or None when no width up to there fits: the width rule
    that ``index_theory._pairing_count`` replaces by widening until its own
    band count decides."""
    factors, width = tables
    cap = int(_BAND_CAP * grid.N)
    while width is not None:
        band, delta = _band_coefficients(width, t, grid)
        if delta <= BAND_TOL:
            return band, delta
        b = width[0]
        width = None if b == cap else _band_tables(factors, grid, min(2 * b, cap), once=True)
    return None


def per_t_pairing_count(sigma, t, grid):
    """(count above 1/2, conclusive) of the pairing at t with everything
    taken at this t alone: the branch factors and the first band tables,
    the ``tolerance_band``, the band count at four shifts, and the dense
    count where it declines."""
    tables = _pairing_tables(sigma, grid)
    band = tolerance_band(tables, t, grid)
    counted = None if band is None else four_shift_band_count(*band)
    if counted is not None:
        return counted
    count, gap = _count_above_half(tables[0], t, grid)
    return count, gap >= PAIRING_GAP


def in_pairing_window(sigma, t, grid):
    """Whether the clutching of sigma fits the modes at t: with the extreme
    singular values S and s of the branch samples on the grid,
    S / t <= 1/2 at the first mode and N s / t >= 2 (N / t >= 2 also) at
    the cutoff, the second up to a relative 1e-14."""
    s = np.concatenate([np.linalg.svd(np.asarray(sigma.branch(sign)(grid.x)),
                                      compute_uv=False).ravel() for sign in (-1, 1)])
    return (s.max() / t <= 0.5 and grid.N / t >= 2.0
            and s.min() * grid.N / t >= 2.0 * (1.0 - 1e-14))


def sequential_ldl(band, shifts):
    """The block LDL^H of H_b - s by the sequential pivot recurrence, the
    reference of ``bands._band_ldl``.

    H_b, the Hermitian part of the band table, is grouped into super-blocks
    of q = max(b, 4) modes (the last padded with zero modes, carried as -s)
    and factored by D_0 = A_0 - s, D_i = A_i - s - C_i D_{i-1}^{-1} C_i^H,
    one batched eigen-solve over the shifts per pivot.  Returns (vals,
    vecs, sub, err) with vals[i, j] the eigenvalues of D_i at the shift j,
    sub[i] = C_{i+1} and err = ``ldl_error_bound(vals, sub)``, or None on
    a non-finite pivot or one with an eigenvalue below the pivot floor.
    """
    w, n, k2 = band.shape[:3]
    b = w // 2
    q = max(b, 4)
    nb = -(-n // q)
    dense = np.zeros((nb * q * k2,) * 2, dtype=complex)
    dense[:n * k2, :n * k2] = band_matrix(band)
    dense = 0.5 * (dense + dense.conj().T)
    p = q * k2
    diag = np.stack([dense[i * p:(i + 1) * p, i * p:(i + 1) * p] for i in range(nb)])
    sub = np.array([dense[(i + 1) * p:(i + 2) * p, i * p:(i + 1) * p]
                    for i in range(nb - 1)]).reshape(nb - 1, p, p)
    vals = np.empty((nb, shifts.size, p))
    vecs = np.empty((nb, shifts.size, p, p), dtype=complex)
    for i in range(nb):
        pivot = diag[i] - shifts[:, None, None] * np.eye(p)
        if i:
            g = sub[i - 1] @ vecs[i - 1]
            pivot -= (g / vals[i - 1, :, None, :]) @ g.conj().swapaxes(-1, -2)
        if not np.isfinite(pivot).all():
            return None
        vals[i], vecs[i] = np.linalg.eigh(pivot)
        if abs(vals[i]).min() < _PIVOT_FLOOR:
            return None
    return vals, vecs, sub, ldl_error_bound(vals, sub)


def ldl_error_bound(vals, sub):
    """The backward-error bound of ``sequential_ldl`` pivot by pivot:
    4 p eps max_i (||D_i|| + ||C_i||_F^2 / min |lambda(D_{i-1})|)."""
    worst = growth = 0.0
    for i in range(len(vals)):
        if i:
            growth = np.linalg.norm(sub[i - 1]) ** 2 / np.min(np.abs(vals[i - 1]))
        worst = max(worst, np.max(np.abs(vals[i])) + growth)
    return 4 * vals.shape[-1] * np.finfo(float).eps * worst


def cyclic_reduction(band, shifts):
    """``bands._band_ldl`` stated on the dense matrix, level by level, pivot
    by pivot and shift by shift.

    H_b - s, padded with zero modes to whole blocks of q = max(b, 1) modes,
    loses its even blocks at each level: each is a pivot D_e with one
    eigen-solve, and the odd blocks keep the Schur complement, taken by a
    dense solve.  Returns (vals, err): the pivot eigenvalues, shape
    (pivots, shifts, p), level by level and each level in block order, and
    max_s sum_levels 4 p eps max_e (||D_e|| + (||C_{e-1}||_F^2 +
    ||C_e||_F^2) / min |lambda(D_e)|), ||D_e|| taken before the shift at
    the first level.
    """
    w, n, k2 = band.shape[:3]
    b = w // 2
    p = max(b, 1) * k2
    nb = -(-n * k2 // p)
    dense = np.zeros((nb * p,) * 2, dtype=complex)
    dense[:n * k2, :n * k2] = band_matrix(band)
    dense = 0.5 * (dense + dense.conj().T)
    eps = np.finfo(float).eps
    vals, errs = [], []
    for s in shifts:
        mat, level, pivots, err = dense - s * np.eye(nb * p), 0, [], 0.0
        while len(mat):
            count = len(mat) // p
            block = [slice(i * p, (i + 1) * p) for i in range(count)]
            worst = 0.0
            for e in range(0, count, 2):
                lam = np.linalg.eigvalsh(mat[block[e], block[e]])
                top = np.max(np.abs(lam + s if level == 0 else lam))
                mass = sum(np.linalg.norm(mat[block[j], block[e]]) ** 2
                           for j in (e - 1, e + 1) if 0 <= j < count)
                worst = max(worst, top + mass / np.min(np.abs(lam)))
                pivots.append(lam)
            err += 4 * p * eps * worst
            odd = np.concatenate([np.arange(block[j].start, block[j].stop)
                                  for j in range(1, count, 2)] or [np.arange(0)])
            even = np.setdiff1d(np.arange(len(mat)), odd)
            mat = (mat[np.ix_(odd, odd)] - mat[np.ix_(odd, even)]
                   @ np.linalg.solve(mat[np.ix_(even, even)], mat[np.ix_(even, odd)]))
            level += 1
        vals.append(pivots)
        errs.append(err)
    return np.array(vals).swapaxes(0, 1), max(errs)
