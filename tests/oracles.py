"""Slow references and test data for the tests (``from oracles import ...``).

Each reference states one object of the model directly, such as a dense
block assembly or a clutching projection with its corner, so that a test
can hold the program's result against it."""

import numpy as np

from psilab.homotopy import _band, _inverse_block, _psi_block
from psilab.index_theory import _clutching_factors, _clutching_samples
from psilab.numerics import CircleGrid, operator_norm
from psilab.quantize import (_scalar_multiplier, _windowed, multiplication_operator,
                             op_quantize, padded_grid, restrict_to, t_quantize)
from psilab.presets import loop_c1, loop_c2
from psilab.symbols import (HomogeneousSymbol, Loop, RadialProfile, Symbol,
                            SymbolClass, bump_profile, cap_profile,
                            rational_vanishing_profile)


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


# -- block operators and the extension -----------------------------------------


def psi_blocks(a, s, p_s, theta, L, grid):
    """{(i, j): matrix} of the family psi_s: the single block Op(a) at s = 0,
    else every block |i - j| <= 1 with |i|, |j| <= L."""
    if s == 0:
        return {(0, 0): op_quantize(a, theta, grid)}
    return {(i, j): _psi_block(a, p_s, theta, i, j, grid) for i, j in _band(L)}


def inverse_blocks(a, p, L, grid):
    """{(i, j): matrix} of the inverse map, every block of the band up to L."""
    return {(i, j): _inverse_block(a, p, i, j, grid) for i, j in _band(L)}


def block_difference(A, B):
    """Blockwise A - B over the union of the keys, in set order."""
    return {key: A.get(key, 0.0) - B.get(key, 0.0) for key in set(A) | set(B)}


def block_dense(blocks, L):
    """The assembled (2L+1) dim square matrix of a block dict."""
    d = next(iter(blocks.values())).shape[0]
    out = np.zeros(((2 * L + 1) * d, (2 * L + 1) * d), dtype=complex)
    for (i, j), mat in blocks.items():
        out[(i + L) * d:(i + L + 1) * d, (j + L) * d:(j + L + 1) * d] = mat
    return out


def block_apply(blocks, vec):
    """A block dict applied to a block vector of shape (2L+1, dim)."""
    vec = np.asarray(vec, dtype=complex)
    L = (len(vec) - 1) // 2
    out = np.zeros_like(vec)
    for (i, j), mat in blocks.items():
        out[i + L] += mat @ vec[j + L]
    return out


def tail_norm(op, grid, K):
    """max(||X (I - P_K)||, ||(I - P_K) X||) of an operator X on ``grid``, P_K
    the projection onto the modes |n| <= K; its decay in K is the finite-size
    surrogate for membership of X in the compact ideal."""
    mask = grid.tail_mask(K)
    return max(operator_norm(op[:, mask]), operator_norm(op[mask, :].conj().T))


def op_defects(a, b, theta, grid):
    """Op(a) Op(b) - Op(ab) and [Op(a), Op(b)], formed on a range padded by
    the larger declared degree plus 8 (by 96 when neither declares one) and
    compressed onto ``grid``."""
    degs = [s.degree for s in (a, b) if s.degree is not None]
    big = padded_grid(grid, max(degs) + 8 if degs else 96)
    ab = HomogeneousSymbol(a.plus * b.plus, a.minus * b.minus)
    Xa, Xb, Xab = (op_quantize(s, theta, big) for s in (a, b, ab))
    return (restrict_to(Xa @ Xb - Xab, grid),
            restrict_to(Xa @ Xb - Xb @ Xa, grid))


def lifting_tail(c, theta, grid):
    """Column tail ||(Op(c) - pi(c)) (I - P_K)|| of a fiber-constant loop c at
    K = r0 + deg c, where the cutting function reaches one on every band."""
    diff = (op_quantize(HomogeneousSymbol(c, c), theta, grid)
            - multiplication_operator(c, grid))
    return operator_norm(diff[:, grid.tail_mask(int(np.ceil(theta.r0)) + c.degree)])


def unit_commutator(u, t, a, theta, grid):
    """||[u_t, Op(a)]|| for the diagonal approximate unit u_t."""
    w = np.repeat(u.values(t, grid), grid.k)
    X = op_quantize(a, theta, grid)
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
    total = sum(t_quantize(_windowed(a, psi), t, big) @ _scalar_multiplier(phi, big)
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
