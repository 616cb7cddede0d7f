"""Slow references and test data for the tests (``from oracles import ...``).

Each reference states one object of the model directly, such as a dense
block assembly or a clutching projection with its corner, so that a test
can hold the program's result against it."""

import numpy as np

from psilab.connes_higson import (ch_apply, ch_extended_apply, default_unit,
                                  tail_deformed_unit)
from psilab.experiments import THETA
from psilab.homotopy import _band, _inverse_block, _psi_block
from psilab.index_theory import (_LDL_ALLOWANCE, PAIRING_GAP, _band_ldl, _clutching_factors,
                                 _clutching_samples, _count_above_half, _pairing_band,
                                 _pairing_tables)
from psilab.numerics import CircleGrid, operator_norm
from psilab.partition import build_partition
from psilab.quantize import (CHART_PAD, Atlas, _corner, _scalar_window, _windowed,
                             multiplication_operator, op_quantize, padded_grid, t_quantize)
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
    """Corner compression of an operator onto a coarser target grid."""
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
    products = (live_corner_product(t_quantize(_windowed(a, psi), t, big),
                                    multiplication_operator(_scalar_window(phi, grid.k), big),
                                    grid)
                for phi, psi in zip(atlas.phis, atlas.psis))
    total = next(products)
    for product in products:
        total += product
    return total


def defect_sweep_rows(grid, cfg):
    """The rows of ``run_defect_sweep``, t by t."""
    a, b = cfg["pair"]
    big = padded_grid(grid, 8)
    atlas = Atlas.default_two_charts()

    def row(t):
        chart = cfg["chart_symbol"]
        return {
            "t": t,
            "mult_defect": operator_norm(
                live_corner_product(t_quantize(a, t, big), t_quantize(b, t, big), grid)
                - restrict_to(t_quantize(a * b, t, big), grid)),
            "adjoint_defect": operator_norm(t_quantize(a, t, grid).conj().T
                                            - t_quantize(a.adjoint(), t, grid)),
            "chart_defect": operator_norm(chart_quantization(chart, t, atlas, grid)
                                          - t_quantize(chart, t, grid)),
            "t0_norm": operator_norm(t_quantize(cfg["t0_symbol"], t, grid)),
        }

    return [row(2.0 ** e) for e in sorted(cfg["t_exponents"])]


def ch_compare_rows(grid, cfg):
    """The rows of ``run_ch_compare``, t by t, with Op(d) and pi(c) rebuilt
    for every image."""
    units = [("default", default_unit()), ("alt", tail_deformed_unit())]

    def row(t):
        out = {"t": t}
        for label, f, d in cfg["cases"]:
            T = t_quantize(smash(f, d), t, grid)
            for uname, unit in units:
                out[f"{label}|{uname}"] = operator_norm(
                    ch_apply(f, d, t, unit, THETA, grid) - T)
        for label, g, c in cfg["extended_cases"]:
            T = t_quantize(Symbol.separable(c, g.even(), SymbolClass.FULL_C0), t, grid)
            for uname, unit in units:
                out[f"ext:{label}|{uname}"] = operator_norm(
                    ch_extended_apply(g, c, t, unit, grid) - T)
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
                     **{f"band{band}": float(np.linalg.norm(A @ f - op_a @ f))
                        for band, f in zip(bands, vectors)}})
    for s in s_desc:
        A = _psi_block(a, parts[s], THETA, 1, 1, grid)
        rows.append({"kind": "equ2", "key": s,
                     **{f"band{band}": float(np.linalg.norm(A @ f))
                        for band, f in zip(bands, vectors)}})
    for i in range(i_theta - 1, i_theta + 3):
        without = t_quantize(smash(gamma_profile(p1, i) * gamma_profile(p1, i), a), 1.0, grid)
        rows.append({"kind": "theta", "key": i, "value": operator_norm(
            _psi_block(a, p1, THETA, i, i, grid) - without)})
    norms = {}
    for i, j in _band(max(L_list)):
        if abs(i) >= i_theta:
            diff = _psi_block(a, p1, THETA, i, j, grid) - _inverse_block(a, p1, i, j, grid)
            if np.any(diff):
                norms[(i, j)] = operator_norm(diff)
    for L in L_list:
        total = 0.0
        for (i, j), value in norms.items():
            if max(abs(i), abs(j)) <= L:
                total += value
        rows.append({"kind": "endpoint", "key": L, "value": total})
    return rows


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
    total = sum(t_quantize(_windowed(a, psi), t, big)
                @ multiplication_operator(_scalar_window(phi, grid.k), big)
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


def per_t_pairing_count(sigma, t, grid):
    """(count above 1/2, conclusive) of the pairing at t with everything
    taken at this t alone: the branch factors and the first band tables,
    the band count at four shifts, and the dense count where it declines."""
    tables = _pairing_tables(sigma, grid)
    band = _pairing_band(tables, t, grid)
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


def ldl_error_bound(vals, sub):
    """The backward-error bound of ``_band_ldl`` pivot by pivot:
    4 p eps max_i (||D_i|| + ||C_i||_F^2 / min |lambda(D_{i-1})|)."""
    worst = growth = 0.0
    for i in range(len(vals)):
        if i:
            growth = np.linalg.norm(sub[i - 1]) ** 2 / np.min(np.abs(vals[i - 1]))
        worst = max(worst, np.max(np.abs(vals[i])) + growth)
    return 4 * vals.shape[-1] * np.finfo(float).eps * worst
