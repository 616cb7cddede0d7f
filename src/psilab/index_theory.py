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

from .numerics import fourier_coefficients
from .quantize import op_quantize, padded_grid
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


def _gapped_small_count(svals, eps):
    """Number of singular values below eps, conclusive only with a 1e3 gap."""
    svals = np.sort(svals)
    counted = svals[svals < eps]
    uncounted = svals[svals >= eps]
    top = float(counted[-1]) if counted.size else 0.0
    bottom = float(uncounted[0]) if uncounted.size else np.inf
    if counted.size and bottom < 1e3 * top:
        raise InconclusiveIndexError(
            f"singular values {top:.3e} and {bottom:.3e} straddle eps={eps:.1e} "
            "without a 1e+03 gap; increase N or adjust eps_rank")
    if not counted.size and bottom < 10.0 * eps:
        raise InconclusiveIndexError(
            f"smallest singular value {bottom:.3e} sits too close to eps={eps:.1e}")
    return int(counted.size)


def fredholm_index_svd(sigma, theta, grid, eps_rank=1e-6):
    """Kernel count of Op(sigma) minus kernel count of its adjoint.

    Square corners of an operator can never show an index (their kernel and
    cokernel dimensions agree by rank-nullity), so both counts are taken on
    tall column-complete truncations: domain modes |m| <= N, range modes
    enlarged by the symbol bandwidth plus 8.  These converge to the kernel
    and cokernel of the untruncated operator.  A count is inconclusive
    unless a factor 1e3 separates the singular values below eps_rank from
    those above it.

    Raises InconclusiveIndexError unless r0 + degree < N: otherwise the
    cutting function does not reach one on a full symbol band inside the
    mode range, and the kernel counts would report a wrong integer.
    """
    if not isinstance(sigma, HomogeneousSymbol):
        raise TypeError("expected a homogeneous symbol")
    for branch in (sigma.plus, sigma.minus):
        winding_number(branch)  # raises if a branch is not invertible
    deg = sigma.degree if sigma.degree is not None else 16
    if not theta.r0 + deg < grid.N:
        raise InconclusiveIndexError(
            f"cutting radius {theta.r0:g} plus symbol degree {deg} reaches the "
            f"mode cutoff N={grid.N}; increase N")
    big = padded_grid(grid, deg + 8)
    X = op_quantize(sigma, theta, big).mat
    keep = ~big.tail_mask(grid.N)
    tall = X[:, keep]
    tall_adj = X.conj().T[:, keep]
    k_ker = _gapped_small_count(np.linalg.svd(tall, compute_uv=False), eps_rank)
    k_coker = _gapped_small_count(np.linalg.svd(tall_adj, compute_uv=False), eps_rank)
    return k_ker - k_coker


def analytic_index(sigma):
    """Winding formula: ANALYTIC_SIGN * (w(minus) - w(plus))."""
    if not isinstance(sigma, HomogeneousSymbol):
        raise TypeError("expected a homogeneous symbol")
    w_plus = winding_number(sigma.plus)
    w_minus = winding_number(sigma.minus)
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


def _clutching_samples(factors, r, out):
    """Write the samples of p - corner for b = r u into out, (J, len(r), 4k^2)."""
    s, pieces = factors
    rs = r[None, :, None] * s[:, None, :]
    d0 = 1.0 / (1.0 + rs * rs)
    weights = np.concatenate([d0, rs * d0], axis=-1).astype(complex)
    np.matmul(weights, pieces, out=out)


# -- the spectral pairing ----------------------------------------------------

#: columns of the pairing matrix sampled and transformed together
_BLOCK = 128


def _pairing_matrix(sigma, t, grid):
    """T_t(p_sigma - corner) on the modes |m| <= N, 2k x 2k blocks.

    The clutching symbol is b(x, xi) = |xi| sigma(x, xi); its graph
    projection p is exact and p - diag(0, I) vanishes at fiber infinity like
    1 / |xi|.  Each branch is factored once on the grid points.  Every block
    of 128 ascending column modes m is then sampled in closed form at
    xi = m / t, negative modes from the minus branch and the rest (m = 0
    included) from the plus branch, as two contiguous column slices; entry
    (n, m) is the x-Fourier coefficient c_m(n - m) of column m.
    """
    x, N, n, k2 = grid.x, grid.N, grid.n_modes, 2 * sigma.k
    minus, plus = (_clutching_factors(sigma.branch(sign).fn(x)) for sign in (-1, +1))
    modes = grid.modes
    table = np.empty((n, k2, n, k2), dtype=complex)
    for start in range(0, n, _BLOCK):
        xis = modes[start:start + _BLOCK] / t
        r = np.abs(xis)
        split = int(np.searchsorted(xis, 0.0))
        vals = np.empty((grid.J, xis.size, k2 * k2), dtype=complex)
        _clutching_samples(minus, r[:split], vals[:, :split])
        _clutching_samples(plus, r[split:], vals[:, split:])
        # centred[l + 2N, b] = c_b(l), |l| <= 2N, for the column of block index b
        centred = fourier_coefficients(grid, vals.reshape(grid.J, xis.size, k2, k2))
        # entry (n, b) = c_b(n - start - b): a Toeplitz view skewed by one column
        s0, s1, s2, s3 = centred.strides
        block = as_strided(centred[2 * N - start:], shape=(n, xis.size, k2, k2),
                           strides=(s0, s1 - s0, s2, s3), writeable=False)
        table[:, :, start:start + xis.size, :] = block.transpose(0, 2, 1, 3)
    return table.reshape(n * k2, n * k2)


def _count_above_half(sigma, t, grid):
    """Eigenvalue count > 1/2 of P_inf + T_t(p_sigma - corner), with its gap.

    P_inf is the corner diag(0, I) in every mode, added on the diagonal.
    """
    k = sigma.k
    mat = _pairing_matrix(sigma, t, grid)
    bottom = (2 * k * np.arange(grid.n_modes)[:, None]
              + np.arange(k, 2 * k)[None, :]).ravel()
    mat[bottom, bottom] += 1.0
    evals = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
    gap = float(np.min(np.abs(evals - 0.5)))
    return int(np.sum(evals > 0.5)), gap


def higson_trace_index(sigma, t, grid):
    """Spectral pairing of the clutching class with the deformation at time t.

    Counts eigenvalues above 1/2 of the deformed clutching projection and
    subtracts the count of its trivial companion; the difference (times the
    calibrated sign) is the pairing value.  The companion, the clutching
    projection of the unit symbol, does not depend on x, so its deformation
    is block diagonal with one rank-k projection per mode: its count is
    exactly k (2N + 1), with gap 1/2.

    Raises InconclusiveIndexError when the clutching cannot develop inside
    the mode range (radius N / t below PAIRING_MIN_RADIUS) or when
    an eigenvalue sits within PAIRING_GAP of 1/2; past the edge the
    deformation collapses to the zero-section value and the counts would
    silently agree.

    The literal entrywise trace of the difference vanishes identically
    (both projections have pointwise trace k), so the class content is
    carried entirely by the spectral counts.
    """
    for branch in (sigma.plus, sigma.minus):
        winding_number(branch)  # raises if a branch is not invertible
    if grid.N / t < PAIRING_MIN_RADIUS:
        raise InconclusiveIndexError(
            f"clutching radius {grid.N / t:.2f} at the mode cutoff is below "
            f"{PAIRING_MIN_RADIUS}; the clutching does not complete at t={t}, "
            "reduce t or increase N")
    cnt, gap = _count_above_half(sigma, t, grid)
    if gap < PAIRING_GAP:
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


def index_report(sigma, grid, theta, t_grid, label, eps_rank=1e-6):
    """Run all three routes and flag agreement.

    Higson values that are inconclusive at large t are reported as None; the
    limit is the value at the largest conclusive t, rounded only when within
    0.25 of an integer.  Agreement requires every conclusive route to give
    the same integer; an inconclusive route never counts as agreement.
    """
    w_plus = winding_number(sigma.plus)
    w_minus = winding_number(sigma.minus)
    analytic = analytic_index(sigma)

    fredholm, fredholm_bad = None, False
    try:
        fredholm = fredholm_index_svd(sigma, theta, grid, eps_rank=eps_rank)
    except InconclusiveIndexError:
        fredholm_bad = True

    traces = []
    for t in t_grid:
        try:
            traces.append(higson_trace_index(sigma, t, grid))
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
                "eps_rank": eps_rank, "theta_r0": theta.r0},
    )
