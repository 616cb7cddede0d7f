"""Blocks of the banded operators connecting the deformation back to the
extension.

The inverse construction places rescaled quantizations of partition-
windowed symbols on a tridiagonal block grid indexed by the dyadic scale;
the one-parameter family psi_s deforms this picture into the order-zero
operator sitting in the single central block.  Exact translation
invariance of the rescaled quantization makes the comparison between the
two endpoints finite rank: all discrepancies live in the finitely many
blocks where the cutting function is below one.  The checks build and
compare blocks one at a time; no block operator is assembled whole.
Every block is a rescaled quantization of smash(profile, a), whose loops
are the branches of a, so every block reads the branches' own tables
(``Loop.table``) and only its column weights are new.  Blocks are band
tables (``bands``).
"""

from __future__ import annotations

import numpy as np

from .bands import _band_apply, _band_diff
from .numerics import operator_norm
from .partition import DyadicPartition
from .quantize import t_quantize
from .symbols import HomogeneousSymbol, gamma_profile, smash

__all__ = [
    "equ1_defect",
    "equ2_defect",
    "endpoint_defect",
]


def _band(L):
    """Block indices (i, j) with |i|, |j| <= L and |i - j| <= 1, ascending."""
    return [(i, j) for i in range(-L, L + 1)
            for j in range(max(-L, i - 1), min(L, i + 1) + 1)]


def _live_band(p, L, i0, N):
    """The blocks (i, j) of ``_band(L)`` with |i| >= i0, in its order, whose
    weights can be nonzero on some mode 1 <= |m| <= N, for the undeformed
    partition ``p``.

    The psi_1 block weights mode m by gamma_i gamma_j theta at |m| and the
    inverse-map block by gamma_0 gamma_{j-i} at |m| / 2^i; both vanish
    unless |m| lies in the open supports of gamma_i and gamma_j, (2^(i-1),
    2^(i+1)) and (2^(j-1), 2^(j+1)), outside which the smooth-step
    differences are exactly zero, and both vanish at m = 0 (theta(0) =
    gamma_0(0) = 0).
    """
    support = {i: p.support(i) for i in range(-L, L + 1)}
    live = []
    for i, j in _band(L):
        lo = max(support[i][0], support[j][0])
        hi = min(support[i][1], support[j][1])
        if abs(i) >= i0 and max(1, np.floor(lo) + 1) <= min(N, np.ceil(hi) - 1):
            live.append((i, j))
    return live


def _psi_block(a, p_s, theta, i, j, grid):
    """Block (i, j) of psi_s for s > 0: T_1(gamma_i^s gamma_j^s theta (x) a)."""
    prof = gamma_profile(p_s, i) * gamma_profile(p_s, j) * theta.profile
    return t_quantize(smash(prof, a), 1.0, grid)


def _inverse_block(a, p, i, j, grid):
    """Block (i, j) of the inverse map: T_{2^i}(gamma_0 gamma_{j-i} (x) a)."""
    prof = gamma_profile(p, 0) * gamma_profile(p, j - i)
    return t_quantize(smash(prof, a), 2.0 ** i, grid)


def _apply(band, f):
    """The operator of a band table applied to a vector of the grid."""
    w, n, k = band.shape[:3]
    return _band_apply(band, f.reshape(n, k, 1))[w // 2:w // 2 + n].reshape(-1)


def _check_inverse_inputs(a, p):
    if not isinstance(a, HomogeneousSymbol):
        raise TypeError("expected a homogeneous symbol")
    if not isinstance(p, DyadicPartition) or p.inv_s != 1.0:
        raise ValueError("the inverse construction uses the undeformed partition")


def equ1_defect(a, op_a, p_s, vectors, theta, grid):
    """|| T_1((gamma_0^s)^2 theta (x) a) f - Op(a) f || for each test vector f.

    ``op_a`` is Op(a), which does not depend on s.
    """
    A1 = _psi_block(a, p_s, theta, 0, 0, grid)
    return [float(np.linalg.norm(_apply(A1, f) - _apply(op_a, f))) for f in vectors]


def equ2_defect(a, p_s, i, j, vectors, theta, grid):
    """|| T_1(gamma_i^s gamma_j^s theta (x) a) f || for each test vector f,
    (i, j) != (0, 0)."""
    if (i, j) == (0, 0):
        raise ValueError("the central block is covered by equ1_defect")
    if abs(i - j) >= 2:
        raise ValueError("nonadjacent blocks vanish identically")
    A = _psi_block(a, p_s, theta, i, j, grid)
    return [float(np.linalg.norm(_apply(A, f))) for f in vectors]


def theta_discrepancy_norm(a, p, theta, i, j, grid):
    """|| T_1(gamma_i gamma_j theta (x) a) - T_1(gamma_i gamma_j (x) a) ||.

    Exactly zero once the support of gamma_i sits where the cutting
    function equals one, i.e. for i >= log2(2 r0).
    """
    without = t_quantize(smash(gamma_profile(p, i) * gamma_profile(p, j), a), 1.0, grid)
    return operator_norm(_band_diff(_psi_block(a, p, theta, i, j, grid), without))


def endpoint_defect(a, p, theta, L_list, K, grid):
    """Tail aggregate of || psi_1 block - inverse-map block || over |i| >= i0(K),
    one value per block range L in ``L_list``.

    No block depends on L, so each block with i0 <= |i| <= max(L_list) that
    can be nonzero on the mode range (``_live_band``) is built once, each
    nonzero block difference is normed once, and each range sums its own
    blocks in ascending (i, j) order.  By exact translation
    invariance the inverse-map block at (i, j) equals T_1(gamma_i gamma_j
    (x) a), so the blockwise difference is the cutting discrepancy, confined
    to the low scales; the aggregate over |i| >= i0(K) = ceil(log2 K)
    vanishes once K passes 2 r0.
    """
    _check_inverse_inputs(a, p)
    i0 = max(0, int(np.ceil(np.log2(max(K, 1)))))
    norms = {}
    for i, j in _live_band(p, max(L_list), i0, grid.N):
        diff = _band_diff(_psi_block(a, p, theta, i, j, grid),
                          _inverse_block(a, p, i, j, grid))
        if np.any(diff):
            norms[(i, j)] = operator_norm(diff)
    totals = []
    for L in L_list:
        total = 0.0  # left to right: the printed digits depend on the order
        for (i, j), value in norms.items():
            if max(abs(i), abs(j)) <= L:
                total += value
        totals.append(total)
    return totals
