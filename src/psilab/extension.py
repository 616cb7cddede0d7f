"""Homomorphism-modulo-tails checks for the order-zero operator map.

The quotient by the compact ideal has no faithful finite model, so every
statement about it is reformulated as decay of tail norms of an explicitly
lifted representative.  Products of operators are always formed on an
enlarged mode range and compressed back: the reported corners then agree
with the untruncated compositions, and the tails measure only the genuine
off-band mass of the defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import compact_tail_norm, operator_norm
from .quantize import multiplication_operator, op_quantize, padded_grid, restrict_to
from .symbols import HomogeneousSymbol

__all__ = ["ExtensionDefectProfile", "symbol_map_defect", "lifting_check"]

#: PASS bar for the defect tail norms at the half-range cutoff K = N/2
TAIL_BAR = 1e-3


@dataclass(frozen=True)
class ExtensionDefectProfile:
    """Tail-norm profiles of the product and commutator defects of Op."""

    K_grid: tuple
    product_tails: tuple
    commutator_tails: tuple
    final_product_tail: float
    final_commutator_tail: float

    @property
    def passed(self):
        return (self.final_product_tail < TAIL_BAR
                and self.final_commutator_tail < TAIL_BAR)


def symbol_map_defect(a, b, theta, grid, K_list):
    """Tail profiles of Op(a)Op(b) - Op(ab) and of [Op(a), Op(b)].

    The products are formed on a mode range padded by the larger declared
    degree plus 8 (by 96 when neither symbol declares one).  PASS means
    both defects have tail norm below TAIL_BAR at the half-range cutoff
    K = N/2, i.e. the defects sit in the finite model of the ideal at that
    resolution.
    """
    if a.k != b.k:
        raise ValueError("block sizes differ")
    degs = [s.degree for s in (a, b) if s.degree is not None]
    big = padded_grid(grid, max(degs) + 8 if degs else 96)
    Xa, Xb = op_quantize(a, theta, big), op_quantize(b, theta, big)
    Xab = op_quantize(a * b, theta, big)
    product_defect = restrict_to(Xa @ Xb - Xab, grid)
    commutator = restrict_to(Xa @ Xb - Xb @ Xa, grid)
    prod_tails = tuple(compact_tail_norm(product_defect, K) for K in K_list)
    comm_tails = tuple(compact_tail_norm(commutator, K) for K in K_list)
    K_half = grid.N // 2
    return ExtensionDefectProfile(
        K_grid=tuple(K_list),
        product_tails=prod_tails,
        commutator_tails=comm_tails,
        final_product_tail=compact_tail_norm(product_defect, K_half),
        final_commutator_tail=compact_tail_norm(commutator, K_half),
    )


def lifting_check(c, theta, grid):
    """Column tail ||(Op(c) - pi(c)) (I - P_K)|| at K = r0 + deg c.

    For a fiber-constant symbol the difference is supported on the columns
    where the cutting function is below one, so the result is exactly zero.
    """
    if not isinstance(c, HomogeneousSymbol):
        raise TypeError("lifting_check expects a homogeneous symbol")
    x = np.linspace(0.0, 2.0 * np.pi, 257)
    gap = np.max(np.abs(np.asarray(c.plus(x)) - np.asarray(c.minus(x))))
    if gap > 1e-12:
        raise ValueError("lifting_check needs a fiber-constant symbol")
    deg = c.degree
    if deg is None:
        raise ValueError("fiber-constant symbol must have a declared degree")
    K = int(np.ceil(theta.r0)) + deg
    if K > grid.N:
        raise ValueError("grid too small for the requested cutoff")
    diff = op_quantize(c, theta, grid) - multiplication_operator(c.plus, grid)
    mask = grid.tail_mask(K)
    return operator_norm(diff.mat[:, mask])
