"""Approximate-unit machinery and the extension-to-deformation map.

Given a lifted representative chi_bar of the symbol map (the order-zero
operator for general symbols, plain multiplication for fiber-constant ones)
and a quasicentral approximate unit u_t, elementary tensors f (x) d map to

    chi_bar(d) * (f o kappa)(u_t),

evaluated here in exact functional calculus on the diagonal of u_t.  With
the bundled default pair (kappa(v) = 1/v - 1, u_t = kappa^{-1}(|n|/t)) the
weight collapses to f(|n|/t), which makes comparisons with the rescaled
quantization sharp; alternative unit profiles are configurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .partition import smooth_step
from .quantize import multiplication_operator, op_quantize
from .symbols import HomogeneousSymbol, Loop

__all__ = [
    "kappa",
    "kappa_inv",
    "ApproximateUnit",
    "default_unit",
    "tail_deformed_unit",
    "ch_apply",
    "ch_extended_apply",
]


def kappa(v):
    """Homeomorphism (0, 1] -> [0, infinity), kappa(v) = 1/v - 1."""
    return 1.0 / v - 1.0


def kappa_inv(r):
    """Inverse of kappa, [0, infinity) -> (0, 1]."""
    return 1.0 / (1.0 + r)


@dataclass(frozen=True)
class ApproximateUnit:
    """Diagonal approximate unit u_t = m(|n|/t) on the mode lattice.

    The profile m is nonincreasing with m(0) = 1 and m -> 0 at infinity, so
    0 <= u_t <= 1, every u_t has decaying tails, and u_t -> 1 entrywise.
    """

    profile: callable = field(repr=False)

    def values(self, t, grid):
        if t <= 0:
            raise ValueError("need t > 0")
        return np.asarray(self.profile(np.abs(grid.modes) / t), dtype=float)

    def weight(self, f, t, grid):
        """Diagonal weights f(kappa(m(|n|/t))), exact on the diagonal."""
        u = self.values(t, grid)
        r = kappa(np.maximum(u, 1e-300))
        return np.asarray(f(r), dtype=complex)


def default_unit():
    return ApproximateUnit(lambda r: kappa_inv(np.asarray(r, dtype=float)))


def tail_deformed_unit():
    """Genuinely different unit profile agreeing with the default near 0.

    The induced time change eta(r) = r (1 + 0.04 S((r - 32) / 8)), S the
    smooth step, deviates from the identity only beyond r = 32; deviations
    supported near the origin would freeze the comparison with the rescaled
    quantization at a constant (the choice of unit is a homotopy-level
    freedom, not a norm-level one), so the bundled alternative exercises
    the tail where the comparison stays meaningful.
    """

    def eta(r):
        r = np.asarray(r, dtype=float)
        return r * (1.0 + 0.04 * smooth_step((r - 32.0) / 8.0))

    return ApproximateUnit(lambda r: kappa_inv(eta(r)))


def ch_apply(f, d, t, u, theta, grid, op=None):
    """Image of the tensor f (x) d, with the order-zero lifting.

    Returns the band table of Op(d) * diag f(kappa(m(|n|/t))): the columns
    of Op(d) scaled; requires f to vanish at the origin, matching the
    suspended domain.  Only the diagonal depends on t: ``op`` is the table
    of Op(d), built here when not given.
    """
    if not f.vanishes_at_zero:
        raise ValueError("profile must vanish at the origin")
    if not isinstance(d, HomogeneousSymbol):
        raise TypeError("ch_apply expects a homogeneous symbol")
    w = u.weight(f, t, grid)
    if op is None:
        op = op_quantize(d, theta, grid)
    return op * w[None, :, None, None]


def ch_extended_apply(g, c, t, u, grid, op=None):
    """Image of g (x) c for fiber-constant c, with the multiplication lifting.

    Returns the band table of pi(c) * diag g(kappa(m(|n|/t))); g need not
    vanish at the origin, only at infinity.  ``op`` is the table of pi(c),
    built here when not given.
    """
    if not isinstance(c, Loop):
        raise TypeError("ch_extended_apply expects a fiber-constant Loop")
    w = u.weight(g, t, grid)
    if op is None:
        op = multiplication_operator(c, grid)
    return op * w[None, :, None, None]
