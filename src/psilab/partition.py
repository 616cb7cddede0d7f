"""Smooth steps and dyadic quadratic partitions of unity on (0, infinity).

The partition lives on the u = log2(x) axis: squared bumps are telescoping
differences of a single smooth step, so that sum_i gamma_i(x)^2 == 1 holds
exactly (up to float rounding) on the covered range and neighbouring bumps
are the only ones whose supports meet.

The deformation parameter s in (0, 1] widens the central bump: gamma_0^s is
supported in [2^(-1/s), 2^(1/s)] and equals 1 on [2^(-1/s+1), 2^(1/s-1)],
while the shoulder bumps keep unit width and march outward by doubling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SmoothStep", "DyadicPartition", "build_partition"]


class SmoothStep:
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, built from exp(-1/u).

    S(u) = e(u) / (e(u) + e(1-u)) with e(u) = exp(-1/u) for u > 0 else 0.
    The returned values are exactly 0.0 / 1.0 outside the open transition
    interval, which keeps support statements exact in floating point.
    """

    @staticmethod
    def _e(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        pos = u > 0
        out[pos] = np.exp(-1.0 / u[pos])
        return out

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        a = self._e(u)
        b = self._e(1.0 - u)
        out = np.empty_like(u)
        low = u <= 0.0
        high = u >= 1.0
        mid = ~(low | high)
        out[low] = 0.0
        out[high] = 1.0
        out[mid] = a[mid] / (a[mid] + b[mid])
        return float(out[0]) if scalar else out


smooth_step = SmoothStep()


@dataclass(frozen=True)
class DyadicPartition:
    """Family {gamma_i^s}, i in [-L, L], from telescoped smooth-step cuts.

    The cut sequence on the u-axis is
        c_i = 1/s - 1 + i   (i >= 0),
        c_i = i + 1 - 1/s   (i <= -1),
    and (gamma_i^s)^2(2^u) = S(u - c_{i-1}) - S(u - c_i).  For s = 1 this is
    c_i = i and gamma_i(x) = gamma_0(x / 2^i).  1/s is snapped to the nearest
    half-integer so all cut spacings stay >= 1.
    """

    s: float
    inv_s: float
    L: int

    def cut(self, i):
        if i >= 0:
            return self.inv_s - 1.0 + i
        return i + 1.0 - self.inv_s

    def gamma_squared(self, i, x):
        if abs(i) > self.L:
            raise ValueError(f"index {i} outside [-{self.L}, {self.L}]")
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise ValueError("partition functions are defined for x > 0")
        u = np.log2(x)
        val = smooth_step(u - self.cut(i - 1)) - smooth_step(u - self.cut(i))
        return np.maximum(val, 0.0)

    def gamma(self, i, x):
        return np.sqrt(self.gamma_squared(i, x))

    def support(self, i):
        """Closed support of gamma_i^s as an x-interval."""
        if abs(i) > self.L:
            raise ValueError(f"index {i} outside [-{self.L}, {self.L}]")
        return 2.0 ** self.cut(i - 1), 2.0 ** (self.cut(i) + 1.0)


def build_partition(s, L):
    """Build the dyadic partition at deformation s in (0, 1] with 2L+1 bumps."""
    if not (0.0 < s <= 1.0):
        raise ValueError(f"need s in (0, 1], got {s}")
    if L < 2:
        raise ValueError(f"need L >= 2, got {L}")
    inv_s = round(2.0 / s) / 2.0
    if inv_s < 1.0:
        inv_s = 1.0
    return DyadicPartition(s=float(s), inv_s=inv_s, L=int(L))
