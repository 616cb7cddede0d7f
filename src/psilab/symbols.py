"""Symbols on the cotangent space of the circle with matrix values.

Two representations cover everything the calculus needs:

* ``Symbol`` -- a finite sum of separable terms ``P(x) * rho(xi)`` where
  ``P`` is a matrix-valued loop on the circle and ``rho`` an evaluable
  profile of the frequency.  Products and adjoints stay inside the family,
  and quantization matrices assemble exactly from the Fourier coefficients
  of the loops.
* ``HomogeneousSymbol`` -- order-zero homogeneous data, i.e. a pair of loops
  ``(a_plus, a_minus)`` giving the value on the two components of the unit
  cotangent bundle (xi = +1 and xi = -1).

Profiles come from a fixed vocabulary (smooth bumps and steps built on the
partition module's smooth step, rational decays, partition bumps), so all
constructions are reproducible and closed under the operations used here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .bands import _adjoint
from .numerics import check_finite, fourier_coefficients, row_blocks
from .partition import smooth_step

__all__ = [
    "SymbolClass",
    "Loop",
    "RadialProfile",
    "CutFunction",
    "Symbol",
    "HomogeneousSymbol",
    "smash",
]


class SymbolClass(Enum):
    """Function-class tag.

    COMPACT_SUPPORT : every profile vanishes outside a bounded interval.
    HOMOGENEOUS_ZERO: depends only on (x, sign xi), as a
                      HomogeneousSymbol does.
    VANISHING_00    : profiles vanish at xi = 0 and at infinity.
    FULL_C0         : catch-all for evaluable symbols without structural
                      support/vanishing guarantees.
    """

    COMPACT_SUPPORT = "compact_support"
    HOMOGENEOUS_ZERO = "homogeneous_zero"
    VANISHING_00 = "vanishing_00"
    FULL_C0 = "full_c0"


def _combine_tags(a, b):
    if SymbolClass.COMPACT_SUPPORT in (a, b):
        return SymbolClass.COMPACT_SUPPORT
    if SymbolClass.VANISHING_00 in (a, b):
        return SymbolClass.VANISHING_00
    if a == b == SymbolClass.HOMOGENEOUS_ZERO:
        return SymbolClass.HOMOGENEOUS_ZERO
    return SymbolClass.FULL_C0


# -- loops ----------------------------------------------------------------

#: rows x (2d + 1) k^2 of one product in a loop's evaluation stays below
#: this.  OpenBLAS (scipy-openblas 0.3.31, zgemv path) hands a product of
#: M rows and K terms to its worker thread from M K = 4096 on (1365 x 3 and
#: 819 x 5 stayed on one thread, 1366 x 3 and 820 x 5 did not, on 2 cores),
#: and the worker then spins for about 0.12 CPU-s.
_LOOP_PRODUCT_LIMIT = 4096


@dataclass(frozen=True)
class Loop:
    """Matrix-valued function on the circle, evaluable at any x.

    ``degree`` is the declared trigonometric degree (None when the loop is
    merely smooth, e.g. a chart window).  ``coeffs`` holds the exact
    coefficients, shape (2 degree + 1, k, k), of a loop built from them
    (``from_coeffs``) and of products and adjoints of such loops; its
    coefficient tables are those coefficients, zero past the degree.  A loop
    without them (a chart window) is transformed by the grid FFT of its
    samples.  ``table`` keeps the coefficients of each grid the loop has
    been assembled on, so an operator built at many t takes them once.
    """

    fn: callable = field(repr=False)
    k: int
    degree: int | None = None
    coeffs: np.ndarray | None = field(default=None, repr=False, compare=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        vals = np.asarray(self.fn(np.atleast_1d(x)), dtype=complex)
        return vals[0] if scalar else vals

    # algebra
    def __mul__(self, other):
        other = self._coerce(other)
        deg = coeffs = None
        if self.degree is not None and other.degree is not None:
            deg = self.degree + other.degree
        if self.coeffs is not None and other.coeffs is not None:
            # the Cauchy product: c(j) = sum_i a(i) b(j - i)
            coeffs = np.zeros((2 * deg + 1, self.k, self.k), dtype=complex)
            width = len(other.coeffs)
            with np.errstate(over="ignore", invalid="ignore"):  # table() rejects inf
                for i, a in enumerate(self.coeffs):
                    coeffs[i:i + width] += a @ other.coeffs
        return Loop(lambda x: np.asarray(self.fn(x)) @ np.asarray(other.fn(x)), self.k, deg,
                    coeffs)

    def adjoint(self):
        coeffs = None if self.coeffs is None else _adjoint(self.coeffs[::-1])
        return Loop(lambda x: _adjoint(np.asarray(self.fn(x))), self.k, self.degree, coeffs)

    def _coerce(self, other):
        if not isinstance(other, Loop):
            raise TypeError(f"cannot combine Loop with {type(other)!r}")
        if other.k != self.k:
            raise ValueError(f"block sizes differ: {self.k} vs {other.k}")
        return other

    # sampling
    def coefficients(self, grid):
        """Fourier coefficients c(j), |j| <= 2N: ``coeffs`` zero-padded (and
        cut at 2N), or the grid FFT of the samples of a loop without them."""
        if self.coeffs is None:
            return fourier_coefficients(grid, self.fn(grid.x))
        d, reach = self.degree, min(self.degree, 2 * grid.N)
        table = np.zeros((4 * grid.N + 1, self.k, self.k), dtype=complex)
        table[2 * grid.N - reach:2 * grid.N + reach + 1] = self.coeffs[d - reach:d + reach + 1]
        return table

    def table(self, grid):
        """``coefficients(grid)``, taken on the first call per grid and kept
        read-only; non-finite coefficients raise ``ValueError``.  The
        coefficient table of every operator assembled from this loop."""
        table = self._tables.get(grid)
        if table is None:
            table = self.coefficients(grid)
            check_finite(table)
            table.flags.writeable = False
            self._tables[grid] = table
        return table

    # constructors
    @staticmethod
    def from_coeffs(coeffs):
        """Loop from an array of coefficients, index j in [-d, d].

        ``coeffs`` has shape (2d+1, k, k); entry [j + d] multiplies e^{ijx}.
        """
        coeffs = np.array(coeffs, dtype=complex)
        if coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2]:
            raise ValueError("coefficients must have shape (2d+1, k, k)")
        d = (coeffs.shape[0] - 1) // 2
        if coeffs.shape[0] != 2 * d + 1:
            raise ValueError("coefficient count must be odd")
        js = np.arange(-d, d + 1)
        rows = max(1, (_LOOP_PRODUCT_LIMIT - 1) // coeffs.size)

        def fn(x):
            # one product per block of points; each sample is its own short
            # sum, so the blocks give the bits of one product over all of x
            x = np.ravel(x)
            out = np.empty((x.size,) + coeffs.shape[1:], dtype=complex)
            for lo, hi in row_blocks(x.size, rows):
                phases = np.exp(1j * np.outer(x[lo:hi], js))
                out[lo:hi] = np.tensordot(phases, coeffs, axes=([1], [0]))
            return out

        coeffs.flags.writeable = False
        return Loop(fn, coeffs.shape[1], d, coeffs)

    @staticmethod
    def from_scalar_modes(modes, k=1):
        """Scalar trig polynomial (times the identity block) from {j: coeff}."""
        d = max(abs(int(j)) for j in modes) if modes else 0
        coeffs = np.zeros((2 * d + 1, k, k), dtype=complex)
        eye = np.eye(k)
        for j, c in modes.items():
            coeffs[int(j) + d] += c * eye
        return Loop.from_coeffs(coeffs)

    @staticmethod
    def constant(mat):
        mat = np.atleast_2d(np.asarray(mat, dtype=complex))
        return Loop.from_coeffs(mat[None, :, :])

    @staticmethod
    def identity(k=1):
        return Loop.constant(np.eye(k))


# -- frequency profiles ----------------------------------------------------


@dataclass(frozen=True)
class RadialProfile:
    """Evaluable profile of the (signed) frequency variable.

    The vanishing flags and the support interval are structural metadata;
    they are what the class tags of Symbol are checked against.
    """

    fn: callable = field(repr=False)
    vanishes_at_zero: bool = False
    vanishes_at_infinity: bool = False
    support: tuple[float, float] | None = None

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        scalar = xi.ndim == 0
        vals = np.asarray(self.fn(np.atleast_1d(xi)), dtype=complex)
        return complex(vals[0]) if scalar else vals

    def __mul__(self, other):
        sup = _intersect(self.support, other.support)
        return RadialProfile(lambda xi: np.asarray(self.fn(xi)) * np.asarray(other.fn(xi)),
                             self.vanishes_at_zero or other.vanishes_at_zero,
                             self.vanishes_at_infinity or other.vanishes_at_infinity,
                             sup)

    def even(self):
        """Profile xi -> rho(|xi|)."""
        return RadialProfile(lambda xi: self.fn(np.abs(np.asarray(xi, dtype=float))),
                             self.vanishes_at_zero, self.vanishes_at_infinity,
                             self.support)

    def one_sided(self, sign):
        """Restriction to a half axis: rho(xi) on sign*xi > 0, else 0."""
        if sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")

        def fn(xi):
            xi = np.asarray(xi, dtype=float)
            vals = np.asarray(self.fn(xi), dtype=complex)
            return np.where(sign * xi > 0, vals, 0.0)

        sup = self.support
        if sup is not None:
            sup = (max(sup[0], 0.0), sup[1]) if sign > 0 else (sup[0], min(sup[1], 0.0))
        return RadialProfile(fn, True, self.vanishes_at_infinity, sup)


def _intersect(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return (max(a[0], b[0]), min(a[1], b[1]))


def bump_profile(lo, hi, rise=None):
    """Even smooth bump of |xi| supported on lo <= |xi| <= hi.

    Rises over [lo, lo+rise] and falls over [hi-rise, hi]; rise defaults to
    a quarter of the interval.  With lo > 0 the bump vanishes near xi = 0.
    """
    if not 0.0 <= lo < hi:
        raise ValueError("need 0 <= lo < hi")
    rise = (hi - lo) / 4.0 if rise is None else rise
    if not rise > 0:
        raise ValueError("need rise > 0")

    def fn(xi):
        r = np.abs(np.asarray(xi, dtype=float))
        return smooth_step((r - lo) / rise) * smooth_step((hi - r) / rise)

    return RadialProfile(fn, vanishes_at_zero=lo > 0.0,
                         vanishes_at_infinity=True, support=(-hi, hi))


def step_profile(lo, hi):
    """Even smooth step of |xi|: 0 for |xi| <= lo, 1 for |xi| >= hi."""
    if not 0.0 <= lo < hi:
        raise ValueError("need 0 <= lo < hi")

    def fn(xi):
        r = np.abs(np.asarray(xi, dtype=float))
        return smooth_step((r - lo) / (hi - lo))

    return RadialProfile(fn, vanishes_at_zero=True, vanishes_at_infinity=False)


def cap_profile(hi, rise=None):
    """Even plateau bump: 1 near the origin, smooth fall to 0 at |xi| = hi."""
    if hi <= 0:
        raise ValueError("need hi > 0")
    rise = hi / 2.0 if rise is None else rise
    if not rise > 0:
        raise ValueError("need rise > 0")

    def fn(xi):
        r = np.abs(np.asarray(xi, dtype=float))
        return smooth_step((hi - r) / rise)

    return RadialProfile(fn, vanishes_at_zero=False,
                         vanishes_at_infinity=True, support=(-hi, hi))


def rational_decay_profile(scale=1.0):
    """rho(xi) = 1 / (1 + (xi/scale)^2); value 1 at the zero section.

    Where (xi/scale)^2 overflows the value is 1 / inf = 0, without a warning.
    """
    if not scale > 0:
        raise ValueError("need scale > 0")

    def fn(xi):
        with np.errstate(over="ignore"):
            r = np.asarray(xi, dtype=float) / scale
            return 1.0 / (1.0 + r * r)

    return RadialProfile(fn, vanishes_at_zero=False, vanishes_at_infinity=True)


def rational_vanishing_profile(scale=1.0):
    """rho(xi) = |xi/scale| / (1 + (xi/scale)^2); vanishes at 0 and infinity.

    Where (xi/scale)^2 overflows, r / (1 + r^2) would be r / inf (or NaN
    once r itself overflows); there the value is scale / |xi| instead.
    """
    if not scale > 0:
        raise ValueError("need scale > 0")

    def fn(xi):
        a = np.abs(np.asarray(xi, dtype=float))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            r = a / scale
            r2 = r * r
            return np.where(np.isinf(r2), scale / a, r / (1.0 + r2))

    return RadialProfile(fn, vanishes_at_zero=True, vanishes_at_infinity=True)


def constant_profile(value=1.0):
    def fn(xi):
        return np.full(np.shape(xi), value, dtype=complex)

    return RadialProfile(fn)


def gamma_profile(p, i):
    """Partition bump gamma_i^s of |xi| as a profile (vanishes at 0 and oo)."""

    def fn(xi):
        r = np.abs(np.asarray(xi, dtype=float))
        out = np.zeros_like(r)
        pos = r > 0
        out[pos] = p.gamma(i, r[pos])
        return out

    lo, hi = p.support(i)
    return RadialProfile(fn, vanishes_at_zero=True,
                         vanishes_at_infinity=True, support=(-hi, hi))


@dataclass(frozen=True)
class CutFunction:
    """Smooth cutting function: theta(0) = 0 and theta(r) = 1 for r >= r0."""

    r0: float

    def __call__(self, r):
        return smooth_step(np.abs(np.asarray(r, dtype=float)) / self.r0)

    @property
    def profile(self):
        return RadialProfile(lambda xi: self.__call__(xi), vanishes_at_zero=True,
                             vanishes_at_infinity=False)


# -- symbols ----------------------------------------------------------------

#: size cap of one block of stacked samples in Symbol.sup_norm
SUP_NORM_BLOCK_BYTES = 2 ** 20
#: sample grid of Symbol.sup_norm: x points on the circle, xi points on
#: [-SUP_NORM_XI_MAX, SUP_NORM_XI_MAX]
SUP_NORM_X_SAMPLES = 256
SUP_NORM_XI_MAX = 64.0
SUP_NORM_XI_SAMPLES = 2048
# Relative slack of the Frobenius-versus-column pruning in Symbol.sup_norm
# (rounding of the squared norms and of the SVD is ~1e-15), and the range
# of squared norms that neither underflowed nor overflowed; a block outside
# it goes to the SVD whole.
_SUP_NORM_SLACK = 2e-12
_SQUARES_SAFE = (1e-290, 1e290)


@dataclass(frozen=True)
class Symbol:
    """Finite sum of separable terms loop(x) * profile(xi)."""

    terms: tuple
    k: int
    tag: SymbolClass

    def __post_init__(self):
        for loop, prof in self.terms:
            if loop.k != self.k:
                raise ValueError("term block size differs from symbol block size")
            if self.tag == SymbolClass.COMPACT_SUPPORT and prof.support is None:
                raise ValueError("compact-support symbol needs supported profiles")
            if self.tag == SymbolClass.VANISHING_00 and not (
                    prof.vanishes_at_zero and prof.vanishes_at_infinity):
                raise ValueError("vanishing symbol needs profiles dying at 0 and oo")

    def __call__(self, x, xi):
        out = np.zeros((self.k, self.k), dtype=complex)
        for loop, prof in self.terms:
            out += np.asarray(loop(x)) * prof(xi)
        return out

    def adjoint(self):
        def conj_profile(prof):
            return RadialProfile(lambda xi: np.conj(prof.fn(xi)), prof.vanishes_at_zero,
                                 prof.vanishes_at_infinity, prof.support)

        terms = tuple((loop.adjoint(), conj_profile(prof)) for loop, prof in self.terms)
        return Symbol(terms, self.k, self.tag)

    def __mul__(self, other):
        if not isinstance(other, Symbol):
            raise TypeError(f"cannot multiply Symbol with {type(other)!r}")
        if other.k != self.k:
            raise ValueError("block sizes differ")
        terms = tuple((la * lb, pa * pb)
                      for la, pa in self.terms for lb, pb in other.terms)
        return Symbol(terms, self.k, _combine_tags(self.tag, other.tag))

    def sup_norm(self):
        """Largest singular value over the SUP_NORM_* x-by-xi sample grid.

        The xi samples are taken a block at a time, with one stacked SVD per
        block; a block of samples stays under SUP_NORM_BLOCK_BYTES.  The
        terms are summed in order.  Only samples
        whose Frobenius norm reaches the largest column norm of the block
        go to the SVD: max column norm <= sigma_max <= Frobenius norm, so
        the sample with the largest singular value is always among them
        and the result equals the SVD of the whole block.
        """
        x_samples, xi_samples = SUP_NORM_X_SAMPLES, SUP_NORM_XI_SAMPLES
        x = 2.0 * np.pi * np.arange(x_samples) / x_samples
        xs = np.linspace(-SUP_NORM_XI_MAX, SUP_NORM_XI_MAX, xi_samples)
        loops = [np.asarray(loop.fn(x)) for loop, _ in self.terms]
        step = max(1, SUP_NORM_BLOCK_BYTES // (16 * x_samples * self.k * self.k))
        best = 0.0
        for start in range(0, xi_samples, step):
            block = xs[start:start + step]
            vals = np.zeros((block.size, x_samples, self.k, self.k), dtype=complex)
            for loop_vals, (_, prof) in zip(loops, self.terms):
                vals += loop_vals * prof(block)[:, None, None, None]
            with np.errstate(over="ignore", under="ignore"):
                col2 = (vals.real ** 2 + vals.imag ** 2).sum(axis=-2)
            bound2 = col2.max()
            if _SQUARES_SAFE[0] <= bound2 <= _SQUARES_SAFE[1]:
                vals = vals[col2.sum(axis=-1) >= (1.0 - _SUP_NORM_SLACK) * bound2]
            best = max(best, float(np.max(np.linalg.svd(vals, compute_uv=False))))
        return best

    @staticmethod
    def separable(loop, profile, tag):
        return Symbol(((loop, profile),), loop.k, tag)


@dataclass(frozen=True)
class HomogeneousSymbol:
    """Order-zero homogeneous symbol: loops on the two cosphere circles.

    The value at (x, xi) is plus(x) for xi > 0 and minus(x) for xi < 0; the
    value at xi = 0 is taken from the plus branch by convention (quantization
    never consumes it: the cutting function vanishes at the origin).
    """

    plus: Loop
    minus: Loop

    def __post_init__(self):
        if self.plus.k != self.minus.k:
            raise ValueError("branch block sizes differ")

    @property
    def k(self):
        return self.plus.k

    @property
    def degree(self):
        degs = [d for d in (self.plus.degree, self.minus.degree) if d is not None]
        return max(degs) if degs else None

    @cached_property
    def windings(self):
        """(w_plus, w_minus), the winding numbers of the two branches, taken
        once per symbol; raises ValueError unless both are invertible."""
        from .index_theory import winding_number
        return winding_number(self.plus), winding_number(self.minus)

    def branch(self, sign):
        return self.plus if sign >= 0 else self.minus

    def __call__(self, x, xi):
        return np.asarray(self.branch(+1 if xi >= 0 else -1)(x))

    @staticmethod
    def unit(k=1):
        eye = Loop.identity(k)
        return HomogeneousSymbol(eye, eye)


# -- the operations of the calculus ----------------------------------------


def smash(f, a):
    """Lift a homogeneous symbol through a vanishing profile.

    Returns g(x, xi) = f(|xi|) * a(x, sign xi), which vanishes on the zero
    section and at infinity; this realizes the identification of suspended
    cosphere data with functions on the cotangent space.
    """
    if not isinstance(a, HomogeneousSymbol):
        raise TypeError("smash expects a homogeneous symbol")
    if not f.vanishes_at_zero:
        raise ValueError("profile must vanish at the origin")
    even = f.even()
    terms = ((a.plus, even.one_sided(+1)), (a.minus, even.one_sided(-1)))
    return Symbol(terms, a.k, SymbolClass.VANISHING_00)

