"""Bundled test symbols, profiles and sweep suites.

Everything here is deterministic: random coefficients always come from
fixed seeds, so repeated runs and the regression files they produce are
byte-stable.  These are the defaults the command line and the acceptance
suite share.
"""

from __future__ import annotations

import numpy as np

from .symbols import (HomogeneousSymbol, Loop, Symbol, SymbolClass, cap_profile,
                      rational_decay_profile, rational_vanishing_profile)

__all__ = [
    "loop_c1",
    "loop_c2",
    "cs_pair",
    "v00_pair",
    "chart_symbol",
    "t0_symbol",
    "winding_pair",
    "index_suite",
    "ch_cases",
    "ch_extended_cases",
    "homotopy_symbol",
]


def loop_c1():
    return Loop.from_scalar_modes({1: 0.5, 0: 1.0, -2: 0.25})


def loop_c2():
    return Loop.from_scalar_modes({-1: 0.5j, 2: 0.3, 0: 0.4})


def _windowed_rational(scale, radius):
    # compactly supported but with rational variation on every dyadic scale
    return rational_decay_profile(scale) * cap_profile(radius, rise=radius / 4.0)


def cs_pair():
    """Compact-support pair for the multiplicativity/adjoint sweeps."""
    a = Symbol.separable(loop_c1(), _windowed_rational(2.0, 48.0),
                         SymbolClass.COMPACT_SUPPORT)
    b = Symbol.separable(loop_c2(), _windowed_rational(1.2, 48.0),
                         SymbolClass.COMPACT_SUPPORT)
    return a, b


def v00_pair():
    """Vanishing-at-zero-and-infinity pair for the same sweeps."""
    a = Symbol.separable(loop_c1(), rational_vanishing_profile(2.0),
                         SymbolClass.VANISHING_00)
    b = Symbol.separable(loop_c2(), rational_vanishing_profile(1.4),
                         SymbolClass.VANISHING_00)
    return a, b


def chart_symbol():
    """Compact-support symbol for the chart-independence sweep."""
    return Symbol.separable(loop_c1(), cap_profile(1.0), SymbolClass.COMPACT_SUPPORT)


def t0_symbol():
    """Vanishing symbol with cubic frequency decay for the t -> 0 check."""
    prof = rational_vanishing_profile(2.0) * rational_decay_profile(2.0)
    return Symbol.separable(loop_c1(), prof, SymbolClass.VANISHING_00)


def winding_pair(w_plus, w_minus, k=1):
    """Invertible homogeneous symbol with prescribed branch windings."""
    def loop(w):
        if w == 0:
            return Loop.identity(k)
        return Loop.from_scalar_modes({w: 1.0}, k=k)
    return HomogeneousSymbol(loop(w_plus), loop(w_minus))


def index_suite():
    """The calibration windings: (0,0), (1,0), (0,1), (2,-1)."""
    pairs = [(0, 0), (1, 0), (0, 1), (2, -1)]
    return [(f"w({p},{m})", winding_pair(p, m)) for p, m in pairs]


def ch_cases():
    """(label, suspended profile, homogeneous symbol) triples."""
    shift = winding_pair(1, 0)
    mixed = HomogeneousSymbol(loop_c1(), Loop.from_scalar_modes({-1: 1.0}))
    return [
        ("rv1-shift", rational_vanishing_profile(1.0), shift),
        ("rv2rd-unit", rational_vanishing_profile(2.0) * rational_decay_profile(2.0),
         HomogeneousSymbol.unit(1)),
        ("rv05-mixed", rational_vanishing_profile(0.5), mixed),
    ]


def ch_extended_cases():
    """(label, decaying profile, fiber-constant loop) triples."""
    return [
        ("rd1-c1", rational_decay_profile(1.0), loop_c1()),
        ("rd2-mode", rational_decay_profile(2.0), Loop.from_scalar_modes({1: 0.7, 0: 0.5})),
    ]


def homotopy_symbol():
    """Homogeneous symbol driving the deformation-family checks."""
    return winding_pair(1, 0)


def band_vector(grid, band, seed):
    """Normalized coefficient vector supported on modes |m| <= band."""
    rng = np.random.default_rng(seed)
    v = np.zeros(grid.dim, dtype=complex)
    sel = np.abs(grid.mode_of_index()) <= band
    amps = 1.0 / (1.0 + np.abs(grid.mode_of_index()[sel]))
    v[np.where(sel)[0]] = amps * np.exp(2j * np.pi * rng.uniform(size=int(sel.sum())))
    return v / np.linalg.norm(v)
