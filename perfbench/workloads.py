"""The benchmark's workloads and the seeded configs they run.

A pass runs each subcommand of its workload against one of two configs:
``n256``, the built-in defaults (N=256), and ``n128``, the assembly config
(N=128).  Seed 0 runs the shipped configs: an empty file for ``n256`` and a
frozen copy of ``configs/example.json`` for ``n128``, so that later edits to
the repository's example file cannot change what is measured.  Any other
seed generates configs of the same shape: the same grid, t grids and case
counts, winding pairs with |w| <= 2 drawn from a pool whose criteria were
checked to pass, and fresh random phases on every loop coefficient
(magnitudes and degrees unchanged).  The program receives only the
generated config file.
"""

from __future__ import annotations

import cmath
import copy
import random

#: workload name -> (subcommand, config) of one pass, run in this order
WORKLOADS = {
    "norms-n256": (("defect-sweep", "n256"), ("ch-compare", "n256"),
                   ("homotopy-verify", "n128")),
    "pairing-n256": (("index-compare", "n256"),),
}

#: ``configs/example.json`` as shipped when this benchmark was defined
EXAMPLE_N128 = {
    "grid": {"N": 128, "J": 516},
    "defect_sweep": {
        "t_exponents": [-6, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7],
        "pair": {
            "a": {"class": "vanishing_00",
                  "terms": [{"loop": "c1",
                             "profile": {"kind": "rational_vanishing", "scale": 2.0}}]},
            "b": "v00",
        },
    },
    "ch_compare": {"t_exponents": [2, 3, 4, 5, 6, 7]},
    "homotopy_verify": {"bands": [30, 50, 70],
                        "s_values": [0.5, 0.3333333333333333, 0.25,
                                     0.16666666666666666, 0.125]},
    "index_compare": {"higson_t_exponents": [3, 4, 5, 6]},
}

#: the winding pairs of the shipped index suite, in order
SHIPPED_INDEX_PAIRS = [(0, 0), (1, 0), (0, 1), (2, -1)]

#: exactness bar of the shipped tolerances (``tolerances.exact_tol``)
EXACT_TOL = 1e-12

# Winding pairs (w_plus, w_minus) with |w| <= 2 that generated configs may
# use.  Every pair was run at the workload's grid with all criteria passing.
WINDING_POOL = [(p, m) for p in range(-2, 3) for m in range(-2, 3)]

# Loop coefficient magnitudes of the shipped presets (mode -> |c|).
_C1 = {1: 0.5, 0: 1.0, -2: 0.25}          # presets.loop_c1
_C2 = {-1: 0.5, 2: 0.3, 0: 0.4}           # presets.loop_c2
_MODE = {1: 0.7, 0: 0.5}                  # second extended ch case


def _phased(rng, magnitudes):
    """Loop record with the given magnitudes and uniform random phases."""
    modes = {}
    for j, mag in magnitudes.items():
        c = cmath.rect(mag, rng.uniform(0.0, 2.0 * cmath.pi))
        modes[str(j)] = [c.real, c.imag]
    return {"modes": modes}


def _winding(rng, pair):
    """Homogeneous record e^{i phi} e^{i w x} on each branch."""
    wp, wm = pair
    return {"plus": _phased(rng, {wp: 1.0}), "minus": _phased(rng, {wm: 1.0})}


def _label(pair):
    return f"w({pair[0]},{pair[1]})"


def _product(*factors):
    return {"product": list(factors)}


def _rv(scale):
    return {"kind": "rational_vanishing", "scale": scale}


def _rd(scale):
    return {"kind": "rational_decay", "scale": scale}


def _windowed_rational(scale, radius):
    # presets._windowed_rational as a profile record
    return _product(_rd(scale), {"kind": "cap", "hi": radius, "rise": radius / 4.0})


def _norms_config(rng):
    def separable(cls, loop, profile):
        return {"class": cls, "terms": [{"loop": loop, "profile": profile}]}

    shift, unit = rng.choice(WINDING_POOL), rng.choice(WINDING_POOL)
    return {
        "defect_sweep": {
            "pair": {
                "a": separable("compact_support", _phased(rng, _C1),
                               _windowed_rational(2.0, 48.0)),
                "b": separable("compact_support", _phased(rng, _C2),
                               _windowed_rational(1.2, 48.0)),
            },
            "t0_symbol": separable("vanishing_00", _phased(rng, _C1),
                                   _product(_rv(2.0), _rd(2.0))),
            "chart_symbol": separable("compact_support", _phased(rng, _C1),
                                      {"kind": "cap", "hi": 1.0}),
        },
        "ch_compare": {
            "cases": [
                {"label": "rv1-" + _label(shift), "f": _rv(1.0),
                 "d": _winding(rng, shift)},
                {"label": "rv2rd-" + _label(unit), "f": _product(_rv(2.0), _rd(2.0)),
                 "d": _winding(rng, unit)},
                {"label": "rv05-mixed", "f": _rv(0.5),
                 "d": {"plus": _phased(rng, _C1), "minus": _phased(rng, {-1: 1.0})}},
            ],
            "extended_cases": [
                {"label": "rd1-c1", "g": _rd(1.0), "c": _phased(rng, _C1)},
                {"label": "rd2-mode", "g": _rd(2.0), "c": _phased(rng, _MODE)},
            ],
        },
    }


def _pairing_config(rng):
    pairs = [rng.choice(WINDING_POOL) for _ in SHIPPED_INDEX_PAIRS]
    cases = [dict(_winding(rng, p), label=_label(p)) for p in pairs]
    return {"index_compare": {"cases": cases}}, pairs


def _assembly_config(rng):
    cfg = copy.deepcopy(EXAMPLE_N128)
    cfg["homotopy_verify"]["symbol"] = _winding(rng, rng.choice(WINDING_POOL))
    return cfg


def make_config(workload, seed):
    """({config name: config dict}, expected index pairs) for one workload
    and seed.

    The expected pairs list the (w_plus, w_minus) of every index-compare
    case in output order; it is empty for workloads without that command.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "pairing-n256":
        if seed == 0:
            return {"n256": {}}, list(SHIPPED_INDEX_PAIRS)
        config, pairs = _pairing_config(random.Random(f"{workload}:{seed}"))
        return {"n256": config}, pairs
    if seed == 0:
        return {"n256": {}, "n128": copy.deepcopy(EXAMPLE_N128)}, []
    # a stream of its own, so the n128 config does not depend on the n256 draws
    return {"n256": _norms_config(random.Random(f"{workload}:{seed}")),
            "n128": _assembly_config(random.Random(f"assembly-n128:{seed}"))}, []
