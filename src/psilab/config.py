"""Experiment configuration: defaults, JSON schema, and record parsers.

A run is described by a single JSON file that is deep-merged over the
DEFAULTS table below and validated against SCHEMA before any computation.
Symbols are given either as preset names or as explicit expression records
(term lists of trigonometric-polynomial coefficients, a named profile with
parameters, and a coefficient matrix); see the README for the full format.
"""

from __future__ import annotations

import json

import jsonschema
import numpy as np

from . import presets
from .numerics import CircleGrid
from .symbols import (CutFunction, HomogeneousSymbol, Loop, Symbol, SymbolClass,
                      bump_profile, cap_profile, constant_profile,
                      rational_decay_profile, rational_vanishing_profile,
                      step_profile)

__all__ = ["DEFAULTS", "SCHEMA", "ConfigError", "load_config", "build_grid"]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


#: one table of every numeric default (documented in the README)
DEFAULTS = {
    "grid": {"N": 256, "J": 1028, "k": 1},
    "theta_r0": 4.0,
    "tolerances": {
        "tol_compact": 1e-3,     # PASS bar for tail norms at K = N/2
        "eps_rank": 1e-6,        # singular values below this count as kernel
        "decay_slope": -0.8,     # required log-log tail slope of t-defects
        "final_ratio": 0.05,     # required final/initial defect ratio
        "translation_tol": 1e-13,  # entrywise bar for exact identities
        "exact_tol": 1e-12,      # operator-norm bar for exact identities
        "equ2_tol": 1e-6,        # shoulder-defect bar after support migration
        "t0_ratio": 1e-3,        # vanishing bar (relative to sup norm) at small t
    },
    "defect_sweep": {
        "t_exponents": list(range(-6, 9)),
        "pair": "cs",
        "t0_symbol": "t0",
        "chart_symbol": "chart",
    },
    "ch_compare": {
        "t_exponents": list(range(2, 9)),
        "cases": "default",
        "extended_cases": "default",
    },
    "homotopy_verify": {
        "symbol": "default",
        "bands": [60, 100, 150],
        "s_values": [0.5, 1 / 3, 0.25, 1 / 6, 0.125],
        "K": 8,
        "L": 8,
        "L_list": [4, 6, 8],
    },
    "index_compare": {
        "cases": "default",
        "higson_t_exponents": [4, 5, 6, 7],
    },
}

_symbolish = {"type": ["string", "object"]}
_numarray = {"type": "array", "items": {"type": "number"}}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"N": {"type": "integer", "minimum": 1},
                           "J": {"type": "integer", "minimum": 8},
                           "k": {"type": "integer", "minimum": 1}},
        },
        "theta_r0": {"type": "number", "exclusiveMinimum": 0},
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {k: {"type": "number"} for k in DEFAULTS["tolerances"]},
        },
        "defect_sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"t_exponents": _numarray,
                           "pair": _symbolish,
                           "t0_symbol": _symbolish,
                           "chart_symbol": _symbolish},
        },
        "ch_compare": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"t_exponents": _numarray,
                           "cases": {"type": ["string", "array"]},
                           "extended_cases": {"type": ["string", "array"]}},
        },
        "homotopy_verify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"symbol": _symbolish,
                           "bands": _numarray,
                           "s_values": _numarray,
                           "K": {"type": "integer", "minimum": 1},
                           "L": {"type": "integer", "minimum": 2},
                           "L_list": _numarray},
        },
        "index_compare": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"cases": {"type": ["string", "array"]},
                           "higson_t_exponents": _numarray},
        },
    },
}


def _deep_merge(base, override):
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out


def load_config(path=None):
    """Read, merge and validate a configuration file (defaults if None)."""
    data = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(data, SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config rejected by schema: {exc.message}") from exc
    return _deep_merge(DEFAULTS, data)


def build_grid(cfg):
    g = cfg["grid"]
    try:
        return CircleGrid(J=g["J"], N=g["N"], k=g["k"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- expression-record parsers ------------------------------------------------

_PROFILES = {
    "bump": (bump_profile, ("lo", "hi", "rise")),
    "cap": (cap_profile, ("hi", "rise")),
    "step": (step_profile, ("lo", "hi")),
    "rational_decay": (rational_decay_profile, ("scale",)),
    "rational_vanishing": (rational_vanishing_profile, ("scale",)),
    "constant": (constant_profile, ("value",)),
}


def parse_profile(spec):
    """Profile from a record like {"kind": "bump", "lo": 0.5, "hi": 4}."""
    if isinstance(spec, dict) and "product" in spec:
        factors = [parse_profile(s) for s in spec["product"]]
        out = factors[0]
        for f in factors[1:]:
            out = out * f
        return out
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"profile record needs a 'kind': {spec!r}")
    kind = spec["kind"]
    if kind not in _PROFILES:
        raise ConfigError(f"unknown profile kind {kind!r}")
    factory, argnames = _PROFILES[kind]
    kwargs = {k: spec[k] for k in argnames if k in spec}
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as exc:  # missing or out-of-range parameters
        raise ConfigError(f"profile {spec!r}: {exc}") from exc


def _coeff(value):
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(value[0], value[1])
    raise ConfigError(f"coefficient must be a number or [re, im]: {value!r}")


def parse_loop(spec, k=1):
    """Loop from {"modes": {"1": 0.5, "-2": [0, 0.25]}} or matrix records."""
    if isinstance(spec, str):
        named = {"c1": presets.loop_c1, "c2": presets.loop_c2,
                 "identity": Loop.identity}
        if spec not in named:
            raise ConfigError(f"unknown loop preset {spec!r}")
        return named[spec]()
    if "modes" in spec:
        modes = {int(j): _coeff(c) for j, c in spec["modes"].items()}
        return Loop.from_scalar_modes(modes, k=spec.get("k", k))
    if "matrix_modes" in spec:
        entries = {int(j): np.asarray([[_coeff(c) for c in row] for row in mat])
                   for j, mat in spec["matrix_modes"].items()}
        d = max(abs(j) for j in entries)
        kk = next(iter(entries.values())).shape[0]
        coeffs = np.zeros((2 * d + 1, kk, kk), dtype=complex)
        for j, mat in entries.items():
            coeffs[j + d] = mat
        return Loop.from_coeffs(coeffs)
    raise ConfigError(f"loop record needs 'modes' or 'matrix_modes': {spec!r}")


def parse_symbol(spec):
    """Separable symbol from a term list, or a preset name."""
    if isinstance(spec, str):
        named = {"cs": lambda: presets.cs_pair()[0],
                 "v00": lambda: presets.v00_pair()[0],
                 "t0": presets.t0_symbol,
                 "chart": presets.chart_symbol}
        if spec not in named:
            raise ConfigError(f"unknown symbol preset {spec!r}")
        return named[spec]()
    try:
        tag = SymbolClass(spec.get("class", "full_c0"))
    except ValueError as exc:
        raise ConfigError(f"unknown symbol class {spec.get('class')!r}") from exc
    terms = tuple((parse_loop(t["loop"]), parse_profile(t["profile"]))
                  for t in spec["terms"])
    sizes = sorted({loop.k for loop, _ in terms})
    if len(sizes) != 1:
        raise ConfigError(f"symbol terms need one block size, got {sizes}")
    try:
        return Symbol(terms, sizes[0], tag)
    except ValueError as exc:
        raise ConfigError(f"symbol {spec!r}: {exc}") from exc


def parse_homogeneous(spec):
    """Homogeneous symbol from branch loops or a winding pair."""
    if isinstance(spec, str):
        if spec != "default":
            raise ConfigError(f"unknown homogeneous preset {spec!r}")
        return presets.homotopy_symbol()
    if "winding" in spec:
        wp, wm = spec["winding"]
        return presets.winding_pair(int(wp), int(wm))
    if "plus" in spec and "minus" in spec:
        plus, minus = parse_loop(spec["plus"]), parse_loop(spec["minus"])
        if plus.k != minus.k:
            raise ConfigError(f"branch block sizes differ: plus {plus.k}, minus {minus.k}")
        return HomogeneousSymbol(plus, minus)
    raise ConfigError(f"homogeneous record needs 'winding' or branches: {spec!r}")


def _check_block_sizes(cfg, symbols):
    k = cfg["grid"]["k"]
    for sym in symbols:
        if sym.k != k:
            raise ConfigError(f"symbol block size {sym.k} differs from grid k={k}")


def defect_sweep_cfg(cfg):
    section = cfg["defect_sweep"]
    out = {"tolerances": cfg["tolerances"],
           "t_exponents": section["t_exponents"]}
    pair = section["pair"]
    if pair == "cs":
        out["pair"] = presets.cs_pair()
    elif pair == "v00":
        out["pair"] = presets.v00_pair()
    elif isinstance(pair, dict):
        out["pair"] = (parse_symbol(pair["a"]), parse_symbol(pair["b"]))
    else:
        raise ConfigError(f"unknown pair spec {pair!r}")
    out["t0_symbol"] = parse_symbol(section["t0_symbol"])
    out["chart_symbol"] = parse_symbol(section["chart_symbol"])
    _check_block_sizes(cfg, [*out["pair"], out["t0_symbol"], out["chart_symbol"]])
    return out


def ch_compare_cfg(cfg):
    section = cfg["ch_compare"]
    out = {"tolerances": cfg["tolerances"],
           "t_exponents": section["t_exponents"],
           "theta": CutFunction(cfg["theta_r0"])}
    out["cases"] = presets.ch_cases() if section["cases"] == "default" else [
        (c["label"], parse_profile(c["f"]), parse_homogeneous(c["d"]))
        for c in section["cases"]]
    out["extended_cases"] = (
        presets.ch_extended_cases() if section["extended_cases"] == "default" else [
            (c["label"], parse_profile(c["g"]), parse_loop(c["c"]))
            for c in section["extended_cases"]])
    _check_block_sizes(cfg, [d for _, _, d in out["cases"]]
                       + [c for _, _, c in out["extended_cases"]])
    return out


def homotopy_cfg(cfg):
    section = cfg["homotopy_verify"]
    out = {"tolerances": cfg["tolerances"],
           "theta": CutFunction(cfg["theta_r0"]),
           "bands": [int(b) for b in section["bands"]],
           "s_values": list(section["s_values"]),
           "K": section["K"], "L": section["L"],
           "L_list": [int(v) for v in section["L_list"]],
           "symbol": parse_homogeneous(section["symbol"])}
    bad_s = [s for s in out["s_values"] if not 0.0 < s <= 1.0]
    if bad_s:
        raise ConfigError(f"s_values must lie in (0, 1], got {bad_s}")
    N = cfg["grid"]["N"]
    wide = [b for b in out["bands"] if b > N]
    if wide:
        raise ConfigError(f"bands {wide} exceed the mode cutoff N={N}")
    _check_block_sizes(cfg, [out["symbol"]])
    return out


def index_cfg(cfg):
    section = cfg["index_compare"]
    out = {"tolerances": cfg["tolerances"],
           "theta": CutFunction(cfg["theta_r0"]),
           "higson_t_exponents": section["higson_t_exponents"]}
    out["cases"] = presets.index_suite() if section["cases"] == "default" else [
        (c.get("label", f"case{i}"), parse_homogeneous(c))
        for i, c in enumerate(section["cases"])]
    _check_block_sizes(cfg, [sigma for _, sigma in out["cases"]])
    return out
