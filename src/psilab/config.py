"""Experiment configuration: defaults, key checks, and record parsers.

A run is described by a single JSON file whose keys and value kinds are
checked against the DEFAULTS table below (with the few least values of
``_BOUNDS``) and which is then deep-merged over it, before any computation.
Symbols are given either as preset names or as explicit expression records
(term lists of trigonometric-polynomial coefficients, a named profile with
parameters, and a coefficient matrix); see the README for the full format.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from . import presets
from .numerics import CircleGrid
from .index_theory import winding_number
from .partition import build_partition
from .symbols import (HomogeneousSymbol, Loop, Symbol, SymbolClass, bump_profile,
                      cap_profile, constant_profile, rational_decay_profile,
                      rational_vanishing_profile, step_profile)

__all__ = ["DEFAULTS", "ConfigError", "load_config", "build_grid"]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


#: the one table of defaults (documented in the README); the ``*_cfg``
#: functions below fill every key of a run config from the merged config, so
#: the sweep runners keep no fallback values
DEFAULTS = {
    "grid": {"N": 256, "J": 1028, "k": 1},
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
        "L": 8,
        "L_list": [4, 6, 8],
    },
    "index_compare": {
        "cases": "default",
        "higson_t_exponents": [4, 5, 6, 7],
    },
}

#: the one table of bounds, by dotted key: the least value of a number or of
#: each item of a list (items with a least value are integers), or None; a
#: list here must not be empty
_BOUNDS = {"grid.N": 1, "grid.J": 8, "grid.k": 1, "homotopy_verify.L": 2,
           "homotopy_verify.bands": 0, "homotopy_verify.L_list": 2,
           "homotopy_verify.s_values": None, "index_compare.cases": None}


def _check_keys(data):
    """Raise unless every key of the loaded JSON is a key of DEFAULTS whose
    value has the kind of its default, within ``_BOUNDS``.  An int default
    takes a JSON integer (not a bool, nor 32.0), a list default an array of
    numbers, and a preset name a string or its record: an array for the case
    lists, an object otherwise."""
    def reject(where, message):
        raise ConfigError(f"config rejected at {where}: {message}")

    def kind(where, value, types, name):
        if isinstance(value, bool) or not isinstance(value, types):
            reject(where, f"{value!r} is not of type {name}")

    kind("top level", data, dict, "'object'")
    for name, section in data.items():
        if name not in DEFAULTS:
            reject("top level", f"unknown key {name!r}")
        kind(name, section, dict, "'object'")
        for key, value in section.items():
            if key not in DEFAULTS[name]:
                reject(name, f"unknown key {key!r}")
            where, default = f"{name}.{key}", DEFAULTS[name][key]
            least, items = _BOUNDS.get(where), [(where, value)]
            if isinstance(default, str):
                record = "array" if key.endswith("cases") else "object"
                kind(where, value, (str, list if record == "array" else dict),
                     f"'string' or {record!r}")
                items = []
            elif isinstance(default, list):
                kind(where, value, list, "'array'")
                items = [(f"{where}.{i}", item) for i, item in enumerate(value)]
            integer = isinstance(default, int) or least is not None
            for spot, item in items:
                kind(spot, item, int if integer else (int, float),
                     "'integer'" if integer else "'number'")
                if least is not None and item < least:
                    reject(spot, f"{item!r} is less than the minimum of {least}")
            if where in _BOUNDS and value == []:
                reject(where, "[] should be non-empty")


def _deep_merge(base, override):
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out


def _finite_number(text):
    """A JSON number as a float; NaN, Infinity and overflows are config errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config number {text} is not finite")
    return value


def _fitting_int(text):
    """A JSON integer as an int; one too large for a float is a config error."""
    try:
        value = int(text)
        float(value)
    except (OverflowError, ValueError) as exc:
        digits = len(text.lstrip("-"))
        raise ConfigError(f"config integer of {digits} digits does not fit a float") from exc
    return value


def load_config(path=None):
    """Read, check and merge a configuration file (defaults if None)."""
    data = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh, parse_float=_finite_number, parse_int=_fitting_int,
                                 parse_constant=_finite_number)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(data)
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
        factor_specs = spec["product"]
        if not (isinstance(factor_specs, list) and factor_specs):
            raise ConfigError(f"'product' needs a nonempty list of profile records: {spec!r}")
        factors = [parse_profile(s) for s in factor_specs]
        if not _modulus_bound(spec) <= COEFF_MAX:
            raise ConfigError(f"profile {spec!r}: product exceeds the modulus {COEFF_MAX:g}")
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
    for name, value in kwargs.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"profile {spec!r}: {name!r} must be a number")
    if kind == "constant" and not abs(kwargs.get("value", 1.0)) <= COEFF_MAX:
        raise ConfigError(f"profile {spec!r}: value exceeds the modulus {COEFF_MAX:g}")
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as exc:  # missing or out-of-range parameters
        raise ConfigError(f"profile {spec!r}: {exc}") from exc


def _modulus_bound(spec):
    """Bound on a parsed profile's modulus; all kinds but ``constant`` stay within 1."""
    if "product" in spec:
        return math.prod(_modulus_bound(s) for s in spec["product"])
    return abs(spec.get("value", 1.0)) if spec["kind"] == "constant" else 1.0


def _record(record, what):
    if not isinstance(record, dict):
        raise ConfigError(f"{what} record must be an object: {record!r}")
    return record


def _fields(record, keys, what):
    """Values of the required keys of a record, in order."""
    _record(record, what)
    missing = [key for key in keys if key not in record]
    if missing:
        raise ConfigError(f"{what} record needs {', '.join(map(repr, missing))}: {record!r}")
    return [record[key] for key in keys]


def _mode_table(spec, key):
    """The {mode: coefficient} object under ``key`` of a loop record."""
    table = spec[key]
    if not isinstance(table, dict):
        raise ConfigError(f"loop {key!r} must be an object keyed by mode: {spec!r}")
    return table


def _mode(key):
    try:
        return int(key)
    except ValueError as exc:
        raise ConfigError(f"mode index must be an integer, got {key!r}") from exc


#: largest modulus of a loop coefficient (each entry of a matrix mode) and of
#: a profile (a constant, or the constants of a product), so a term stays
#: within 1e60.  Below it the Gram products of the Fredholm band, whose
#: entries reach the square of the l1 mass of the coefficients, and the block
#: LDL^H recurrence on them, which squares them again over pivots down to
#: 1e-8, stay finite floats with room to spare; a norm whose Gram overflows
#: is taken by the full SVD
COEFF_MAX = 1e30


def _coeff(value):
    if isinstance(value, (int, float)):
        c = complex(value)
    elif isinstance(value, (list, tuple)) and len(value) == 2:
        c = complex(value[0], value[1])
    else:
        raise ConfigError(f"coefficient must be a number or [re, im]: {value!r}")
    if not abs(c) <= COEFF_MAX:
        raise ConfigError(f"coefficient {value!r} exceeds the modulus {COEFF_MAX:g}")
    return c


def _matrix(rows):
    """Square coefficient block from a list of rows."""
    if not (isinstance(rows, list) and rows
            and all(isinstance(row, list) and len(row) == len(rows) for row in rows)):
        raise ConfigError(f"matrix coefficient must be a square list of rows: {rows!r}")
    return np.asarray([[_coeff(c) for c in row] for row in rows])


def parse_loop(spec):
    """Loop from {"modes": {"1": 0.5, "-2": [0, 0.25]}} or matrix records."""
    if isinstance(spec, str):
        named = {"c1": presets.loop_c1, "c2": presets.loop_c2,
                 "identity": Loop.identity}
        if spec not in named:
            raise ConfigError(f"unknown loop preset {spec!r}")
        return named[spec]()
    if not isinstance(spec, dict):
        raise ConfigError(f"loop record must be a preset name or an object: {spec!r}")
    if "modes" in spec:
        k = spec.get("k", 1)
        if not (isinstance(k, int) and not isinstance(k, bool) and k >= 1):
            raise ConfigError(f"loop block size k must be a positive integer: {spec!r}")
        modes = {_mode(j): _coeff(c) for j, c in _mode_table(spec, "modes").items()}
        return Loop.from_scalar_modes(modes, k=k)
    if "matrix_modes" in spec:
        entries = {_mode(j): _matrix(mat)
                   for j, mat in _mode_table(spec, "matrix_modes").items()}
        sizes = sorted({mat.shape[0] for mat in entries.values()})
        if len(sizes) != 1:
            raise ConfigError(f"matrix_modes need one block size, got {sizes}")
        d = max(abs(j) for j in entries)
        kk = sizes[0]
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
    (term_specs,) = _fields(spec, ("terms",), "symbol")
    try:
        tag = SymbolClass(spec.get("class", "full_c0"))
    except ValueError as exc:
        raise ConfigError(f"unknown symbol class {spec.get('class')!r}") from exc
    terms = tuple((parse_loop(loop), parse_profile(profile)) for loop, profile in
                  (_fields(t, ("loop", "profile"), "symbol term") for t in term_specs))
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
    _record(spec, "homogeneous symbol")
    if "winding" in spec:
        winding = spec["winding"]
        if not (isinstance(winding, list) and len(winding) == 2
                and all(isinstance(w, (int, float)) and float(w).is_integer()
                        for w in winding)):
            raise ConfigError(f"winding must be two integers [plus, minus]: {winding!r}")
        return presets.winding_pair(*(int(w) for w in winding))
    if "plus" in spec and "minus" in spec:
        plus, minus = parse_loop(spec["plus"]), parse_loop(spec["minus"])
        if plus.k != minus.k:
            raise ConfigError(f"branch block sizes differ: plus {plus.k}, minus {minus.k}")
        return HomogeneousSymbol(plus, minus)
    raise ConfigError(f"homogeneous record needs 'winding' or branches: {spec!r}")


def _once(key, values, what, repeats=None):
    """Raise unless no two of ``values`` repeat; ``repeats`` (default the
    values themselves) are the quantities compared."""
    repeats = values if repeats is None else repeats
    repeated = sorted({v for v, r in zip(values, repeats) if repeats.count(r) > 1})
    if repeated:
        raise ConfigError(f"{key} {repeated}: each {what} may appear once")


def _t_exponents(cfg, section, key):
    """Exponents e of a nonempty t grid without repeats; t = 2**e and the
    top rescaled frequency N / t must be finite positive floats."""
    if not section[key]:
        raise ConfigError(f"{key} must not be empty")
    _once(key, section[key], "exponent")
    N = cfg["grid"]["N"]
    bad = []
    for e in section[key]:
        try:
            t = 2.0 ** e
        except OverflowError:
            t = math.inf
        if not (t > 0.0 and math.isfinite(t) and math.isfinite(N / t)):
            bad.append(e)
    if bad:
        raise ConfigError(f"{key} {bad}: need 2**e and N / 2**e finite and positive")
    return section[key]


def _check_block_sizes(cfg, symbols):
    k = cfg["grid"]["k"]
    for sym in symbols:
        if sym.k != k:
            raise ConfigError(f"symbol block size {sym.k} differs from grid k={k}")


def defect_sweep_cfg(cfg):
    section = cfg["defect_sweep"]
    out = {"t_exponents": _t_exponents(cfg, section, "t_exponents")}
    pair = section["pair"]
    if pair == "cs":
        out["pair"] = presets.cs_pair()
    elif pair == "v00":
        out["pair"] = presets.v00_pair()
    elif isinstance(pair, dict):
        out["pair"] = tuple(parse_symbol(s) for s in _fields(pair, ("a", "b"), "pair"))
    else:
        raise ConfigError(f"unknown pair spec {pair!r}")
    out["t0_symbol"] = parse_symbol(section["t0_symbol"])
    out["chart_symbol"] = parse_symbol(section["chart_symbol"])
    _check_block_sizes(cfg, [*out["pair"], out["t0_symbol"], out["chart_symbol"]])
    return out


def ch_compare_cfg(cfg):
    section = cfg["ch_compare"]
    out = {"t_exponents": _t_exponents(cfg, section, "t_exponents")}
    out["cases"] = presets.ch_cases() if section["cases"] == "default" else [
        (label, parse_profile(f), parse_homogeneous(d)) for label, f, d in
        (_fields(c, ("label", "f", "d"), "ch_compare case") for c in section["cases"])]
    out["extended_cases"] = (
        presets.ch_extended_cases() if section["extended_cases"] == "default" else [
            (label, parse_profile(g), parse_loop(c)) for label, g, c in
            (_fields(e, ("label", "g", "c"), "ch_compare extended case")
             for e in section["extended_cases"])])
    # every label names the columns of one case; a repeat would overwrite them
    _once("ch_compare labels", [str(label) for label, _, _ in out["cases"]]
          + [f"ext:{label}" for label, _, _ in out["extended_cases"]], "label")
    # smash lifts a homogeneous d only through an f with f(0) = 0 = f(oo)
    for where, flag in (("the origin", "vanishes_at_zero"),
                        ("infinity", "vanishes_at_infinity")):
        flat = [label for label, f, _ in out["cases"] if not getattr(f, flag)]
        if flat:
            raise ConfigError(f"ch_compare cases {flat}: profile f must vanish at {where}")
    if not (out["cases"] or out["extended_cases"]):
        raise ConfigError("ch_compare needs at least one case or extended case")
    _check_block_sizes(cfg, [d for _, _, d in out["cases"]]
                       + [c for _, _, c in out["extended_cases"]])
    return out


def homotopy_cfg(cfg):
    """Run config of homotopy-verify.  The sweep reads the support of bump 1
    of each deformed partition (cut(1) = 1/s) and of the bumps up to
    max(L_list) of the undeformed one (cut(i) = i), so 1/s (snapped to a
    half-integer) is at most 1022.5 and every L_list entry at most 1022:
    beyond that the support's end 2**(cut(i) + 1) overflows a float.  The
    endpoint blocks down to i = -L quantize at t = 2**-L, whose top rescaled
    frequency is N * 2**L, so that must be a finite float as well (L <= 1018
    at N = 32)."""
    section = cfg["homotopy_verify"]
    out = {"bands": list(section["bands"]),
           "s_values": list(section["s_values"]),
           "L": section["L"],
           "L_list": list(section["L_list"]),
           "symbol": parse_homogeneous(section["symbol"])}
    bad_s = [s for s in out["s_values"] if not 0.0 < s <= 1.0]
    if bad_s:
        raise ConfigError(f"s_values must lie in (0, 1], got {bad_s}")
    parts = [build_partition(s, out["L"]) for s in out["s_values"]]
    top = sys.float_info.max_exp - 1  # 2.0 ** (cut + 1) overflows from cut = top on
    for key, wide in (("s_values", [p.s for p in parts if p.cut(1) >= top]),
                      ("L_list", [v for v in out["L_list"] if v >= top])):
        if wide:
            raise ConfigError(f"{key} {wide}: need 1/s <= 1022.5 and L_list entries "
                              "<= 1022, or a partition support overflows a float")
    N = cfg["grid"]["N"]
    wide = [v for v in out["L_list"] if not math.isfinite(N * 2.0 ** v)]
    if wide:
        raise ConfigError(f"L_list {wide}: need N * 2**L finite (N={N}), or the "
                          "rescaled frequencies of the endpoint blocks overflow a float")
    _once("s_values", out["s_values"], "partition", [p.inv_s for p in parts])
    _once("bands", out["bands"], "band")
    _once("L_list", out["L_list"], "block range")
    wide = [b for b in out["bands"] if b > N]
    if wide:
        raise ConfigError(f"bands {wide} exceed the mode cutoff N={N}")
    _check_block_sizes(cfg, [out["symbol"]])
    return out


def index_cfg(cfg):
    section = cfg["index_compare"]
    out = {"higson_t_exponents": _t_exponents(cfg, section, "higson_t_exponents")}
    out["cases"] = presets.index_suite() if section["cases"] == "default" else [
        _index_case(c.get("label", f"case{i}"), parse_homogeneous(c)) for i, c in
        enumerate(_record(c, "index_compare case") for c in section["cases"])]
    _check_block_sizes(cfg, [sigma for _, sigma in out["cases"]])
    return out


def _index_case(label, sigma):
    """(label, sigma) once both branches are invertible loops.  Every index
    route reads ``sigma.windings``, which is taken once per symbol, so the
    check costs no winding number of its own; only a failure probes the
    branches one by one to name the one that is not invertible."""
    try:
        sigma.windings
    except ValueError:
        for name in ("plus", "minus"):
            try:
                winding_number(getattr(sigma, name))
            except ValueError as exc:
                raise ConfigError(
                    f"index_compare case {label!r}, {name} branch: {exc}") from exc
        raise
    return label, sigma
