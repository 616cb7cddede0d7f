"""Sweep runners behind the command-line interface.

Each runner returns (rows, checks): ``rows`` is a list of dicts in a fixed
column order ready for CSV/JSON serialization, ``checks`` a list of
(name, passed, detail) triples.
"""

from __future__ import annotations

import numpy as np

from .bands import _band_adjoint, _band_diff, _band_product, _crop, _subtract_dense
from .connes_higson import ch_apply, ch_extended_apply, default_unit, tail_deformed_unit
from .homotopy import (endpoint_defect, equ1_defect, equ2_defect,
                       theta_discrepancy_norm)
from .index_theory import index_report
from .numerics import operator_norm
from .partition import build_partition
from .quantize import (Atlas, _width, chart_pieces, chart_work, multiplication_operator,
                       op_quantize, padded_grid, t_quantize, t_quantize_charts)
from .symbols import CutFunction, Symbol, SymbolClass, smash
from . import presets

__all__ = [
    "mult_defects",
    "adjoint_defects",
    "chart_defects",
    "run_defect_sweep",
    "run_ch_compare",
    "run_homotopy_verify",
    "run_index_compare",
    "strictly_decreasing",
    "decreasing_to_zero",
    "loglog_slope",
]


# -- verdict bars ---------------------------------------------------------------

DECAY_SLOPE = -0.8  # required log-log tail slope of t-defects
FINAL_RATIO = 0.05  # required final/initial defect ratio
EXACT_TOL = 1e-12   # operator-norm bar for exact identities
EQU2_TOL = 1e-6     # shoulder-defect bar after support migration
T0_RATIO = 1e-3     # vanishing bar (relative to the sup norm) at small t
#: the cutting function of every order-zero operator: theta = 1 from r0 = 4 on
THETA = CutFunction(4.0)


# -- small sequence predicates ----------------------------------------------


def strictly_decreasing(vals):
    return all(y < x for x, y in zip(vals, vals[1:]))


def decreasing_to_zero(vals, floor):
    """Strict decrease, except that values below ``floor`` may tie."""
    return all(y < x or (x <= floor and y <= floor) for x, y in zip(vals, vals[1:]))


def _final_ratio_check(column, vals):
    """The check that vals[-1] < FINAL_RATIO * vals[0] for a column, with the
    ratio as its detail; a zero initial value fails it, and its detail says
    so."""
    name = f"{column} final/initial < {FINAL_RATIO}"
    if vals[0] == 0.0:
        return name, False, "initial value 0: no final/initial ratio"
    return name, vals[-1] < FINAL_RATIO * vals[0], vals[-1] / vals[0]


def loglog_slope(ts, vals):
    """Least-squares slope of log2(vals) against log2(ts)."""
    ts, vals = np.asarray(ts, dtype=float), np.asarray(vals, dtype=float)
    if np.any(vals <= 0.0):
        return -np.inf
    return float(np.polyfit(np.log2(ts), np.log2(vals), 1)[0])


# -- defect columns ------------------------------------------------------------
#
# Each column holds its symbols across t, so their loops transform once
# (``Loop.table``); per t only the column weights are assembled.  Every
# operator but the chart quantization is a band table (``bands``).


def mult_defects(a, b, ts, grid):
    """|| T_t(a) T_t(b) - T_t(ab) || at each t of ``ts``.

    The product is the band product of the factors on the modes padded by
    the smaller of their half-widths, which holds every intermediate mode
    where both are nonzero, and its corner on ``grid`` is kept."""
    ab = a * b
    pad = min(_width([loop for loop, _ in s.terms], grid) for s in (a, b))
    big = padded_grid(grid, pad)
    values = []
    for t in ts:
        product = _crop(_band_product(t_quantize(a, t, big), t_quantize(b, t, big)), pad)
        values.append(operator_norm(_band_diff(product, t_quantize(ab, t, grid))))
    return values


def adjoint_defects(a, ts, grid):
    """|| T_t(a)^* - T_t(a^*) || at each t of ``ts``."""
    adj = a.adjoint()
    return [operator_norm(_band_diff(_band_adjoint(t_quantize(a, t, grid)),
                                     t_quantize(adj, t, grid)))
            for t in ts]


def chart_defects(a, ts, atlas, grid):
    """|| chart-assembled quantization - global quantization || at each t of
    ``ts``: the chart sum is dense, and the band table of the global one is
    subtracted from it on its diagonals."""
    pieces = chart_pieces(a, atlas, grid)
    work = chart_work(grid)
    out = np.empty((grid.dim, grid.dim), dtype=complex)
    values = []
    for t in ts:
        t_quantize_charts(a, t, atlas, grid, pieces, out, work)
        values.append(operator_norm(_subtract_dense(out, t_quantize(a, t, grid))))
    return values


def _quantization_norms(a, ts, grid):
    """|| T_t(a) || at each t of ``ts``."""
    return [operator_norm(t_quantize(a, t, grid)) for t in ts]


# -- defect sweep -------------------------------------------------------------


def run_defect_sweep(grid, cfg):
    """Multiplicativity/adjoint/chart/vanishing columns over a t grid.

    Criteria: strict decay of the multiplicativity and adjoint defects on
    t >= 1 with a log-log tail slope at most DECAY_SLOPE (fit over the top
    half of the window) and final/initial below FINAL_RATIO; chart defect
    decreasing on t >= 4 with the same ratio; the norm at the small-t rows
    decaying below T0_RATIO times the symbol sup norm.
    """
    a, b = cfg["pair"]
    t0_sym = cfg["t0_symbol"]
    chart_sym = cfg["chart_symbol"]
    atlas = Atlas.default_two_charts()

    ts = [2.0 ** e for e in sorted(cfg["t_exponents"])]

    # one column at a time: each frees its operators before the next starts
    columns = {"mult_defect": mult_defects(a, b, ts, grid),
               "adjoint_defect": adjoint_defects(a, ts, grid),
               "chart_defect": chart_defects(chart_sym, ts, atlas, grid),
               "t0_norm": _quantization_norms(t0_sym, ts, grid)}
    rows = [{"t": t, **{name: values[i] for name, values in columns.items()}}
            for i, t in enumerate(ts)]
    checks = []

    big_ts = [r["t"] for r in rows if r["t"] >= 1.0]
    for col in ("mult_defect", "adjoint_defect"):
        vals = [r[col] for r in rows if r["t"] >= 1.0]
        if vals and max(vals) <= EXACT_TOL:
            # identically vanishing defect: nothing left to decay
            checks.append((f"{col} at the exactness floor", True, max(vals)))
            continue
        if len(vals) < 3:
            checks.append((f"{col} window too short to judge decay", False, vals))
            continue
        half = len(vals) // 2
        slope = loglog_slope(big_ts[half:], vals[half:])
        checks.append((f"{col} strictly decreasing", strictly_decreasing(vals), vals))
        checks.append((f"{col} tail slope <= {DECAY_SLOPE}", slope <= DECAY_SLOPE, slope))
        checks.append(_final_ratio_check(col, vals))

    chart_vals = [r["chart_defect"] for r in rows if r["t"] >= 4.0]
    if chart_vals and max(chart_vals) <= EXACT_TOL:
        checks.append(("chart_defect at the exactness floor", True, max(chart_vals)))
    elif len(chart_vals) < 3:
        checks.append(("chart_defect window too short to judge decay",
                       False, chart_vals))
    else:
        checks.append(("chart_defect decreasing", strictly_decreasing(chart_vals),
                       chart_vals))
        checks.append(_final_ratio_check("chart_defect", chart_vals))

    small = [(r["t"], r["t0_norm"]) for r in rows if r["t"] <= 0.5]
    if small:
        vals = [v for _, v in sorted(small, reverse=True)]  # t decreasing
        if max(vals) <= EXACT_TOL:
            checks.append(("t0_norm at the exactness floor", True, max(vals)))
        else:
            sup = t0_sym.sup_norm()
            checks.append(("t0_norm decreasing as t -> 0",
                           strictly_decreasing(vals), vals))
            checks.append((f"t0_norm final < {T0_RATIO} * sup",
                           vals[-1] < T0_RATIO * sup, vals[-1] / sup))
    return rows, checks


# -- deformation-versus-quantization comparison ------------------------------


def run_ch_compare(grid, cfg):
    """Deformed-tensor images against the rescaled quantization.

    Main branch: || CH_t(f x d) - T_t(f(|xi|) d) || must decrease strictly
    with final/initial below FINAL_RATIO for the default unit profile
    and for the bundled tail-deformed alternative.  Extended branch (fiber
    constant, multiplication lifting): exact agreement for the default
    profile, decay to the exactness floor for the alternative.
    """
    cases = cfg["cases"]
    ext_cases = cfg["extended_cases"]
    units = [("default", default_unit()), ("alt", tail_deformed_unit())]

    ts = [2.0 ** e for e in sorted(cfg["t_exponents"])]
    rows = [{"t": t} for t in ts]

    def fill(label, sym, lift, image):
        """The columns ``label|unit`` of one case: || image - T_t(sym) || with
        the case's lifted operator ``lift`` built once for every t."""
        for row in rows:
            t = row["t"]
            T = t_quantize(sym, t, grid)
            for uname, unit in units:
                row[f"{label}|{uname}"] = operator_norm(_band_diff(image(t, unit, lift), T))

    # case by case, so that only one case's operator is alive
    for label, f, d in cases:
        fill(label, smash(f, d), op_quantize(d, THETA, grid),
             lambda t, unit, op: ch_apply(f, d, t, unit, THETA, grid, op))
    for label, g, c in ext_cases:
        fill(f"ext:{label}", Symbol.separable(c, g.even(), SymbolClass.FULL_C0),
             multiplication_operator(c, grid),
             lambda t, unit, op: ch_extended_apply(g, c, t, unit, grid, op))
    checks = []
    for label, _, _ in cases:
        for uname, _ in units:
            vals = [r[f"{label}|{uname}"] for r in rows]
            if max(vals) <= EXACT_TOL:
                checks.append((f"{label}|{uname} at the exactness floor",
                               True, max(vals)))
                continue
            checks.append((f"{label}|{uname} decreasing", strictly_decreasing(vals), vals))
            checks.append(_final_ratio_check(f"{label}|{uname}", vals))
    for label, _, _ in ext_cases:
        vals = [r[f"ext:{label}|default"] for r in rows]
        checks.append((f"ext:{label}|default exact",
                       max(vals) <= EXACT_TOL, max(vals)))
        vals = [r[f"ext:{label}|alt"] for r in rows]
        ok = decreasing_to_zero(vals, floor=EXACT_TOL) and (
            vals[-1] < max(FINAL_RATIO * vals[0], EXACT_TOL))
        checks.append((f"ext:{label}|alt decay to floor", ok, vals))
    return rows, checks


# -- deformation family -------------------------------------------------------


def run_homotopy_verify(grid, cfg):
    """Limit identities of the deformation family and the endpoint match.

    equ1: central-block defect strictly decreasing in s (terminal exact
    zeros allowed) per test vector; equ2: shoulder-block defect below
    EQU2_TOL once the shoulder support passed the vector's band; theta
    identity exact from scale i_theta = ceil(log2(2 r0)) on; endpoint tail
    aggregate at the exactness floor for every block range in ``L_list``,
    with the tail cut at K = 2 r0, i.e. over the blocks |i| >= i_theta.
    """
    a = cfg["symbol"]
    bands = cfg["bands"]
    s_values = cfg["s_values"]
    L_list = cfg["L_list"]
    L = cfg["L"]

    vectors = [presets.band_vector(grid, band, seed=3 + i)
               for i, band in enumerate(bands)]
    parts = {s: build_partition(s, L) for s in s_values}
    i_theta = int(np.ceil(np.log2(2.0 * THETA.r0)))
    p1 = build_partition(1.0, max(L, max(L_list), i_theta + 3))

    op_a = op_quantize(a, THETA, grid)

    def band_row(kind, s, values):
        return {"kind": kind, "key": s,
                **{f"band{band}": v for band, v in zip(bands, values)}}

    s_desc = sorted(s_values, reverse=True)
    rows = ([band_row("equ1", s, equ1_defect(a, op_a, parts[s], vectors, THETA, grid))
             for s in s_desc]
            + [band_row("equ2", s, equ2_defect(a, parts[s], 1, 1, vectors, THETA, grid))
               for s in s_desc])

    for i in range(i_theta - 1, i_theta + 3):
        rows.append({"kind": "theta", "key": i,
                     "value": theta_discrepancy_norm(a, p1, THETA, i, i, grid)})
    tail = endpoint_defect(a, p1, THETA, L_list, 2.0 * THETA.r0, grid)
    for Lv, value in zip(L_list, tail):
        rows.append({"kind": "endpoint", "key": Lv, "value": value})

    checks = []
    for band in bands:
        vals = [r[f"band{band}"] for r in rows if r["kind"] == "equ1"]
        checks.append((f"equ1 band {band} decreasing",
                       decreasing_to_zero(vals, floor=EXACT_TOL), vals))
        migrated = [(r["key"], r[f"band{band}"]) for r in rows
                    if r["kind"] == "equ2" and parts[r["key"]].support(1)[0] > band]
        if migrated:
            worst = max(v for _, v in migrated)
            checks.append((f"equ2 band {band} below {EQU2_TOL} after migration",
                           worst < EQU2_TOL, worst))
    theta_vals = [r["value"] for r in rows
                  if r["kind"] == "theta" and r["key"] >= i_theta]
    checks.append((f"theta identity exact from scale {i_theta}",
                   max(theta_vals) <= EXACT_TOL, theta_vals))
    end_vals = [r["value"] for r in rows if r["kind"] == "endpoint"]
    checks.append(("endpoint aggregate at exactness floor",
                   max(end_vals) <= EXACT_TOL, end_vals))
    return rows, checks


# -- index comparison ---------------------------------------------------------


def run_index_compare(grid, cfg):
    """Three-route index agreement over a suite of winding pairs.

    Exit criterion: every report is conclusive on every route and the three
    integers coincide.  The Fredholm route counts kernels below
    ``index_theory.EPS_RANK``.
    """
    suite = cfg["cases"]
    t_grid = [2.0 ** e for e in cfg["higson_t_exponents"]]

    reports = [index_report(sigma, grid, theta=THETA, t_grid=t_grid, label=label)
               for label, sigma in suite]
    checks = []
    for rep in reports:
        checks.append((f"{rep.label} conclusive and agreeing", rep.agree,
                       {"fredholm": rep.fredholm_index,
                        "analytic": rep.analytic_index,
                        "higson": rep.higson_rounded}))
    return [r.to_dict() for r in reports], checks
