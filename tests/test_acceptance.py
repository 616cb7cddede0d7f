"""Acceptance suite at full desk scale (N = 256, J = 1028, k in {1, 2}).

Every test prints one PASS/FAIL line with the CPU seconds it took; run with

    pytest tests/test_acceptance.py -v -s
"""

import contextlib
import io
import json
import time
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np

from oracles import (covered_log2_range, dilated, fiber_constant_loops, lifting_tail,
                     op_defects, smooth_loop, sum_of_squares, tail_norm,
                     translation_symbols)
from psilab import index_theory
from psilab.cli import main as cli_main
from psilab.connes_higson import (ch_apply, ch_extended_apply, default_unit,
                                  tail_deformed_unit)
from psilab.experiments import (adjoint_defects, chart_defects,
                                decreasing_to_zero, loglog_slope, mult_defects,
                                strictly_decreasing)
from psilab.homotopy import (endpoint_defect, equ1_defect, equ2_defect,
                             theta_discrepancy_norm)
from psilab.index_theory import index_report
from psilab.numerics import CircleGrid, operator_norm
from psilab.partition import build_partition
from psilab.quantize import op_quantize, t_quantize
from psilab.symbols import CutFunction, HomogeneousSymbol, Symbol, SymbolClass, smash
from psilab import presets

GRID = CircleGrid(J=1028, N=256, k=1)
GRID_K2 = CircleGrid(J=1028, N=256, k=2)
THETA = CutFunction(4.0)


@contextmanager
def criterion(number, description, limit_seconds):
    # CPU seconds of every thread of this process: the work done, not the
    # wall time, which a loaded host stretches
    start = time.process_time()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    elapsed = time.process_time() - start
    print(f"[criterion {number:2d}] PASS  {description}  ({elapsed:.1f} CPU s / "
          f"limit {limit_seconds:.0f}s)")
    assert elapsed < limit_seconds


def test_criterion_01_partition_exactness():
    with criterion(1, "partition exactness and adjacency", 1.0):
        rng = np.random.default_rng(0)
        for s in (1.0, 0.5, 0.25, 0.125):
            p = build_partition(s, 8)
            lo, hi = covered_log2_range(p)
            xs = np.exp2(rng.uniform(lo, hi, 1000))
            assert np.max(np.abs(sum_of_squares(p, xs) - 1.0)) < 1e-12
            wide = np.exp2(rng.uniform(lo - 2, hi + 2, 1000))
            for i in range(-6, 5):
                assert np.max(p.gamma(i, wide) * p.gamma(i + 2, wide)) == 0.0


def test_criterion_02_translation_invariance():
    with criterion(2, "exact translation invariance on a 5x3 grid", 10.0):
        symbols = translation_symbols()
        for sym in symbols:
            grid = GRID if sym.k == 1 else GRID_K2
            for t in (1.0, 2.0, 4.0, 8.0, 16.0):
                for s in (0.5, 2.0, 3.0):
                    lhs = t_quantize(sym, t * s, grid)
                    rhs = t_quantize(dilated(sym, s), t, grid)
                    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_criterion_03_multiplicativity_and_adjoint_decay():
    with criterion(3, "asymptotic multiplicativity and adjoint decay", 60.0):
        ts = 2.0 ** np.arange(0, 9)
        for a, b in (presets.cs_pair(), presets.v00_pair()):
            mults = mult_defects(a, b, ts, GRID)
            adjs = adjoint_defects(a, ts, GRID)
            for vals in (mults, adjs):
                assert strictly_decreasing(vals)
                assert loglog_slope(ts[4:], vals[4:]) <= -0.8
                assert vals[-1] < 0.05 * vals[0]


def test_criterion_04_chart_independence():
    with criterion(4, "chart-assembled vs global quantization", 60.0):
        from psilab.quantize import Atlas
        atlas = Atlas.default_two_charts()
        sym = presets.chart_symbol()
        vals = chart_defects(sym, [2.0 ** k for k in range(2, 9)], atlas, GRID)
        assert strictly_decreasing(vals)
        assert vals[-1] < 0.05 * vals[0]


def test_criterion_05_vanishing_at_small_t():
    with criterion(5, "norm vanishing as t -> 0 on vanishing symbols", 10.0):
        g = presets.t0_symbol()
        sup = g.sup_norm()
        vals = [operator_norm(t_quantize(g, 2.0 ** -k, GRID)) for k in range(1, 7)]
        assert strictly_decreasing(vals)
        assert vals[-1] < 1e-3 * sup


def test_criterion_06_extension_modulo_tails():
    with criterion(6, "symbol-map tails halve under K-doubling; exact lifting", 60.0):
        a = HomogeneousSymbol(smooth_loop(seed=23), smooth_loop(seed=24))
        b = HomogeneousSymbol(smooth_loop(seed=25), smooth_loop(seed=26))
        for defect in op_defects(a, b, THETA, GRID):
            tails = [tail_norm(defect, GRID, K) for K in (8, 16, 32, 64)]
            assert all(y <= 0.5 * x for x, y in zip(tails, tails[1:]))
            assert strictly_decreasing(tails)
            assert tail_norm(defect, GRID, GRID.N // 2) < 1e-3
        for c in fiber_constant_loops():
            assert lifting_tail(c, THETA, GRID) == 0.0


def test_criterion_07_deformation_vs_quantization():
    with criterion(7, "deformed tensors match the rescaled quantization", 120.0):
        units = [default_unit(), tail_deformed_unit()]
        ts = [2.0 ** k for k in range(2, 9)]
        for label, f, d in presets.ch_cases():
            for uname, unit in zip(("default", "alt"), units):
                vals = []
                for t in ts:
                    CH = ch_apply(f, d, t, unit, THETA, GRID)
                    T = t_quantize(smash(f, d), t, GRID)
                    vals.append(operator_norm(CH - T))
                assert strictly_decreasing(vals), (label, uname, vals)
                assert vals[-1] < 0.05 * vals[0], (label, uname)
        for label, g, c in presets.ch_extended_cases():
            sym = Symbol.separable(c, g.even(), SymbolClass.FULL_C0)
            defaults, alts = [], []
            for t in ts:
                T = t_quantize(sym, t, GRID)
                defaults.append(operator_norm(
                    ch_extended_apply(g, c, t, units[0], GRID) - T))
                alts.append(operator_norm(
                    ch_extended_apply(g, c, t, units[1], GRID) - T))
            # multiplication lifting with the bundled pair is exact; the
            # alternative profile decays to the same exactness floor
            assert max(defaults) <= 1e-12, (label, defaults)
            assert decreasing_to_zero(alts, floor=1e-12), (label, alts)
            assert alts[-1] <= max(0.05 * alts[0], 1e-12), (label, alts)


def test_criterion_08_deformation_family_limits():
    with criterion(8, "deformation-family limit identities and endpoint", 120.0):
        a = presets.homotopy_symbol()
        s_grid = (1 / 2, 1 / 3, 1 / 4, 1 / 6, 1 / 8)
        bands = (60, 100, 150)
        parts = {s: build_partition(s, 8) for s in s_grid}
        vectors = [presets.band_vector(GRID, band, seed=3 + i)
                   for i, band in enumerate(bands)]
        op_a = op_quantize(a, THETA, GRID)
        equ1 = {s: equ1_defect(a, op_a, parts[s], vectors, THETA, GRID) for s in s_grid}
        equ2 = {s: equ2_defect(a, parts[s], 1, 1, vectors, THETA, GRID) for s in s_grid}
        for i, band in enumerate(bands):
            e1 = [equ1[s][i] for s in s_grid]
            assert decreasing_to_zero(e1, floor=1e-12), (band, e1)
            assert e1[0] > 1e-3
            for s in s_grid:
                if parts[s].support(1)[0] > band:  # shoulder support migrated
                    assert equ2[s][i] < 1e-6
        p1 = build_partition(1.0, 10)
        i0 = int(np.ceil(np.log2(2.0 * THETA.r0)))
        for i in range(i0, i0 + 3):
            assert theta_discrepancy_norm(a, p1, THETA, i, i, GRID) == 0.0
        end_vals = endpoint_defect(a, p1, THETA, (4, 6, 8), 8, GRID)
        assert max(end_vals) < 1e-12, end_vals


def test_criterion_09_index_agreement():
    with criterion(9, "three index routes agree and are refinement-stable", 180.0):
        t_grid = (16.0, 32.0, 64.0, 128.0, 256.0)
        expected = {"w((0, 0),(0, 0))": 0}
        reports = {}
        for label, sigma in presets.index_suite():
            rep = index_report(sigma, GRID, theta=THETA, t_grid=t_grid, label=label)
            assert rep.agree, (label, rep)
            assert rep.fredholm_index == rep.analytic_index == rep.higson_rounded
            conclusive = [(t, v) for t, v in zip(rep.higson_t_grid, rep.higson_trace)
                          if v is not None]
            for t, v in conclusive:
                if t >= 64.0:
                    assert abs(v - round(v)) <= 0.1
            reports[label] = rep

        # stability under eps_rank -> eps_rank / 10 at the working scale
        from psilab.index_theory import fredholm_index_svd
        with patch.object(index_theory, "EPS_RANK", 1e-7):
            for label, sigma in presets.index_suite():
                assert (fredholm_index_svd(sigma, THETA, GRID)
                        == reports[label].fredholm_index)

        # stability under N -> 2N
        big = CircleGrid(J=2052, N=512, k=1)
        for label, sigma in presets.index_suite():
            rep2 = index_report(sigma, big, theta=THETA, t_grid=(64.0,),
                                label=label)
            assert rep2.agree
            assert rep2.fredholm_index == reports[label].fredholm_index
            assert rep2.higson_rounded == reports[label].higson_rounded


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical CLI reruns for every subcommand", 120.0):
        cfg = {
            "grid": {"N": 64, "J": 260, "k": 1},
            "defect_sweep": {"t_exponents": [-2, -1, 0, 1, 2, 3]},
            "ch_compare": {"t_exponents": [1, 2, 3, 4]},
            "homotopy_verify": {"bands": [10, 20], "L": 6, "L_list": [3, 4],
                                "s_values": [0.5, 0.25, 0.125]},
            "index_compare": {"higson_t_exponents": [3, 4]},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for command, fmt in (("defect-sweep", "csv"), ("index-compare", "json"),
                             ("ch-compare", "csv"), ("homotopy-verify", "csv")):
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{command}-{tag}.{fmt}"
                # reduced-scale reruns: only byte-identity matters here, so
                # the per-run criterion chatter is swallowed
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli_main([command, "--config", str(path), "--out", str(out),
                              "--format", fmt])
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], command
