from collections import Counter

import numpy as np
import pytest

from oracles import ch_compare_rows, defect_sweep_rows, homotopy_rows, matrix_loop
from psilab import connes_higson, experiments, presets, quantize
from psilab.config import (ConfigError, parse_homogeneous, parse_loop,
                           parse_profile, parse_symbol)
from psilab.experiments import (decreasing_to_zero, loglog_slope, run_ch_compare,
                                run_defect_sweep, run_homotopy_verify, strictly_decreasing)
from psilab.numerics import CircleGrid
from psilab.symbols import (HomogeneousSymbol, Loop, Symbol, SymbolClass, bump_profile,
                            cap_profile, rational_decay_profile, rational_vanishing_profile)


class TestPredicates:
    def test_strictly_decreasing(self):
        assert strictly_decreasing([3.0, 2.0, 1.0])
        assert not strictly_decreasing([3.0, 3.0, 1.0])
        assert not strictly_decreasing([1.0, 2.0])
        assert strictly_decreasing([])

    def test_decreasing_to_zero(self):
        assert decreasing_to_zero([3.0, 1.0, 0.0, 0.0], floor=1e-12)
        assert decreasing_to_zero([3.0, 1.0, 1e-15, 1e-14], floor=1e-12)
        assert not decreasing_to_zero([3.0, 3.0, 0.0], floor=1e-12)
        assert not decreasing_to_zero([3.0, 1.0, 2.0, 0.0], floor=1e-12)

    def test_loglog_slope(self):
        ts = [1.0, 2.0, 4.0, 8.0]
        vals = [1.0, 0.5, 0.25, 0.125]
        assert loglog_slope(ts, vals) == pytest.approx(-1.0)
        assert loglog_slope(ts, [1.0, 0.5, 0.0, 0.1]) == -np.inf


class TestProfileParsing:
    def test_named_kinds(self):
        p = parse_profile({"kind": "bump", "lo": 0.5, "hi": 4.0})
        assert p(0.4) == 0.0 and abs(p(2.0)) > 0.0
        q = parse_profile({"kind": "rational_decay", "scale": 2.0})
        assert q(0.0) == pytest.approx(1.0)

    def test_product(self):
        p = parse_profile({"product": [{"kind": "rational_vanishing"},
                                       {"kind": "rational_decay"}]})
        assert p(0.0) == 0.0
        assert abs(p(1.0)) > 0.0

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            parse_profile({"kind": "mystery"})

    def test_missing_kind(self):
        with pytest.raises(ConfigError):
            parse_profile({"lo": 1.0})


class TestLoopParsing:
    def test_scalar_modes(self):
        loop = parse_loop({"modes": {"1": 0.5, "-2": [0.0, 0.25]}})
        assert loop.degree == 2
        x = np.array([0.7])
        expect = 0.5 * np.exp(1j * x) + 0.25j * np.exp(-2j * x)
        assert np.allclose(loop(x)[:, 0, 0], expect)

    def test_matrix_modes(self):
        loop = parse_loop({"matrix_modes": {"0": [[[1.0, 0.0], [0.0, 0.0]],
                                                  [[0.0, 0.0], [2.0, 0.0]]]}})
        assert loop.k == 2
        assert np.allclose(loop(0.0), np.diag([1.0, 2.0]))

    def test_presets(self):
        assert parse_loop("identity").degree == 0
        assert parse_loop("c1").degree == 2
        with pytest.raises(ConfigError):
            parse_loop("mystery")

    def test_bad_coefficient(self):
        with pytest.raises(ConfigError):
            parse_loop({"modes": {"1": [1.0, 2.0, 3.0]}})


class TestSymbolParsing:
    def test_explicit_record(self):
        sym = parse_symbol({"class": "compact_support",
                            "terms": [{"loop": {"modes": {"0": 1.0}},
                                       "profile": {"kind": "cap", "hi": 2.0}}]})
        assert sym.tag == SymbolClass.COMPACT_SUPPORT
        assert abs(sym(0.0, 0.0)[0, 0] - 1.0) < 1e-14

    def test_class_validation_propagates(self):
        with pytest.raises(ConfigError):
            parse_symbol({"class": "mystery", "terms": []})

    def test_homogeneous_windings(self):
        h = parse_homogeneous({"winding": [2, -1]})
        from psilab.index_theory import winding_number
        assert winding_number(h.plus) == 2
        assert winding_number(h.minus) == -1

    def test_homogeneous_branches(self):
        h = parse_homogeneous({"plus": {"modes": {"1": 1.0}}, "minus": "identity"})
        assert h.plus.degree == 1 and h.minus.degree == 0

    def test_homogeneous_bad_record(self):
        with pytest.raises(ConfigError):
            parse_homogeneous({"plus": {"modes": {"1": 1.0}}})


# -- the runners against the per-t reference ----------------------------------


def bits(rows):
    """Rows with every float as its hex string, so that == compares bits."""
    return [{key: value.hex() if isinstance(value, float) else value
             for key, value in row.items()} for row in rows]


def sweep_configs(k):
    """Run configs of the three norm sweeps: the shipped symbols at k = 1,
    seeded matrix symbols at k = 2, two-term ones in every sweep.
    The t grids reach a T_t(a) that is identically zero (the bump symbol a
    at t = 1/16) and charts whose windowed quantization is live on every
    padded column (t = 256)."""
    defect_ts = [-4, -2, 0, 1, 3, 5, 8]
    if k == 1:
        return ({"t_exponents": defect_ts, "pair": presets.cs_pair(),
                 "t0_symbol": presets.t0_symbol(), "chart_symbol": presets.chart_symbol()},
                {"t_exponents": [1, 2, 4, 6], "cases": presets.ch_cases(),
                 "extended_cases": presets.ch_extended_cases()},
                {"symbol": presets.homotopy_symbol(), "bands": [8, 20],
                 "s_values": [0.5, 0.25, 0.125], "L": 6, "L_list": [3, 5]})
    a = Symbol.separable(matrix_loop(k=2, seed=51), bump_profile(0.5, 6.0),
                         SymbolClass.COMPACT_SUPPORT)
    b = Symbol(((matrix_loop(k=2, seed=52, degree=3), cap_profile(3.0)),
                (matrix_loop(k=2, seed=53), rational_decay_profile(1.5))),
               2, SymbolClass.FULL_C0)
    same = matrix_loop(k=2, seed=54)
    d = HomogeneousSymbol(matrix_loop(k=2, seed=55), matrix_loop(k=2, seed=56, degree=1))
    return ({"t_exponents": defect_ts, "pair": (a, b), "t0_symbol": b,
             "chart_symbol": Symbol.separable(matrix_loop(k=2, seed=57), cap_profile(1.0),
                                              SymbolClass.COMPACT_SUPPORT)},
            {"t_exponents": [1, 2, 4, 6],
             "cases": [("d", rational_vanishing_profile(1.0), d),
                       ("same", rational_vanishing_profile(2.0), HomogeneousSymbol(same, same))],
             "extended_cases": [("c", rational_decay_profile(1.0), matrix_loop(k=2, seed=58))]},
            {"symbol": d, "bands": [8, 20], "s_values": [0.5, 0.25], "L": 6,
             "L_list": [3, 5]})


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("N", [32, 64])
def test_runners_match_the_per_t_reference(N, k):
    # hoisted tables, one column or case at a time and reused work arrays
    # leave every value the same floating-point expression
    grid = CircleGrid(J=4 * N + 4, N=N, k=k)
    defect, ch, homotopy = sweep_configs(k)
    assert bits(run_defect_sweep(grid, defect)[0]) == bits(defect_sweep_rows(grid, defect))
    assert bits(run_ch_compare(grid, ch)[0]) == bits(ch_compare_rows(grid, ch))
    assert bits(run_homotopy_verify(grid, homotopy)[0]) == bits(homotopy_rows(grid, homotopy))


def test_defect_sweep_zero_initial_value_fails_its_ratio(monkeypatch):
    # columns that start at zero: each final/initial check fails and says so
    grid = CircleGrid(J=132, N=32)
    ts = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    # mult and adjoint are judged from t = 1 on, the chart from t = 4 on
    for name, column in (("mult_defects", [0.0, 0.0, 1.0, 0.5, 0.25, 0.125]),
                         ("adjoint_defects", [0.0, 0.0, 1.0, 0.5, 0.25, 0.125]),
                         ("chart_defects", [1.0, 1.0, 1.0, 0.0, 0.5, 0.25])):
        monkeypatch.setattr(experiments, name, lambda *args, column=column: column)
    defect, _, _ = sweep_configs(1)
    rows, checks = run_defect_sweep(grid, dict(defect, t_exponents=[-1, 0, 1, 2, 3, 4]))
    assert [r["t"] for r in rows] == ts
    ratios = {name: (ok, detail) for name, ok, detail in checks if "final/initial" in name}
    assert ratios == {f"{col} final/initial < 0.05": (False, "initial value 0: no final/initial ratio")
                      for col in ("mult_defect", "adjoint_defect", "chart_defect")}


def test_ch_compare_builds_each_operator_once(monkeypatch):
    # Op(d) once per case, and every loop transformed at most once per grid
    grid = CircleGrid(J=260, N=64)
    cfg = {"t_exponents": [2, 3, 4], "cases": presets.ch_cases(),
           "extended_cases": presets.ch_extended_cases()}
    ops, tables = [], Counter()
    op_quantize = quantize.op_quantize
    for module in (experiments, connes_higson):
        monkeypatch.setattr(module, "op_quantize",
                            lambda d, *args: ops.append(d) or op_quantize(d, *args))
    coefficients = Loop.coefficients
    monkeypatch.setattr(Loop, "coefficients",
                        lambda loop, g: tables.update([(id(loop), g)]) or coefficients(loop, g))
    run_ch_compare(grid, cfg)
    assert ops == [d for _, _, d in cfg["cases"]]
    assert max(tables.values()) == 1
    # the unit case has one loop on both branches
    assert len(tables) == 2 + 1 + 2 + 2
