import numpy as np
import pytest

from psilab.config import (ConfigError, parse_homogeneous, parse_loop,
                           parse_profile, parse_symbol)
from psilab.experiments import decreasing_to_zero, loglog_slope, strictly_decreasing
from psilab.symbols import SymbolClass


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
