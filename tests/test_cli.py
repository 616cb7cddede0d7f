import csv
import json

import numpy as np
import pytest

from psilab import config, index_theory, presets
from psilab.cli import main
from psilab.config import ConfigError, DEFAULTS, load_config

SMALL = {
    "grid": {"N": 64, "J": 260, "k": 1},
    "defect_sweep": {"t_exponents": [-2, -1, 0, 1, 2, 3]},
    "ch_compare": {"t_exponents": [1, 2, 3, 4]},
    "homotopy_verify": {"bands": [10, 20], "L": 6, "L_list": [3, 4],
                        "s_values": [0.5, 0.25, 0.125]},
    "index_compare": {"higson_t_exponents": [3, 4]},
}
HV = SMALL["homotopy_verify"]


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config(None)
        assert cfg["grid"]["N"] == 256
        assert cfg == DEFAULTS

    def test_deep_merge(self, tmp_path):
        path = write_config(tmp_path, {"grid": {"N": 32, "J": 132}})
        cfg = load_config(path)
        assert cfg["grid"]["N"] == 32
        assert cfg["grid"]["k"] == DEFAULTS["grid"]["k"]

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("number", ["-Infinity", "1e400"])
    def test_nonfinite_number_rejected(self, tmp_path, number):
        # NaN and Infinity are covered by test_malformed_record_exits_2; 1e400
        # is no literal, but it parses to infinity all the same
        path = tmp_path / "bad.json"
        path.write_text('{"ch_compare": {"t_exponents": [%s]}}' % number)
        with pytest.raises(ConfigError, match=f"config number {number} is not finite"):
            load_config(str(path))

    def test_schema_rejects_unknown_keys(self, tmp_path):
        path = write_config(tmp_path, {"grid": {"N": 32, "J": 132}, "junk": 1})
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_schema_rejects_bad_types(self, tmp_path):
        path = write_config(tmp_path, {"grid": {"N": "large"}})
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("data,message", [
        ([1], "top level: [1] is not of type 'object'"),
        ({"junk": 1}, "top level: unknown key 'junk'"),
        ({"grid": {"N": 32, "M": 1}}, "grid: unknown key 'M'"),
        ({"grid": 5}, "grid: 5 is not of type 'object'"),
        ({"grid": {"N": "large"}}, "grid.N: 'large' is not of type 'integer'"),
        ({"grid": {"k": True}}, "grid.k: True is not of type 'integer'"),
        ({"grid": {"N": 32.0}}, "grid.N: 32.0 is not of type 'integer'"),
        ({"homotopy_verify": {"L_list": [3, 4.0]}},
         "homotopy_verify.L_list.1: 4.0 is not of type 'integer'"),
        ({"defect_sweep": {"t_exponents": [1, "2"], "pair": 5}},
         "defect_sweep.t_exponents.1: '2' is not of type 'number'"),
        ({"homotopy_verify": {"s_values": [False]}},
         "homotopy_verify.s_values.0: False is not of type 'number'"),
        ({"ch_compare": {"t_exponents": 5}}, "ch_compare.t_exponents: 5 is not of type 'array'"),
        ({"grid": {"N": 0, "J": "x"}}, "grid.N: 0 is less than the minimum of 1"),
        ({"homotopy_verify": {"bands": [3, -1]}},
         "homotopy_verify.bands.1: -1 is less than the minimum of 0"),
        ({"homotopy_verify": {"bands": [], "L": 1}},
         "homotopy_verify.bands: [] should be non-empty"),
        ({"index_compare": {"cases": []}}, "index_compare.cases: [] should be non-empty"),
        ({"defect_sweep": {"pair": 5}}, "defect_sweep.pair: 5 is not of type 'string' or 'object'"),
        ({"ch_compare": {"cases": {"label": "x"}}},
         "ch_compare.cases: {'label': 'x'} is not of type 'string' or 'array'"),
    ], ids=["top-level-not-object", "unknown-top-level-key", "unknown-section-key",
            "section-not-object", "string-for-integer", "bool-for-integer",
            "float-for-integer", "float-item-for-integer", "string-item-for-number",
            "bool-item-for-number", "number-for-array", "below-minimum",
            "item-below-minimum", "empty-list", "empty-cases", "number-for-record",
            "object-for-cases"])
    def test_key_check_message(self, tmp_path, data, message):
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, data))
        assert str(err.value) == f"config rejected at {message}"

    def test_record_case_takes_its_windings_once(self, tmp_path, monkeypatch):
        calls = []
        winding_number = index_theory.winding_number

        def counted(loop):
            calls.append(loop)
            return winding_number(loop)

        monkeypatch.setattr(config, "winding_number", counted)
        monkeypatch.setattr(index_theory, "winding_number", counted)
        path = write_config(tmp_path, {
            "grid": {"N": 32, "J": 132},
            "index_compare": {"cases": [{"label": "w", "winding": [1, 0]}],
                              "higson_t_exponents": [3]}})
        rc = main(["index-compare", "--config", path, "--out", str(tmp_path / "o.csv")])
        assert rc == 0
        assert len(calls) == 2


class TestExitCodes:
    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        rc = main(["index-compare", "--config", str(path),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_inconsistent_grid_exits_2(self, tmp_path):
        path = write_config(tmp_path, {"grid": {"N": 64, "J": 64}})
        rc = main(["index-compare", "--config", str(path),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 2

    def test_index_compare_small_grid_exits_0(self, tmp_path):
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "reports.json"
        rc = main(["index-compare", "--config", str(path), "--out", str(out),
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 4
        assert all(r["agree"] for r in payload["rows"])

    def test_homotopy_small_grid_exits_0(self, tmp_path):
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "h.csv"
        rc = main(["homotopy-verify", "--config", str(path), "--out", str(out)])
        assert rc == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header[:2] == ["kind", "key"]

    def test_unit_and_zero_symbol_config_exits_0(self, tmp_path):
        # identically vanishing defect columns count as met criteria
        data = dict(SMALL)
        unit = {"class": "full_c0",
                "terms": [{"loop": {"modes": {"0": 1.0}},
                           "profile": {"kind": "constant", "value": 1.0}}]}
        zero = {"class": "full_c0",
                "terms": [{"loop": {"modes": {"0": 0.0}},
                           "profile": {"kind": "constant", "value": 0.0}}]}
        data["defect_sweep"] = {"t_exponents": [-2, -1, 0, 1, 2, 3],
                                "pair": {"a": unit, "b": unit},
                                "chart_symbol": zero, "t0_symbol": zero}
        path = write_config(tmp_path, data)
        out = tmp_path / "z.csv"
        rc = main(["defect-sweep", "--config", str(path), "--out", str(out)])
        assert rc == 0
        for line in out.read_text().splitlines()[1:]:
            assert all(float(v) <= 1e-12 for v in line.split(",")[1:])

    def test_out_of_window_index_config_exits_1(self, tmp_path, capsys):
        # pairing time far beyond the mode cutoff: inconclusive markers
        data = dict(SMALL)
        data["grid"] = {"N": 32, "J": 132, "k": 1}
        data["index_compare"] = {"higson_t_exponents": [8]}
        path = write_config(tmp_path, data)
        out = tmp_path / "i.json"
        rc = main(["index-compare", "--config", str(path), "--out", str(out),
                   "--format", "json"])
        assert rc == 1
        assert "criterion failed" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert any(r["higson_trace"][0] is None for r in payload["rows"])

    def test_symbol_block_size_mismatch_exits_2(self, tmp_path, capsys):
        # the k = 1 presets would broadcast to all-ones blocks on a k = 2 grid
        path = write_config(tmp_path, {"grid": {"N": 32, "J": 132, "k": 2}})
        rc = main(["defect-sweep", "--config", str(path),
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 2
        assert "block size" in capsys.readouterr().err

    def test_s_value_outside_unit_interval_exits_2(self, tmp_path, capsys):
        data = dict(SMALL)
        data["homotopy_verify"] = dict(SMALL["homotopy_verify"], s_values=[2.0])
        path = write_config(tmp_path, data)
        rc = main(["homotopy-verify", "--config", str(path),
                   "--out", str(tmp_path / "h.csv")])
        assert rc == 2
        assert "s_values" in capsys.readouterr().err

    def test_band_above_cutoff_exits_2(self, tmp_path, capsys):
        data = dict(SMALL)
        data["homotopy_verify"] = dict(SMALL["homotopy_verify"], bands=[10, 65])
        path = write_config(tmp_path, data)
        rc = main(["homotopy-verify", "--config", str(path),
                   "--out", str(tmp_path / "h.csv")])
        assert rc == 2
        assert "bands" in capsys.readouterr().err

    def test_shoulder_edge_read_from_the_partition_exits_0(self, tmp_path, capsys):
        # 1/0.37 snaps to 2.5, so the shoulder starts at 2**1.5 < 3 and band 3
        # has not been passed; the raw 2**(1/0.37 - 1) > 3 would demand it
        data = {"grid": {"N": 32, "J": 132},
                "homotopy_verify": {"bands": [3], "s_values": [0.37]}}
        rc = main(["homotopy-verify", "--config", write_config(tmp_path, data),
                   "--out", str(tmp_path / "h.csv")])
        assert rc == 0
        assert "criterion failed" not in capsys.readouterr().err

    @pytest.mark.parametrize("key,values,message", [
        ("bands", [10, 10], "bands [10]: each band may appear once"),
        ("L_list", [3, 4, 3], "L_list [3]: each block range may appear once"),
        # 1/s snaps to the half-integers 2, 2 and 4: two equal partitions
        ("s_values", [0.5, 0.5, 0.25], "s_values [0.5]: each partition may appear once"),
        ("s_values", [0.37, 0.4], "s_values [0.37, 0.4]: each partition may appear once"),
    ])
    def test_repeated_homotopy_value_exits_2(self, tmp_path, capsys, key, values, message):
        data = {"grid": {"N": 32, "J": 132}, "homotopy_verify": dict(HV, **{key: values})}
        rc = main(["homotopy-verify", "--config", write_config(tmp_path, data),
                   "--out", str(tmp_path / "h.csv")])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_distinct_partitions_exit_0(self, tmp_path):
        # 1/0.4 snaps to 2.5, apart from the 2 of s = 0.5: three partitions
        data = {"grid": {"N": 32, "J": 132},
                "homotopy_verify": dict(HV, s_values=[0.5, 0.4, 0.25])}
        out = tmp_path / "h.csv"
        rc = main(["homotopy-verify", "--config", write_config(tmp_path, data),
                   "--out", str(out)])
        assert rc == 0
        keys = [line.split(",")[1] for line in out.read_text().splitlines()
                if line.startswith("equ2,")]
        assert keys == ["0.5", "0.4", "0.25"]

    @pytest.mark.parametrize("profile,message", [
        ({"kind": "bump", "lo": 5, "hi": 1}, "lo < hi"),
        ({"kind": "bump"}, "missing"),
    ])
    def test_profile_out_of_range_exits_2(self, tmp_path, capsys, profile, message):
        data = {"grid": {"N": 32, "J": 132},
                "defect_sweep": {"t0_symbol": {"class": "vanishing_00", "terms": [
                    {"loop": "c1", "profile": profile}]}}}
        path = write_config(tmp_path, data)
        rc = main(["defect-sweep", "--config", str(path),
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("symbol,message", [
        ({"terms": [  # block sizes 2 and 1
            {"loop": {"modes": {"0": 1.0}, "k": 2}, "profile": {"kind": "constant", "value": 1.0}},
            {"loop": "c1", "profile": {"kind": "constant", "value": 1.0}}]}, "block size"),
        ({"class": "vanishing_00", "terms": [
            {"loop": "c1", "profile": {"kind": "constant", "value": 1.0}}]}, "vanishing"),
    ])
    def test_inconsistent_symbol_record_exits_2(self, tmp_path, capsys, symbol, message):
        data = {"grid": {"N": 32, "J": 132}, "defect_sweep": {"t0_symbol": symbol}}
        path = write_config(tmp_path, data)
        rc = main(["defect-sweep", "--config", str(path),
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_homogeneous_branches_of_unequal_size_exit_2(self, tmp_path, capsys):
        branches = {"plus": {"modes": {"0": 1.0}, "k": 2}, "minus": "c1"}
        data = dict(SMALL, grid={"N": 32, "J": 132},
                    homotopy_verify=dict(SMALL["homotopy_verify"], symbol=branches))
        path = write_config(tmp_path, data)
        rc = main(["homotopy-verify", "--config", str(path),
                   "--out", str(tmp_path / "h.csv")])
        assert rc == 2
        assert "block size" in capsys.readouterr().err

    @pytest.mark.parametrize("command,section,message", [
        ("defect-sweep", {"defect_sweep": {"t0_symbol": {"class": "vanishing_00"}}},
         "'terms'"),
        ("defect-sweep", {"defect_sweep": {"t0_symbol": {"terms": [{"loop": "c1"}]}}},
         "'profile'"),
        ("defect-sweep", {"defect_sweep": {"pair": {"a": "cs"}}}, "'b'"),
        ("ch-compare", {"ch_compare": {"extended_cases": [{"label": "x", "g": {
            "kind": "rational_vanishing"}, "c": {"matrix_modes": {"0": [[1, 0], [0]]}}}]}},
         "square"),
        ("ch-compare", {"ch_compare": {"extended_cases": [{"label": "x", "g": {
            "kind": "rational_vanishing"}, "c": {"matrix_modes": {
                "0": [[1, 0], [0, 1]], "1": [[1]]}}}]}}, "one block size"),
        ("ch-compare", {"ch_compare": {"extended_cases": [{"label": "x", "c": "c1"}]}},
         "'g'"),
        ("ch-compare", {"ch_compare": {"cases": [{"label": "x", "f": {
            "kind": "rational_vanishing"}}]}}, "'d'"),
        ("ch-compare", {"ch_compare": {"extended_cases": [{"label": "x", "g": {
            "kind": "rational_vanishing"}, "c": {"modes": {"one": 1.0}}}]}}, "integer"),
        ("index-compare", {"index_compare": {"cases": [{"winding": [1]}]}}, "two integers"),
        ("index-compare", {"index_compare": {"cases": []}}, "index_compare.cases"),
        ("ch-compare", {"ch_compare": {"cases": [], "extended_cases": []}},
         "at least one case"),
        ("homotopy-verify", {"homotopy_verify": dict(HV, L_list=[])}, "L_list"),
        ("homotopy-verify", {"homotopy_verify": dict(HV, L_list=[3, 1])}, "minimum of 2"),
        ("homotopy-verify", {"homotopy_verify": dict(HV, L_list=[4.5])}, "'integer'"),
        ("homotopy-verify", {"homotopy_verify": dict(HV, bands=[10.7])}, "'integer'"),
        ("homotopy-verify", {"homotopy_verify": dict(HV, bands=[-3])}, "minimum of 0"),
        ("homotopy-verify", {"homotopy_verify": dict(HV, bands=[])}, "bands"),
        ("homotopy-verify", {"homotopy_verify": dict(HV, s_values=[])}, "s_values"),
        # the verdict bars are constants, not config keys
        ("defect-sweep", {"tolerances": {"tol_compact": 1e-3}}, "'tolerances'"),
        ("defect-sweep", {"tolerances": {"translation_tol": 1e-13}}, "'tolerances'"),
        # record shapes that the parsers reject before any construction
        ("ch-compare", {"ch_compare": {"extended_cases": [{"label": "x", "g": {
            "kind": "rational_decay"}, "c": {"modes": {"1": 1.0}, "k": 2.5}}]}},
         "positive integer"),
        ("ch-compare", {"ch_compare": {"extended_cases": [{"label": "x", "g": {
            "kind": "rational_decay"}, "c": {"modes": {"1": 1.0}, "k": -1}}]}},
         "positive integer"),
        ("ch-compare", {"ch_compare": {"extended_cases": [{"label": "x", "g": {
            "kind": "rational_decay"}, "c": {"modes": [1, 2]}}]}}, "keyed by mode"),
        ("defect-sweep", {"defect_sweep": {"t0_symbol": {"terms": [
            {"loop": "c1", "profile": {"product": []}}]}}}, "nonempty list"),
        ("defect-sweep", {"defect_sweep": {"t0_symbol": {"terms": [
            {"loop": "c1", "profile": {"product": 5}}]}}}, "nonempty list"),
        ("index-compare", {"index_compare": {"cases": ["w(1,0)"]}},
         "index_compare case record must be an object"),
        ("ch-compare", {"ch_compare": {"cases": [{"label": "x", "f": {
            "kind": "rational_vanishing"}, "d": 5}]}}, "homogeneous symbol record"),
        # a branch without a winding number has no index
        ("index-compare", {"index_compare": {"cases": [
            {"plus": {"modes": {"0": 0}}, "minus": "identity"}]}},
         "'case0', plus branch: loop has a (numerically) non-invertible sample"),
        # keys that let checks pass on nothing: every defect below the bar,
        # an endpoint sum over no blocks, and equ1, equ2 and theta rows of a
        # cutting function that vanishes on every mode
        ("defect-sweep", {"tolerances": {"exact_tol": 1e300}}, "'tolerances'"),
        ("homotopy-verify", {"homotopy_verify": dict(HV, K=100000)}, "'K'"),
        ("homotopy-verify", {"theta_r0": 1e6}, "'theta_r0'"),
        # smash needs a profile f that vanishes at the origin
        ("ch-compare", {"ch_compare": {"cases": [{"label": "x", "f": {
            "kind": "rational_decay"}, "d": "default"}]}},
         "ch_compare cases ['x']: profile f must vanish at the origin"),
        ("ch-compare", {"ch_compare": {"cases": [{"label": "y", "f": {"product": [
            {"kind": "rational_decay"}, {"kind": "constant", "value": 2.0}]},
            "d": "default"}]}},
         "ch_compare cases ['y']: profile f must vanish at the origin"),
        # the failing branch is named when the plus branch is invertible
        ("index-compare", {"index_compare": {"cases": [
            {"label": "m", "plus": "identity", "minus": {"modes": {"0": 0}}}]}},
         "config error: index_compare case 'm', minus branch: loop has a "
         "(numerically) non-invertible sample"),
        # a repeated label would write two cases into one set of columns
        ("ch-compare", {"ch_compare": {
            "cases": [{"label": "x", "f": {"kind": "rational_vanishing"}, "d": "default"},
                      {"label": "x", "f": {"kind": "bump", "lo": 0.5, "hi": 4},
                       "d": {"winding": [1, 0]}}],
            "extended_cases": [
                {"label": "e", "g": {"kind": "rational_decay"}, "c": "c1"},
                {"label": "e", "g": {"kind": "rational_decay", "scale": 2}, "c": "c2"}]}},
         "ch_compare labels ['ext:e', 'x']: each label may appear once"),
        # degenerate profile parameters: non-finite entries or all-zero rows
        ("ch-compare", {"ch_compare": {"extended_cases": [{"label": "x", "g": {
            "kind": "rational_decay", "scale": 0}, "c": "c1"}]}}, "need scale > 0"),
        ("ch-compare", {"ch_compare": {"extended_cases": [{"label": "x", "g": {
            "kind": "constant", "value": float("nan")}, "c": "c1"}]}},
         "config number NaN is not finite"),
        ("ch-compare", {"ch_compare": {"cases": [{"label": "x", "f": {
            "kind": "bump", "lo": 0.5, "hi": 4, "rise": 0}, "d": "default"}]}},
         "need rise > 0"),
        ("ch-compare", {"ch_compare": {"extended_cases": [{"label": "x", "g": {
            "kind": "cap", "hi": 2, "rise": -1}, "c": "c1"}]}}, "need rise > 0"),
        ("ch-compare", {"ch_compare": {"extended_cases": [{"label": "x", "g": {
            "kind": "rational_decay", "scale": float("inf")}, "c": "c1"}]}},
         "config number Infinity is not finite"),
        # an integer too large for a float would overflow where it is used
        ("ch-compare", {"ch_compare": {"extended_cases": [{"label": "x", "g": {
            "kind": "constant", "value": 10 ** 400}, "c": "c1"}]}},
         "config integer of 401 digits does not fit a float"),
        ("ch-compare", {"ch_compare": {"extended_cases": [{"label": "x", "g": {
            "kind": "rational_decay", "scale": 10 ** 400}, "c": "c1"}]}},
         "config integer of 401 digits does not fit a float"),
        # JSON Schema counts 32.0 as an integer, but a grid size indexes arrays
        ("index-compare", {"grid": {"N": 32.0, "J": 132}}, "32.0 is not of type 'integer'"),
        ("index-compare", {"grid": {"N": 32, "J": 132.0}}, "132.0 is not of type 'integer'"),
        # partition supports 2**(cut(i) + 1) that overflow a float
        ("homotopy-verify", {"homotopy_verify": dict(HV, s_values=[0.5, 1e-6])},
         "s_values [1e-06]: need 1/s <= 1022.5"),
        ("homotopy-verify", {"homotopy_verify": dict(HV, L_list=[1023])},
         "L_list [1023]: need 1/s <= 1022.5 and L_list entries <= 1022"),
        # the endpoint block at i = -1019 quantizes at t = 2**-1019, where
        # N / t = 2**1024 overflows
        ("homotopy-verify", {"homotopy_verify": dict(HV, L_list=[1019])},
         "L_list [1019]: need N * 2**L finite (N=32)"),
        # the Gram products of the Fredholm band would overflow
        ("index-compare", {"index_compare": {"cases": [
            {"plus": {"modes": {"1": 1e300}}, "minus": {"modes": {"0": 1.0}}}]}},
         "coefficient 1e+300 exceeds the modulus 1e+30"),
        ("ch-compare", {"ch_compare": {"extended_cases": [{"label": "x", "g": {
            "kind": "rational_decay"}, "c": {"matrix_modes": {"0": [[[0, 2e30]]]}}}]}},
         "exceeds the modulus 1e+30"),
        # smash needs a profile f that vanishes at infinity too; a step
        # rises to one there
        ("ch-compare", {"ch_compare": {"cases": [{"label": "x", "f": {
            "kind": "step", "lo": 0.5, "hi": 1.5}, "d": {"winding": [1, 0]}}]}},
         "ch_compare cases ['x']: profile f must vanish at infinity"),
        # profile parameters are JSON numbers, and a constant value is
        # bounded like a loop coefficient
        *[("defect-sweep", {"defect_sweep": {"t0_symbol": {"terms": [{"loop": "c1", "profile": {
            "kind": "constant", "value": value}}]}}}, "'value' must be a number")
          for value in ([1, 2], "abc", {"a": 1}, True)],
        ("ch-compare", {"ch_compare": {"cases": [{"label": "x", "f": {
            "kind": "bump", "lo": 0.5, "hi": True}, "d": "default"}]}}, "'hi' must be a number"),
        ("defect-sweep", {"defect_sweep": {"t0_symbol": {"terms": [{"loop": "c1", "profile": {
            "kind": "constant", "value": 1e160}}]}}}, "value exceeds the modulus 1e+30"),
        ("defect-sweep", {"defect_sweep": {"t0_symbol": {"terms": [{"loop": {
            "modes": {"0": 1e30}}, "profile": {"kind": "constant", "value": 1e300}}]}}},
         "value exceeds the modulus 1e+30"),
        # so is a product of constants, each within the bound (1e300, 1e330
        # past a float, and 1e60 through nested products)
        *[("defect-sweep", {"defect_sweep": {"t0_symbol": {"terms": [{"loop": "c1", "profile": {
            "product": factors}}]}}}, "product exceeds the modulus 1e+30")
          for factors in ([{"kind": "constant", "value": 1e30}] * 10,
                          [{"kind": "constant", "value": 1e30}] * 11,
                          [{"product": [{"kind": "constant", "value": -1e30}]}] * 2)],
    ])
    def test_malformed_record_exits_2(self, tmp_path, capsys, command, section, message):
        path = write_config(tmp_path, {"grid": {"N": 32, "J": 132}, **section})
        rc = main([command, "--config", path, "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert message in err

    @pytest.mark.parametrize("command,section,message", [
        ("defect-sweep", {"defect_sweep": {"t_exponents": [0, 2000]}}, "t_exponents [2000]"),
        ("defect-sweep", {"defect_sweep": {"t_exponents": [-2000, 0]}}, "t_exponents [-2000]"),
        ("ch-compare", {"ch_compare": {"t_exponents": [2000]}}, "t_exponents [2000]"),
        ("ch-compare", {"ch_compare": {"t_exponents": [-2000]}}, "t_exponents [-2000]"),
        ("ch-compare", {"ch_compare": {"t_exponents": []}}, "must not be empty"),
        ("index-compare", {"index_compare": {"higson_t_exponents": [2000]}},
         "higson_t_exponents [2000]"),
        ("index-compare", {"index_compare": {"higson_t_exponents": [4, -2000]}},
         "higson_t_exponents [-2000]"),
        # 2**-1074 is positive, but the rescaled frequency N / t overflows
        ("defect-sweep", {"defect_sweep": {"t_exponents": [-1074]}}, "t_exponents [-1074]"),
        ("defect-sweep", {"defect_sweep": {"t_exponents": []}}, "must not be empty"),
        ("index-compare", {"index_compare": {"higson_t_exponents": []}},
         "must not be empty"),
        # a repeated exponent repeats a row, and no strict decrease holds on it
        ("defect-sweep", {"defect_sweep": {"t_exponents": [0, 1, 2, 3, 3]}},
         "t_exponents [3]: each exponent may appear once"),
    ])
    def test_t_exponent_out_of_range_exits_2(self, tmp_path, capsys, command, section,
                                             message):
        path = write_config(tmp_path, {"grid": {"N": 16, "J": 68}, **section})
        rc = main([command, "--config", path, "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_widest_endpoint_range_runs_clean(self, tmp_path, capsys):
        # N * 2**1018 = 2**1023 is the top rescaled frequency at N = 32
        data = {"grid": {"N": 32, "J": 132}, "homotopy_verify": dict(HV, L_list=[1018])}
        out = tmp_path / "h.csv"
        rc = main(["homotopy-verify", "--config", write_config(tmp_path, data),
                   "--out", str(out)])
        assert rc == 0
        assert "nan" not in out.read_text()
        assert capsys.readouterr().err == ""

    def test_profile_overflow_exits_0(self, tmp_path, capsys):
        # N / t = 2**1023 makes |xi / scale| overflow in the rv05 case
        data = {"grid": {"N": 16, "J": 68}, "ch_compare": {"t_exponents": [-1019]}}
        out = tmp_path / "c.csv"
        rc = main(["ch-compare", "--config", write_config(tmp_path, data),
                   "--out", str(out)])
        assert rc == 0
        assert "nan" not in out.read_text()
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_gram_overflow_runs_clean(self, tmp_path, capsys):
        # terms of 1e60, at the bounds: the exact coefficients leave no
        # rounding in T_t(a) T_t(b) - T_t(ab) or in T_t(a)^* - T_t(a^*), so
        # both defects are exactly 0 at every t (the FFT tables printed their
        # rounding noise, 1e105 and 1e44), and the run still fails the
        # t0_norm criteria
        def term(modes):
            return {"terms": [{"loop": {"modes": modes},
                               "profile": {"kind": "constant", "value": 1e30}}]}
        data = {"grid": {"N": 16, "J": 68}, "defect_sweep": {
            "t0_symbol": term({"0": 1e30}),
            "pair": {"a": term({"0": 1e30, "1": 1e30}), "b": term({"0": 1e30, "-1": 1e30})}}}
        out = tmp_path / "d.json"
        rc = main(["defect-sweep", "--config", write_config(tmp_path, data),
                   "--format", "json", "--out", str(out)])
        assert rc == 1
        result = json.loads(out.read_text())
        failed = {c["name"] for c in result["checks"] if not c["passed"]}
        assert {"t0_norm decreasing as t -> 0", "t0_norm final < 0.001 * sup"} <= failed
        assert all(r["mult_defect"] == 0.0 and r["adjoint_defect"] == 0.0
                   for r in result["rows"])
        # stderr repeats each failed criterion with the 12 digits of the
        # output file, so a last-bit move in a norm leaves it unchanged
        assert capsys.readouterr().err.splitlines() == [
            f"criterion failed: {c['name']}: {c['detail']}"
            for c in result["checks"] if not c["passed"]]

    @pytest.mark.filterwarnings("error")
    def test_tiny_pairing_t_is_inconclusive(self, tmp_path, capsys):
        # at t = 2**-1000 the clutching has begun far below the first mode
        # (its weights would overflow): that value is None, and t = 4
        # decides every case
        data = {"grid": {"N": 16, "J": 68},
                "index_compare": {"higson_t_exponents": [-1000, 2]}}
        out = tmp_path / "i.json"
        rc = main(["index-compare", "--config", write_config(tmp_path, data),
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["higson_trace"][0] for r in rows] == [None] * len(rows)
        assert all(r["agree"] for r in rows)
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    def test_zero_initial_value_fails_its_ratio(self, tmp_path, capsys):
        # at t = 1/8 both operators of the bump case are zero: the
        # final/initial checks fail and say why, and the JSON is written
        data = {"grid": {"N": 16, "J": 68}, "ch_compare": {
            "t_exponents": [-3, 0, 2], "extended_cases": [], "cases": [
                {"label": "x", "f": {"kind": "bump", "lo": 0.5, "hi": 1.5},
                 "d": {"winding": [1, 0]}}]}}
        out = tmp_path / "c.json"
        rc = main(["ch-compare", "--config", write_config(tmp_path, data),
                   "--format", "json", "--out", str(out)])
        assert rc == 1
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        for unit in ("default", "alt"):
            check = checks[f"x|{unit} final/initial < 0.05"]
            assert check == {"name": f"x|{unit} final/initial < 0.05", "passed": False,
                             "detail": "initial value 0: no final/initial ratio"}
        assert "Traceback" not in capsys.readouterr().err

    def test_truncated_sweep_exits_1(self, tmp_path):
        # a tiny t-window cannot meet the decay ratios
        data = dict(SMALL)
        data["defect_sweep"] = {"t_exponents": [0, 1]}
        path = write_config(tmp_path, data)
        rc = main(["defect-sweep", "--config", str(path),
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 1


class TestOutputs:
    def test_defect_sweep_schema(self, tmp_path):
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "d.csv"
        main(["defect-sweep", "--config", str(path), "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "t,mult_defect,adjoint_defect,chart_defect,t0_norm"
        assert len(lines) == 1 + len(SMALL["defect_sweep"]["t_exponents"])

    def test_ch_compare_header_stable(self, tmp_path):
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "c.csv"
        main(["ch-compare", "--config", str(path), "--out", str(out)])
        header = out.read_text().splitlines()[0]
        assert header == ("t,rv1-shift|default,rv1-shift|alt,"
                          "rv2rd-unit|default,rv2rd-unit|alt,"
                          "rv05-mixed|default,rv05-mixed|alt,"
                          "ext:rd1-c1|default,ext:rd1-c1|alt,"
                          "ext:rd2-mode|default,ext:rd2-mode|alt")

    @pytest.mark.parametrize("command", ["defect-sweep", "ch-compare",
                                         "homotopy-verify", "index-compare"])
    def test_csv_reads_back_field_for_field(self, tmp_path, command):
        # index labels, the Higson tuples and the params dict hold commas
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "o.csv"
        main([command, "--config", str(path), "--out", str(out)])
        with open(out, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert rows
        for row in rows:
            assert None not in row  # no surplus fields
            assert None not in row.values()  # no missing fields
            assert len(row) == len(reader.fieldnames)
        if command == "index-compare":
            assert [row["label"] for row in rows] == [
                label for label, _ in presets.index_suite()]
            assert rows[0]["params"].startswith("{'N': 64, ")

    def test_json_format(self, tmp_path):
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "d.json"
        rc = main(["defect-sweep", "--config", str(path), "--out", str(out),
                   "--format", "json"])
        payload = json.loads(out.read_text())
        assert "rows" in payload and "checks" in payload
        assert rc in (0, 1)

    @pytest.mark.parametrize("command,fmt", [
        ("defect-sweep", "csv"),
        ("ch-compare", "csv"),
        ("homotopy-verify", "csv"),
        ("index-compare", "json"),
    ])
    def test_byte_identical_reruns(self, tmp_path, command, fmt):
        path = write_config(tmp_path, SMALL)
        out1, out2 = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        main([command, "--config", str(path), "--out", str(out1), "--format", fmt])
        main([command, "--config", str(path), "--out", str(out2), "--format", fmt])
        assert out1.read_bytes() == out2.read_bytes()
