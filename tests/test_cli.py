import json

import pytest

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


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config(None)
        assert cfg["grid"]["N"] == 256
        assert cfg["tolerances"]["eps_rank"] == 1e-6

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

    def test_schema_rejects_unknown_keys(self, tmp_path):
        path = write_config(tmp_path, {"grid": {"N": 32, "J": 132}, "junk": 1})
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_schema_rejects_bad_types(self, tmp_path):
        path = write_config(tmp_path, {"grid": {"N": "large"}})
        with pytest.raises(ConfigError):
            load_config(str(path))


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

    def test_impossible_threshold_exits_1(self, tmp_path, capsys):
        data = dict(SMALL)
        data["tolerances"] = {"final_ratio": 1e-30}
        path = write_config(tmp_path, data)
        rc = main(["ch-compare", "--config", str(path),
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 1
        assert "criterion failed" in capsys.readouterr().err

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

    def test_out_of_window_index_config_exits_1(self, tmp_path):
        # pairing time far beyond the mode cutoff: inconclusive markers
        data = dict(SMALL)
        data["grid"] = {"N": 32, "J": 132, "k": 1}
        data["index_compare"] = {"higson_t_exponents": [8]}
        path = write_config(tmp_path, data)
        out = tmp_path / "i.json"
        rc = main(["index-compare", "--config", str(path), "--out", str(out),
                   "--format", "json"])
        assert rc == 1
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
