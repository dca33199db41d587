import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eomod import cli, verify, wigner
from eomod.dynamics import revival_scan
from eomod.reference import propagator
from eomod.su2 import ModulatorParams
from eomod.unrestricted import bessel_j, modulation_index


def run(argv, capsys=None):
    rc = cli.main(argv)
    return rc


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


class TestSpectrum:
    def test_header_and_exit(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = run(["spectrum", "--gamma", "2", "--scan=-5:5:1",
                  "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["omega_f_display", "p_rel_restricted",
                          "p_rel_unrestricted"]
        assert rows.shape == (11, 3)

    def test_model_selector_columns(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--model", "restricted", "--scan=0:2:1",
                    "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert header == ["omega_f_display", "p_rel_restricted"]

    def test_gamma_zero_single_peak(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--gamma", "0", "--model", "restricted",
                    "--scan=-60:60:0.5", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        peak = rows[np.argmax(rows[:, 1])]
        assert peak[0] == 0.0
        assert peak[1] == 1.0

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["spectrum", "--gamma", "10", "--scan=-20:20:0.5"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_space_separated_negative_scan(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--scan", "-5:5:1", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0, 0] == -5.0

    def test_exponent_form_negative_values(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["spectrum", "--omega-mw", "-1e1", "--scan=-2:2:1", "--out", str(a)]) == 0
        assert run(["spectrum", "--omega-mw", "-10", "--scan=-2:2:1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()
        assert run(["spectrum", "--gamma", "-1e-3", "--scan=-2:2:1"]) == 2
        assert "gamma must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--omega-mw", "-inf"), ("--detune", "-nan"),
                                            ("--gamma", "-.5"), ("--scan", "-inf:1:1")])
    def test_space_and_equals_forms_agree(self, capsys, flag, value):
        base = ["spectrum", "--scan=0:1:1"]
        rc_space = run(base + [flag, value])
        err_space = capsys.readouterr().err
        assert (rc_space, err_space) == (run(base + [f"{flag}={value}"]),
                                         capsys.readouterr().err)
        assert rc_space == 2 and "invalid parameters" in err_space

    @pytest.mark.parametrize("flag,value", [("--gamma", "inf"), ("--gamma", "1e400"),
                                            ("--t", "inf"), ("--filter-hw", "inf"),
                                            ("--display-unit", "inf")])
    def test_non_finite_input_named(self, capsys, flag, value):
        assert run(["spectrum", "--scan=0:1:1", flag, value]) == 2
        assert "finite" in capsys.readouterr().err

    def test_reference_invocation_line(self, tmp_path):
        # the documented full command line for the gamma=2 dataset
        out = tmp_path / "fig1.csv"
        rc = run(["spectrum", "--s", "3", "--omega", "30", "--detune", "0.1",
                  "--gamma", "2", "--period-t", "--filter-hw", "4",
                  "--scan", "-60:60:0.5", "--model", "both",
                  "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["omega_f_display", "p_rel_restricted",
                          "p_rel_unrestricted"]
        assert rows.shape == (241, 3)
        center = rows[np.argmin(np.abs(rows[:, 0]))]
        assert center[1] == pytest.approx(0.6971986973, abs=1e-9)
        assert center[2] == pytest.approx(0.6923809915, abs=1e-9)

    def test_absolute_axis(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--scan=-2:2:1", "--absolute",
                    "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[0] == "omega_f_absolute"
        assert rows[0, 0] == -2.0  # display unit is Omega/30 = 1 here

    def test_absolute_axis_with_carrier_index(self, tmp_path):
        # with m_tilde set, absolute frequencies sit on omega_opt = m~ * Omega
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--scan=-2:2:1", "--absolute",
                    "--m-tilde", "1000", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[2, 0] == pytest.approx(30000.0, abs=1e-9)

    def test_json_format(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["spectrum", "--scan=0:1:1", "--format", "json",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"config", "data"}
        assert doc["config"]["params"]["gamma"] == 2.0
        assert len(doc["data"]) == 2
        assert "p_rel_restricted" in doc["data"][0]

    def test_manifest_sidecar(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--gamma", "7", "--scan=0:1:1",
                    "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["params"]["gamma"] == 7.0
        assert manifest["params"]["t"] == pytest.approx(2 * math.pi / 30)

    def test_manifest_echoes_tiny_detuning(self, tmp_path):
        # a detuning far below Omega's rounding step is kept, not lost to 30 - 1e-20
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--detune", "1e-20", "--scan=0:1:1",
                    "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["params"]["detune"] == 1e-20

    def test_invalid_scan_exit2(self):
        assert run(["spectrum", "--scan=5:1:1"]) == 2
        assert run(["spectrum", "--scan=oops"]) == 2

    def test_grid_point_cap(self, capsys):
        cap = cli.MAX_GRID_POINTS
        assert cli.GridSpec(0.0, cap - 1.0, 1.0).values().size == cap
        with pytest.raises(ValueError, match=f"has {cap + 1} points"):
            cli.GridSpec(0.0, float(cap), 1.0)
        with pytest.raises(ValueError, match="has inf points"):
            cli.GridSpec(-1e308, 1e308, 1.0)
        assert run(["spectrum", "--scan", "0:1e15:1"]) == 2
        assert "has 1e+15 points" in capsys.readouterr().err

    def test_flag_conflicts_exit2(self):
        assert run(["spectrum", "--t", "0.1", "--period-t"]) == 2
        assert run(["spectrum", "--detune", "0.1", "--omega-mw", "29"]) == 2

    def test_single_model_skips_the_other(self, capsys):
        # S = 2.5 has no central mode and gamma = 700 fails the Bessel tail
        # bound; each stops only the model it concerns
        for model, argv in (("unrestricted", ["--s", "2.5", "--scan=-1:1:1"]),
                            ("restricted", ["--gamma", "700", "--scan=0:1:1"])):
            assert run(["spectrum", "--model", model, *argv]) == 0
            assert run(["spectrum", "--model", "both", *argv]) == 2
        # but every run first checks the whole parameter record, entries that
        # the model or the command never reads included
        for argv, reason in (
                (["spectrum", "--model", "unrestricted", "--s", "2000", "--scan=0:1:1"],
                 "S must be at most 1000"),
                (["spectrum", "--model", "unrestricted", "--gamma=-1", "--scan=0:1:1"],
                 "gamma must be non-negative and finite"),
                (["gamma-scan", "--filter-hw", "0"], "half_width must be positive and finite")):
            capsys.readouterr()
            assert run(argv) == 2
            assert reason in capsys.readouterr().err

    def test_both_columns_match_single_models(self, tmp_path):
        args = ["spectrum", "--gamma", "24.25", "--detune", "-0.3",
                "--scan=-30:30:0.5", "--out"]
        lines = {}
        for model in cli.MODELS:
            out = tmp_path / f"{model}.csv"
            assert run(args + [str(out), "--model", model]) == 0
            lines[model] = [row.split(",") for row in out.read_text().splitlines()]
        for both, res, unres in zip(lines["both"], lines["restricted"],
                                    lines["unrestricted"]):
            assert both == res + unres[1:]

    def test_tail_bound_message_is_a_plain_float(self, capsys):
        assert run(["spectrum", "--gamma", "700", "--scan=0:1:1"]) == 2
        err = capsys.readouterr().err
        assert "sum of weights = 0.99999" in err
        assert "np.float64" not in err

    def test_unwritable_out_exit3(self, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "s.csv"
        assert run(["spectrum", "--scan=0:1:1", "--out", str(target)]) == 3


class TestWriteDataset:
    def test_csv_bytes_match_float_fmt(self, tmp_path):
        # every float64 bit pattern class: random bits (NaN payloads, subnormals,
        # both signs) and the special values, against per-value FLOAT_FMT
        bits = np.random.default_rng(5).integers(0, 2**64, 99_999, dtype=np.uint64)
        special = [-0.0, 0.0, 5e-324, 1e-310, math.inf, -math.inf, math.nan, -math.nan]
        values = np.concatenate([bits.view(np.float64), special * 3])
        columns = [values[0::3], values[1::3], values[2::3]]
        out = tmp_path / "t.csv"
        cli._write_dataset(str(out), "csv", dict(zip("abc", columns)), {})
        expected = "a,b,c\n" + "".join(
            ",".join(cli.FLOAT_FMT.format(v) for v in row) + "\n"
            for row in zip(*(col.tolist() for col in columns)))
        assert out.read_bytes() == expected.encode()


class TestGammaScan:
    def test_columns_and_values(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run(["gamma-scan", "--dm", "0", "--gamma-grid", "0:2:0.5",
                    "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["gamma", "p_restricted", "p_unrestricted"]
        assert rows[0, 0] == 0.0
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert rows[0, 2] == pytest.approx(1.0, abs=1e-12)

    def test_dm_out_of_range_exit2(self):
        assert run(["gamma-scan", "--dm", "4", "--gamma-grid", "0:1:1"]) == 2

    def test_unrestricted_dm_beyond_spin(self, tmp_path):
        # S bounds only the restricted model's modes
        out = tmp_path / "g.csv"
        assert run(["gamma-scan", "--model", "unrestricted", "--dm", "5",
                    "--gamma-grid", "0:2:1", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["gamma", "p_unrestricted"]
        expected = [bessel_j(5, modulation_index(0.1, g, 2 * math.pi / 30)) ** 2
                    for g in (0.0, 1.0, 2.0)]
        assert rows[:, 1] == pytest.approx(expected, rel=1e-10, abs=0)

    @pytest.mark.parametrize("dm", [-2, 1])
    def test_restricted_column_reads_offset_dm(self, tmp_path, dm):
        # the column route against the entry R_{dm,0} of the full propagator
        out = tmp_path / "g.csv"
        assert run(["gamma-scan", "--model", "restricted", "--detune", "5",
                    "--dm", str(dm), "--gamma-grid", "0:20:2.5", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        expected = [abs(propagator(ModulatorParams.from_detuning(
            S=3, Omega=30.0, detune=5.0, gamma=g, T=2 * math.pi / 30))[3 + dm, 3]) ** 2
            for g in rows[:, 0]]
        assert np.allclose(rows[:, 1], expected, rtol=1e-11, atol=1e-15)

    @pytest.mark.parametrize("model,rc", [("restricted", 2), ("both", 2),
                                          ("unrestricted", 0)])
    def test_negative_coupling_only_restricted_refuses(self, tmp_path, model, rc):
        # the Bessel model is defined for gamma < 0, the su(2) model is not
        assert run(["gamma-scan", "--model", model, "--gamma-grid=-1:1:0.5",
                    "--out", str(tmp_path / "g.csv")]) == rc

    @pytest.mark.parametrize("argv", [
        ["gamma-scan", "--gamma-grid", "0:1e308:1e307"],
        ["gamma-scan", "--model", "restricted", "--t", "1e308", "--gamma-grid", "0:2:1"],
        ["spectrum", "--gamma", "1e308", "--scan=0:1:1"],
        ["spectrum", "--t", "1e308", "--scan=0:1:1"],
    ])
    def test_overflow_exit2_without_warning(self, argv, capsys):
        # the CI smoke steps run with PYTHONWARNINGS=error as well
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 2
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--gamma", "1e7", "--model", "unrestricted", "--scan=0:1:1"],
        ["gamma-scan", "--model", "unrestricted", "--dm", "0", "--gamma-grid", "0:1e7:5e6"],
    ], ids=["spectrum", "gamma-scan"])
    def test_mu_beyond_max_order_same_reason(self, argv, capsys):
        # a spectrum's cut M = default_cutoff(mu) is refused for mu, not as an order
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "needs a sideband cut above MAX_ORDER" in err and "nmax" not in err

    def test_negative_dm_flag(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run(["gamma-scan", "--dm", "-2", "--gamma-grid", "0:1:1",
                    "--out", str(out)]) == 0


class TestParserReuse:
    def test_sequence_leaks_no_state(self, tmp_path, capsys):
        # one process, one parser: an error, --version and another command
        # between two identical spectra leave the second one unchanged
        first, last = tmp_path / "first.csv", tmp_path / "last.csv"
        spectrum = ["spectrum", "--gamma", "10", "--scan=-5:5:0.5", "--out"]
        assert run(spectrum + [str(first)]) == 0
        assert run(["spectrum", "--no-such-flag"]) == 2
        assert run(["--version"]) == 0
        assert capsys.readouterr().out.strip() == cli.__version__
        assert run(["figures", "4", "--out-dir", str(tmp_path)]) == 0
        assert run(spectrum + [str(last)]) == 0
        assert last.read_bytes() == first.read_bytes()
        assert (last.with_name("last.csv.manifest.json").read_bytes()
                == first.with_name("first.csv.manifest.json").read_bytes())


class TestFigures:
    def test_all_presets(self, tmp_path):
        for n in range(1, 6):
            assert run(["figures", str(n), "--out-dir", str(tmp_path)]) == 0
            data = tmp_path / f"fig{n}.csv"
            manifest = json.loads(
                (tmp_path / f"fig{n}.csv.manifest.json").read_text())
            assert data.exists()
            assert manifest["params"]["s"] == 3.0
            assert manifest["params"]["omega"] == 30.0
            assert manifest["params"]["detune"] == pytest.approx(0.1)
            assert manifest["params"]["t"] == pytest.approx(2 * math.pi / 30)
        fig3 = json.loads((tmp_path / "fig3.csv.manifest.json").read_text())
        assert fig3["params"]["gamma"] == 24.25
        fig5 = json.loads((tmp_path / "fig5.csv.manifest.json").read_text())
        assert fig5["dm"] == 2

    def test_bad_selector_exit2(self, tmp_path):
        assert run(["figures", "9", "--out-dir", str(tmp_path)]) == 2

    def test_config_file_ignored(self, tmp_path, monkeypatch):
        # presets read no EOM_CONFIG: not its params, sideband, grid, format or path
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "params": {"gamma": 7, "s": 2}, "dm": 1,
            "gamma_grid": {"start": 0, "stop": 5, "step": 1},
            "output": {"format": "json", "path": "x.csv"}}))
        monkeypatch.chdir(tmp_path)
        outputs = []
        for name, config in (("plain", ""), ("file", str(cfg))):
            monkeypatch.setenv("EOM_CONFIG", config)  # empty: no config file
            for n in (2, 5):
                assert run(["figures", str(n), "--out-dir", name]) == 0
            outputs.append([(tmp_path / name / f"fig{n}.csv{suffix}").read_bytes()
                            for n in (2, 5) for suffix in ("", ".manifest.json")])
        assert outputs[0] == outputs[1]
        assert not list(tmp_path.rglob("x.csv"))


class TestConfigFile:
    def test_precedence(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "params": {"gamma": 10.0, "s": 2},
            "scan": {"start": 0.0, "stop": 2.0, "step": 1.0},
            "model": "restricted",
        }))
        monkeypatch.setenv("EOM_CONFIG", str(cfg))
        out = tmp_path / "a.csv"
        assert run(["spectrum", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["params"]["gamma"] == 10.0
        assert manifest["params"]["s"] == 2.0
        # CLI flag beats the file
        out2 = tmp_path / "b.csv"
        assert run(["spectrum", "--gamma", "3", "--out", str(out2)]) == 0
        manifest2 = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert manifest2["params"]["gamma"] == 3.0
        assert manifest2["params"]["s"] == 2.0

    def test_conflicting_file_keys_exit2(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"detune": 0.1, "omega_mw": 29.0}}))
        monkeypatch.setenv("EOM_CONFIG", str(cfg))
        assert run(["spectrum"]) == 2

    def test_file_t_overridden_by_period_flag(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"t": 0.5, "period_t": False}}))
        monkeypatch.setenv("EOM_CONFIG", str(cfg))
        out = tmp_path / "a.csv"
        assert run(["spectrum", "--scan=0:1:1", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["params"]["t"] == 0.5
        out2 = tmp_path / "b.csv"
        assert run(["spectrum", "--scan=0:1:1", "--period-t",
                    "--out", str(out2)]) == 0
        manifest2 = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert manifest2["params"]["t"] == pytest.approx(2 * math.pi / 30)

    def test_file_t_with_period_t_exit2(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"t": 1.0, "period_t": True}}))
        monkeypatch.setenv("EOM_CONFIG", str(cfg))
        assert run(["spectrum", "--scan=0:1:1"]) == 2
        assert "both t and period_t" in capsys.readouterr().err

    @pytest.mark.parametrize("params,rc", [
        ({"detune": 0.2, "omega_mw": None}, 0),  # null leaves omega_mw unset
        ({"t": None, "period_t": True}, 0),
        ({"detune": 0, "omega_mw": 29.0}, 2),  # 0 sets detune, although 0 == False
    ])
    def test_exclusive_pair_reads_values(self, tmp_path, monkeypatch, capsys, params, rc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": params}))
        monkeypatch.setenv("EOM_CONFIG", str(cfg))
        out = tmp_path / "a.csv"
        assert run(["spectrum", "--scan=0:1:1", "--out", str(out)]) == rc
        assert ("sets both detune and omega_mw" in capsys.readouterr().err) == (rc == 2)
        if rc == 0:
            manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
            numbers = {k: v for k, v in params.items() if type(v) is float}
            assert {k: manifest["params"][k] for k in numbers} == numbers

    @pytest.mark.parametrize("doc", [[1, 2], {"params": [0.1]}, {"filter": 1.0},
                                     {"output": "a.csv"}, {"scan": 5},
                                     {"gamma_grid": None}, {"absolute": "false"},
                                     {"params": {"period_t": 1}}, {"dm": 1.5},
                                     {"dm": True}] + [
        # the id names the entry the message must name
        pytest.param({"filter": {"half_width": {"a": 1}}}, id="filter.half_width"),
        pytest.param({"display_unit": [1]}, id="display_unit"),
        pytest.param({"scan": {"start": [0], "stop": 1, "step": 0.5}}, id="scan.start"),
        pytest.param({"params": {"s": True}}, id="params.s"),
        pytest.param({"output": {"path": ["a.csv"]}}, id="output.path"),
        pytest.param({"scan": {"start": 0, "step": 0.5}}, id="scan"),
        pytest.param({"gamma_grid": {"start": 0, "stop": 1, "step": None}},
                     id="gamma_grid"),
        # an integer beyond the float range (json.dumps writes all 401 digits)
        pytest.param({"params": {"gamma": 10 ** 400}}, id="params.gamma-oversized"),
        pytest.param({"params": {"s": 10 ** 400}}, id="params.s-oversized"),
        # a string where a number goes must convert to a float
        pytest.param({"params": {"gamma": "two"}}, id="params.gamma-string"),
        pytest.param({"display_unit": "abc"}, id="display_unit-string"),
        # a key that names no entry, misspelt or at the wrong level
        pytest.param({"params": {"gama": 10}}, id="params.gama"),
        pytest.param({"gamma": 10}, id="gamma"),
    ])
    def test_wrong_shape_exit2(self, tmp_path, monkeypatch, capsys, request, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        monkeypatch.setenv("EOM_CONFIG", str(cfg))
        assert run(["spectrum"]) == 2
        err = capsys.readouterr().err
        assert "must be" in err
        entry = request.node.callspec.id.split("-")[0]  # drop the case suffix
        assert entry.startswith("doc") or f"'{entry}'" in err

    @pytest.mark.parametrize("command,entry,flag", [
        ("gamma-scan", "scan", "--gamma-grid=0:3:1"),
        ("spectrum", "gamma_grid", "--scan=0:2:1"),
    ])
    def test_unread_grid_not_range_checked(self, tmp_path, monkeypatch, command, entry,
                                           flag):
        # each command range-checks only its own grid; the other is type-checked
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({entry: {"start": 3, "stop": -3, "step": 1}}))
        outputs = []
        for name, config in (("plain", ""), ("file", str(cfg))):
            monkeypatch.setenv("EOM_CONFIG", config)  # empty: no config file
            out = tmp_path / f"{name}.csv"
            assert run([command, flag, "--out", str(out)]) == 0
            outputs.append([out.read_bytes(),
                            out.with_name(out.name + ".manifest.json").read_bytes()])
        assert outputs[0] == outputs[1]

    def test_numeric_string_entries(self, tmp_path, monkeypatch, capsys):
        # a string that converts is read as its number; "1e400" then meets
        # the parameter checks like the float it converts to
        cfg = tmp_path / "cfg.json"
        monkeypatch.setenv("EOM_CONFIG", str(cfg))
        cfg.write_text(json.dumps({"params": {"gamma": "10"}}))
        out = tmp_path / "a.csv"
        assert run(["spectrum", "--scan=0:1:1", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["params"]["gamma"] == 10.0
        cfg.write_text(json.dumps({"params": {"gamma": "1e400"}}))
        assert run(["spectrum", "--scan=0:1:1"]) == 2
        assert "config file entry" not in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_file_exit2(self, tmp_path, monkeypatch, capsys, name):
        path = str(tmp_path / name)
        monkeypatch.setenv("EOM_CONFIG", path)
        assert run(["spectrum", "--out", str(tmp_path / "a.csv")]) == 2
        err = capsys.readouterr().err
        assert "invalid parameters" in err and "EOM_CONFIG" in err and path in err
        assert not (tmp_path / "a.csv").exists()

    def test_readme_example_loads(self, tmp_path, monkeypatch):
        # the JSON block of the README, run as documented: its output path
        # is relative, so it lands in the working directory
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        doc = json.loads(block)
        (tmp_path / "cfg.json").write_text(block)
        monkeypatch.setenv("EOM_CONFIG", str(tmp_path / "cfg.json"))
        monkeypatch.chdir(tmp_path)
        assert run(["spectrum"]) == 0
        out = tmp_path / doc["output"]["path"]
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert manifest["params"]["s"] == doc["params"]["s"]
        assert manifest["params"]["gamma"] == doc["params"]["gamma"]
        assert manifest["filter"]["half_width"] == doc["filter"]["half_width"]


# input -> (flag value, config value), off the default where the input has
# a value; an input added to the table without a row here fails the test
_PARITY = {
    "s": ("2", 2), "omega": ("20", 20), "omega_mw": ("29.5", 29.5),
    "detune": ("0.3", 0.3), "gamma": ("5", 5), "t": ("0.2", 0.2),
    "period_t": (None, True), "m_tilde": ("1", 1), "filter_hw": ("3", 3),
    "model": ("restricted", "restricted"), "out": ("o.csv", "o.csv"),
    "format": ("json", "json"), "absolute": (None, True), "display_unit": ("2", 2),
    "scan": ("-3:3:1", {"start": -3, "stop": 3, "step": 1}), "dm": ("1", 1),
    "gamma_grid": ("0:5:1", {"start": 0, "stop": 5, "step": 1}),
}


def _config_file(tmp_path, inp, value) -> str:
    """Write an EOM_CONFIG file that sets only ``inp``'s entry to ``value``."""
    for key in reversed(inp.path.split(".")):
        value = {key: value}
    (tmp_path / "cfg.json").write_text(json.dumps(value))
    return str(tmp_path / "cfg.json")


def _output_bytes(tmp_path, monkeypatch, name, argv, config):
    """Run argv in a fresh directory tmp_path/name with EOM_CONFIG = config
    (empty: no config file); the bytes of o.csv and of its sidecar."""
    (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path / name)
    monkeypatch.setenv("EOM_CONFIG", config)
    assert run(argv) == 0
    return [(tmp_path / name / f).read_bytes() for f in ("o.csv", "o.csv.manifest.json")]


@pytest.mark.parametrize("inp", cli._INPUTS, ids=lambda inp: inp.name)
def test_flag_and_config_entry_agree(tmp_path, monkeypatch, inp):
    # one input set by its flag, then by its EOM_CONFIG entry: the same bytes
    text, value = _PARITY[inp.name]
    config = _config_file(tmp_path, inp, value)
    flag = "--" + inp.name.replace("_", "-")
    argv = [inp.commands[0], *([] if inp.name == "out" else ["--out=o.csv"])]
    assert (_output_bytes(tmp_path, monkeypatch, "flag",
                          [*argv, flag if text is None else f"{flag}={text}"], "")
            == _output_bytes(tmp_path, monkeypatch, "file", argv, config))


@pytest.mark.parametrize("inp", [inp for inp in cli._INPUTS if inp.kind is bool],
                         ids=lambda inp: inp.name)
def test_switch_false_in_file_is_switch_left_off(tmp_path, monkeypatch, inp):
    # false in the file leaves the switch unset, as no flag does: for period_t,
    # the default T = 2 pi / Omega
    argv = [inp.commands[0], "--out=o.csv"]
    assert (_output_bytes(tmp_path, monkeypatch, "plain", argv, "")
            == _output_bytes(tmp_path, monkeypatch, "file", argv,
                             _config_file(tmp_path, inp, False)))


_DEFAULT_PARAMS = {"s": 3.0, "omega": 30.0, "omega_mw": 30.0 - 0.1, "detune": 0.1,
                   "gamma": 2.0, "t": 2.0 * math.pi / 30.0, "m_tilde": 0.0}


@pytest.mark.parametrize("argv, entries", [
    (["spectrum", "--model", "restricted", "--absolute", "--display-unit", "2"],
     {"model": "restricted", "display_unit": 2.0, "absolute": True,
      "scan": {"start": -60.0, "stop": 60.0, "step": 0.5}}),
    (["gamma-scan", "--dm", "1", "--gamma-grid", "0:2:1"],
     {"model": "both", "display_unit": 1.0, "absolute": False,
      "gamma_grid": {"start": 0.0, "stop": 2.0, "step": 1.0}, "dm": 1}),
], ids=["spectrum", "gamma-scan"])
def test_manifest_layout(tmp_path, argv, entries):
    # the whole sidecar: its keys, the value of each, and the JSON config block
    out = tmp_path / "o.json"
    assert run([*argv, "--format", "json", "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "o.json.manifest.json").read_text())
    assert sidecar == {"command": argv[0], "version": cli.__version__,
                       "params": _DEFAULT_PARAMS, "filter": {"half_width": 4.0},
                       "format": "json", **entries}
    assert json.loads(out.read_text())["config"] == sidecar


@pytest.mark.parametrize("command", ["spectrum", "gamma-scan"])
def test_help_lists_every_flag(capsys, command):
    # argparse renders the help from _INPUTS at run time; a stray % would crash it
    assert run([command, "--help"]) == 0
    text = capsys.readouterr().out
    for inp in cli._INPUTS:
        if command in inp.commands:
            assert "--" + inp.name.replace("_", "-") in text
    assert "[--omega-mw OMEGA_MW | --detune DETUNE]" in text
    assert "[--t T | --period-t]" in text


class TestVerifyCommand:
    def test_quick_passes(self, capsys):
        assert run(["verify", "quick"]) == 0
        text = capsys.readouterr().out
        assert "PASS su2-algebra" in text
        assert "FAIL" not in text

    def test_corrupted_invariant_fails_named(self, capsys, monkeypatch):
        # negative control: a sign flip in a check fixture must surface as
        # exit 1 with the failing invariant named
        def flipped():
            tol, _ = verify.check_exact_revival()
            return tol, 1.0  # a sign flip leaves a unit-size residual

        monkeypatch.setitem(verify.QUICK_CHECKS, "exact-revival", flipped)
        rc = cli.main(["verify", "quick"])
        text = capsys.readouterr().out
        assert rc == 1
        assert "FAIL exact-revival" in text

    def test_unknown_level_rejected(self):
        assert run(["verify", "sloppy"]) == 2
        with pytest.raises(ValueError, match="unknown verify level 'sloppy'"):
            verify.registry("sloppy")


def test_no_eigensolve_outside_verify(tmp_path, monkeypatch):
    # the d-matrix comes from the exact spectrum and a recurrence; LAPACK's
    # eigh serves only verify, so a fresh eigensystem cache never reaches it
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    wigner._sy_eigensystem.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert run(["spectrum", "--s", "60", "--out", str(tmp_path / "s.csv")]) == 0
    assert run(["gamma-scan", "--s", "150", "--gamma-grid", "0:60:6",
                "--out", str(tmp_path / "g.csv")]) == 0
    for n in range(1, 6):
        assert run(["figures", str(n), "--out-dir", str(tmp_path)]) == 0
    p = ModulatorParams.from_detuning(S=20, Omega=30.0, detune=0.1, gamma=0.0,
                                      T=2 * math.pi / 30.0)
    assert len(revival_scan(p, [5.0, 10.0, 15.0])) == 3


# finite flag values: zeros of both signs, negatives, tiny and huge
# magnitudes, and a share of ordinary positive ones so that runs also succeed
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1e-300, -1e-300, 1e300, -1e300]),
    st.floats(-1e3, 1e3), st.floats(1e-3, 1e2))


@st.composite
def _argvs(draw):
    argv = [draw(st.sampled_from(["spectrum", "gamma-scan"])),
            f"--s={draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))!r}"]
    for flag in ("--omega", "--detune", "--gamma", "--m-tilde", "--filter-hw",
                 "--display-unit"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(_VALUES)!r}")
    t = draw(st.one_of(st.none(), _VALUES))
    argv.append("--period-t" if t is None else f"--t={t!r}")
    if argv[0] == "spectrum":
        argv.append("--scan=-1:1:1")
    else:
        argv += ["--dm=0", "--gamma-grid=0:1:0.5"]
    return argv


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
@example(argv=["spectrum", "--omega", "0", "--scan=0:1:1"])
@example(argv=["gamma-scan", "--omega", "-0", "--gamma-grid=0:1:1"])
@example(argv=["spectrum", "--s", "1e6", "--scan=-1:1:1"])
@example(argv=["spectrum", "--gamma", "1e308", "--scan=0:1:1"])
@example(argv=["spectrum", "--model", "restricted", "--t", "1e308", "--scan=0:1:1"])
@example(argv=["gamma-scan", "--model", "restricted", "--gamma-grid", "0:1e308:1e307"])
@example(argv=["spectrum", "--m-tilde", "1e308", "--absolute", "--scan=0:1:1"])
@example(argv=["gamma-scan", "--model", "unrestricted", "--gamma-grid", "1e8:2e8:1e8"])
@example(argv=["spectrum", "--scan", "0:1e15:1"])
@example(argv=["gamma-scan", "--gamma-grid", "0:1e15:1"])
@example(argv=["spectrum", "--scan=-60:60:1e-300"])
@example(argv=["spectrum", "--scan=0:1:inf"])
@example(argv=["spectrum", "--omega-mw", "-1e1", "--scan=-2:2:1"])
@example(argv=["spectrum", "--gamma", "-1e-3", "--scan=-2:2:1"])
@example(argv=["spectrum", "--omega-mw", "-inf", "--scan=0:1:1"])
@example(argv=["spectrum", "--detune", "1e-20", "--scan=0:1:1"])
@example(argv=["spectrum", "--detune", "1e-20", "--gamma", "0", "--scan=0:1:1"])
@example(argv=["spectrum", "--filter-hw", "1e-160"])
@example(argv=["spectrum", "--filter-hw", "5e-324"])
@example(argv=["spectrum", "--display-unit", "1e300"])
@example(argv=["spectrum", "--omega", "1e300"])
@example(argv=["spectrum", "--omega", "1e307"])
@example(argv=["spectrum", "--display-unit", "1e307"])
@example(argv=["spectrum", "--m-tilde", "1e306", "--omega", "100", "--display-unit",
               "2e306", "--absolute"])
def test_exit_0_or_2_never_a_traceback(tmp_path, argv):
    out = tmp_path / "out.csv"
    rc = run(argv + ["--out", str(out)])
    assert rc in (0, 2)
    if rc == 0:  # every column finite, every probability within [0, 1]
        _, rows = read_csv(out)
        assert np.all(np.isfinite(rows))
        assert np.all((rows[:, 1:] >= 0.0) & (rows[:, 1:] <= 1.0 + 1e-12))
