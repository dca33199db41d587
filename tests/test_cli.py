import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eomod import cli, verify
from eomod.dynamics import propagator
from eomod.su2 import ModulatorParams


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

    def test_single_model_skips_the_other(self):
        # S = 2.5 has no central mode and gamma = 700 fails the Bessel tail
        # bound; each stops only the model it concerns
        for model, argv in (("unrestricted", ["--s", "2.5", "--scan=-1:1:1"]),
                            ("restricted", ["--gamma", "700", "--scan=0:1:1"])):
            assert run(["spectrum", "--model", model, *argv]) == 0
            assert run(["spectrum", "--model", "both", *argv]) == 2

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

    @pytest.mark.parametrize("doc", [[1, 2], {"params": [0.1]}, {"filter": 1.0},
                                     {"output": "a.csv"}, {"scan": 5},
                                     {"gamma_grid": None}])
    def test_wrong_shape_exit2(self, tmp_path, monkeypatch, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        monkeypatch.setenv("EOM_CONFIG", str(cfg))
        assert run(["spectrum"]) == 2
        assert "must be" in capsys.readouterr().err


class TestVerifyCommand:
    def test_quick_passes(self, capsys):
        assert run(["verify", "quick"]) == 0
        text = capsys.readouterr().out
        assert "PASS su2-algebra" in text
        assert "FAIL" not in text

    def test_corrupted_invariant_fails_named(self, capsys):
        # negative control: a sign flip in a check fixture must surface as
        # exit 1 with the failing invariant named
        checks = dict(verify.QUICK_CHECKS)

        def flipped():
            tol, _ = verify.check_exact_revival()
            return tol, 1.0  # a sign flip leaves a unit-size residual

        checks["exact-revival"] = flipped
        rc = cli.cmd_verify("quick", checks=checks)
        text = capsys.readouterr().out
        assert rc == 1
        assert "FAIL exact-revival" in text

    def test_unknown_level_rejected(self):
        assert run(["verify", "sloppy"]) == 2


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
def test_exit_0_or_2_never_a_traceback(tmp_path, argv):
    out = tmp_path / "out.csv"
    rc = run(argv + ["--out", str(out)])
    assert rc in (0, 2)
    if rc == 0:  # every column finite, every probability within [0, 1]
        _, rows = read_csv(out)
        assert np.all(np.isfinite(rows))
        assert np.all((rows[:, 1:] >= 0.0) & (rows[:, 1:] <= 1.0 + 1e-12))
