import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from oracles import expand_records

from mmpatch import cli, response
from mmpatch.cli import main
from mmpatch.errors import ConfigError, ConvergenceError, DomainError

ROOT = pathlib.Path(__file__).resolve().parents[1]

RECT_CONFIG = """\
# reference rectangular job
geometry = rect
f_ghz = 39.0
substrate.eps_r = 4.7
substrate.h_mm = 0.8
patch.l_mm = 1.06
patch.w_mm = 0.98
patch.feed_mm = 0.05
variant = calibrated
"""

CIRC_CONFIG = """\
geometry = circ
f_ghz = 39.0
substrate.eps_r = 2.32
substrate.h_mm = 0.8
sweep.f_start_ghz = 37.0
sweep.f_stop_ghz = 41.0
sweep.points = 401
"""


@pytest.fixture
def rect_config(tmp_path):
    path = tmp_path / "rect.cfg"
    path.write_text(RECT_CONFIG)
    return str(path)


@pytest.fixture
def circ_config(tmp_path):
    path = tmp_path / "circ.cfg"
    path.write_text(CIRC_CONFIG)
    return str(path)


class TestDesign:
    def test_rect_design_reports_geometry(self, tmp_path, rect_config):
        out = tmp_path / "design.json"
        assert main(["design", "--config", rect_config, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["command"] == "design"
        assert report["design"]["L_mm"] == pytest.approx(1.06, rel=1e-12)
        assert report["design"]["W_mm"] == pytest.approx(0.98, rel=1e-12)
        assert report["design"]["r_in_ohm"] == pytest.approx(50.0, abs=1e-6)
        assert report["settings"]["model_variant"] == "calibrated"
        assert report["settings"]["substrate"]["sigma_s_per_m"] == 5.8e7
        assert report["settings"]["thickness_regime"]["regime"] == "thick"

    def test_rect_synthesis_when_geometry_missing(self, tmp_path):
        out = tmp_path / "synth.json"
        code = main(["design", "--geometry", "rect", "--f-ghz", "39",
                     "--eps-r", "4.7", "--h-mm", "0.8", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["design"]["L_mm"] == pytest.approx(1.1257723861, rel=1e-6)
        assert report["design"]["W_mm"] == pytest.approx(0.8762756003, rel=1e-6)

    def test_circ_design_places_feed(self, tmp_path, circ_config):
        out = tmp_path / "circ.json"
        assert main(["design", "--config", circ_config, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["design"]["a_mm"] == pytest.approx(1.2169, abs=2e-4)
        assert report["design"]["rho0_mm"] == pytest.approx(0.3223, abs=2e-4)
        assert report["design"]["vswr_at_res"] == pytest.approx(1.3661, abs=2e-3)

    def test_zref_sets_design_vswr_and_echo(self, tmp_path, circ_config):
        reports = {}
        for zref in (None, "75"):
            out = tmp_path / f"circ_{zref}.json"
            argv = ["design", "--config", circ_config, "--out", str(out)]
            assert main(argv + (["--zref", zref] if zref else [])) == 0
            reports[zref] = json.loads(out.read_text())
        base, z75 = reports[None], reports["75"]
        assert base["settings"]["reference_impedance_ohm"] == 50.0
        assert z75["settings"]["reference_impedance_ohm"] == 75.0
        r_in = z75["design"]["r_in_ohm"]
        assert r_in == base["design"]["r_in_ohm"]
        assert z75["design"]["vswr_at_res"] == pytest.approx(75.0 / r_in, rel=1e-12)
        assert base["design"]["vswr_at_res"] == pytest.approx(r_in / 50.0, rel=1e-12)

    def test_centre_feed_reports_total_reflection(self, tmp_path):
        # rho0 = 0 sits on the J1 null: r_in is 0 and |Gamma| is exactly 1
        cfg = tmp_path / "centre.cfg"
        cfg.write_text(CIRC_CONFIG + "patch.a_mm = 1.4\npatch.rho0_mm = 0\n")
        out = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
        text = out.read_text()
        assert '"vswr_at_res": Infinity' in text
        design = json.loads(text)["design"]
        assert design["r_in_ohm"] == 0.0
        assert design["vswr_at_res"] == math.inf

    def test_config_zref_echoed_outside_sweep(self, tmp_path):
        cfg = tmp_path / "z.cfg"
        cfg.write_text(CIRC_CONFIG + "sweep.zref = 100\n")
        out = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["settings"]["reference_impedance_ohm"] == 100.0

    def test_feed_placement_basis_echoed_for_circ_only(self, tmp_path, rect_config,
                                                       circ_config):
        settings = {}
        for tag, cfg in (("rect", rect_config), ("circ", circ_config)):
            out = tmp_path / f"{tag}.json"
            assert main(["design", "--config", cfg, "--out", str(out)]) == 0
            settings[tag] = json.loads(out.read_text())["settings"]
        assert "feed_placement_basis" not in settings["rect"]
        assert settings["circ"]["feed_placement_basis"] == "radiation"

    def test_invalid_permittivity_exits_2(self, tmp_path, capsys):
        code = main(["design", "--geometry", "rect", "--f-ghz", "39",
                     "--eps-r", "0.5", "--h-mm", "0.8"])
        assert code == 2
        assert "permittivity" in capsys.readouterr().err

    def test_missing_substrate_exits_1(self):
        assert main(["design", "--geometry", "rect", "--f-ghz", "39"]) == 1

    def test_unknown_config_key_exits_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("geometry = rect\nmystery.key = 1\n")
        assert main(["design", "--config", str(bad)]) == 1

    def test_duplicate_config_key_exits_1(self, tmp_path, capsys):
        dup = tmp_path / "dup.cfg"
        dup.write_text(RECT_CONFIG + "substrate.eps_r = 2.2\n")
        assert main(["design", "--config", str(dup)]) == 1
        err = capsys.readouterr().err
        assert f"{dup}:10: duplicate key 'substrate.eps_r'" in err

    def test_missing_config_file_exits_1(self):
        assert main(["design", "--config", "/nonexistent/job.cfg"]) == 1

    def test_unknown_variant_exits_1(self, rect_config):
        assert main(["design", "--config", rect_config, "--variant", "bogus"]) == 1


class TestAnalyze:
    def test_rect_breakdown_sum(self, tmp_path, rect_config):
        out = tmp_path / "analyze.json"
        assert main(["analyze", "--config", rect_config, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        b = report["breakdown"]
        assert b["R_total"] == pytest.approx(
            b["R_r"] + b["R_s"] + b["R_c"] + b["R_d"], rel=1e-15, abs=0.0)
        assert report["r_in_ohm"] == pytest.approx(50.0, abs=1e-6)

    def test_circ_report_has_gain_in_db(self, tmp_path, circ_config):
        out = tmp_path / "circ_analyze.json"
        assert main(["analyze", "--config", circ_config, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["gain_db"] == pytest.approx(5.917, abs=2e-3)
        assert 0.0 < report["efficiency"] <= 1.0
        assert report["cross_checks"]["R_d_printed_ohm"] > report["breakdown"]["R_d"]

    def test_csv_key_value_output(self, tmp_path, rect_config):
        out = tmp_path / "analyze.csv"
        assert main(["analyze", "--config", rect_config,
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("breakdown.R_r,") for line in lines)


class TestSweep:
    def test_circ_sweep_csv(self, tmp_path, circ_config, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", circ_config,
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "f_hz,r_in_ohm,x_in_ohm,gamma_mag,rl_db,vswr"
        assert len(lines) == 402
        summary = json.loads(capsys.readouterr().out)
        assert summary["resonance"]["f_res_ghz"] == pytest.approx(39.0, abs=0.5)

    def test_rect_sweep_resonance(self, tmp_path, rect_config):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--config", rect_config, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["resonance"]["f_res_ghz"] == pytest.approx(39.0, abs=0.1)
        assert report["resonance"]["rl_min_db"] <= -30.0
        assert len(report["response"]["samples"]) == 401

    def test_byte_identical_reruns(self, tmp_path, circ_config):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep", "--config", circ_config, "--format", "csv",
                     "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", circ_config, "--format", "csv",
                     "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestPattern:
    def test_pattern_csv(self, tmp_path, circ_config):
        out = tmp_path / "pattern.csv"
        assert main(["pattern", "--config", circ_config,
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta_deg,e_plane_db,h_plane_db"
        assert len(lines) == 182  # -90..90 deg at 1 deg step
        center = lines[91].split(",")
        assert float(center[0]) == 0.0
        assert float(center[1]) == 0.0
        assert float(center[2]) == 0.0

    def test_pattern_rejects_rect(self, rect_config):
        assert main(["pattern", "--config", rect_config]) == 1

    @pytest.mark.parametrize("step_deg", ["0.7", "0.3", "7", "13", "90"])
    def test_step_not_dividing_90_degrees(self, tmp_path, step_deg):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(CIRC_CONFIG + f"pattern.step_deg = {step_deg}\n")
        out = tmp_path / "pattern.json"
        assert main(["pattern", "--config", str(cfg), "--out", str(out)]) == 0
        samples = json.loads(out.read_text())["samples"]
        thetas = [s["theta_deg"] for s in samples]
        assert max(abs(th) for th in thetas) <= 90.0
        assert thetas == [-th for th in reversed(thetas)]
        center = samples[len(samples) // 2]
        assert (center["theta_deg"], center["e_plane_db"], center["h_plane_db"]) == (0, 0, 0)

    @pytest.mark.filterwarnings("error")
    def test_underflowed_disk_gives_a_finite_pattern(self, tmp_path):
        # k0 a_eff ~ 1e-300 and h = 1e-303 m: the levels are formed relative
        # to broadside, so no product underflows into 0 / 0
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("geometry = circ\nf_ghz = 39\nsubstrate.eps_r = 1\n"
                       "substrate.h_mm = 1e-300\npatch.a_mm = 1e-300\n")
        out = tmp_path / "tiny.json"
        assert main(["pattern", "--config", str(cfg), "--out", str(out)]) == 0
        samples = json.loads(out.read_text())["samples"]
        assert len(samples) == 181
        center = samples[90]
        assert (center["theta_deg"], center["e_plane_db"], center["h_plane_db"]) == (0, 0, 0)
        assert all(math.isfinite(v) for s in samples for v in s.values())
        # an electrically tiny disk: the E plane is flat, the H plane cos(theta)
        assert all(s["e_plane_db"] == 0.0 for s in samples)
        assert samples[45]["h_plane_db"] == pytest.approx(20 * math.log10(math.cos(math.pi / 4)))

    def test_step_above_90_degrees_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(CIRC_CONFIG + "pattern.step_deg = 100\n")
        assert main(["pattern", "--config", str(cfg)]) == 2
        assert "pattern step must lie in (0, 90] degrees, got 100" in capsys.readouterr().err

    def test_step_below_a_thousandth_degree_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("a theta grid was built for a refused step")

        # refused before a 90-million-angle grid is built
        monkeypatch.setattr(np, "arange", no_grid)
        cfg = tmp_path / "p.cfg"
        cfg.write_text(CIRC_CONFIG + "pattern.step_deg = 1e-6\n")
        assert main(["pattern", "--config", str(cfg)]) == 2
        assert "pattern step must be at least 0.001 degrees" in capsys.readouterr().err


class TestExitCodeMapping:
    def test_bad_subcommand_exits_1(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("command", ["design", "analyze", "sweep"])
    def test_negative_rect_input_resistance_exits_2(self, tmp_path, capsys, command):
        # air at h = 0.12 lambda0 (0.922 mm at 39 GHz) with the synthesized
        # patch fed 0.1 L in: the feed taper, and with it r_in, is negative
        from mmpatch.media import SubstrateSpec
        from mmpatch.rectpatch import synth_rect

        h_mm = 0.12 * 299792458.0 / 39e9 * 1e3
        L = synth_rect(39e9, SubstrateSpec(eps_r=1.0, h=h_mm * 1e-3)).L
        config = tmp_path / "air.cfg"
        config.write_text(f"geometry = rect\nf_ghz = 39\nsubstrate.eps_r = 1\n"
                          f"substrate.h_mm = {h_mm!r}\npatch.feed_mm = {0.1 * L * 1e3!r}\n")
        assert main([command, "--config", str(config)]) == 2
        assert "input resistance must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("zref", ["-5", "0", "nan", "inf", "5e-324"])
    @pytest.mark.parametrize("command,geometry", [
        ("design", "rect"), ("design", "circ"), ("analyze", "rect"), ("analyze", "circ"),
        ("sweep", "rect"), ("sweep", "circ"), ("pattern", "circ"),
    ])
    def test_bad_reference_impedance_exits_2(self, capsys, rect_config, circ_config,
                                            command, geometry, zref):
        config = rect_config if geometry == "rect" else circ_config
        assert main([command, "--config", config, f"--zref={zref}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reference impedance must be a finite, normal float > 0" in captured.err

    @pytest.mark.parametrize("command,message", [
        pytest.param("pattern", "Bessel arguments must be finite with |x| <= 100", id="pattern"),
        pytest.param("analyze", "pattern integral needs k0*a_eff <= 20", id="analyze"),
    ])
    def test_huge_disk_exits_2(self, tmp_path, command, message):
        # k0 a_eff near 1e300 is past the pattern integral's bound (analyze)
        # and the Bessel kernel's (pattern); before the bounds, Miller's
        # recurrence from order ~x never returned. A child process with a
        # timeout turns such a stall into a failure.
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(CIRC_CONFIG + "patch.a_mm = 1e300\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "mmpatch.cli", command, "--config", str(cfg)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert message in proc.stderr

    def test_rect_strip_width_past_float_range_exits_2(self, capsys):
        # W/h overflows to inf at h = 1e-300 mm, which took the wide-strip
        # impedance to 0 ohm and the analysis to a ZeroDivisionError
        argv = ["sweep", "--geometry", "rect", "--f-ghz", "1e-9", "--eps-r", "2.32",
                "--h-mm", "1e-300"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "strip impedance must be > 0" in captured.err

    def test_rect_strip_height_past_float_range_exits_2(self, tmp_path, capsys):
        # (h / W) ** 2 overflows in the narrow-strip impedance
        cfg = tmp_path / "thick.cfg"
        cfg.write_text("geometry = rect\nf_ghz = 39\nsubstrate.eps_r = 1\n"
                       "substrate.h_mm = 1e300\npatch.l_mm = 1\npatch.w_mm = 2.32\n")
        assert main(["analyze", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "strip impedance overflows" in captured.err

    def test_circ_vanishing_disk_exits_2(self, tmp_path, capsys):
        # the disk's area underflows to 0, which ended in a ZeroDivisionError
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(CIRC_CONFIG + "patch.a_mm = 1e-300\n")
        assert main(["analyze", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "radiated power must be finite and > 0" in captured.err

    def test_rect_huge_permittivity_exits_2(self, capsys):
        # eps_r ** 2 overflowed in the wide-strip impedance: a traceback
        # that ended in exit 1, the config-error code
        argv = ["design", "--geometry", "rect", "--f-ghz", "1e-300", "--eps-r", "1e300",
                "--h-mm", "0.8"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mmpatch: domain error: ")

    @pytest.mark.parametrize("command,flag,value,message", [
        ("design", "--tan-delta", "inf", "loss tangent must be finite"),
        ("analyze", "--sigma", "inf", "conductivity must be finite"),
        ("analyze", "--eps-r", "1e200", "total resistance must be finite and > 0"),
        ("analyze", "--h-mm", "1e-297", "radiated power must be finite and > 0"),
    ])
    def test_non_finite_circular_budget_exits_2(self, capsys, command, flag, value, message):
        args = {"--f-ghz": "39", "--eps-r": "2.32", "--h-mm": "0.8", flag: value}
        argv = [command, "--geometry", "circ"] + [t for kv in args.items() for t in kv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "domain error" in captured.err and message in captured.err

    @pytest.mark.parametrize("command,geometry", [
        ("design", "rect"), ("design", "circ"), ("analyze", "rect"), ("analyze", "circ"),
        ("pattern", "circ"),
    ])
    def test_infinite_frequency_exits_2(self, capsys, command, geometry):
        # 1e300 GHz is an infinite f in Hz, whose wavelength would be 0; the
        # circular radius synthesis refuses it before it brackets a root
        argv = [command, "--geometry", geometry, "--f-ghz", "1e300",
                "--eps-r", "2.32", "--h-mm", "0.8"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "domain error: frequency must be finite and > 0" in captured.err

    @pytest.mark.parametrize("command", ["design", "analyze"])
    def test_vanishing_circular_frequency_exits_2(self, capsys, command):
        # at 1e-300 GHz the wavelength and the disk area overflow
        argv = [command, "--geometry", "circ", "--f-ghz", "1e-300",
                "--eps-r", "2.32", "--h-mm", "0.8"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "domain error: radiated power must be finite and > 0" in captured.err

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(("# caf\u00e9\n" + CIRC_CONFIG).encode("latin-1"))
        assert main(["design", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: {cfg}: not UTF-8 text" in captured.err
        with pytest.raises(ConfigError, match="not UTF-8 text"):
            cli.load_config(str(cfg))

    def test_bad_config_reference_impedance_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "z.cfg"
        cfg.write_text(RECT_CONFIG + "sweep.zref = -5\n")
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert "reference impedance" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["inf", "nan", "2.9", "2.0", "1e3", "1", "0", "-3", "ten"])
    def test_sweep_points_must_be_an_integer_of_at_least_2(self, tmp_path, capsys, points):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(RECT_CONFIG + f"sweep.points = {points}\n")
        assert main(["sweep", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"sweep.points must be an integer >= 2, got {points!r}" in err

    def test_two_point_sweep_from_config(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(RECT_CONFIG + "sweep.points = 2\n")
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["response"]["samples"]) == 2

    def test_error_classes_map_to_documented_codes(self):
        # the mapping itself, independent of how hard each error is to
        # provoke through a config file
        from mmpatch import cli

        def run_with(exc):
            def boom(job):
                raise exc
            original = cli.cmd_design
            cli.cmd_design = boom
            try:
                return cli.main(["design", "--geometry", "rect", "--f-ghz", "39",
                                 "--eps-r", "4.7", "--h-mm", "0.8"])
            finally:
                cli.cmd_design = original

        assert run_with(ConfigError("x")) == 1
        assert run_with(DomainError("x")) == 2
        assert run_with(ConvergenceError("x")) == 3


class TestRectT1Form:
    @pytest.mark.parametrize("command,field", [
        ("design", ("design", "r_in_ohm")),
        ("analyze", ("r_in_ohm",)),
        ("sweep", ("model", "r_res_ohm")),
    ])
    def test_corrected_form_changes_rect_input_resistance(self, tmp_path, rect_config,
                                                          command, field):
        values = {}
        for form in ("printed", "corrected"):
            out = tmp_path / f"{command}_{form}.json"
            assert main([command, "--config", rect_config, "--t1-form", form,
                         "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["settings"]["t1_form"] == form
            for key in field:
                report = report[key]
            values[form] = report
        assert values["corrected"] != pytest.approx(values["printed"], rel=1e-6)


def _stdlib_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _per_row_csv(header: str, rows) -> str:
    return header + "\n" + "".join(
        ",".join(format(v, ".10g") for v in row) + "\n" for row in rows)


def _key_value_csv(obj: dict) -> str:
    lines = ["key,value"]

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else k, value[k])
        elif isinstance(value, list):
            lines.append(f"{prefix},{';'.join(str(v) for v in value)}")
        elif isinstance(value, float):
            lines.append(f"{prefix},{format(value, '.10g')}")
        else:
            lines.append(f"{prefix},{value}")

    walk("", obj)
    return "\n".join(lines) + "\n"


def _expected_outputs(argv: list[str]) -> tuple[str, str]:
    """File text and stdout text of one command, rendered from its ``cmd_*``
    report with the standard library and per-row formatting."""
    job = cli.build_job(cli._PARSER.parse_args(argv))
    as_json = job.output_format == "json"
    if job.command == "sweep":
        summary, resp = cli.cmd_sweep(job)
        if not as_json:
            rows = zip(resp.f_hz, resp.r_in_ohm, resp.x_in_ohm,
                       resp.gamma_mag, resp.rl_db, resp.vswr)
            return _per_row_csv(response.CSV_HEADER, rows), _stdlib_json(summary)
        columns = response.CSV_HEADER.split(",")
        samples = [{c: float(getattr(resp, c)[i]) for c in columns}
                   for i in range(len(resp.f_hz))]
        payload = {**summary, "response": {
            "reference_impedance": resp.reference_impedance, "samples": samples}}
        return _stdlib_json(payload), ""
    if job.command == "pattern":
        summary = expand_records(cli.cmd_pattern(job))
        if as_json:
            return _stdlib_json(summary), ""
        rows = [(s["theta_deg"], s["e_plane_db"], s["h_plane_db"]) for s in summary["samples"]]
        return _per_row_csv("theta_deg,e_plane_db,h_plane_db", rows), ""
    report = cli.cmd_design(job) if job.command == "design" else cli.cmd_analyze(job)
    return (_stdlib_json(report) if as_json else _key_value_csv(report)), ""


class TestWriterGolden:
    """Every command, format and geometry writes exactly the standard-library
    rendering of its report."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command,geometry", [
        ("design", "rect"), ("design", "circ"), ("analyze", "rect"), ("analyze", "circ"),
        ("sweep", "rect"), ("sweep", "circ"), ("pattern", "circ"),
    ])
    def test_output_equals_stdlib_rendering(self, tmp_path, capsys, rect_config,
                                            circ_config, command, geometry, fmt):
        config = rect_config if geometry == "rect" else circ_config
        out = tmp_path / f"out.{fmt}"
        argv = [command, "--config", config, "--format", fmt]
        expected_file, expected_stdout = _expected_outputs(argv)
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == expected_file
        assert capsys.readouterr().out == expected_stdout
        assert main(argv) == 0
        assert capsys.readouterr().out == expected_file + expected_stdout

    def test_help_exits_0_after_a_run(self, rect_config, capsys):
        # the module-level parser is reused; a run leaves no state behind
        assert main(["design", "--config", rect_config, "--out", os.devnull]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["design", "--help"])
        assert exc.value.code == 0
        assert "--t1-form" in capsys.readouterr().out
