"""Command-line surface: design synthesis, single-point analysis, frequency
sweeps, and pattern cuts.

Config files are flat ``key = value`` text with dotted keys and ``#``
comments; flags override file values. Lengths in config/flags are
millimeters and frequencies gigahertz; everything is converted to SI at this
boundary. Every report echoes the model variant, decision flags, and
defaults in effect so nothing is silent.

Exit codes: 0 success, 1 I/O or configuration error, 2 domain or synthesis
error, 3 convergence error.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import circpatch, rectpatch, response
from .errors import ConfigError, ConvergenceError, DomainError
from .media import ResistanceBreakdown, SubstrateSpec, thickness_regime
from .tables import Records, csv_text, json_text

_KNOWN_KEYS = {
    "geometry", "f_ghz", "variant", "target_r_ohm",
    "substrate.eps_r", "substrate.h_mm", "substrate.tan_delta", "substrate.sigma",
    "circ.fringing", "circ.t1_form",
    "patch.l_mm", "patch.w_mm", "patch.feed_mm", "patch.a_mm", "patch.rho0_mm",
    "sweep.f_start_ghz", "sweep.f_stop_ghz", "sweep.points", "sweep.zref",
    "pattern.step_deg",
    "output.format", "output.path",
}

# geometry -> (model variants, default variant)
_VARIANTS = {"rect": (rectpatch.RECT_VARIANTS, "calibrated"),
             "circ": (("fringing", "no-fringing"), "fringing")}


@dataclass
class JobConfig:
    command: str
    geometry: str
    f_design: float
    substrate: SubstrateSpec
    variant: str              # rect radiation model or circ fringing switch
    t1_form: str
    target_r: float
    rect_l: float | None
    rect_w: float | None
    rect_feed: float | None
    circ_a: float | None
    circ_rho0: float | None
    zref: float               # reference impedance for every VSWR/reflection
    sweep: response.SweepSpec | None
    pattern_step_deg: float
    output_format: str
    output_path: str | None


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own code on bad flags; route through ConfigError
    # so the documented exit-code contract holds.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:  # a ValueError: main would exit 2
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _number(values: dict[str, str], key: str, flag: float | None = None,
            default: float | None = None) -> float | None:
    # the flag's value if given, else the config value of key, else default
    if flag is not None:
        return flag
    if key not in values:
        return default
    try:
        return float(values[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _as_bool(text: str, key: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"config key {key!r}: expected on/off, got {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mmpatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("design", "synthesize patch geometry for the design frequency"),
        ("analyze", "resistance/loss breakdown at the design frequency"),
        ("sweep", "frequency sweep with resonance and bandwidth extraction"),
        ("pattern", "principal-plane pattern cuts (circular geometry)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--variant", help="model variant (rect: eq8-literal|calibrated; "
                                         "circ: fringing|no-fringing)")
        p.add_argument("--t1-form", choices=("printed", "corrected"),
                       help="surface-wave loss-factor form")
        p.add_argument("--geometry", choices=("rect", "circ"))
        p.add_argument("--eps-r", type=float, help="substrate relative permittivity")
        p.add_argument("--h-mm", type=float, help="substrate thickness (mm)")
        p.add_argument("--f-ghz", type=float, help="design frequency (GHz)")
        p.add_argument("--tan-delta", type=float, help="substrate loss tangent")
        p.add_argument("--sigma", type=float, help="metal conductivity (S/m)")
        p.add_argument("--zref", type=float, help="reference impedance (ohm)")
    return parser


_PARSER = _build_parser()


def build_job(args: argparse.Namespace) -> JobConfig:
    values = load_config(args.config) if args.config else {}

    geometry = args.geometry or values.get("geometry")
    if geometry not in ("rect", "circ"):
        raise ConfigError(f"geometry must be 'rect' or 'circ', got {geometry!r}")

    f_ghz = _number(values, "f_ghz", args.f_ghz)
    if f_ghz is None:
        raise ConfigError("design frequency missing: set f_ghz in config or --f-ghz")

    eps_r = _number(values, "substrate.eps_r", args.eps_r)
    h_mm = _number(values, "substrate.h_mm", args.h_mm)
    if eps_r is None or h_mm is None:
        raise ConfigError("substrate missing: set substrate.eps_r and substrate.h_mm")
    substrate = SubstrateSpec(
        eps_r=eps_r, h=h_mm * 1e-3,
        tan_delta=_number(values, "substrate.tan_delta", args.tan_delta, 1e-3),
        sigma=_number(values, "substrate.sigma", args.sigma, 5.8e7))

    variant = args.variant or values.get("variant")
    if geometry == "circ" and variant is None and "circ.fringing" in values:
        variant = "fringing" if _as_bool(values["circ.fringing"], "circ.fringing") else "no-fringing"
    variants, default_variant = _VARIANTS[geometry]
    variant = variant or default_variant
    if variant not in variants:
        raise ConfigError(f"{geometry} variant must be one of {variants}, got {variant!r}")

    t1_form = args.t1_form or values.get("circ.t1_form") or "printed"
    if t1_form not in ("printed", "corrected"):
        raise ConfigError(f"t1 form must be 'printed' or 'corrected', got {t1_form!r}")

    target_r = _number(values, "target_r_ohm", default=50.0)
    zref = _number(values, "sweep.zref", args.zref, 50.0)
    response.check_reference(zref)

    f_start = _number(values, "sweep.f_start_ghz", default=0.95 * f_ghz)
    f_stop = _number(values, "sweep.f_stop_ghz", default=1.05 * f_ghz)
    points_text = values.get("sweep.points", "401")
    points = int(points_text) if points_text.isdecimal() else 0
    if points < 2:
        raise ConfigError(f"sweep.points must be an integer >= 2, got {points_text!r}")
    sweep_spec = None
    if args.command == "sweep":
        sweep_spec = response.SweepSpec(f_start * 1e9, f_stop * 1e9, points, zref)

    mm = lambda key: (None if key not in values else _number(values, key) * 1e-3)
    step_deg = _number(values, "pattern.step_deg", default=1.0)

    output_format = args.format or values.get("output.format") or "json"
    if output_format not in ("csv", "json"):
        raise ConfigError(f"output format must be csv or json, got {output_format!r}")

    return JobConfig(
        command=args.command, geometry=geometry, f_design=f_ghz * 1e9,
        substrate=substrate, variant=variant, t1_form=t1_form, target_r=target_r,
        rect_l=mm("patch.l_mm"), rect_w=mm("patch.w_mm"), rect_feed=mm("patch.feed_mm"),
        circ_a=mm("patch.a_mm"), circ_rho0=mm("patch.rho0_mm"), zref=zref,
        sweep=sweep_spec, pattern_step_deg=step_deg, output_format=output_format,
        output_path=args.out or values.get("output.path"))


def _settings_dict(job: JobConfig) -> dict:
    regime = thickness_regime(job.substrate, job.f_design)
    settings = {
        "geometry": job.geometry,
        "model_variant": job.variant,
        "t1_form": job.t1_form,
        "f_design_ghz": job.f_design / 1e9,
        "substrate": {
            "eps_r": job.substrate.eps_r,
            "h_mm": job.substrate.h * 1e3,
            "tan_delta": job.substrate.tan_delta,
            "sigma_s_per_m": job.substrate.sigma,
        },
        "reference_impedance_ohm": job.zref,
        "thickness_regime": {
            "ratio_h_over_lambda0": regime.ratio,
            "threshold": regime.threshold,
            "regime": regime.regime.value,
        },
        "units": "config lengths mm, frequencies GHz; reported lengths mm unless suffixed",
    }
    if job.geometry == "circ":
        settings["feed_placement_basis"] = "radiation"
    return settings


def _rect_design(job: JobConfig) -> rectpatch.RectPatchDesign:
    if job.rect_l is not None and job.rect_w is not None:
        size = job.rect_l, job.rect_w
    else:
        synth = rectpatch.synth_rect(job.f_design, job.substrate)
        size = synth.L, synth.W
    return rectpatch.RectPatchDesign(
        *size, feed_offset_a=job.rect_feed if job.rect_feed is not None else 0.0,
        substrate=job.substrate, f_design=job.f_design)


def _circ_design(job: JobConfig) -> circpatch.CircPatchDesign:
    fringing = job.variant != "no-fringing"
    if job.circ_a is not None:
        return circpatch.circ_design_from_radius(
            job.circ_a, job.substrate, job.f_design, fringing, rho0=job.circ_rho0)
    return circpatch.synth_circ(
        job.f_design, job.substrate, target_R=job.target_r, fringing=fringing)


def _breakdown_dict(b: ResistanceBreakdown) -> dict:
    return {"R_r": b.R_r, "R_s": b.R_s, "R_c": b.R_c, "R_d": b.R_d, "R_total": b.R_total}


def cmd_design(job: JobConfig) -> dict:
    report: dict = {"command": "design", "settings": _settings_dict(job)}
    if job.geometry == "rect":
        design = _rect_design(job)
        _, der, r_in = rectpatch.analyze_rect(design, job.f_design, job.variant, job.t1_form)
        report["design"] = {
            "L_mm": design.L * 1e3,
            "W_mm": design.W * 1e3,
            "feed_offset_a_mm": design.feed_offset_a * 1e3,
            "r_in_ohm": r_in,
        }
        report["derived"] = {
            "eps_eff": der.eps_ew, "eps_ew": der.eps_ew, "Q_r": der.Q_r,
            "Z0w_ohm": der.Z0w, "Z0a_ohm": der.Z0a, "W_eq_mm": der.W_eq * 1e3,
            "L_ef_mm": der.L_ef * 1e3, "delta_L_mm": der.delta_L * 1e3,
            "K1_rad_per_m": der.K1, "T1": der.T1, "lambda_d_mm": der.lambda_d * 1e3,
        }
    else:
        design = _circ_design(job)
        f_res = circpatch.resonant_frequency(design.a, job.substrate,
                                             fringing=job.variant != "no-fringing")
        # not a ResonatorModel, which refuses the r_in = 0 of a centre feed
        r_in = circpatch.circ_analysis(design, f_res, job.t1_form)[0].r_in
        _, _, vswr = response.mismatch(r_in, job.zref)
        report["design"] = {
            "a_mm": design.a * 1e3,
            "a_eff_mm": design.a_eff * 1e3,
            "rho0_mm": (design.rho0 * 1e3) if design.rho0 is not None else None,
            "f_res_ghz": f_res / 1e9,
            "r_in_ohm": r_in,
            "vswr_at_res": float(vswr),
        }
    return report


def cmd_analyze(job: JobConfig) -> dict:
    report: dict = {"command": "analyze", "settings": _settings_dict(job)}
    f = job.f_design
    if job.geometry == "rect":
        design = _rect_design(job)
        breakdown, der, r_in = rectpatch.analyze_rect(design, f, job.variant, job.t1_form)
        report["breakdown"] = _breakdown_dict(breakdown)
        report["r_in_ohm"] = r_in
        report["sum_check_ohm"] = breakdown.R_r + breakdown.R_s + breakdown.R_c + breakdown.R_d
        report["derived"] = {
            "eps_ew": der.eps_ew, "Q_r": der.Q_r, "Z0w_ohm": der.Z0w,
            "L_ef_mm": der.L_ef * 1e3, "delta_L_mm": der.delta_L * 1e3, "T1": der.T1,
        }
    else:
        design = _circ_design(job)
        rep = circpatch.loss_report(design, f, t1_form=job.t1_form)
        report["breakdown"] = _breakdown_dict(rep.breakdown)
        report["powers_w_at_unit_field"] = {
            "P_r": rep.P_r, "P_s": rep.P_s, "P_c": rep.P_c, "P_d": rep.P_d,
        }
        report["stored_energy_j_at_unit_field"] = rep.W_T
        report["efficiency"] = rep.e_r
        report["directivity"] = rep.D
        report["gain"] = rep.G
        report["gain_db"] = 10.0 * math.log10(rep.G)
        # voltage-route closed forms, reported so the series/voltage gap is visible
        rd_printed = circpatch.r_dielectric_circ_printed(design, f)
        rc_printed = circpatch.r_conductor_circ_printed(design, f)
        report["cross_checks"] = {
            "R_d_printed_ohm": rd_printed,
            "R_c_printed_ohm": rc_printed,
            "R_d_series_over_printed": (
                rep.breakdown.R_d / rd_printed if math.isfinite(rd_printed) else 0.0),
            "R_c_series_over_printed": rep.breakdown.R_c / rc_printed,
            "W_T_closed_form_j": circpatch.stored_energy_closed_form(design, f),
        }
    return report


def cmd_sweep(job: JobConfig) -> tuple[dict, response.FrequencyResponse]:
    assert job.sweep is not None
    if job.geometry == "rect":
        model = response.rect_resonator(_rect_design(job), job.variant, job.t1_form)
    else:
        model = response.circ_resonator(_circ_design(job), job.t1_form)
    resp = response.sweep(model, job.sweep)
    report = response.extract_resonance(resp)
    summary = {
        "command": "sweep",
        "settings": _settings_dict(job),
        "model": {"f_res_ghz": model.f_res / 1e9, "r_res_ohm": model.r_res,
                  "q_total": model.q_total},
        "resonance": {
            "f_res_ghz": report.f_res / 1e9,
            "rl_min_db": report.rl_min_db,
            "vswr_at_res": report.vswr_at_res,
            "bandwidth_mhz": report.bandwidth_hz / 1e6,
            "q_loaded": report.q_loaded,
            "notes": list(report.notes),
        },
    }
    return summary, resp


def cmd_pattern(job: JobConfig) -> dict:
    if job.geometry != "circ":
        raise ConfigError("pattern cuts are only available for the circular geometry")
    design = _circ_design(job)
    step = math.radians(job.pattern_step_deg)
    e_cut, h_cut = circpatch.pattern_cuts(design, job.f_design, step)
    clamp = response.RL_CLAMP_DB
    samples = Records(("theta_deg", "e_plane_db", "h_plane_db"), (
        np.degrees(e_cut.theta),
        np.maximum(e_cut.db, clamp),
        np.maximum(h_cut.db, clamp),
    ))
    return {
        "command": "pattern",
        "settings": _settings_dict(job),
        "design": {"a_mm": design.a * 1e3, "a_eff_mm": design.a_eff * 1e3},
        "samples": samples,
    }


def _emit(text: str, path: str | None) -> None:
    """Write one rendered output to ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(report: dict, path: str | None) -> None:
    _emit(json_text(report) + "\n", path)


def _write_kv_csv(report: dict, path: str | None) -> None:
    lines = ["key,value"]

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, (list, tuple)):
            lines.append(f"{prefix},{';'.join(str(v) for v in value)}")
        else:
            lines.append(f"{prefix},{format(value, '.10g') if isinstance(value, float) else value}")

    walk("", report)
    _emit("\n".join(lines) + "\n", path)


def _write_sweep_json(result: tuple[dict, response.FrequencyResponse], path: str | None) -> None:
    summary, resp = result
    _write_json({**summary, "response": resp.to_json_dict()}, path)


def _write_sweep_csv(result: tuple[dict, response.FrequencyResponse], path: str | None) -> None:
    # the samples go to the output, the summary to stdout after them
    summary, resp = result
    buf = io.StringIO()
    resp.write_csv(buf)
    _emit(buf.getvalue(), path)
    _write_json(summary, None)


def _write_pattern_csv(report: dict, path: str | None) -> None:
    _emit(csv_text(report["samples"]), path)


def main(argv: list[str] | None = None) -> int:
    try:
        job = build_job(_PARSER.parse_args(argv))
        # command -> (compute, JSON writer, CSV writer); the names resolve
        # per call, so a wrapped or replaced cmd_* function is the one run
        compute, write_json, write_csv = {
            "design": (cmd_design, _write_json, _write_kv_csv),
            "analyze": (cmd_analyze, _write_json, _write_kv_csv),
            "sweep": (cmd_sweep, _write_sweep_json, _write_sweep_csv),
            "pattern": (cmd_pattern, _write_json, _write_pattern_csv),
        }[job.command]
        write = write_json if job.output_format == "json" else write_csv
        write(compute(job), job.output_path)
        return 0
    except ConfigError as exc:
        print(f"mmpatch: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"mmpatch: i/o error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"mmpatch: convergence error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ValueError) as exc:
        print(f"mmpatch: domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
