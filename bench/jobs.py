"""Job runners and output checks for the benchmark workloads.

Each workload turns one deck entry (see ``inputs.py``) into calls on the
public API of ``mmpatch`` and checks what comes back. Module functions are
looked up on their module at call time (``circpatch.synth_circ``), so the
tracer's attribute replacement sees the benchmark's own calls as well.

Check tolerances are fixed here and are not tuned per run:

* exact identities at 1e-12 relative: R_total is the sum of its four terms,
  G = e_r * D;
* ranges: 0 < e_r <= 1, VSWR >= 1, every sweep array finite;
* round trips at 1e-6 relative: ``resonant_frequency(a)`` returns the design
  frequency, and the radiation-basis input resistance at rho0 returns the
  50 ohm target;
* on a fixed sample of circular jobs, W_T and D against an independent
  scipy quadrature at 1e-6 relative;
* cli-export: the output parses, has its header and row count, and every
  re-run of a job gives byte-identical output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os

import numpy as np

from mmpatch import circpatch, cli, rectpatch, response
from mmpatch.media import SubstrateSpec
from mmpatch.response import SweepSpec

import inputs

IDENTITY_RTOL = 1e-12
ROUND_TRIP_RTOL = 1e-6
REFERENCE_RTOL = 1e-6
CSV_SUM_RTOL = 2e-9        # four terms printed with 10 significant digits
TARGET_R_OHM = 50.0
REFERENCE_SAMPLE_EVERY = 8  # deck indices 0, 8, 16, ... get the scipy check

SWEEP_HEADER = "f_hz,r_in_ohm,x_in_ohm,gamma_mag,rl_db,vswr"
PATTERN_HEADER = "theta_deg,e_plane_db,h_plane_db"
KV_HEADER = "key,value"

MU0 = 4e-7 * math.pi
EPS0 = 1.0 / (MU0 * inputs.C0**2)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _check_breakdown(b, errors: list[str], rtol: float = IDENTITY_RTOL) -> None:
    total = b.R_r + b.R_s + b.R_c + b.R_d
    if not (math.isfinite(b.R_total) and _close(total, b.R_total, rtol)):
        errors.append(f"R_total {b.R_total!r} != sum of terms {total!r}")


SWEEP_FIELDS = ("f_hz", "r_in_ohm", "x_in_ohm", "gamma_mag", "rl_db", "vswr")


def _check_responses(pairs: list, errors: list[str]) -> None:
    """Sweep arrays finite and VSWR >= 1 for (response, resonance report)
    pairs, checked in one array operation."""
    values = np.concatenate([getattr(resp, f) for resp, _ in pairs for f in SWEEP_FIELDS])
    if not np.all(np.isfinite(values)):
        errors.append("sweep array not finite")
    if not np.all(np.concatenate([resp.vswr for resp, _ in pairs]) >= 1.0):
        errors.append("sweep VSWR below 1")
    if not all(res.vswr_at_res >= 1.0 for _, res in pairs):
        errors.append("VSWR at resonance below 1")


class Workload:
    """A workload runs one deck entry per job and checks its output."""

    name = ""

    def prepare(self, deck: list[dict], workdir: str) -> None:
        """Set-up outside the timed region, such as writing input files."""

    def run(self, index: int, job: dict) -> dict:
        raise NotImplementedError

    def check(self, index: int, job: dict, out: dict) -> list[str]:
        """Errors found in one job's output; empty when it is correct."""
        raise NotImplementedError

    def final_errors(self) -> dict[int, list[str]]:
        """Errors of checks deferred to the end of the run, by deck index."""
        return {}


class CircDesignScan(Workload):
    """One job: synth_circ -> loss_report -> circ_resonator -> 401-point
    sweep over f0 +/- 10 % -> extract_resonance -> E and H cuts at 1 deg."""

    name = "circ-design-scan"

    def __init__(self) -> None:
        self.samples: dict[int, tuple[dict, float, float, float]] = {}

    def run(self, index: int, job: dict) -> dict:
        f = job["f_ghz"] * 1e9
        sub = SubstrateSpec(eps_r=job["eps_r"], h=job["h_mm"] * 1e-3)
        design = circpatch.synth_circ(f, sub, target_R=TARGET_R_OHM)
        report = circpatch.loss_report(design, f)
        model = response.circ_resonator(design)
        resp = response.sweep(model, SweepSpec(0.9 * model.f_res, 1.1 * model.f_res,
                                               inputs.CIRC_SWEEP_POINTS))
        res = response.extract_resonance(resp)
        step = math.radians(inputs.PATTERN_STEP_DEG)
        e_cut = circpatch.pattern_cut(design, f, "E", step)
        h_cut = circpatch.pattern_cut(design, f, "H", step)
        return {"design": design, "report": report, "resp": resp, "res": res,
                "cuts": (e_cut, h_cut)}

    def check(self, index: int, job: dict, out: dict) -> list[str]:
        errors: list[str] = []
        f = job["f_ghz"] * 1e9
        design, rep = out["design"], out["report"]
        _check_breakdown(rep.breakdown, errors)
        if not _close(rep.G, rep.e_r * rep.D, IDENTITY_RTOL):
            errors.append(f"G {rep.G!r} != e_r * D {rep.e_r * rep.D!r}")
        if not 0.0 < rep.e_r <= 1.0:
            errors.append(f"efficiency {rep.e_r!r} outside (0, 1]")
        _check_responses([(out["resp"], out["res"])], errors)
        f_back = circpatch.resonant_frequency(design.a, design.substrate)
        if not _close(f_back, f, ROUND_TRIP_RTOL):
            errors.append(f"resonant_frequency(a) = {f_back!r}, design f = {f!r}")
        r_feed = circpatch.input_resistance_circ(design, f, basis="radiation")
        if not _close(r_feed, TARGET_R_OHM, ROUND_TRIP_RTOL):
            errors.append(f"radiation-basis R at rho0 = {r_feed!r}, target {TARGET_R_OHM}")
        n_cut = 2 * round(90.0 / inputs.PATTERN_STEP_DEG) + 1
        for cut in out["cuts"]:
            if len(cut) != n_cut or max(db for _, db in cut) != 0.0:
                errors.append("pattern cut not normalized to 0 dB or wrong length")
        if index % REFERENCE_SAMPLE_EVERY == 0 and index not in self.samples:
            self.samples[index] = (job, design.a_eff, rep.W_T, rep.D)
        return errors

    def final_errors(self) -> dict[int, list[str]]:
        """Compare the sampled W_T and D with scipy quadrature; run after the
        timed phase so the scipy import stays out of it and out of the
        peak-memory reading."""
        found: dict[int, list[str]] = {}
        for index, (job, a_eff, w_t, d) in sorted(self.samples.items()):
            w_ref, d_ref = reference_wt_d(job, a_eff)
            errors = []
            if not _close(w_t, w_ref, REFERENCE_RTOL):
                errors.append(f"W_T {w_t!r} vs scipy {w_ref!r}")
            if not _close(d, d_ref, REFERENCE_RTOL):
                errors.append(f"D {d!r} vs scipy {d_ref!r}")
            if errors:
                found[index] = errors
        return found


def reference_wt_d(job: dict, a_eff: float) -> tuple[float, float]:
    """Stored energy at unit edge field and broadside directivity of the
    lowest mode, by adaptive scipy quadrature."""
    from scipy import integrate, special

    eps_r, h, f = job["eps_r"], job["h_mm"] * 1e-3, job["f_ghz"] * 1e9
    k11 = inputs.J1P_FIRST_ROOT / a_eff
    radial, _ = integrate.quad(lambda r: special.j1(k11 * r) ** 2 * r, 0.0, a_eff,
                               epsabs=0.0, epsrel=1e-13, limit=200)
    w_t = 0.5 * EPS0 * eps_r * h * math.pi * radial
    k0a = 2.0 * math.pi * f / inputs.C0 * a_eff

    def pattern(theta: float) -> float:
        u = k0a * math.sin(theta)
        j0, j2 = special.jv(0, u), special.jv(2, u)
        return ((j0 - j2) ** 2 + math.cos(theta) ** 2 * (j0 + j2) ** 2) * math.sin(theta)

    power, _ = integrate.quad(pattern, 0.0, math.pi / 2, epsabs=0.0, epsrel=1e-13, limit=200)
    return w_t, 4.0 / power


class RectDesignScan(Workload):
    """One job: a laminate study of 32 design frequencies, each
    synth_rect -> seeded feed inset -> analyze_rect -> rect_resonator ->
    401-point sweep over f +/- 10 % -> extract_resonance."""

    name = "rect-design-scan"

    def run(self, index: int, job: dict) -> dict:
        sub = SubstrateSpec(eps_r=job["eps_r"], h=job["h_mm"] * 1e-3)
        results = []
        for d in job["designs"]:
            f = d["f_ghz"] * 1e9
            design = rectpatch.synth_rect(f, sub)
            design = dataclasses.replace(
                design, feed_offset_a=d["inset_frac"] * 0.5 * design.L)
            breakdown, _, r_in = rectpatch.analyze_rect(design, f, d["variant"])
            model = response.rect_resonator(design, d["variant"])
            resp = response.sweep(model, SweepSpec(0.9 * f, 1.1 * f, inputs.CIRC_SWEEP_POINTS))
            res = response.extract_resonance(resp)
            results.append((breakdown, r_in, model, resp, res))
        return {"results": results}

    def check(self, index: int, job: dict, out: dict) -> list[str]:
        errors: list[str] = []
        for breakdown, r_in, model, _, _ in out["results"]:
            _check_breakdown(breakdown, errors)
            if not 0.0 < r_in <= breakdown.R_total * (1.0 + IDENTITY_RTOL):
                errors.append(f"input resistance {r_in!r} outside (0, R_total]")
            if not _close(model.r_res, r_in, ROUND_TRIP_RTOL):
                errors.append(f"resonator r_res {model.r_res!r} != analyzed r_in {r_in!r}")
        _check_responses([(resp, res) for *_, resp, res in out["results"]], errors)
        if len(out["results"]) != len(job["designs"]):
            errors.append("study returned the wrong number of designs")
        return errors


class CliExport(Workload):
    """One job: ``mmpatch.cli.main([command, --config, cfg, --out, file,
    --format, fmt])`` in process, stdout and stderr captured."""

    name = "cli-export"

    def __init__(self) -> None:
        self.digests: dict[int, str] = {}
        self.configs: list[str] = []
        self.workdir = ""

    def prepare(self, deck: list[dict], workdir: str) -> None:
        self.workdir = workdir
        self.configs = inputs.write_configs(deck, workdir)

    def out_path(self, index: int, job: dict) -> str:
        return os.path.join(self.workdir, f"out{index:03d}.{job['format']}")

    def run(self, index: int, job: dict) -> dict:
        path = self.out_path(index, job)
        argv = [job["command"], "--config", self.configs[index], "--out", path,
                "--format", job["format"]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        text = stdout.getvalue().encode()
        return {"code": code, "stdout": text, "stderr": stderr.getvalue(),
                "output_bytes": os.path.getsize(path) + len(text) if code == 0 else len(text)}

    def check(self, index: int, job: dict, out: dict) -> list[str]:
        if out["code"] != 0:
            return [f"exit code {out['code']}: {out['stderr'].strip()}"]
        with open(self.out_path(index, job), "rb") as fh:
            data = fh.read()
        fingerprint = hashlib.sha256(data + b"\0" + out["stdout"]).hexdigest()
        seen = self.digests.get(index)
        if seen is not None:
            return [] if seen == fingerprint else ["output differs from the first run of this job"]
        errors = check_cli_output(job, data.decode(), out["stdout"].decode())
        if not errors:
            self.digests[index] = fingerprint
        return errors


def _floats(row: str, width: int) -> list[float] | None:
    parts = row.split(",")
    if len(parts) != width:
        return None
    try:
        values = [float(p) for p in parts]
    except ValueError:
        return None
    return values if all(math.isfinite(v) for v in values) else None


def _check_csv_table(text: str, header: str, rows: int, errors: list[str]) -> list[list[float]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        errors.append(f"missing header {header!r}")
        return []
    if len(lines) - 1 != rows:
        errors.append(f"expected {rows} rows, got {len(lines) - 1}")
    table = []
    width = header.count(",") + 1
    for line in lines[1:]:
        values = _floats(line, width)
        if values is None:
            errors.append(f"bad row {line!r}")
            break
        table.append(values)
    return table


def _json(text: str, errors: list[str]) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        errors.append(f"output does not parse as JSON: {exc}")
        return {}
    if not isinstance(obj, dict):
        errors.append("JSON output is not an object")
        return {}
    return obj


def _kv_rows(text: str, errors: list[str]) -> dict[str, str]:
    lines = text.splitlines()
    if not lines or lines[0] != KV_HEADER:
        errors.append(f"missing header {KV_HEADER!r}")
        return {}
    rows = dict(line.split(",", 1) for line in lines[1:] if "," in line)
    if len(rows) != len(lines) - 1:
        errors.append("key/value CSV has rows without a value or repeated keys")
    return rows


def check_cli_output(job: dict, text: str, stdout: str) -> list[str]:
    """Validate one cli-export output file and the captured stdout."""
    errors: list[str] = []
    command, fmt = job["command"], job["format"]
    if command == "sweep":
        points = job["sweep.points"]
        if fmt == "json":
            obj = _json(text, errors)
            samples = obj.get("response", {}).get("samples", [])
            if len(samples) != points:
                errors.append(f"expected {points} sweep samples, got {len(samples)}")
            columns = SWEEP_HEADER.split(",")
            table = [[s.get(c, math.nan) for c in columns] for s in samples]
            if not all(math.isfinite(v) for row in table for v in row):
                errors.append("sweep sample not finite")
        else:
            table = _check_csv_table(text, SWEEP_HEADER, points, errors)
            summary = _json(stdout, errors)
            if summary.get("command") != "sweep":
                errors.append("sweep CSV run did not print its JSON summary")
        if any(row[5] < 1.0 for row in table):
            errors.append("VSWR below 1 in sweep output")
    elif command == "pattern":
        rows = 2 * round(90.0 / job["pattern.step_deg"]) + 1
        if fmt == "json":
            samples = _json(text, errors).get("samples", [])
            if len(samples) != rows:
                errors.append(f"expected {rows} pattern samples, got {len(samples)}")
            table = [[s.get(c, math.nan) for c in PATTERN_HEADER.split(",")] for s in samples]
            if not all(math.isfinite(v) for row in table for v in row):
                errors.append("pattern sample not finite")
        else:
            table = _check_csv_table(text, PATTERN_HEADER, rows, errors)
        if table and table[len(table) // 2][1:] != [0.0, 0.0]:
            errors.append("pattern not normalized to 0 dB at broadside")
    else:
        if fmt == "json":
            obj = _json(text, errors)
            if obj.get("command") != command:
                errors.append(f"report command {obj.get('command')!r} != {command!r}")
            values = {f"{k}.{kk}": vv for k, v in obj.items() if isinstance(v, dict)
                      for kk, vv in v.items()}
            values.update({k: v for k, v in obj.items() if not isinstance(v, dict)})
            rtol = IDENTITY_RTOL
        else:
            values = _kv_rows(text, errors)
            if values.get("command") != command:
                errors.append(f"report command {values.get('command')!r} != {command!r}")
            rtol = CSV_SUM_RTOL
        try:
            if command == "design":
                for key in ("design.L_mm", "design.W_mm", "design.r_in_ohm"):
                    if not float(values[key]) > 0.0:
                        errors.append(f"{key} not positive")
            else:
                terms = [float(values[f"breakdown.{k}"]) for k in ("R_r", "R_s", "R_c", "R_d")]
                total = float(values["breakdown.R_total"])
                if not _close(sum(terms), total, rtol):
                    errors.append(f"R_total {total!r} != sum of terms {sum(terms)!r}")
                if not 0.0 < float(values["r_in_ohm"]) <= total * (1.0 + rtol):
                    errors.append("r_in_ohm outside (0, R_total]")
        except (KeyError, ValueError) as exc:
            errors.append(f"report field missing or not a number: {exc}")
    if command != "sweep" or fmt == "json":
        if stdout:
            errors.append("unexpected output on stdout")
    return errors


WORKLOADS = {w.name: w for w in (CircDesignScan, RectDesignScan, CliExport)}
