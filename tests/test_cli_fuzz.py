"""A standing fuzz gate over the CLI: a fixed, seeded list of configs built
from edge values runs through ``cli.main`` in this process, every command
with every geometry. Each run must end in exit 0 with finite output, or in
exit 1, 2 or 3 with one ``mmpatch:`` error line; no exception may escape
``main`` and no run may outlast its time limit.
"""

import json
import math
import random
import signal

import pytest

from mmpatch.cli import main

VALUES = ("nan", "inf", "-1", "0", "1e-300", "1e300", "1", "2.32", "0.8", "39", "1e-9")
COMMANDS = ("design", "analyze", "sweep", "pattern")
GEOMETRIES = ("rect", "circ")
CASES_PER_PAIR = 125
SEED = 20120
TIME_LIMIT_S = 5.0

# Keys drawn for every config, and those of one geometry or command.
COMMON_KEYS = ("f_ghz", "substrate.eps_r", "substrate.h_mm", "substrate.tan_delta",
               "substrate.sigma", "sweep.zref", "target_r_ohm")
GEOMETRY_KEYS = {"rect": ("patch.l_mm", "patch.w_mm", "patch.feed_mm"),
                 "circ": ("patch.a_mm", "patch.rho0_mm")}
COMMAND_KEYS = {"sweep": ("sweep.f_start_ghz", "sweep.f_stop_ghz", "sweep.points"),
                "pattern": ("pattern.step_deg",)}
# Each key takes a value from VALUES with probability FUZZ_P, and otherwise
# its reference value (one of VALUES) or none, so that most runs get past
# the config and reach the model.
REFERENCE = {"f_ghz": "39", "substrate.eps_r": "2.32", "substrate.h_mm": "0.8"}
FUZZ_P = 0.3

# Report keys (a dotted path's tail) whose value may be non-finite on exit 0,
# each with its reason.
EXEMPT = (
    # total reflection: the VSWR's physical limit, documented in the README
    # (ROADMAP item 12)
    "vswr", "vswr_at_res",
    # +inf for a lossless dielectric (ROADMAP item 2 Phase A)
    "cross_checks.R_d_printed_ohm",
)


def _exempt(path: str) -> bool:
    return any(path == key or path.endswith("." + key) for key in EXEMPT)


class _Hang(BaseException):
    # a BaseException, so no handler inside main can swallow it
    pass


def _cases(command: str, geometry: str) -> list[tuple[str, str]]:
    # (config text, output format) for one command and geometry
    rng = random.Random(f"{SEED}-{command}-{geometry}")
    keys = COMMON_KEYS + GEOMETRY_KEYS[geometry] + COMMAND_KEYS.get(command, ())
    cases = []
    for _ in range(CASES_PER_PAIR):
        lines = [f"geometry = {geometry}"]
        for key in keys:
            if rng.random() < FUZZ_P:
                lines.append(f"{key} = {rng.choice(VALUES)}")
            elif key in REFERENCE:
                lines.append(f"{key} = {REFERENCE[key]}")
        cases.append(("\n".join(lines) + "\n", rng.choice(("json", "csv"))))
    return cases


def _non_finite_json(text: str) -> list[str]:
    # dotted paths of every Infinity, -Infinity or NaN in a JSON document
    bad = object()
    found = []

    def walk(path: tuple[str, ...], value) -> None:
        if value is bad:
            found.append(".".join(path))
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(path + (key,), item)
        elif isinstance(value, list):
            for item in value:
                walk(path, item)

    walk((), json.loads(text, parse_constant=lambda _: bad))
    return found


def _non_finite_csv(text: str) -> list[str]:
    # a "key,value" report gives the dotted key, a table its column names
    lines = text.splitlines()
    if lines[0] == "key,value":
        cells = [line.split(",", 1) for line in lines[1:]]
    else:
        header = lines[0].split(",")
        cells = [pair for line in lines[1:] for pair in zip(header, line.split(","))]
    found = []
    for key, value in cells:
        for part in value.split(";"):
            try:
                number = float(part)
            except ValueError:
                continue
            if not math.isfinite(number):
                found.append(key)
    return found


def _non_finite(text: str, output_format: str) -> list[str]:
    if output_format == "json":
        return _non_finite_json(text)
    # a sweep's CSV samples are followed by its JSON summary
    table, brace, summary = text.partition("\n{")
    return _non_finite_csv(table) + (_non_finite_json(brace[1:] + summary) if brace else [])


def _on_alarm(signum, frame):
    raise _Hang()


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("command", COMMANDS)
def test_every_run_exits_cleanly(tmp_path, capsys, command, geometry):
    cfg = tmp_path / "fuzz.cfg"
    failures = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for config, output_format in _cases(command, geometry):
            cfg.write_text(config)
            argv = [command, "--config", str(cfg), "--format", output_format]
            signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
            try:
                code = main(argv)
            except _Hang:
                failures.append((config, f"no exit within {TIME_LIMIT_S} s"))
                continue
            except Exception as exc:  # the gate reports any exception that escapes
                failures.append((config, f"{type(exc).__name__}: {exc}"))
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                captured = capsys.readouterr()
            if code == 0:
                bad = [path for path in _non_finite(captured.out, output_format)
                       if not _exempt(path)]
                if bad:
                    failures.append((config, f"non-finite {sorted(set(bad))}"))
            elif code not in (1, 2, 3) or not captured.err.startswith("mmpatch: "):
                failures.append((config, f"exit {code}: {captured.err!r}"))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert failures == []


def test_exemptions_name_single_keys():
    assert _exempt("vswr") and _exempt("response.samples.vswr")
    assert _exempt("design.vswr_at_res")
    assert _exempt("cross_checks.R_d_printed_ohm")
    for path in ("cross_checks.R_c_printed_ohm", "cross_checks.R_d_series_over_printed",
                 "cross_checks.W_T_closed_form_j", "cross_checks", "max_vswr"):
        assert not _exempt(path)
