"""Print the sha256 of every CLI output, one line per run, for parity checks.

    python tools/cli_digest.py [--src DIR] > digests.txt

Runs ``mmpatch.cli.main`` in process for every command (design, analyze,
sweep, pattern) x format (json, csv) x config (three rectangular, one of
them at a 1e300 ohm reference that reflects every sample totally, three
circular, one of them with a 20,001-point sweep and 0.1 degree cuts) x
setting (defaults, ``--t1-form corrected``, ``--zref 75``, the non-default
model variant), once writing to stdout and once with ``--out``.
Each line names the run and gives its exit code and the sha256 of stdout,
of the output file (``-`` without one) and of stderr. Two trees are
byte-identical on the CLI when the outputs of this script are identical:

    python tools/cli_digest.py --src OLD/src > old.txt
    python tools/cli_digest.py > new.txt
    diff old.txt new.txt

``--src`` selects the package tree to import (default: ``src`` next to
this directory). Config and output files go to a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

CONFIGS = {
    # the 39 GHz reference patch with a 0.05 mm feed inset
    "rect-ref": """\
geometry = rect
f_ghz = 39.0
substrate.eps_r = 4.7
substrate.h_mm = 0.8
patch.l_mm = 1.06
patch.w_mm = 0.98
patch.feed_mm = 0.05
""",
    # synthesized geometry on a low-permittivity laminate, inset feed
    "rect-synth": """\
geometry = rect
f_ghz = 28.0
substrate.eps_r = 2.2
substrate.h_mm = 0.508
substrate.tan_delta = 0.0009
patch.feed_mm = 0.1
sweep.points = 2001
""",
    # total reflection on every sample: |Gamma| 1, RL 0 dB, VSWR Infinity
    "rect-reflect": """\
geometry = rect
f_ghz = 39.0
substrate.eps_r = 4.7
substrate.h_mm = 0.8
patch.l_mm = 1.06
patch.w_mm = 0.98
patch.feed_mm = 0.05
sweep.zref = 1e300
""",
    "circ-ref": """\
geometry = circ
f_ghz = 39.0
substrate.eps_r = 2.32
substrate.h_mm = 0.8
sweep.f_start_ghz = 37.0
sweep.f_stop_ghz = 41.0
sweep.points = 401
""",
    "circ-synth": """\
geometry = circ
f_ghz = 60.0
substrate.eps_r = 3.55
substrate.h_mm = 0.254
pattern.step_deg = 0.5
""",
    # large tables: the sample exports dominate these runs
    "circ-large": """\
geometry = circ
f_ghz = 39.0
substrate.eps_r = 2.32
substrate.h_mm = 0.8
sweep.points = 20001
pattern.step_deg = 0.1
""",
}

COMMANDS = ("design", "analyze", "sweep", "pattern")
FORMATS = ("json", "csv")
OTHER_VARIANT = {"rect": "eq8-literal", "circ": "no-fringing"}


def settings_for(geometry: str) -> dict[str, list[str]]:
    return {
        "default": [],
        "t1-corrected": ["--t1-form", "corrected"],
        "zref-75": ["--zref", "75"],
        "other-variant": ["--variant", OTHER_VARIANT[geometry]],
    }


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(main, argv: list[str], out_path: Path | None) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    if out_path is not None:
        argv = argv + ["--out", str(out_path)]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    file_digest = "-"
    if out_path is not None and out_path.exists():
        file_digest = sha(out_path.read_text(encoding="utf-8"))
        out_path.unlink()
    return (f"exit={code} stdout={sha(stdout.getvalue())} file={file_digest} "
            f"stderr={sha(stderr.getvalue())}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory that holds the mmpatch package")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from mmpatch.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in CONFIGS.items():
            config = work / f"{name}.cfg"
            config.write_text(text, encoding="utf-8")
            geometry = name.split("-")[0]
            for command in COMMANDS:
                for fmt in FORMATS:
                    for setting, extra in settings_for(geometry).items():
                        argv = [command, "--config", str(config), "--format", fmt] + extra
                        for dest, out_path in (("stdout", None), ("file", work / "out")):
                            label = f"{name} {command} {fmt} {setting} {dest}"
                            print(label, run(cli_main, argv, out_path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
