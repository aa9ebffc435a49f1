"""tools/cli_digest.py covers every command x format x config x setting,
to stdout and to a file, and only rectangular pattern cuts fail."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_digest_covers_every_case(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_digest.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6 * 4 * 2 * 4 * 2
    labels = [line.split(" exit=")[0] for line in lines]
    assert len(set(labels)) == len(labels)
    for line in lines:
        failed = "exit=0" not in line
        assert failed == (line.startswith("rect") and " pattern " in line), line
        if " file exit=0" in line:
            assert "file=-" not in line, line
    # a setting that governs the numbers changes the bytes
    by_label = dict(line.split(" exit=") for line in lines)
    assert by_label["rect-ref design json default stdout"] != by_label[
        "rect-ref design json t1-corrected stdout"]
