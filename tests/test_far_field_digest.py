"""tools/far_field_digest.py prints one line per seeded circular design
with a distinct fields and directivity sha256 each."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_digest_prints_one_line_per_design(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "far_field_digest.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 200
    digests = {"fields": [], "directivity": []}
    for i, line in enumerate(lines):
        assert line.startswith(f"design {i:03d} "), line
        match = re.search(r" fields=([0-9a-f]{64}) directivity=([0-9a-f]{64})$", line)
        assert match, line
        digests["fields"].append(match.group(1))
        digests["directivity"].append(match.group(2))
    for hashes in digests.values():
        assert len(set(hashes)) == len(hashes)
