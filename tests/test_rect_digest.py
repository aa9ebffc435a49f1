"""tools/rect_digest.py prints one line per seeded rectangular case with a
distinct sha256 each, and its cases reach every error of the model."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_digest_prints_one_line_per_case(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "rect_digest.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 400
    kinds = ("random", "edge", "singular", "negative")
    digests, raised = [], {kind: set() for kind in kinds}
    for i, line in enumerate(lines):
        kind = kinds[i % 4]
        assert line.startswith(f"case {i:03d} {kind} "), line
        match = re.search(r" raised=([A-Za-z,]+) sha256=([0-9a-f]{64})$", line)
        assert match, line
        raised[kind].update(match.group(1).split(","))
        digests.append(match.group(2))
    assert len(set(digests)) == len(digests)
    # unknown variant and T1 names everywhere; the taper errors where built
    assert all("ConfigError" in names for names in raised.values())
    assert "SingularFeedError" in raised["singular"]
    assert "DomainError" in raised["negative"]
