"""Print one sha256 per seeded rectangular case over its analysis numbers
and errors, for bit-level parity checks of the rectangular model.

    python tools/rect_digest.py [--src DIR] > digests.txt

Each of the 400 cases draws a laminate (a quarter of them on air,
eps_r = 1) and a design frequency f0 from a fixed seed, synthesizes a
patch, then sets its feed inset by the case kind, in turn:

* ``random``: an inset anywhere in [0, L/2];
* ``edge``: no inset;
* ``singular``: a patch 2 to 10 wavelengths long, fed where inset plus
  edge extension is half a wavelength, so the feed taper is singular;
* ``negative``: an air laminate 0.10 to 0.15 wavelength thick, fed 0.09 to
  0.13 L in, where the feed taper goes negative.

For every variant (both, and an unknown name) and every T1 form (both, and
an unknown name) the case runs ``analyze_rect`` at f0 and at 1.07 f0,
``input_resistance_rect`` at f0 and ``rect_resonator``. Its line carries
the sha256 over the ``float.hex`` of every number they return, or over the
error type and message where one raises, in order, and the sorted set of
error types raised.

Two trees compute bit-identical rectangular results, and raise the same
errors, when the outputs of this script are identical:

    python tools/rect_digest.py --src OLD/src > old.txt
    python tools/rect_digest.py > new.txt
    diff old.txt new.txt

``--src`` selects the package tree to import (default: ``src`` next to
this directory).
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from dataclasses import replace
from pathlib import Path

from far_field_digest import flat_floats

SEED = 13
CASES = 400
KINDS = ("random", "edge", "singular", "negative")
EPS_R = (1.0, 12.0)
H_PER_LAMBDA0 = (0.01, 0.16)
F0_GHZ = (10.0, 60.0)
VARIANTS = ("eq8-literal", "calibrated", "nonsense-variant")
T1_FORMS = ("printed", "corrected", "other")


def draw_design(rp, media, rng, i):
    """The seeded design of case i."""
    kind = KINDS[i % len(KINDS)]
    f0 = rng.uniform(*F0_GHZ) * 1e9
    lam0 = media.free_space_wavelength(f0)
    if kind == "negative":
        eps_r, h = 1.0, rng.uniform(0.10, 0.15) * lam0
    else:
        eps_r = 1.0 if i % 16 < 4 else rng.uniform(*EPS_R)
        h = rng.uniform(*H_PER_LAMBDA0) * lam0
    sub = media.SubstrateSpec(eps_r=eps_r, h=h, tan_delta=rng.choice([0.0, 1e-3, 2e-2]))
    design = rp.synth_rect(f0, sub)
    if kind == "random":
        design = replace(design, feed_offset_a=rng.uniform(0.0, 0.5) * design.L)
    elif kind == "singular":
        design = replace(design, L=rng.uniform(2.0, 10.0) * lam0)
        delta_l = rp.analyze_rect(design, f0, "calibrated")[1].delta_L
        design = replace(design, feed_offset_a=lam0 / 2.0 - delta_l)
    elif kind == "negative":
        design = replace(design, feed_offset_a=rng.uniform(0.09, 0.13) * design.L)
    return kind, design


def case_digest(rp, rect_resonator, design) -> tuple[str, list[str]]:
    """The sha256 of one design's results and the sorted error types."""
    f0 = design.f_design
    calls = []
    for variant in VARIANTS:
        for t1_form in T1_FORMS:
            calls += [
                (rp.analyze_rect, (design, f0, variant, t1_form)),
                (rp.analyze_rect, (design, 1.07 * f0, variant, t1_form)),
                (rp.input_resistance_rect, (design, f0, variant, t1_form)),
                (rect_resonator, (design, variant, t1_form)),
            ]
    out, raised = [], set()
    for reader, args in calls:
        try:
            out.extend(float.hex(v) for v in flat_floats(reader(*args)))
        except Exception as exc:  # every error is part of the digest
            raised.add(type(exc).__name__)
            out.append(f"{type(exc).__name__}: {exc}")
    digest = hashlib.sha256(" ".join(out).encode("utf-8")).hexdigest()
    return digest, sorted(raised)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory that holds the mmpatch package")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from mmpatch import media
    from mmpatch import rectpatch as rp
    from mmpatch.response import rect_resonator

    rng = random.Random(SEED)
    for i in range(CASES):
        kind, design = draw_design(rp, media, rng, i)
        digest, raised = case_digest(rp, rect_resonator, design)
        sub = design.substrate
        print(f"case {i:03d} {kind} eps_r={sub.eps_r:.4f} h_mm={sub.h * 1e3:.4f} "
              f"f0_ghz={design.f_design / 1e9:.4f} raised={','.join(raised) or '-'} "
              f"sha256={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
