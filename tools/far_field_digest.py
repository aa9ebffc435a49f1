"""Print two sha256 per seeded circular design over its far-field numbers,
for bit-level parity checks of the Bessel kernels and the far-field code.

    python tools/far_field_digest.py [--src DIR] > digests.txt

Each of the 200 designs draws a laminate and a design frequency f0 from
a fixed seed. Its disk has the closed-form radius that resonates at f0
without fringing, so the digest calls no root finder and a change to the
root search moves none of its lines; the design itself keeps fringing.
Its line carries two hashes, each over the ``float.hex`` of the numbers
below, in order.
``fields=`` hashes the fields and the budget:

* the E and H cuts of ``pattern_cuts`` at f0 with 1, 0.5, 0.1, 0.7 and
  13 degree steps (the last two stop short of 90 degrees), each cut's
  (theta, dB) rows in order;
* a 46 x 73 (theta, phi) ``far_fields`` grid at 1.1 f0 with E0 = 2.5;
* ``radiated_power_from_pattern`` at f0;
* every field of ``loss_report`` at f0 except D and G.

``directivity=`` hashes the directivity rule (the power series of the
pattern integral up to k0 a_eff = 1.6, Gauss-Legendre above):

* ``directivity`` at 0.8 f0, f0 and 1.25 f0;
* D and G of that ``loss_report``.

The budget takes R_r and P_r from the same pattern integral as D, so a
change to the directivity rule moves both hashes.

Two trees compute bit-identical far fields when the outputs of this
script are identical:

    python tools/far_field_digest.py --src OLD/src > old.txt
    python tools/far_field_digest.py > new.txt
    diff old.txt new.txt

``--src`` selects the package tree to import (default: ``src`` next to
this directory).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import random
import sys
from pathlib import Path

import numpy as np

SEED = 39
DESIGNS = 200
EPS_R = (2.2, 10.2)
H_MM = (0.127, 0.8)
F0_GHZ = (20.0, 60.0)
CUT_STEPS_DEG = (1.0, 0.5, 0.1, 0.7, 13.0)


def flat_floats(value):
    """The floats of a number, array, dataclass or nested sequence, in order."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from flat_floats(getattr(value, field.name))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from flat_floats(item)
    elif hasattr(value, "tolist") and not isinstance(value, float):
        yield from flat_floats(value.tolist())
    else:
        yield float(value)


def sha256_of_floats(values) -> str:
    text = " ".join(float.hex(v) for v in flat_floats(values))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def design_digests(cp, design) -> tuple[str, str]:
    """The ``fields`` and ``directivity`` hashes of one design."""
    f0 = design.f_design
    theta = np.linspace(0.0, math.pi / 2, 46)
    phi = np.linspace(0.0, 2.0 * math.pi, 73)
    report = cp.loss_report(design, f0)
    fields = [
        # a cut's rows in order, whatever container holds them
        [[list(cut) for cut in cp.pattern_cuts(design, f0, math.radians(step))]
         for step in CUT_STEPS_DEG],
        cp.far_fields(design, 1.1 * f0, 2.5, theta[:, None], phi[None, :]),
        cp.radiated_power_from_pattern(design, f0),
        [getattr(report, field.name) for field in dataclasses.fields(report)
         if field.name not in ("D", "G")],
    ]
    directivity = [
        [cp.directivity(design, ratio * f0) for ratio in (0.8, 1.0, 1.25)],
        report.D,
        report.G,
    ]
    return sha256_of_floats(fields), sha256_of_floats(directivity)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory that holds the mmpatch package")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from mmpatch import circpatch as cp
    from mmpatch.media import SubstrateSpec

    rng = random.Random(SEED)
    for i in range(DESIGNS):
        sub = SubstrateSpec(eps_r=rng.uniform(*EPS_R), h=rng.uniform(*H_MM) * 1e-3)
        f0 = rng.uniform(*F0_GHZ) * 1e9
        design = cp.circ_design_from_radius(
            cp.resonant_radius(f0, sub, fringing=False), sub, f0)
        fields, directivity = design_digests(cp, design)
        print(f"design {i:03d} eps_r={sub.eps_r:.4f} h_mm={sub.h * 1e3:.4f} "
              f"f0_ghz={f0 / 1e9:.4f} fields={fields} directivity={directivity}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
