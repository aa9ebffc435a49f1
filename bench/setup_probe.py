"""Set-up probe, run by ``run.py`` in a fresh interpreter.

Times ``import mmpatch`` plus building one workload's inputs (and, for
cli-export, writing its config files), and prints one JSON line:
``{"setup_s": <seconds>, "digest": <input digest>}``.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR [--quick]
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402  (standard library only; not part of the timed set-up)


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), argv[2]
    quick = "--quick" in argv[3:]
    t0 = time.perf_counter()
    import mmpatch  # noqa: F401

    deck = inputs.build(workload, seed, quick)
    if workload == "cli-export":
        inputs.write_configs(deck, workdir)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "digest": inputs.digest(deck)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
