"""Run the benchmark over several seeds and summarize each end-to-end metric.

    python3 bench/record.py [--seeds 1-10] [--workloads a,b] [--seconds S]
                            [--label TEXT] [--trajectory bench/trajectory.json]

Runs ``run.py --trace 0`` once per workload and seed, one run at a time,
and prints for every metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median. With ``--label``
the summary, every raw value and each run's environment, input digest and
load-average lines are appended to the trajectory file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--label")
    parser.add_argument("--trajectory", default=str(HERE / "trajectory.json"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary: dict[str, dict] = {}
    run_log: list[dict] = []
    status = 0
    for workload in args.workloads.split(","):
        runs: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            cmd = BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(args.seconds), "--trace", "0"]
            started = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            wall_s = time.perf_counter() - started
            lines = proc.stdout.strip().splitlines()
            run_log.append({"workload": workload, "seed": seed, "exit": proc.returncode,
                            "wall_s": round(wall_s, 2),
                            "report": [line for line in lines[:-1]
                                       if line.startswith(("env ", "workload ", "loadavg_after="))]})
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                runs.setdefault(name, []).append(metric["value"])
        summary[workload] = {name: summarize(values) for name, values in runs.items()}
        for name, s in summary[workload].items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{workload:18s} {name:12s} median {s['median']:12.6g}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:.4f}"
                  f"  (bound {bounds[name]}){flag}", flush=True)
    if args.label:
        path = Path(args.trajectory)
        points = json.loads(path.read_text()) if path.exists() else []
        points.append({
            "label": args.label,
            "date": datetime.date.today().isoformat(),
            "seeds": args.seeds,
            "seconds": args.seconds,
            "workloads": summary,
            "runs": run_log,
        })
        path.write_text(json.dumps(points, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
