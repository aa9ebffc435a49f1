"""mmpatch benchmark: seeded, closed-loop workloads against the public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]
                         [--spans-out FILE]

Workloads (inputs in ``inputs.py``, jobs and checks in ``jobs.py``):
circ-design-scan, rect-design-scan and cli-export. Each runs in this one
process with one caller and no threads: a job starts when the previous one
and its output check have finished. The package is imported from ``src/``
next to this directory.

``--trace 0`` measures the end-to-end metrics: a short untimed warm-up,
one pass over the input deck, then repeats of each deck job, interleaved
over the whole phase, until each has had its share of ``--seconds`` of
job time and at least ``MIN_RUNS`` runs (``run_shares``; a job k times
cheaper gets sqrt(k) times as many runs). Between jobs a fixed reference
computation is timed (``Reference``). A deck job's cost is its median
latency, scaled by ``REFERENCE_NOMINAL_S`` over the reference's median
time in the same run: the machine's speed drifts by tens of per cent
over minutes, and the job and the reference drift together.
``job_p50_ms`` and ``job_p90_ms`` are percentiles of these costs over the
deck and ``jobs_per_s`` is the deck size over their sum; the report also
prints the unscaled values. Set-up time is measured, unscaled, in fresh
interpreters (``setup_probe.py``) spread over the run.
Every output is checked between jobs, outside the timed region; a failed
check or an exception counts in ``fail_frac`` and makes the command exit 1.

``--trace 1`` measures the per-layer metrics: the first jobs of the deck run
untraced for about half of ``--seconds``, then once more with every public
function of the package wrapped (``tracing.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report with the environment, the input digest and every metric
with its unit. Without ``src/mmpatch`` next to this directory the command
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_tmp"

MIN_RUNS = 10
WARMUP_JOBS = 3
REFERENCE_SHARE = 0.05    # reference time per second of job time
REFERENCE_MIN_RUNS = 5
REFERENCE_NOMINAL_S = 1.5e-3
SETUP_PROBES = 5
TRACE_JOBS = {"circ-design-scan": 12, "rect-design-scan": 66, "cli-export": 20}
PROBE_TIMEOUT_S = 120


@dataclass
class Phase:
    """Jobs run in one phase: latencies of the jobs that returned, in order
    and by deck index, each deck job's summed job time, and the checks
    that failed, keyed by job ordinal."""

    latencies: list[float] = field(default_factory=list)
    runs: dict[int, list[float]] = field(default_factory=dict)
    spent: dict[int, float] = field(default_factory=dict)
    attempted: int = 0
    failures: dict[int, list[str]] = field(default_factory=dict)
    first_ordinal: dict[int, int] = field(default_factory=dict)
    output_bytes: int = 0
    timed_s: float = 0.0

    @property
    def rate(self) -> float:
        """Completed jobs per second of job time."""
        return len(self.latencies) / self.timed_s if self.latencies else 0.0


def run_one(workload, index: int, job: dict, phase: Phase, tracer=None) -> float | None:
    """Run and check one job; returns its latency, or None when it raised."""
    ordinal = phase.attempted
    phase.attempted += 1
    phase.first_ordinal.setdefault(index, ordinal)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(index, job)
        else:
            with tracer.job(ordinal):
                out = workload.run(index, job)
    except Exception as exc:  # a failed job is counted, the run goes on
        phase.failures[ordinal] = [f"job raised {type(exc).__name__}: {exc}"]
        return None
    latency = time.perf_counter() - t0
    phase.latencies.append(latency)
    phase.timed_s += latency
    phase.runs.setdefault(index, []).append(latency)
    phase.spent[index] = phase.spent.get(index, 0.0) + latency
    phase.output_bytes += out.get("output_bytes", 0)
    try:
        errors = workload.check(index, job, out)
    except Exception as exc:
        errors = [f"check raised {type(exc).__name__}: {exc}"]
    if errors:
        phase.failures[ordinal] = errors
    return latency


def run_jobs(workload, deck: list[dict], phase: Phase, seconds: float = 0.0,
             tracer=None) -> Phase:
    """Whole passes over ``deck``, at least one, until ``seconds`` of job time."""
    while True:
        for index, job in enumerate(deck):
            run_one(workload, index, job, phase, tracer)
        if phase.timed_s >= seconds:
            return phase


def shares(costs: list[float], seconds: float, min_runs: int) -> list[float]:
    """Job time to spend on each job, from its cost: ``q * sqrt(cost)``, so a
    job k times cheaper gets sqrt(k) times as many runs, or ``min_runs``
    runs where that takes longer. ``q`` is chosen so that the shares add up
    to ``seconds`` (or to the minimum, when that alone takes longer)."""
    def total(q: float) -> float:
        return sum(max(min_runs * c, q * math.sqrt(c)) for c in costs)

    lo, hi = 0.0, seconds / math.sqrt(min(costs))
    for _ in range(60):
        q = 0.5 * (lo + hi)
        lo, hi = (lo, q) if total(q) > seconds else (q, hi)
    return [max(min_runs * c, lo * math.sqrt(c)) for c in costs]


def run_shares(workload, deck: list[dict], phase: Phase, seconds: float,
               min_runs: int, after_job=None) -> Phase:
    """One pass over ``deck``, then repeats of each job until it has had its
    share of ``seconds`` (see ``shares``) and ``min_runs`` runs, interleaved
    so that every job's runs spread evenly over the whole phase: the next
    job is always the one whose next run ends earliest as a fraction of its
    share.
    ``after_job(phase)`` runs after each job, outside the job time."""
    run_jobs(workload, deck, phase)
    if after_job is not None:
        after_job(phase)
    ok = sorted(phase.runs)
    if not ok:
        return phase
    budget = shares([phase.spent[i] for i in ok], seconds, min_runs)

    def next_end(index: int, share: float) -> float:
        return phase.spent[index] * (1.0 + 1.0 / len(phase.runs[index])) / share

    def due(index: int, share: float) -> bool:
        return phase.spent[index] < share or len(phase.runs[index]) < min_runs

    queue = [(next_end(i, share), i, share) for i, share in zip(ok, budget) if due(i, share)]
    heapq.heapify(queue)
    while queue:
        _, index, share = heapq.heappop(queue)
        if run_one(workload, index, deck[index], phase) is None:
            continue
        if after_job is not None:
            after_job(phase)
        if due(index, share):
            heapq.heappush(queue, (next_end(index, share), index, share))
    return phase


class Reference:
    """A fixed scalar computation, independent of ``mmpatch``, timed between
    jobs for ``REFERENCE_SHARE`` of the job time.

    The machine's speed drifts by tens of per cent over minutes, and a job's
    median latency drifts with it; so does the median time of this
    reference, measured in the same minutes. Dividing one by the other
    leaves the job's cost in units of the reference. The reference only
    does float arithmetic on locals, so it allocates no objects the
    garbage collector tracks and does not depend on the program's heap."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0

    @staticmethod
    def compute() -> float:
        total = 0.0
        for n in range(1, 1200):
            x, term = 0.37 * (n % 40), 1.0
            for k in range(1, 8):
                term *= -x * x / (4.0 * k * k)
                total += term
        return total

    def keep_up(self, phase: Phase) -> None:
        while (len(self.times) < REFERENCE_MIN_RUNS
               or self.spent < REFERENCE_SHARE * phase.timed_s):
            t0 = time.perf_counter()
            self.compute()
            elapsed = time.perf_counter() - t0
            self.times.append(elapsed)
            self.spent += elapsed

    @property
    def scale(self) -> float:
        """Factor from wall time in this run to time at the nominal speed,
        where the reference's median takes ``REFERENCE_NOMINAL_S``."""
        return REFERENCE_NOMINAL_S / statistics.median(self.times)


def add_final_errors(workload, phase: Phase) -> None:
    for index, errors in workload.final_errors().items():
        ordinal = phase.first_ordinal[index]
        phase.failures.setdefault(ordinal, []).extend(errors)


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def loadavg() -> str:
    return ",".join(f"{x:.2f}" for x in os.getloadavg())


class SetupProbes:
    """Set-up time in fresh interpreters (``setup_probe.py``).

    The machine's speed drifts over seconds, so the probes are spread over
    the timed phase instead of run back to back; the first probe is untimed
    and fills the bytecode and file caches. Each probe must rebuild inputs
    with the digest of the deck this run uses.
    """

    def __init__(self, workload: str, seed: int, digest: str, quick: bool) -> None:
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.extra = ["--quick"] if quick else []
        self.digest = digest
        self.wanted = 1 if quick else SETUP_PROBES
        self.times: list[float] = []
        if not quick:
            self.probe()
            self.times.clear()

    def probe(self) -> None:
        probe_dir = WORK_ROOT / f"probe-{os.getpid()}-{len(self.times)}"
        probe_dir.mkdir(parents=True)
        try:
            proc = subprocess.run(self.argv + [str(probe_dir)] + self.extra, cwd=ROOT,
                                  capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if record["digest"] != self.digest:
            raise RuntimeError(f"set-up probe built inputs {record['digest']}, "
                               f"this run uses {self.digest}")
        self.times.append(record["setup_s"])

    def catch_up(self, fraction: float) -> None:
        """Run probes until their share of the wanted count reaches ``fraction``."""
        while len(self.times) < min(self.wanted, 1 + int(fraction * self.wanted)):
            self.probe()


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def percentile_ms(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return 1e3 * (ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]))


def report(rows: list[tuple[str, float, str, str]]) -> None:
    print(f"{'metric':32s} {'value':>14s}  {'unit':8s} note")
    for name, value, unit, note in rows:
        print(f"{name:32s} {value:14.6g}  {unit:8s} {note}")


def end_to_end(args, workload, deck, digest) -> tuple[dict, int, list]:
    setup = SetupProbes(args.workload, args.seed, digest, args.quick)
    warm = run_jobs(workload, deck[:WARMUP_JOBS], Phase())
    gc.collect()
    ref = Reference()

    def after_job(phase: Phase) -> None:
        ref.keep_up(phase)
        setup.catch_up(phase.timed_s / args.seconds)

    if args.quick:
        timed = run_jobs(workload, deck, Phase())
    else:
        timed = run_shares(workload, deck, Phase(), args.seconds, MIN_RUNS, after_job=after_job)
    ref.keep_up(timed)
    setup.catch_up(1.0)
    rss = peak_rss_mb()
    add_final_errors(workload, timed)
    attempted = warm.attempted + timed.attempted
    failures = list(warm.failures.values()) + list(timed.failures.values())
    lat = timed.latencies
    raw = [statistics.median(runs) for runs in timed.runs.values()]
    cost = [ref.scale * t for t in raw]
    counts = sorted(len(runs) for runs in timed.runs.values()) or [0]
    print(f"reference median {1e3 * statistics.median(ref.times):.4f} ms over "
          f"{len(ref.times)} runs; scale to nominal speed {ref.scale:.4f}; "
          f"{len(lat)} timed jobs, {counts[0]} to {counts[-1]} runs per deck job")
    rows = [
        ("setup_s", statistics.median(setup.times), "s", "median of %d fresh interpreters: %s"
         % (len(setup.times), " ".join(f"{t:.4f}" for t in setup.times))),
        ("jobs_per_s", len(cost) / sum(cost) if cost else 0.0, "jobs/s",
         f"{len(cost)} deck jobs / the sum of their scaled median latencies; "
         f"unscaled {len(raw) / sum(raw) if raw else 0.0:.4g}"),
        ("job_p50_ms", percentile_ms(cost, 0.5) if cost else 0.0, "ms",
         f"median over {len(cost)} deck jobs of each job's scaled median latency; "
         f"unscaled {percentile_ms(raw, 0.5) if raw else 0.0:.4g}"),
        ("job_p90_ms", percentile_ms(cost, 0.9) if cost else 0.0, "ms",
         f"90th percentile of the same; unscaled {percentile_ms(raw, 0.9) if raw else 0.0:.4g}"),
        ("fail_frac", len(failures) / attempted, "ratio",
         f"{len(failures)} failed of {attempted} attempted"),
        ("ok_frac", 1.0 - len(failures) / attempted, "ratio", "1 - fail_frac"),
        ("peak_rss_mb", rss, "MB", "peak resident set of this process"),
    ]
    report(rows)
    # fail_frac is 0 on a correct run; the result carries it as ok_frac and
    # as the failed/attempted counts.
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows
               if name != "fail_frac"}
    return metrics, attempted, failures


def per_layer(args, workload, deck) -> tuple[dict, int, list]:
    from tracing import Tracer, layer_metrics

    trace_deck = deck if args.quick else deck[:TRACE_JOBS[args.workload]]
    plain = run_jobs(workload, trace_deck, Phase(), seconds=0.0 if args.quick else args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_jobs(workload, trace_deck, Phase(), tracer=tracer)
    finally:
        tracer.restore()
    add_final_errors(workload, traced)
    if args.spans_out:
        tracer.write_spans(args.spans_out)

    metrics = layer_metrics(tracer, len(trace_deck))
    metrics["cli.output_bytes"] = (traced.output_bytes / len(trace_deck), "bytes")
    plain_rate, traced_rate = plain.rate, traced.rate
    metrics["trace.overhead_frac"] = (1.0 - traced_rate / plain_rate if plain_rate else 0.0,
                                      "ratio")
    report([(name, value, unit, "") for name, (value, unit) in metrics.items()])
    print(f"traced {len(trace_deck)} jobs, {len(tracer.table())} spans; "
          f"untraced {plain_rate:.4g} jobs/s, traced {traced_rate:.4g} jobs/s")
    attempted = plain.attempted + traced.attempted
    failures = list(plain.failures.values()) + list(traced.failures.values())
    return ({name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            attempted, failures)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("circ-design-scan", "rect-design-scan", "cli-export"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a few jobs, one pass, one set-up probe (for the tests)")
    parser.add_argument("--spans-out", help="with --trace 1, write every span to this CSV file")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "mmpatch" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'mmpatch'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import mmpatch

    if Path(mmpatch.__file__).resolve().parent != SRC / "mmpatch":
        print(f"bench: imported mmpatch from {mmpatch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import inputs
    import jobs

    env = environment()
    print(f"env python={env['python']} numpy={numpy.__version__} nproc={env['nproc']} "
          f"cpu={env['cpu']!r} loadavg_before={loadavg()}")
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        deck = inputs.build(args.workload, args.seed, args.quick)
        digest = inputs.digest(deck)
        print(f"workload {args.workload} seed={args.seed} inputs sha256:{digest} "
              f"deck={len(deck)} why: {inputs.WORKLOAD_WHY[args.workload]}")
        workload = jobs.WORKLOADS[args.workload]()
        workload.prepare(deck, str(workdir))
        if args.trace:
            metrics, attempted, failures = per_layer(args, workload, deck)
        else:
            metrics, attempted, failures = end_to_end(args, workload, deck, digest)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(f"loadavg_after={loadavg()}")
    for errors in failures[:10]:
        print(f"FAILED: {'; '.join(errors)}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
