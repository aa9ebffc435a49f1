"""Tests of the benchmark itself (not collected by the package's test run).

    python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
REFERENCE_JOB = {"eps_r": 2.32, "h_mm": 0.8, "f_ghz": 39.0}


def quick_run(workload: str, trace: int, seed: int = 3) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_every_metric_with_its_unit(workload, trace):
    proc, result = quick_run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    table = {line.split()[0]: line.split()[2] for line in proc.stdout.splitlines()
             if len(line.split()) >= 3 and line.split()[0] in result["metrics"]}
    assert table == {m["name"]: m["unit"] for m in declared}
    if trace and workload == "rect-design-scan":
        assert result["metrics"]["specfun.bessel_j.calls"]["value"] == 0
        assert result["metrics"]["circpatch.calls"]["value"] == 0


def test_traced_counts_repeat_for_the_same_seed():
    counts = []
    for _ in range(2):
        _, result = quick_run("cli-export", 1, seed=11)
        counts.append({name: m["value"] for name, m in result["metrics"].items()
                       if m["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_seeded_and_inside_the_envelope(workload):
    deck = inputs.build(workload, 5)
    assert inputs.digest(deck) == inputs.digest(inputs.build(workload, 5))
    assert inputs.digest(deck) != inputs.digest(inputs.build(workload, 6))
    for job in deck:
        if workload == "cli-export":
            values = dict(line.split(" = ") for line in job["config"].splitlines())
            points = [(float(values["substrate.eps_r"]), float(values["substrate.h_mm"]),
                       float(values["f_ghz"]), values["geometry"] == "circ")]
        elif workload == "rect-design-scan":
            points = [(job["eps_r"], job["h_mm"], d["f_ghz"], False) for d in job["designs"]]
        else:
            points = [(job["eps_r"], job["h_mm"], job["f_ghz"], True)]
        for eps_r, h_mm, f_ghz, circular in points:
            assert inputs.F_MIN_GHZ <= f_ghz <= inputs.F_MAX_GHZ
            assert inputs.in_envelope(eps_r, h_mm, f_ghz, circular)


def test_cli_mix_has_fixed_counts():
    deck = inputs.build("cli-export", 2)
    kinds = [(j["command"], j["format"]) for j in deck]
    assert kinds.count(("sweep", "json")) == kinds.count(("sweep", "csv")) == 4
    assert sorted(j["sweep.points"] for j in deck if j["command"] == "sweep") == sorted(
        2 * inputs.SWEEP_POINTS_CLASSES)
    assert sum(c == "pattern" for c, _ in kinds) == 6
    assert sum(c in ("design", "analyze") for c, _ in kinds) == 6


def test_shares_fill_the_run_and_keep_the_minimum_runs():
    costs = [0.001, 0.015, 0.25]
    budget = run.shares(costs, 10.0, 10)
    assert sum(budget) == pytest.approx(10.0, rel=1e-9)
    assert all(share >= 10 * c for share, c in zip(budget, costs))
    runs = [share / c for share, c in zip(budget, costs)]
    assert runs[0] > runs[1] > runs[2] > 10
    assert runs[0] / runs[1] == pytest.approx(math.sqrt(15), rel=1e-9)
    assert run.shares(costs, 1.0, 10) == pytest.approx([10 * c for c in costs])


def test_reference_circular_job_counts_and_self_times():
    workload = jobs.CircDesignScan()
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.job(0):
            out = workload.run(0, REFERENCE_JOB)
    finally:
        tracer.restore()
    metrics = {name: value for name, (value, _) in layer_metrics(tracer, 1).items()}
    assert metrics["specfun.bessel_j.calls"] == 24780
    assert metrics["circpatch.stored_energy.calls"] == 10
    assert metrics["specfun.root.f_evals"] == 78
    assert metrics["response.sweep.points"] == 401
    own = sum(metrics[f"{layer}.self_ms"] for layer in
              ("specfun", "media", "rectpatch", "circpatch", "response", "cli"))
    assert own + metrics["bench.self_ms"] == pytest.approx(metrics["trace.job_ms"], rel=1e-9)
    assert workload.check(0, REFERENCE_JOB, out) == []


def test_tracer_restores_the_package_and_reports_missing_functions_as_zero():
    from mmpatch import circpatch, specfun

    original = circpatch.bessel_j
    tracer = Tracer()
    tracer.install()
    assert circpatch.bessel_j is not original
    tracer.restore()
    assert circpatch.bessel_j is original is specfun.bessel_j
    tracer.names.append("circpatch.gone")
    metrics = layer_metrics(tracer, 1)
    assert metrics["circpatch.stored_energy.calls"] == (0.0, "count")
    assert metrics["cli.main.ms"] == (0.0, "ms")


def test_corrupted_r_total_fails_the_check():
    workload = jobs.CircDesignScan()
    out = workload.run(0, REFERENCE_JOB)
    rep = out["report"]
    bad = dataclasses.replace(rep.breakdown, R_total=rep.breakdown.R_total * (1 + 1e-9))
    out["report"] = dataclasses.replace(rep, breakdown=bad)
    assert any("R_total" in e for e in workload.check(0, REFERENCE_JOB, out))


def test_scipy_reference_agrees_with_the_reference_job():
    workload = jobs.CircDesignScan()
    workload.check(0, REFERENCE_JOB, workload.run(0, REFERENCE_JOB))
    assert workload.final_errors() == {}
    job, a_eff, w_t, d = workload.samples[0]
    workload.samples[0] = (job, a_eff, w_t * (1 + 1e-5), d)
    assert "W_T" in workload.final_errors()[0][0]


@pytest.fixture
def cli_sweep_csv(tmp_path):
    deck = [j for j in inputs.build("cli-export", 4, quick=True)
            if j["command"] == "sweep" and j["format"] == "csv"][:1]
    workload = jobs.CliExport()
    workload.prepare(deck, str(tmp_path))
    return workload, deck[0]


def test_cli_sweep_csv_missing_a_row_fails_the_check(cli_sweep_csv):
    workload, job = cli_sweep_csv
    out = workload.run(0, job)
    path = Path(workload.out_path(0, job))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert any("rows" in e for e in workload.check(0, job, out))


def test_cli_output_that_changes_between_runs_fails_the_check(cli_sweep_csv):
    workload, job = cli_sweep_csv
    out = workload.run(0, job)
    assert workload.check(0, job, out) == []
    path = Path(workload.out_path(0, job))
    path.write_text(path.read_text().replace("e", "E", 1))
    assert workload.check(0, job, out) == ["output differs from the first run of this job"]


class CorruptRect(jobs.RectDesignScan):
    def run(self, index, job):
        out = super().run(index, job)
        breakdown, r_in, model, resp, res = out["results"][0]
        resp.vswr[3] = math.nan
        return out


def test_corrupted_jobs_count_as_failures_and_fail_the_command(monkeypatch, capsys):
    deck = inputs.build("rect-design-scan", 1, quick=True)
    phase = run.run_jobs(CorruptRect(), deck, run.Phase())
    assert phase.attempted == len(deck) and len(phase.failures) == len(deck)

    monkeypatch.setitem(jobs.WORKLOADS, "rect-design-scan", CorruptRect)
    code = run.main(["--workload", "rect-design-scan", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--quick"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_without_package_source_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spans_out_writes_every_span_with_its_parent(tmp_path):
    spans = tmp_path / "spans.csv"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli-export", "--seed", "2",
         "--seconds", "1", "--trace", "1", "--quick", "--spans-out", str(spans)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = spans.read_text().splitlines()
    assert lines[0] == "span_id,parent_id,job_id,name,start_ns,end_ns,raised"
    rows = [line.split(",") for line in lines[1:]]
    ids = {row[0] for row in rows}
    roots = [row for row in rows if row[3] == "bench.job"]
    assert len(roots) == len(inputs.build("cli-export", 2, quick=True))
    assert all(row[1] in ids for row in rows if row[1] != "-1")
    assert {row[3] for row in rows} >= {"cli.main", "response.FrequencyResponse.to_json_dict"}
