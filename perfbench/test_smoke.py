"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

Checks that each run prints every metric named in BENCHMARK.json with its
unit, that every correctness gate passes, and that the trace output holds
the conv table and the SLR records.  It says nothing about speed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0",
         "--seed", str(SEED), "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    return proc, out


def _record(out: Path, workload: str, trace: int) -> dict:
    return json.loads((out / f"{workload}-seed{SEED}-trace{trace}.json").read_text())


def test_one_command_runs_every_workload_untraced_and_traced(smoke_run):
    proc, _ = smoke_run
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        printed = [line.split() for line in lines if line.split()[:1] == [metric["name"]]]
        assert len(printed) == len(WORKLOADS), metric["name"]
        assert all(fields[-1] == metric["unit"] for fields in printed), metric["name"]
    for workload in WORKLOADS:
        assert f"# {workload}: tracing overhead" in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_names_every_metric_and_every_gate_passes(smoke_run, workload, trace):
    record = _record(smoke_run[1], workload, trace)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > record["checks_attempted"] > 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    probes = record["host_speed"]["probes_ms"]
    assert len(probes) > 2 and all(p > 0 for p in probes)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert set(record["raw"]["metrics"]) == set(result["metrics"])


@pytest.mark.parametrize("workload", ["nin-b1", "resnet18-b32-pruned50"])
def test_trace_sets_conv_time_beside_predicted_cycles(smoke_run, workload):
    record = _record(smoke_run[1], workload, 1)
    binary = [row for row in record["conv_table"] if row["kind"] == "binary_ops.conv"]
    assert binary and all(row["ms"] > 0 and row["predicted_cycles"] > 0 for row in binary)
    metrics = record["result"]["metrics"]
    assert metrics["binary_ops.conv_calls"]["value"] == len(binary)
    expected_ratio = 0.5 if "pruned50" in workload else 1.0
    assert metrics["binary_ops.useful_row_ratio"]["value"] == pytest.approx(expected_ratio, abs=0.02)
    spans = (smoke_run[1] / f"{workload}-seed{SEED}-trace1.spans.jsonl").read_text().splitlines()
    assert {"name", "start", "end", "parent", "request"} <= set(json.loads(spans[0]))


def test_trace_holds_slr_records_with_wall_time(smoke_run):
    records = _record(smoke_run[1], "toy-train-slr", 1)["slr_records"]
    assert records
    for rec in records:
        assert {"k", "loss", "violation", "stepsize", "feasible",
                "fired1", "fired2", "wall_s"} <= set(rec)
        assert rec["wall_s"] > 0


def test_fails_without_the_engine_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
