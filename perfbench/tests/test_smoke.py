"""Tiny runs of every workload: each named metric is printed with its unit."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.common import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, seconds="1"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", seconds, "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == ["cold_solve", "budget_sweep", "serve_mix"]


@pytest.mark.parametrize("workload", ["cold_solve", "budget_sweep", "serve_mix"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace, seconds="3" if workload == "serve_mix" else "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], [line for line in lines if "CHECK FAILED" in line]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(wanted)
    for name, unit in wanted.items():
        assert result["metrics"][name]["unit"] == unit
        shown = [line for line in lines if line.split()[:1] == [name]]
        assert len(shown) == 1 and shown[0].split()[2] == unit, name
    assert any(line.startswith("digest ") for line in lines)
    assert any(line.startswith("provenance ") for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "cold_solve", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
