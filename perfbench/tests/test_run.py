"""The benchmark command: its result line, and its refusal to run without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, tracing, workloads

ROOT = Path(run.__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 19) is None
    value, percentile, beyond = run.tail([float(i) for i in range(40)])
    assert (value, percentile, beyond) == (29.0, 75.0, 10)
    assert sum(t > value for t in range(40)) == 10


def test_workload_names_agree():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_per_layer_metrics_are_reported_by_the_trace():
    reported = set(tracing.metric_names()) | {"trace.overhead_ratio", "run.parallel_speedup"}
    assert {m["name"] for m in SPEC["per_layer"]} <= reported
    assert all(m["unit"] == run.unit_of(m["name"]) for m in SPEC["per_layer"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-pipeline",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line(trace, section):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-pipeline",
                           "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC[section]]
