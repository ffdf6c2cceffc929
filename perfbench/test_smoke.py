"""Smoke test of the benchmark at tiny sizes (about a minute in all).

Run from the root of the repository:

    python3 -m pytest perfbench/test_smoke.py

It checks that BENCHMARK.json lists exactly the metrics run.py prints, that
each workload prints every metric with its unit, and that in a traced run the
per-layer self times add up to the traced wall time, with the difference no
larger than the tracing overhead the run reports.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    return lines[:-1], result["metrics"]


def _printed(lines, name, unit):
    return any(ln.startswith(f"{name} ") and ln.endswith(f" {unit}") for ln in lines)


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_end_to_end_metrics_are_printed_with_units(workload):
    lines, metrics = _run(workload, 0)
    assert {k: v["unit"] for k, v in metrics.items()} == dict(bench.END_TO_END)
    assert all(v["value"] > 0 for v in metrics.values())
    for name, unit in bench.END_TO_END:
        assert _printed(lines, name, unit)
    assert _printed(lines, "fail_ratio", "ratio")
    machine = json.loads(next(ln for ln in lines if ln.startswith("# machine "))[10:])
    assert {"nproc", "python", "numpy", "scipy", "blas"} <= set(machine)
    assert machine["blas_threads"] == "1"
    assert any(ln.startswith("# sha256 all ") for ln in lines)


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_traced_self_times_add_up_to_traced_wall_time(workload):
    lines, metrics = _run(workload, 1)
    assert {k: v["unit"] for k, v in metrics.items()} == dict(bench.PER_LAYER)
    for name, unit in bench.PER_LAYER:
        assert _printed(lines, name, unit)
    values = {k: v["value"] for k, v in metrics.items()}
    self_sum = sum(values[f"{layer}.self_s"] for layer in bench.LAYERS)
    gap = values["trace.wall_s"] - self_sum
    assert 0.0 <= gap <= abs(values["trace.overhead_s"])
    assert sum(values[f"{layer}.errors"] for layer in bench.LAYERS) == 0
