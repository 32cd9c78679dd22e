"""Smoke check of the benchmark: every workload at a tiny size, untraced and
traced, with one seed.  Asserts that every metric BENCHMARK.json names is
printed with its unit, that no op failed, and that the two runs saw the
same inputs and counted the same work.  No wall-time assertion.

    python -m pytest -q bench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--limit", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    with open(os.path.join(ROOT, ".bench_out", f"{workload}-seed7-trace{trace}.json")) as fh:
        record = json.load(fh)
    return lines, json.loads(lines[-1]), record


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    untraced_lines, untraced, untraced_record = run(workload, 0)
    traced_lines, traced, traced_record = run(workload, 1)
    for lines, result, kind in (
        (untraced_lines, untraced, "end_to_end"),
        (traced_lines, traced, "per_layer"),
    ):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert f"  fail_frac 0 (0 of {result['attempted']} ops)" in lines
        assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
        for m in SPEC[kind]:
            value = result["metrics"][m["name"]]
            assert value["unit"] == m["unit"]
            assert isinstance(value["value"], (int, float))
            assert any(line.split()[::2] == [m["name"], m["unit"]] for line in lines)
    assert untraced_record["input_digest"] == traced_record["input_digest"]
    assert untraced_record["counters"] == traced_record["counters"]
