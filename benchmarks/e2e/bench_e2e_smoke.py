"""Smoke test of the end-to-end benchmark (opt-in by path, like every
other ``bench_*.py``; about a minute)::

    python -m pytest benchmarks/e2e/bench_e2e_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def run_benchmark(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], capture_output=True, text=True
    )


def test_smoke_run_emits_every_declared_metric(tmp_path):
    proc = run_benchmark("--smoke", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads((tmp_path / "results.json").read_text())
    assert list(results) == [w["name"] for w in SPEC["workloads"]]
    assert len(results) == 5
    for name, result in results.items():
        assert result["end_to_end"]["failed"] == 0, name
        assert set(result["end_to_end"]["metrics"]) == {
            m["name"] for m in SPEC["end_to_end"]
        }
        layers = result["per_layer"]
        assert layers["failed"] == 0, name
        assert set(layers["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        assert layers["metrics"]["trace.coverage"] >= 0.75, name
        assert (tmp_path / f"trace_{name}.jsonl").stat().st_size > 0
    # every metric is printed by name with its unit
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert any(
            line.split()[0] == metric["name"] and line.split()[-1] == metric["unit"]
            for line in proc.stdout.splitlines()
            if line.startswith("  ")
        ), metric["name"]


def test_corrupted_expected_log_is_reported_as_a_failure():
    proc = run_benchmark("--smoke", "--workload", "micro-negotiate", "--corrupt-oracle")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "micro-negotiate: 1 failed of" in proc.stdout
