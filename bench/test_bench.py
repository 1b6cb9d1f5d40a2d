"""Smoke test of the benchmark at toy size, so the harness cannot rot.

    python3 -m pytest bench/test_bench.py

Every workload runs traced and untraced and must report every metric that
BENCHMARK.json names, with its unit. `--workload all` must print the named
metrics of each workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAMED = {
    "setup_s": "s", "load_rows_per_s": "1/s", "peak_rss_mb": "MB", "error_rate": "ratio",
}
NAMED_BY_WORKLOAD = {
    "clone": {**NAMED, "bc_samples_per_s": "1/s"},
    "imitate": {**NAMED, "interactions_per_s": "1/s"},
    "analyze": {**NAMED, "generated_sessions_per_s": "1/s", "scored_steps_per_s": "1/s",
                "evaluated_sessions_per_s": "1/s", "measure_session_ms.p50": "ms",
                "measure_session_ms.p90": "ms"},
}


def run(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


def toy(workload: str, trace: int):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0",
               "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_reports_every_metric(workload, trace):
    record, result = toy(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(record["digest"]) == 64
    for key in ("git_sha", "python", "numpy", "blas", "nproc", "threads", "seed",
                "inputs", "why"):
        assert key in record


def test_all_prints_every_named_metric():
    proc = run("--workload", "all", "--seed", "4", "--seconds", "0", "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    expected = {f"{w}.{name}": unit for w, names in NAMED_BY_WORKLOAD.items()
                for name, unit in names.items()}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "clone", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
