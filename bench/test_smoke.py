"""Tests of the benchmark itself, at tiny series sizes.

Run from the repository root: python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_its_unit(trace):
    proc = _run(ROOT, "--workload", "all", "--seed", "0", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for entry in spec["per_layer" if trace == "1" else "end_to_end"]:
            assert result["metrics"][f"{workload}/{entry['name']}"]["unit"] == entry["unit"]
            assert f"\n{entry['name']} " in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "sentiment-B", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_summarize_reports_the_percentile_with_ten_samples_beyond():
    assert "p50" not in run.summarize([1.0] * 19)
    stats = run.summarize([float(i) for i in range(1, 41)])
    assert stats["median"] == 20.5 and stats["n"] == 40
    assert stats["p75"] == 30.0  # 10 samples lie above it
