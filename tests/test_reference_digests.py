"""Benchmark outputs against their committed SHA-256 reference digests.

The benchmark's smoke runs use a series size with no reference digest, so
this test regenerates series 0 of seeds 0 and 1 of every benchmark workload
at its real size, runs ``train`` then ``backtest`` as a benchmark worker
does, and compares the four output files with ``bench/reference_digests.json``.
The benchmark files are only read.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from sentrade.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    return module


bench_run = _load_bench_run()
REFERENCE = json.loads((BENCH / "reference_digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", list(bench_run.WORKLOADS))
def test_outputs_match_reference_digests(tmp_path, capsys, name, seed):
    workload = bench_run.WORKLOADS[name]
    (tmp_path / "sessions.csv").write_text(
        bench_run.sessions_csv(workload, workload.n, seed), encoding="utf-8"
    )
    (tmp_path / "run.cfg").write_text(
        "".join(f"{k} = {v}\n" for k, v in workload.config.items()), encoding="utf-8"
    )
    prefix = str(tmp_path / "run_")
    common = ["--sessions", str(tmp_path / "sessions.csv"), "--config", str(tmp_path / "run.cfg"),
              "--threads", "1", "--out", prefix]
    assert main(["train", *common]) == 0
    assert main(["backtest", *common, "--params", prefix + "params.txt"]) == 0
    capsys.readouterr()
    digests = {
        file: hashlib.sha256((tmp_path / f"run_{file}").read_bytes()).hexdigest()
        for file in bench_run.OUTPUT_FILES
    }
    assert digests == REFERENCE[f"{name}/n{workload.n}/seed{seed}"]
