"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

Run from the repository root::

    python3 -m pytest perfbench -q

Each run must report exactly the metrics ``BENCHMARK.json`` declares, with
their units, and fail no operation.  Outside a full checkout the benchmark
must refuse to run.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [spec["name"] for spec in CONTRACT["workloads"]]


def _run(cwd: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_declared_metrics(workload: str, trace: int) -> None:
    args = ("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    done = _run(ROOT, *args, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [spec["name"] for spec in declared]
    for spec in declared:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path: pathlib.Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
