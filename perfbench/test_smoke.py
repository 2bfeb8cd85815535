"""Smoke test of the benchmark at tiny sizes; it sets no timing bound.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload's run exits 0 and ends with one JSON line
holding every metric BENCHMARK.json names, with its unit, that a traced
run writes its spans, and that the benchmark refuses to run without the absalab sources next to it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _check_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--scale", "0.1")
    result = _result(done)
    _check_metrics(result, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


def test_traced_run_reports_per_layer_metrics():
    done = _run(ROOT, "--workload", "alsa-train", "--seed", "3", "--seconds", "1", "--trace", "1", "--scale", "0.1")
    result = _result(done)
    _check_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["autograd.tape_nodes.ae"]["value"] > 0
    lines = (ROOT / ".perfbench" / "trace-alsa-train-3.jsonl").read_text(encoding="utf-8").splitlines()
    spans = [json.loads(line) for line in lines]
    assert spans and set(spans[0]) == {"pass", "id", "parent", "name", "tag", "start", "end"}
    assert all(s["end"] >= s["start"] for s in spans)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "\"correct\"" not in done.stdout
