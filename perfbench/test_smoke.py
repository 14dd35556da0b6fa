"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python -m pytest perfbench/test_smoke.py

One short untraced and one short traced run per workload: every
declared metric is printed with its unit, outputs check correct, and the
traced layer self times plus ``unattributed_s`` add up to the traced
wall of an operation, with at most a fifth of it unattributed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from common import HERE, ROOT
from layers import END_TO_END, PER_LAYER, SPAN_LAYERS, WORKLOADS


def _run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(workload: str, trace: int) -> tuple[dict, dict]:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    info = json.loads(lines[-2][len("perfbench: "):])
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
    return info, result


def test_benchmark_json_declares_the_catalogue():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_metrics(workload):
    info, plain = _result(workload, 0)
    assert set(info["host"]) == {"nproc", "cpu", "python", "numpy",
                                 "networkx"}
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    info, traced = _result(workload, 1)
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == PER_LAYER
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    layers = sum(m[f"{layer}_s"] for layer, _targets in SPAN_LAYERS)
    wall = m["trace.wall_s"]
    assert layers + m["unattributed_s"] == pytest.approx(wall)
    assert -1e-6 * wall <= m["unattributed_s"] <= 0.2 * wall
    events = json.loads((ROOT / info["trace_file"]).read_text())
    assert {e["ph"] for e in events["traceEvents"]} == {"M", "X"}


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
