"""Smoke test of the benchmark itself at tiny scale.

    python -m pytest perfbench/test_smoke.py -q

Runs every workload at smoke scale (2 agents x 20 frames, a 10-frame clip)
in both modes and checks that each end-to-end metric is printed with its
unit, that the traced run reports every per-layer metric and shows work in
each layer on the workloads that exercise it, and that the benchmark
exits nonzero without printing a result when the program is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import traced
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = workloads.spec()


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _metric_lines(stdout: str) -> dict[str, str]:
    """name -> unit of every `metric <name> <value> <unit>` line."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            float(value)
            out[name] = unit
    return out


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    return result


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_printed_with_units(name):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny")
    result = _result(proc)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    kinds = {cmd.kind for cmd in workloads.commands(workloads.WORKLOADS[name], Path("w"), 3, True)}
    expected.update({f"{kind}_s": "s" for kind in kinds}, error_rate="ratio")
    printed = _metric_lines(proc.stdout)
    assert {k: printed.get(k) for k in expected} == expected


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer(name):
    result = _result(_bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny"))
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    idle = [metric for metric, on in traced.LAYER_ON.items() if name in on and metrics[metric]["value"] <= 0]
    assert not idle, f"layers that showed no work on {name}: {idle}"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "medium", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
