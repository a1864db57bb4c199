"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    out = tmp_path / "result.json"
    run = bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                "--trace", str(trace), "--tiny", "--out", str(out))
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1 and 0 <= last["failed"] <= last["attempted"]
    assert last["correct"] == (last["failed"] == 0)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float) for v in last["metrics"].values())

    compare = bench("--compare", str(out), str(out))
    assert compare.returncode == 0, compare.stderr
    assert "1.000" in compare.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = bench("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert run.returncode != 0
    assert '"metrics"' not in run.stdout
