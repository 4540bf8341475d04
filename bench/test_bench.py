"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py

Runs each workload for a single batch, untraced and traced, and checks the
result line against BENCHMARK.json; checks that a corrupted expected answer
is counted as a failure; and checks that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from corpus import WORKLOADS

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_emits_every_metric_without_failures(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_contract_lists_the_metrics_the_code_emits():
    assert [m["name"] for m in CONTRACT["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in CONTRACT["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)


def test_corrupted_expected_answer_counts_as_failure():
    stored = json.loads(run.EXPECTED.read_text())
    stored["decompose boundary-4 p1"]["status"] = "corrupted"
    result = run.run("structure", 7, 0, False, stored=stored)
    assert not result["correct"]
    assert result["failed"] == 1  # the one background decompose of one batch


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "structure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
