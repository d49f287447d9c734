import json
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT
from perfbench import layers
from perfbench.workloads import WORKLOADS

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, *BENCH["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_what_the_code_reports():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == layers.metric_names()
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in BENCH["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_every_declared_metric(trace, section):
    proc = run_benchmark(ROOT, "--workload", "independent-short", "--seed", "3",
                         "--seconds", "0.1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 200
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_benchmark(tmp_path, "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""
