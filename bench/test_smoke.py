"""Smoke check of the benchmark harness itself, at tiny input sizes.

    python3 -m pytest bench/test_smoke.py -q

Every workload runs untraced and traced; each must print every metric of
BENCHMARK.json with its unit and pass its output checks. A deliberately
corrupted output must be counted as a failed operation, and the benchmark
must refuse to run without the package sources next to it.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402


def _bench(*args: str, cwd: str = ROOT, script: str = os.path.join(BENCH, "run.py")) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, script, *args], capture_output=True, text=True, timeout=170, cwd=cwd)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines[:-1]), name
    assert any(line.split()[:1] == ["failed_frac"] for line in lines[:-1])


def _corrupt(workload: str, op: dict) -> None:
    if workload == "proposal-pipeline":
        op["output"]["dump"]["keep"].reverse()
    else:
        op["output"] = op["output"].replace("0", "1", 1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_a_corrupted_output_counts_as_failed(workload):
    job, result, context, _ = run.execute(workload, 11, 0.3, 0, "tiny")
    failed, problems = run.score_ops(job, result["ops"], context)
    assert not any(failed) and not problems

    ops = copy.deepcopy(result["ops"])
    _corrupt(workload, ops[2])
    failed, problems = run.score_ops(job, ops, context)
    assert failed == [k == 2 for k in range(len(ops))]
    assert problems


def test_refuses_to_run_without_the_package_sources():
    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _bench("--workload", "eval-dense", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare, script=os.path.join(bare, "bench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
