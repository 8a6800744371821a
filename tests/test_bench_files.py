"""Every committed BENCH_*.json holds parent and change medians for each workload it covers.

A BENCH file records one change's before/after benchmark runs.
The workload and metric names are the ones BENCHMARK.json declares, so a file
that misspells one or drops a side cannot back a claim. A file that claims a
gain also says how it was measured: enough pairs on the claimed workload, and
the directories each side ran from; and its change median beats its parent
median on the claimed workload and metric, in the direction BENCHMARK.json
gives that metric.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
CLAIMING = [p for p in BENCH_FILES if json.loads(p.read_text(encoding="utf-8")).get("claim") is not None]
# Fewer alternating parent/change pairs than this cannot show that a gain repeats.
MIN_CLAIM_PAIRS = 5


def test_some_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_parent_and_change_medians(path):
    workloads = json.loads(path.read_text(encoding="utf-8"))["workloads"]
    assert workloads, f"{path.name} covers no workload"
    assert set(workloads) <= WORKLOADS, f"{path.name}: unknown workloads {sorted(set(workloads) - WORKLOADS)}"
    for name, entry in workloads.items():
        for side in ("parent", "change"):
            for metric in METRICS:
                where = f"{path.name} {name} {side} {metric}"
                stats = entry[side].get(metric)
                assert isinstance(stats, dict), f"{where}: missing"
                values = [stats.get(k) for k in ("q1", "median", "q3")]
                assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values), f"{where}: {values}"
                assert values == sorted(values), f"{where}: quartiles out of order {values}"


@pytest.mark.parametrize("path", CLAIMING, ids=lambda p: p.name)
def test_a_claim_shows_how_it_was_measured(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    claim = bench["claim"]
    assert claim.get("workload") in WORKLOADS, f"{path.name}: claim names no known workload: {claim}"
    assert claim.get("metric") in METRICS, f"{path.name}: claim names no end-to-end metric: {claim}"
    pairs = bench["workloads"].get(claim["workload"], {}).get("pairs")
    assert isinstance(pairs, int) and pairs >= MIN_CLAIM_PAIRS, f"{path.name}: {pairs} pairs on {claim['workload']}"
    directories = bench.get("directories")
    assert isinstance(directories, list) and directories and all(
        isinstance(d, str) and d for d in directories
    ), f"{path.name}: directories {directories!r}"


@pytest.mark.parametrize("path", CLAIMING, ids=lambda p: p.name)
def test_a_claim_beats_its_parent(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    workload, metric = bench["claim"]["workload"], bench["claim"]["metric"]
    entry = bench["workloads"][workload]
    parent, change = entry["parent"][metric]["median"], entry["change"][metric]["median"]
    better = BETTER[metric]
    assert better in ("higher", "lower"), f"BENCHMARK.json: {metric} is better {better!r}"
    assert (change > parent) if better == "higher" else (change < parent), (
        f"{path.name}: {workload} {metric} median {change} does not beat the parent's {parent} ({better} is better)"
    )
