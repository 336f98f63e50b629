"""Every BENCH_<commit>.json at the repository root is a whole benchmark
record of one commit.

A BENCH file holds runs of `python3 benchmarks/run.py --workload W --seed S
--seconds 20 --trace 0` on one commit: per run its workload, seed,
environment line, verdict and every end-to-end metric of the run's last
line; per workload and metric, the median and quartiles of those runs
(`statistics.quantiles(values, n=4, method="inclusive")`).  These tests
check each file against BENCHMARK.json and recompute its summaries.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {workload["name"] for workload in SPEC["workloads"]}
METRICS = {metric["name"] for metric in SPEC["end_to_end"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_summarises_its_runs(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert re.fullmatch(r"[0-9a-f]{7,40}", bench["commit"])
    assert path.name == f"BENCH_{bench['commit']}.json"
    for run in bench["runs"]:
        assert run["workload"] in WORKLOADS
        assert isinstance(run["seed"], int) and run["environment"]
        assert run["correct"] is True and run["failed"] == 0
        assert set(run["metrics"]) == METRICS
    assert set(bench["summary"]) == WORKLOADS
    for workload in WORKLOADS:
        runs = [run for run in bench["runs"] if run["workload"] == workload]
        assert len(runs) >= 5, workload
        stored = bench["summary"][workload]
        assert set(stored) == METRICS
        for name in METRICS:
            want = _summary([run["metrics"][name] for run in runs])
            assert stored[name] == pytest.approx(want, rel=1e-12), name
