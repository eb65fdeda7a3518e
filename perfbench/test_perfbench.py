"""Self-test of the benchmark at tiny sizes (about ten seconds).

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload with --tiny, traced and untraced, and checks that each
metric named in BENCHMARK.json is printed with its unit, that witness
queries never reach the oracle, and that the verify battery exercises the
quadratic rescue path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
sys.path.insert(0, str(ROOT / "src"))


def run_bench(workload: str, trace: int, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def outputs() -> dict[tuple[str, int], list[str]]:
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            results[workload, trace] = proc.stdout.splitlines()
    return results


def final_metrics(lines: list[str]) -> dict:
    return json.loads(lines[-1])["metrics"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(outputs, workload, trace):
    lines = outputs[workload, trace]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    table = {line.split()[0]: line.split()[-1] for line in lines[1:-1]}
    assert table == wanted


def test_witness_queries_never_reach_the_oracle(outputs):
    assert final_metrics(outputs["witness_queries", 1])["oracle.spectrum.calls"]["value"] == 0


def test_verify_battery_takes_the_rescue_path(outputs):
    metrics = final_metrics(outputs["verify_battery", 1])
    assert metrics["segments.quadratic.path_rescue"]["value"] > 0


def test_oracle_limit_variable_is_refused():
    env = dict(os.environ, TNSPEC_ORACLE_LIMIT="60")
    proc = run_bench("gap_scan", 0, env)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_restricted_count_agrees_with_the_enumerator():
    from layers import restricted_count
    from tnspec.oracle import EnumerationConstraints, enumerate_partitions, partition_count

    for n in range(1, 41):
        assert restricted_count(n, n, n) == partition_count(n)
    for n in range(1, 16):
        for cap in range(1, n + 1):
            enumerated = enumerate_partitions(n, EnumerationConstraints(max_first_part=cap))
            assert restricted_count(n, cap, n) == sum(1 for _ in enumerated)
