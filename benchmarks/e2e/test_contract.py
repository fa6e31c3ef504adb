"""Contract self-test for the benchmark; not part of tier 1.

    python -m pytest benchmarks/e2e/test_contract.py

Checks ``BENCHMARK.json`` against the limits the acceptance driver enforces
and one reduced run of the command against ``BENCHMARK.json``: every declared
metric is printed with its unit and nothing undeclared is, in both passes.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
CONTRACT = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload: str, seed: int, trace: int, seconds: int = 1) -> dict:
    done = subprocess.run(
        [*CONTRACT["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    result["stdout"] = done.stdout
    return result


def test_contract_file_is_within_the_drivers_limits():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert len((REPO_ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert len(CONTRACT["command"]) <= 32
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_and_nothing_else(trace, key):
    result = run_bench("net_small_jobs", seed=0, trace=trace)
    declared = {m["name"]: m["unit"] for m in CONTRACT[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert re.search(rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                         result["stdout"], re.MULTILINE), name
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_transfers_per_join_does_not_depend_on_the_seed():
    transfers = [
        run_bench("scan_bound", seed=seed, trace=0)["metrics"]["transfers_per_join"]
        for seed in (0, 1)]
    assert transfers[0] == transfers[1]
    assert transfers[0]["value"] > 0


def test_no_program_to_measure_is_an_error_not_a_result(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: exit non-zero."""
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (target / source.name).write_bytes(source.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((REPO_ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload", "sort_bound",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
