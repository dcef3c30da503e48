"""Smoke test of the benchmark: every workload at tiny size, in both modes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import fnmatch
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, proc.stderr
            cache[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_benchmark_metric_is_emitted(results, workload, trace):
    result = results(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload,unused", [
    ("thermal-cli", "interpolation.*.calls"),
    ("greedy-online", "interpolation.*.calls"),
    ("interp", "certification.*.calls"),
    ("geometry", "certification.*.calls"),
    ("geometry", "interpolation.*.calls"),
])
def test_unused_layers_record_no_calls(results, workload, unused):
    metrics = results(workload, 1)["metrics"]
    names = fnmatch.filter(metrics, unused)
    assert names and all(metrics[n]["value"] == 0 for n in names)


def test_moves_names_declared_metrics():
    moves = json.loads((HERE / "moves.json").read_text(encoding="utf-8"))["layers"]
    layer_names = [m["name"] for m in BENCH["per_layer"]]
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for pattern, prediction in moves.items():
        assert fnmatch.filter(layer_names, pattern), pattern
        for metric, workload in prediction["moves"] + prediction.get("unchanged", []):
            assert metric in end_to_end and workload in WORKLOADS


def test_refuses_to_run_without_the_sources():
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "interp", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
