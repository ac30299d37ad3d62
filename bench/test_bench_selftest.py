"""Self-test of the benchmark at tiny sizes; it makes no timing assertions.

Each run works on a copy of ``src/`` and ``bench/`` in a temporary
directory, so its digest records never meet those of other runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _copy_tree(dest: Path, with_src: bool = True) -> Path:
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _run(checkout: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(detail), json.loads(result)


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return _copy_tree(tmp_path_factory.mktemp("checkout"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_and_gate(checkout, workload):
    runs = {trace: _run(checkout, workload, trace) for trace in (0, 1)}
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        detail, result = runs[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, detail["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        assert all("n" in v for v in detail["metrics"].values())
        assert detail["env"]["numpy"] and detail["env"]["nproc"] >= 1
    (plain, result), (traced, _) = runs[0], runs[1]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert plain["digest"] == traced["digest"]
    assert plain["counters"] == traced["counters"]


def test_refuses_to_run_without_sources(tmp_path):
    bare = _copy_tree(tmp_path, with_src=False)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
