"""Tests of the benchmark itself: every workload, run at its real sizes
for the shortest time it allows, emits every metric that BENCHMARK.json
names, with its unit, and no failures.

Run from the repository root (the name keeps it out of the package's
own test run):

    python3 -m pytest -q benchmarks/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace, tmp_path):
    result = run.run(workload, 3, 0.0, bool(trace), tmp_path)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["reported"] == sorted(m["name"] for m in wanted)
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["n"] >= 1
        assert got["value"] == got["value"]          # not NaN
    assert {"numpy", "scipy", "blas", "blas_threads", "nproc", "python"} <= set(result["environment"])


def test_refuses_to_run_without_the_package(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
