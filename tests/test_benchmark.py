"""Each workload of BENCHMARK.json runs end to end on a tiny world.

`perfbench/` reads the package by name: `NetParams.pooled` and `.readout`,
the blocks SSL freezes, the experiments' bitwise flags.  A rename that breaks
the benchmark fails here, in a run of `perfbench/run.py --tiny` in a fresh
interpreter with one BLAS thread.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_each_benchmark_workload_runs_on_a_tiny_world(workload):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--tiny", "--seconds", "0",
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    metrics = result["metrics"]
    for metric in BENCHMARK["end_to_end"]:
        assert math.isfinite(metrics[metric["name"]]["value"]), metric["name"]
