"""Self-test of the benchmark: every workload on a tiny world, in seconds.

    python3 perfbench/selftest.py

For each workload it makes an untraced and a traced run and checks that the
result line names exactly the metrics of BENCHMARK.json, each with its unit
and a finite value, that every check passed, and that every per-layer span
was called.  Last, it checks that the benchmark refuses to run, without
printing a result, from a directory that holds only BENCHMARK.json and the
benchmark's own files.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

from run import NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
# reported in the lines before the result, not in BENCHMARK.json
INFO = ("error_rate", "warmup_s")


def run(cwd: str, script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, script, *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180, check=False)


def check_run(workload: str, trace: int, bench: dict) -> list[str]:
    proc = run(ROOT, RUN, "--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", str(trace), "--tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: checks failed: {lines[-2][:500]}")
    wanted = bench["per_layer" if trace else "end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in wanted]:
        errors.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            errors.append(f"{where}: {m['name']} = {got}")
        elif not trace and value == 0:
            errors.append(f"{where}: {m['name']} is 0")
    info = next(json.loads(l) for l in lines if l.startswith('{"workload"'))["info"]
    errors += [f"{where}: no {name} reported" for name in INFO if name not in info]
    if trace:
        spans = {json.loads(l)["span"]: json.loads(l) for l in lines if l.startswith('{"span"')}
        for m in wanted:
            span = m["name"][: -len(".s")]
            if m["unit"] == "s" and spans.get(span, {}).get("calls", 0) == 0:
                errors.append(f"{where}: span {span} never called")
    return errors


def check_refuses_without_program() -> list[str]:
    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, os.path.join(bare, os.path.basename(HERE), "run.py"),
                   "--workload", "eval-x1", "--seed", "0", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["the benchmark ran without the program"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        bench = json.load(fp)
    errors = []
    for workload in NAMES:
        for trace in (0, 1):
            found = check_run(workload, trace, bench)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    errors += check_refuses_without_program()
    for error in errors:
        print(error, file=sys.stderr)
    print("selftest", "ok" if not errors else f"FAILED ({len(errors)})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
