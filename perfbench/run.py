"""Benchmark entry point.

    python3 perfbench/run.py --workload train-x4|eval-x1|world-x10 \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics; the lines before it describe the machine, the run and, when traced,
every span.  `--workload all` runs each workload in a fresh interpreter, one
after the other, and prints every metric of each as a table.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAMES = ("train-x4", "eval-x1", "world-x10")
# BLAS threads, fixed here (at most the core count) so both sides of a
# comparison use the same value; it must be set before numpy loads
BLAS_THREADS = 1


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def layer_metrics(run, tracer, names: list[str]) -> dict[str, float]:
    """Mean self seconds per call for span metrics; counts as measured."""
    layers = tracer.layers()
    calls = {key: sum(v["calls"] for k, v in layers.items() if k.startswith(prefix))
             for key, prefix in (("graph.readout_cols", "graph.forward."),
                                 ("training.Adam.step.bytes", "training.Adam.step"))}
    out = {}
    for name in names:
        if name in run.layer_counts:
            out[name] = float(run.layer_counts[name])
        elif name in tracer.counts:
            out[name] = tracer.counts[name] / max(calls[name], 1)
        else:
            layer = layers.get(name[: -len(".s")], {"calls": 0, "self_s": 0.0})
            out[name] = layer["self_s"] / max(layer["calls"], 1)
    return out


def run_one(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from tracing import Tracer

    bench = spec()
    tracer = Tracer() if args.trace else None
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    run = workloads.Run(args.workload, args.seed, args.seconds, tracer, workdir, args.tiny)
    print(json.dumps({"machine": machine()}), flush=True)
    try:
        if tracer is not None:
            tracer.install()
        workloads.run_workload(run)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed, "info": run.info,
                      "failures": run.failures}), flush=True)
    if tracer is None:
        wanted = bench["end_to_end"]
        values = run.metrics
    else:
        wanted = bench["per_layer"]
        values = layer_metrics(run, tracer, [m["name"] for m in wanted])
        layers = tracer.layers()
        outdir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(outdir, exist_ok=True)
        tracer.write(os.path.join(outdir, f"{args.workload}-spans.npz"))
        with open(os.path.join(outdir, f"{args.workload}-layers.json"), "w",
                  encoding="utf-8") as fp:
            json.dump(layers, fp, indent=1, sort_keys=True)
        for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print(json.dumps({"span": name, **row}))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak memory and warm state
    belong to one workload."""
    status = 0
    table = {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        info = next(json.loads(l) for l in lines if l.startswith('{"workload"'))["info"]
        table[name] = {**result["metrics"],
                       "error_rate": {"value": info["error_rate"], "unit": "ratio"},
                       "warmup_s": {"value": info["warmup_s"], "unit": "s"}}
        if not result["correct"]:
            status = 1
    for name, metrics in table.items():
        for metric, m in metrics.items():
            print(f"{name:10s} {metric:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(table))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny worlds and sizes, for the self-test")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.exit(main())
