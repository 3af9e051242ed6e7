"""Run the benchmark over several seeds and summarise the spread of every metric.

    python3 benchmarks/collect.py --seeds 1-10                      # all workloads, untraced
    python3 benchmarks/collect.py --workloads quad-line20 --seeds 1-5
    python3 benchmarks/collect.py --seeds 1 --trace 1                # per-layer figures

Each (workload, seed) runs ``run.py`` in a fresh process, one after another,
with the run length from BENCHMARK.json unless ``--seconds`` is given. For
every metric it prints the median, the quartiles (``statistics.quantiles``,
n=4) and their distance as a share of the median, against the metric's bound.
The raw results go to benchmarks/out/collect-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def machine_info() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    probe = (
        "import json, numpy, scipy; d = numpy.show_config(mode='dicts');"
        "b = d['Build Dependencies']['blas'];"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
        " 'blas': b.get('name', '') + ' ' + str(b.get('version', ''))}))"
    )
    libs = json.loads(subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                     text=True, check=True).stdout)
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo", encoding="utf-8")
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), **libs}


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output (exit {proc.returncode})\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    result["exit"] = proc.returncode
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    info = machine_info()
    print(f"machine: {json.dumps(info)}", flush=True)
    report = {"machine": info, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in _seeds(args.seeds):
            result = run_one(workload, seed, args.seconds, args.trace)
            results.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} exit={result['exit']} wall={result['wall_s']:.1f}s", flush=True)
        report["workloads"][workload] = results
        print(f"\n{workload}: {len(results)} runs; failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in results})}")
        print(f"{'metric':32} {'unit':6} {'median':>14} {'Q1':>14} {'Q3':>14} {'IQR/med':>8} {'bound':>6}")
        for name, first in results[0]["metrics"].items():
            med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in results])
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if rel < bound / 3 else ("  WIDE" if rel <= bound else "  OVER"))
            print(f"{name:32} {first['unit']:6} {med:14.6g} {q1:14.6g} {q3:14.6g} {rel:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        print(flush=True)
    out = HERE / "out" / f"collect-{int(time.time())}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
