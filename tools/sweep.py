"""Time adaptive runs on cycle graphs of growing size, and write one BENCH_<n>_sweep.json.

Usage::

    python tools/sweep.py --out BENCH_18_sweep.json --tree parent=PARENT/src --tree change=src

Each ``--tree LABEL=SRC`` names a package source tree (the directory that holds
``gossipopt/``); with none, the sweep times this checkout's ``src``. For every
agent count m (``--agents``, default 200, 800 and 3200) the sweep starts
``--runs`` fresh processes per tree, each on one BLAS thread. A process makes
one untimed warm-up run on a 6-agent cycle, then one pair of runs of the same
adaptive quadratic on the m-agent cycle (h=5 rows and n=20 columns per
agent), each for exactly ``--iterations`` iterations: one run writes a row at
every iteration (``stride: 1``), the other is fully thinned (``stride`` = the
iteration count: rows at k=0 and at the end). The trees take turns run by
run, and the tree that goes first alternates from one run to the next, as
``bench_pairs.py`` alternates seeds, so drift on the host falls on all trees
alike. Per tree and m the output records the medians over its processes of

- ``setup_s``: from ``run()``'s entry to its first iteration (every run);
- ``spectral_s``: the time of ``spectral_data``, the Cholesky factor the
  merit V solves with once per run, the run's one m x m array;
- ``us_per_iter``: the written run's solve time (first iteration to return)
  per iteration;
- ``step_us``: the thinned run's solve time per iteration: the step, plus the
  merits of two rows;
- ``merit_ms_per_row``: the written run's solve time minus the thinned run's,
  over the difference in their row counts, per pair: both merits of one row;
- ``peak_rss_mb``: the process's peak resident set.

Each row's merits are computed when the row is written, so any iteration count
separates the two runs by whole rows. A run that stops before the last
iteration is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
H, N = 5, 20


def config(m: int, iterations: int, stride: int) -> dict:
    return {
        "graph": {"kind": "cycle", "m": m},
        "problem": {"kind": "quadratic", "m": m, "h": H, "n": N, "lambda": 0.0, "seed": 1},
        "algorithm": {"algorithm": "adaptive", "delta": 1.0, "theta0": 1.0, "d0": 1,
                      "gamma": {"beta1": 2.0, "beta2": 1.0}},
        "epsilon": 1e-30,
        "max_iterations": iterations,
        "stride": stride,
        "seed": 1,
    }


def measure(m: int, iterations: int) -> dict:
    """One pair of runs at m agents, in this process, with the package already importable."""
    from gossipopt import RunConfig, harness, run

    first_iteration, spectral = [], []
    stats, spectral_data = harness.AdaptiveAlgorithm.stats, harness.spectral_data

    def marked_stats(algo):  # run() calls stats() at the top of every iteration
        if not first_iteration:
            first_iteration.append(perf_counter())
        return stats(algo)

    def timed_spectral_data(gm):
        start = perf_counter()
        R = spectral_data(gm)
        spectral.append(perf_counter() - start)
        return R

    harness.AdaptiveAlgorithm.stats = marked_stats
    harness.spectral_data = timed_spectral_data
    run(RunConfig.from_dict(config(6, 2, 1)))  # warm-up: first calls and imports
    spectral.clear()
    setup, solve, rows = [], {}, {}
    for name, stride in (("written", 1), ("thinned", iterations)):
        cfg = RunConfig.from_dict(config(m, iterations, stride))
        first_iteration.clear()
        start = perf_counter()
        trace = run(cfg)
        end = perf_counter()
        if trace.final.k != iterations:
            raise RuntimeError(f"m={m}: the run stopped at k={trace.final.k} ({trace.status})")
        setup.append(first_iteration[0] - start)
        solve[name] = end - first_iteration[0]
        rows[name] = len(trace.rows)
    return {
        "setup_s": setup,
        "spectral_s": spectral,
        "solve_s": solve,
        "rows": rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def child(src: Path, m: int, iterations: int) -> dict:
    """``measure`` in a fresh process on one BLAS thread, importing the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(m), "--iterations", str(iterations)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: m={m} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(pairs: list[dict], iterations: int) -> dict:
    """One tree's figures at one m, the medians over its processes' pairs (see the module doc)."""
    written = [p["solve_s"]["written"] for p in pairs]
    thinned = [p["solve_s"]["thinned"] for p in pairs]
    rows = pairs[0]["rows"]
    extra_rows = rows["written"] - rows["thinned"]
    return {
        "setup_s": statistics.median(s for p in pairs for s in p["setup_s"]),
        "spectral_s": statistics.median(s for p in pairs for s in p["spectral_s"]),
        "us_per_iter": 1e6 * statistics.median(written) / iterations,
        "step_us": 1e6 * statistics.median(thinned) / iterations,
        "merit_ms_per_row": 1e3 * statistics.median((w - t) / extra_rows for w, t in zip(written, thinned)),
        "rows": rows,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in pairs),
    }


def commit(src: Path) -> dict:
    """The tree's git commit, and whether its files differ from that commit."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    head = git("rev-parse", "HEAD")
    return {"commit": head, "modified": bool(git("status", "--porcelain", "--", ".")) if head else None}


def machine() -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo", encoding="utf-8")
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=SRC")
    parser.add_argument("--agents", default="200,800,3200")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--iterations", type=int, default=33)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(measure(args.child, args.iterations)))
        return 0
    if args.out is None:
        parser.error("--out is required")

    trees = dict(tree.split("=", 1) for tree in args.tree) or {"this": str(ROOT / "src")}
    trees = {label: Path(src).resolve() for label, src in trees.items()}
    for label, src in trees.items():
        if not (src / "gossipopt" / "__init__.py").is_file():
            parser.error(f"--tree {label}: no gossipopt package in {src}")
    agents = [int(m) for m in args.agents.split(",")]
    results = {label: {**commit(src), "agents": {}} for label, src in trees.items()}
    for m in agents:
        start = perf_counter()
        pairs = {label: [] for label in trees}
        for r in range(args.runs):
            for label in (list(trees) if r % 2 == 0 else list(reversed(trees))):
                pairs[label].append(child(trees[label], m, args.iterations))
        for label in trees:
            figures = results[label]["agents"][str(m)] = summarize(pairs[label], args.iterations)
            print(f"{label} m={m}: " + ", ".join(
                f"{key} {value:.4g}" for key, value in figures.items() if key != "rows"), flush=True)
        print(f"m={m}: {perf_counter() - start:.1f} s", flush=True)
    args.out.write_text(json.dumps({
        "what": ("tools/sweep.py: adaptive runs on the cycle graph, medians over the processes of "
                 "each tree and agent count, one pair of runs per process, the trees alternating "
                 "which goes first, one BLAS thread"),
        "machine": machine(),
        "problem": {"graph": "cycle", "h": H, "n": N, "method": "adaptive"},
        "iterations": args.iterations,
        "runs": args.runs,
        "trees": results,
    }, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
