"""Benchmark a change against its parent in alternating pairs, and write one BENCH_<n>.json.

Usage::

    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --seeds 41-50 --out BENCH_12.json

PARENT_TREE and CHANGE_TREE are two checkouts of the repository, say a
``git clone`` of the parent commit and the working tree. PARENT_TREE must be
a git checkout, a ``git clone`` or a ``git worktree add --detach`` of the
parent, since the output names its commit: the script refuses a tree whose
HEAD git cannot resolve (a ``git archive`` export, say) before it runs
anything. For every seed the script runs each tree's own
``benchmarks/collect.py --seeds <seed>`` once, on every workload and at the
run length of that tree's BENCHMARK.json, the two calls back to back: the
change first on odd seeds, the parent first on even ones, so drift on the
host falls on both sides alike. It then merges the per-seed reports.

The output keeps every raw run under ``runs`` and, per workload and
end-to-end metric, a ``summary``: the median and quartiles
(``statistics.quantiles``, n=4) of each side, ``change_lower_pairs`` and
``ties`` (seeds on which the change's value is below, or equal to, the
parent's), ``median_change`` (the change's median relative to the parent's)
and ``parent_iqr`` (the parent's Q3 - Q1, in the metric's unit). A claimed
gain holds when the change is lower on at least nine of ten pairs and the
median gap exceeds ``parent_iqr``. Each workload also records ``pairs`` and
the failed and attempted operations per side. The script ends by printing,
for every workload and end-to-end metric, the two medians, the median
change, the pairs the change was lower on, the parent IQR and whether that
gain rule holds (every metric of the benchmark is lower-is-better). After
those it prints, for every end-to-end metric with a ``bound`` in the change
tree's BENCHMARK.json, the no-regression verdict, which the report keeps
under ``no_regression``: ``unresolved`` when the parent's IQR is wider than
the bound (as a share of the parent's median) and not every change run is
below every parent run, the runs spreading too widely to tell; otherwise
``exceeded`` when the change's median is above the parent's by more than the
bound, and ``holds`` when it is not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(tree: Path, seed: int) -> dict:
    """One ``benchmarks/collect.py`` call in ``tree`` for one seed; its JSON report."""
    cmd = [sys.executable, "benchmarks/collect.py", "--seeds", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wrote = [line.split(" ", 1)[1] for line in proc.stdout.splitlines() if line.startswith("wrote ")]
    if proc.returncode != 0 or not wrote:
        raise RuntimeError(f"{tree}: collect.py seed {seed} exited {proc.returncode}\n{proc.stderr}")
    print(proc.stdout, flush=True)
    return json.loads((tree / wrote[-1]).read_text())


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: dict) -> dict:
    """Per workload and metric, both sides' spread and the pairwise comparison.

    ``runs[side][workload]`` lists the per-seed results of ``collect.py``,
    in the same seed order on both sides.
    """
    summary = {}
    for workload, parent_runs in runs["parent"].items():
        change_runs = runs["change"][workload]
        if [r["seed"] for r in parent_runs] != [r["seed"] for r in change_runs]:
            raise ValueError(f"{workload}: the two sides ran different seeds")
        entry = {}
        for name in parent_runs[0]["metrics"]:
            parent = [r["metrics"][name]["value"] for r in parent_runs]
            change = [r["metrics"][name]["value"] for r in change_runs]
            p, c = quartiles(parent), quartiles(change)
            entry[name] = {
                "parent": p,
                "change": c,
                "change_lower_pairs": sum(b < a for a, b in zip(parent, change)),
                "ties": sum(b == a for a, b in zip(parent, change)),
                "median_change": (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0,
                "parent_iqr": p["q3"] - p["q1"],
            }
        entry["pairs"] = len(parent_runs)
        for key, field in (("failed_ops", "failed"), ("attempted_ops", "attempted")):
            entry[key] = {side: sum(r[field] for r in runs[side][workload]) for side in SIDES}
        summary[workload] = entry
    return summary


def gain_holds(metric: dict, pairs: int) -> bool:
    """The claimed-gain rule for a lower-is-better metric: lower on at least nine of ten
    pairs, and the change's median below the parent's by more than ``parent_iqr``."""
    gap = metric["parent"]["median"] - metric["change"]["median"]
    return 10 * metric["change_lower_pairs"] >= 9 * pairs and gap > metric["parent_iqr"]


def summary_lines(summary: dict) -> list[str]:
    """One printed line per workload and end-to-end metric of a ``summarize`` result."""
    lines = []
    for workload, entry in summary.items():
        pairs = entry["pairs"]
        for name, metric in entry.items():
            if not isinstance(metric, dict) or "parent_iqr" not in metric:
                continue
            lines.append(
                f"{workload} {name}: median {metric['parent']['median']:.4g} -> "
                f"{metric['change']['median']:.4g} ({metric['median_change']:+.1%}), change lower on "
                f"{metric['change_lower_pairs']}/{pairs} pairs, parent IQR {metric['parent_iqr']:.3g}, "
                f"gain rule {'holds' if gain_holds(metric, pairs) else 'does not hold'}"
            )
    return lines


def regression_verdict(parent: list[float], change: list[float], metric: dict, bound: float) -> str:
    """The no-regression rule for a lower-is-better metric of relative ``bound`` (see the module doc)."""
    median = metric["parent"]["median"]
    if metric["parent_iqr"] > bound * abs(median) and not max(change) < min(parent):
        return "unresolved"
    return "exceeded" if metric["change"]["median"] - median > bound * abs(median) else "holds"


def no_regression(runs: dict, summary: dict, bounds: dict) -> dict:
    """Per workload, the verdict of every end-to-end metric that ``bounds`` (name -> bound) lists."""
    verdicts = {}
    for workload, entry in summary.items():
        verdicts[workload] = {}
        for name in entry:
            if name in bounds:
                parent, change = ([r["metrics"][name]["value"] for r in runs[side][workload]] for side in SIDES)
                verdicts[workload][name] = regression_verdict(parent, change, entry[name], bounds[name])
    return verdicts


def no_regression_lines(summary: dict, verdicts: dict, bounds: dict) -> list[str]:
    """One printed line per verdict of ``no_regression``."""
    return [
        f"{workload} {name}: median change {summary[workload][name]['median_change']:+.1%}, parent IQR "
        f"{summary[workload][name]['parent_iqr']:.3g}, bound {bounds[name]:.0%}, no-regression {verdict}"
        for workload, entry in verdicts.items()
        for name, verdict in entry.items()
    ]


def end_to_end_bounds(tree: Path) -> dict:
    """name -> bound of every end-to-end metric in ``tree``'s BENCHMARK.json; {} without one."""
    path = tree / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


def git_head(tree: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--seeds", default="41-50")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    parent_commit = git_head(trees["parent"])
    if parent_commit is None:
        raise SystemExit(f"error: {trees['parent']} has no git HEAD, so the report could not name the "
                         "parent commit; benchmark a `git clone` or `git worktree add --detach` of it")
    seeds = parse_seeds(args.seeds)
    runs = {side: {} for side in SIDES}
    report = {}
    for seed in seeds:
        for side in SIDES[::-1] if seed % 2 else SIDES:
            print(f"== seed {seed}: {side}", flush=True)
            report = collect(trees[side], seed)
            for workload, results in report["workloads"].items():
                runs[side].setdefault(workload, []).extend(results)
    summary = summarize(runs)
    bounds = end_to_end_bounds(trees["change"])
    verdicts = no_regression(runs, summary, bounds)
    args.out.write_text(json.dumps({
        "what": ("benchmarks/collect.py reports (--seeds <one seed> per call, run length "
                 f"{report['seconds']} s) for the parent commit and this change, written by "
                 "tools/bench_pairs.py: one call per side per seed, the side that runs first "
                 "alternating: the change first on odd seeds, the parent first on even ones"),
        "parent_commit": parent_commit,
        "change": "the commit that adds this file",
        "machine": report["machine"],
        "seconds": report["seconds"],
        "seeds": seeds,
        "summary": summary,
        "no_regression": verdicts,
        "runs": runs,
    }, indent=1) + "\n")
    print("\n".join(summary_lines(summary) + no_regression_lines(summary, verdicts, bounds)))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
