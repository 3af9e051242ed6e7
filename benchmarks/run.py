"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 benchmarks/run.py --workload quad-line20 --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. A run
warms up, then repeats whole rounds of the workload's operations until
``--seconds`` have passed. Every operation is checked (checks.py). Times are
in reference seconds (refclock.py); each operation's time is the median over
its rounds, and a metric sums it over the workload's operations.

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
it alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones (medians over rounds) and the tracing overhead. Per-round
details go to ``benchmarks/out/``.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / "benchmarks" / "out"

END_TO_END_UNITS = {
    "run_s": "s", "setup_s": "s", "solve_s": "s", "us_per_iter": "us", "peak_rss_mb": "MB",
    "iterations": "count", "vector_rounds": "count", "scalar_rounds": "count",
}
PER_LAYER_UNITS = {
    "graphs.build_s": "s", "graphs.gossip_matrix_s": "s", "graphs.spectral_s": "s",
    "graphs.diameter_s": "s", "losses.gradients_s": "s", "losses.gradients_calls": "count",
    "losses.gradients_per_iter": "count", "losses.values_s": "s", "losses.values_calls": "count",
    "losses.data_s": "s", "losses.centralized_solve_s": "s", "backtracking.self_s": "s",
    "backtracking.calls": "count", "backtracking.trials": "count", "backtracking.accept_ratio": "ratio",
    "algorithms.consensus_s": "s", "algorithms.consensus_calls": "count", "algorithms.gossip_s": "s",
    "algorithms.gossip_calls": "count", "algorithms.step_self_s": "s", "algorithms.steps": "count",
    "algorithms.step_us_p50": "us", "algorithms.step_us_p90": "us", "algorithms.wire_scalars": "count",
    "metrics.fixed_point_self_s": "s", "metrics.merit_sc_s": "s", "metrics.merit_cvx_s": "s",
    "metrics.merit_calls": "count", "metrics.values_calls": "count", "harness.loop_self_s": "s",
    "harness.csv_s": "s", "harness.rows": "count", "trace.overhead_s": "s",
}
TIMES = ("run_s", "setup_s", "solve_s")
COUNTS = ("iterations", "vector_rounds", "scalar_rounds")


def _import_package():
    """Import gossipopt from this checkout's src/, never from site-packages."""
    if not (SRC / "gossipopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'gossipopt'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import gossipopt

    if Path(gossipopt.__file__).resolve().parent != (SRC / "gossipopt").resolve():
        raise SystemExit(f"error: imported gossipopt from {gossipopt.__file__}, not {SRC}")
    return gossipopt


@dataclass
class OpResult:
    op: object
    start: float
    end: float
    records: list
    alpha: float | None
    trace: object
    error: str | None


def run_operation(pkg, op, probe) -> OpResult:
    probe.records.clear()
    config = pkg.RunConfig.from_dict(op.config)
    alpha, trace, error = None, None, None
    start = perf_counter()
    try:
        if op.grid is not None:
            alpha, trace = pkg.tune_extra(config, grid=op.grid)
        else:
            trace = pkg.run(config)
    except Exception as exc:  # a failed operation is counted; the round goes on
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    end = perf_counter()
    return OpResult(op, start, end, list(probe.records), alpha, trace, error)


def check_operation(checks, workload, ref, result: OpResult) -> tuple[bool, list[str]]:
    """(operation failed, wrong outputs) for one operation."""
    if result.error is not None:
        return True, []
    problems = []
    for record in result.records:
        if record.built is None:
            problems.append("run() made no iteration")
        problems += checks.check_record(workload, ref, record)
    if result.op.grid is not None:
        problems += checks.check_tuning(result.op.grid, result.alpha, result.trace, result.records)
    problems += checks.check_final(workload, result.trace)
    failed = result.trace.status != "converged" or bool(problems)
    return failed, problems


def op_timeline(result: OpResult) -> dict:
    """The instants and round counts of one operation (tune_extra: all its runs).

    Instants: operation start and end, then per ``run()`` its entry, its first
    iteration and its CSV write (or exit). Set-up is entry to first
    iteration; solve is first iteration to CSV write.
    """
    instants = [result.start, result.end]
    for r in result.records:
        instants += [r.start, r.built, r.solve_end]
    finals = [r.trace.final for r in result.records]
    return {
        "name": result.op.name,
        "instants": instants,
        "iterations": sum(f.k for f in finals),
        "vector_rounds": sum(f.vector_rounds for f in finals),
        "scalar_rounds": sum(f.scalar_rounds for f in finals),
    }


def op_times(clock, timelines: list[dict]) -> dict:
    """Reference-second times of one operation: every round's, and their medians."""
    rounds = {key: [] for key in TIMES + ("wall_s",)}
    for t in timelines:
        ref = clock.reference_times(t["instants"])
        runs = ref[2:].reshape(-1, 3)
        rounds["run_s"].append(float(ref[1] - ref[0]))
        rounds["setup_s"].append(float((runs[:, 1] - runs[:, 0]).sum()))
        rounds["solve_s"].append(float((runs[:, 2] - runs[:, 1]).sum()))
        rounds["wall_s"].append(t["instants"][1] - t["instants"][0])
    return {**{key: float(statistics.median(rounds[key])) for key in TIMES}, "per_round": rounds}


def signature(result: OpResult):
    """What must repeat exactly when the same operation runs again."""
    if result.error is not None:
        return ("error", result.error)
    finals = tuple((r.algorithm, r.trace.status, r.trace.final.k, r.trace.final.vector_rounds,
                    r.trace.final.scalar_rounds, r.trace.final.err_rel) for r in result.records)
    return (result.alpha, finals)


def warm_up(pkg, workload) -> None:
    """Touch every code path once with a tiny budget, untimed."""
    for op in workload.operations:
        config = replace(pkg.RunConfig.from_dict(op.config), max_iterations=3, output=None)
        if op.grid is None:
            pkg.run(config)
            continue
        try:
            pkg.tune_extra(config, grid=op.grid[-1:])
        except pkg.TuneExtraError:
            pass


def end_to_end(clock, rounds: list[list[dict]], ref) -> tuple[dict, dict]:
    """Workload metrics (summed over operations) and per-operation details."""
    by_op = {}
    for timelines in rounds:
        for t in timelines:
            by_op.setdefault(t["name"], []).append(t)
    per_op = {name: op_times(clock, timelines) for name, timelines in by_op.items()}
    values = {key: sum(times[key] for times in per_op.values()) for key in TIMES}
    values.update({key: sum(timelines[0][key] for timelines in by_op.values()) for key in COUNTS})
    values["us_per_iter"] = 1e6 * values["solve_s"] / values["iterations"]
    values["wire_scalars"] = 2 * ref.edges * (values["vector_rounds"] * ref.dim + values["scalar_rounds"])
    return values, per_op


def layer_metrics(probes, spans, duration, wire_scalars) -> dict:
    """Per-layer self times and counts of one traced round; ``duration`` in reference seconds."""
    self_t = spans.self_time(duration)
    lid = {name: i for i, name in enumerate(probes.LAYER_NAMES)}

    def self_s(*layers):
        return float(sum(self_t[spans.layer == lid[layer]].sum() for layer in layers))

    def calls(layer, mask=None):
        hit = spans.layer == lid[layer]
        return int((hit if mask is None else hit & mask).sum())

    steps = calls("algorithms.step")
    step_us = 1e6 * duration[spans.layer == lid["algorithms.step"]]
    in_merit = (spans.parent >= 0) & (
        (spans.layer[spans.parent] == lid["metrics.merit_sc"])
        | (spans.layer[spans.parent] == lid["metrics.merit_cvx"]))
    return {
        "graphs.build_s": self_s("graphs.build"),
        "graphs.gossip_matrix_s": self_s("graphs.gossip_matrix"),
        "graphs.spectral_s": self_s("graphs.spectral"),
        "graphs.diameter_s": self_s("graphs.diameter"),
        "losses.gradients_s": self_s("losses.gradients"),
        "losses.gradients_calls": calls("losses.gradients"),
        "losses.gradients_per_iter": calls("losses.gradients", spans.under(lid["algorithms.step"])) / steps,
        "losses.values_s": self_s("losses.values"),
        "losses.values_calls": calls("losses.values"),
        "losses.data_s": self_s("losses.data"),
        "losses.centralized_solve_s": self_s("losses.centralized_solve"),
        "backtracking.self_s": self_s("backtracking"),
        "backtracking.calls": calls("backtracking"),
        "backtracking.trials": spans.trials,
        "backtracking.accept_ratio": spans.searches / max(spans.trials, 1),
        "algorithms.consensus_s": self_s("algorithms.consensus"),
        "algorithms.consensus_calls": calls("algorithms.consensus"),
        "algorithms.gossip_s": self_s("algorithms.gossip"),
        "algorithms.gossip_calls": calls("algorithms.gossip"),
        "algorithms.step_self_s": self_s("algorithms.step"),
        "algorithms.steps": steps,
        "algorithms.step_us_p50": float(statistics.median(step_us)),
        "algorithms.step_us_p90": float(statistics.quantiles(step_us, n=10)[-1]),
        "algorithms.wire_scalars": wire_scalars,
        "metrics.fixed_point_self_s": self_s("metrics.fixed_point"),
        "metrics.merit_sc_s": self_s("metrics.merit_sc"),
        "metrics.merit_cvx_s": self_s("metrics.merit_cvx"),
        "metrics.merit_calls": calls("metrics.merit_sc") + calls("metrics.merit_cvx"),
        "metrics.values_calls": calls("losses.values", in_merit),
        "harness.loop_self_s": self_s("harness.run"),
        "harness.csv_s": self_s("harness.csv"),
        "harness.rows": spans.rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = _import_package()
    import checks
    import probes
    import workloads
    from refclock import ReferenceClock

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; pick one of {workloads.NAMES}")
    workload = workloads.build(args.workload, args.seed, OUT_DIR)
    ref = checks.reference(pkg, workload)

    probe = probes.RunProbe(pkg)
    probe.install()
    tracer = probes.Tracer(pkg)
    untraced, traced = [], []  # per round: one op_timeline() per operation
    spans_per_round = []
    attempted = failed = 0
    wrong: list[str] = []
    first_signature: dict[str, object] = {}
    round_index = 0
    with ReferenceClock() as clock:
        warm_up(pkg, workload)
        start = perf_counter()
        while True:
            is_traced = bool(args.trace) and round_index % 2 == 1
            if is_traced:
                tracer.install()
            results = []
            for op_index, op in enumerate(workloads.round_order(workload, args.seed, round_index)):
                tracer.op = op_index
                results.append(run_operation(pkg, op, probe))
            if is_traced:
                spans_per_round.append(tracer.uninstall())

            round_failed = False
            for result in results:
                attempted += 1
                op_failed, problems = check_operation(checks, workload, ref, result)
                sig = first_signature.setdefault(result.op.name, signature(result))
                if sig != signature(result):
                    problems.append("outcome differs from the same operation's first run")
                    op_failed = True
                failed += op_failed
                round_failed |= op_failed
                wrong += [f"round {round_index} {result.op.name}: {p}" for p in problems]
            if not round_failed:
                (traced if is_traced else untraced).append([op_timeline(r) for r in results])
            round_index += 1
            if perf_counter() - start >= args.seconds and (not args.trace or round_index % 2 == 0):
                break
    probe.uninstall()

    for line in wrong:
        print(f"wrong output: {line}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("error: no round without a failed operation", file=sys.stderr)
        return 1

    e2e, per_op = end_to_end(clock, untraced, ref)
    if args.trace:
        per_round = [layer_metrics(probes, spans, spans.durations(clock), e2e["wire_scalars"])
                     for spans in spans_per_round]
        values = {name: float(statistics.median(m[name] for m in per_round)) for name in per_round[0]}
        values["trace.overhead_s"] = end_to_end(clock, traced, ref)[0]["run_s"] - e2e["run_s"]
        units = PER_LAYER_UNITS
    else:
        values = dict(e2e, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        units = END_TO_END_UNITS

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    details = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "rounds": round_index,
               "slowdown": clock.slowdown(), "operations": per_op, "values": values}
    (OUT_DIR / f"details-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1))

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = not wrong
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
