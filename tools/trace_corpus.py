"""Write a fixed corpus of run traces and suite summaries, and compare two corpora.

Usage::

    PYTHONPATH=<src> python tools/trace_corpus.py OUT_DIR
    python tools/trace_corpus.py --compare A B

Run it once with ``PYTHONPATH`` pointing at each of two source trees, into two
output directories. A change meant to keep the arithmetic compares them with
``diff -r``: no output means every per-run CSV (its JSON comment line
included) and every ``summary.csv`` is byte-identical. The script uses only
the public API (``RunConfig``, ``load_config``, ``run``, ``tune_extra``,
``experiment_suite``), so it runs against older source trees too. It takes a
few minutes on two cores.

A change that alters floating-point rounding compares them with
``--compare A B`` instead. For every per-run CSV it prints whether the two
files are byte-identical, the status and final ``k`` on each side, the first
row where a stepsize column (``theta_min`` ... ``d_max``) differs together
with ``err_rel`` and ``M_erg`` at that row, and the worst deviation of
``err_rel``, ``V`` and ``M_erg`` before that row, scaled by the column's first
value. For every ``summary.csv`` it prints the cells that differ. It exits 1
when a file exists on one side only, or when a run (or summary row) that
converged at A ends any other way at B, and 0 otherwise: a run that starts
converging is not a regression. Iteration counts are reported, not gated:
near the optimum the line search compares numbers closer than the rounding
error of f, so any rounding change can move them by more than a few percent.

The logistic traces depend on the BLAS thread count, so the script pins
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``,
``BLIS_NUM_THREADS``, ``VECLIB_MAXIMUM_THREADS`` and ``NUMEXPR_NUM_THREADS``
to 1 before numpy is first imported, as ``benchmarks/run.py`` does; two
sides run in different environments then still compare byte for byte.
``write_corpus`` imports numpy and the package only after pinning them.

The corpus:

- ``examples_config/quadratic_line.yaml`` under adaptive, nips_global,
  nips_local (without the adaptive-only ``d0``), and adaptive with the
  boundedness safeguard;
- a 200-agent ER(0.05) quadratic (h=10, n=20) under the three methods:
  ``er200/*`` is the corpus's coverage of the CSR product kernel, which
  ``gossip_matrix`` picks for this graph; every other run is on graphs
  dense enough for the dense BLAS product;
- ``tune_extra`` on ``examples_config/extra_tune.yaml``;
- the four suites at 3,000 vector rounds with alpha grid (1e-4, 1e-3, 1e-2),
  ``logistic_graphs`` on ``benchmarks/synthetic_logistic.generate(7)`` data;
- the three suites that tune EXTRA again with a grid that never converges,
  so their ``tune_failed`` rows are compared too.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

METHODS = ("adaptive", "nips_global", "nips_local")
SUITE_BUDGET = 3000
ALPHA_GRID = (1e-4, 1e-3, 1e-2)
FAILING_GRID = (10.0,)
DATA_SEED = 7

STEPSIZE_COLUMNS = ("theta_min", "theta_max", "pi_min", "pi_max", "d_max")
MERIT_COLUMNS = ("err_rel", "V", "M_erg")


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    write_corpus(Path(argv[0]).resolve())
    return 0


def write_corpus(out: Path) -> None:
    # one BLAS thread, set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import synthetic_logistic

    import gossipopt
    from gossipopt import RunConfig, experiment_suite, load_config, run, tune_extra

    out.mkdir(parents=True, exist_ok=True)
    print(f"gossipopt from {Path(gossipopt.__file__).parent}", file=sys.stderr)
    # relative paths keep the dataset path in the trace comments independent of OUT_DIR
    os.chdir(out)

    line = load_config(ROOT / "examples_config" / "quadratic_line.yaml")
    for method in METHODS:
        spec = {k: v for k, v in line.algorithm.items() if method == "adaptive" or k != "d0"}
        run(replace(line, algorithm={**spec, "algorithm": method}, output=f"line/{method}.csv"))
    guarded = {**line.algorithm, "safeguard": {"enabled": True, "R_tilde": 5.0}}
    run(replace(line, algorithm=guarded, output="line/adaptive_safeguard.csv"))

    for method in METHODS:
        run(RunConfig.from_dict({
            "graph": {"kind": "erdos_renyi", "m": 200, "p": 0.05, "seed": 5},
            "problem": {"kind": "quadratic", "m": 200, "h": 10, "n": 20, "seed": 5},
            "algorithm": {"algorithm": method},
            "seed": 5,
            "output": f"er200/{method}.csv",
        }))

    alpha, trace = tune_extra(load_config(ROOT / "examples_config" / "extra_tune.yaml"))
    trace.comment["tuned_alpha"] = alpha
    trace.write_csv("extra_tune/best.csv")

    labels, features = synthetic_logistic.generate(DATA_SEED)
    synthetic_logistic.write_libsvm(Path("synthetic.svm"), labels, features, token_seed=DATA_SEED)
    for name in ("quadratic_graphs", "condition_sweep", "diameter_sweep", "logistic_graphs"):
        experiment_suite(name, "suites", data_path="synthetic.svm",
                         max_vector_rounds=SUITE_BUDGET, alpha_grid=ALPHA_GRID)
    for name in ("quadratic_graphs", "condition_sweep", "logistic_graphs"):
        experiment_suite(name, "suites_tune_failed", data_path="synthetic.svm",
                         max_vector_rounds=SUITE_BUDGET, alpha_grid=FAILING_GRID)
    print(f"corpus written to {out}", file=sys.stderr)


def _read_csv(path: Path) -> list[dict]:
    """Rows of a trace or summary CSV as dicts; the JSON comment line is skipped."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _number(cell: str) -> float | None:
    return float(cell) if cell else None


def _deviation(a: str, b: str, scale: float) -> float:
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return 0.0 if x is y else math.inf
    if x == y:  # also equal infinities
        return 0.0
    return abs(x - y) / scale


def _compare_trace(a_rows: list[dict], b_rows: list[dict]) -> str:
    """Statuses, the first differing stepsize row, and the merit drift before it."""
    a_end, b_end = a_rows[-1], b_rows[-1]
    parts = [f"{a_end['status']} k={a_end['k']} -> {b_end['status']} k={b_end['k']}"]
    common = min(len(a_rows), len(b_rows))
    first = next(
        (i for i in range(common) if any(a_rows[i][c] != b_rows[i][c] for c in STEPSIZE_COLUMNS)),
        None,
    )
    if first is None:
        parts.append(f"stepsizes equal over the {common} common rows")
    else:
        row = a_rows[first]
        parts.append(
            f"first stepsize difference at k={row['k']} "
            f"(err_rel={row['err_rel']}, M_erg={row['M_erg'] or '-'})"
        )
    stop = common if first is None else first
    drift = []
    for col in MERIT_COLUMNS:
        firsts = [_number(r[col]) for r in a_rows[:stop] if r[col]]
        if not firsts:
            continue
        scale = abs(firsts[0]) or 1.0
        worst = max(_deviation(a[col], b[col], scale) for a, b in zip(a_rows[:stop], b_rows[:stop]))
        drift.append(f"{col} {worst:.1e}")
    if drift:
        parts.append("worst scaled deviation before it: " + ", ".join(drift))
    return "; ".join(parts)


def _compare_summary(a_rows: list[dict], b_rows: list[dict]) -> str:
    """The cells that differ, named by the row's leading (key) cells."""
    if len(a_rows) != len(b_rows) or (a_rows and a_rows[0].keys() != b_rows[0].keys()):
        return f"shape differs: {len(a_rows)} rows -> {len(b_rows)} rows"
    cells = []
    for a, b in zip(a_rows, b_rows):
        key = "/".join(a[c] for c in list(a)[: list(a).index("algorithm") + 1])
        cells += [f"{key} {col}: {a[col]} -> {b[col]}" for col in a if a[col] != b[col]]
    return f"{len(cells)} cells differ: " + "; ".join(cells) if cells else "no cell differs"


def compare(a_dir: Path, b_dir: Path) -> int:
    """Print a per-file report of corpus B against corpus A; 1 on a missing file or lost convergence."""
    names = sorted(
        {p.relative_to(d).as_posix() for d in (a_dir, b_dir) for p in d.rglob("*.csv")}
    )
    missing, lost, changed, identical = [], [], [], 0
    for name in names:
        a_path, b_path = a_dir / name, b_dir / name
        if not (a_path.is_file() and b_path.is_file()):
            missing.append(name)
            print(f"{name}: missing at {'A' if not a_path.is_file() else 'B'}")
            continue
        same = a_path.read_bytes() == b_path.read_bytes()
        identical += same
        a_rows, b_rows = _read_csv(a_path), _read_csv(b_path)
        if a_path.name == "summary.csv":
            detail = _compare_summary(a_rows, b_rows)
            pairs = zip(a_rows, b_rows) if len(a_rows) == len(b_rows) else ()
            statuses = [(a.get("status"), b.get("status")) for a, b in pairs]
        else:
            detail = _compare_trace(a_rows, b_rows)
            statuses = [(a_rows[-1]["status"], b_rows[-1]["status"])]
        for a_status, b_status in statuses:
            if a_status != b_status:
                changed.append(f"{name}: {a_status} -> {b_status}")
            if a_status == "converged" and b_status != "converged":
                lost.append(name)
        print(f"{name}: {'identical' if same else 'differs'}; {detail}")
    print(f"{len(names)} files, {identical} byte-identical, {len(missing)} missing")
    for line in changed:
        print(f"status change: {line}")
    for name in sorted(set(lost)):
        print(f"regression: a run converged at A and not at B in {name}")
    return 1 if missing or lost else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
