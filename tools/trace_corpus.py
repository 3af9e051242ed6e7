"""Write a fixed corpus of run traces and suite summaries, to check that traces are unchanged.

Usage::

    PYTHONPATH=<src> python tools/trace_corpus.py OUT_DIR

Run it once with ``PYTHONPATH`` pointing at each of two source trees, into two
output directories, then compare them with ``diff -r``; no output means every
per-run CSV (its JSON comment line included) and every ``summary.csv`` is
byte-identical. The script uses only the public API (``RunConfig``,
``load_config``, ``run``, ``tune_extra``, ``experiment_suite``), so it runs
against older source trees too. It takes a few minutes on two cores.

The logistic traces depend on the BLAS thread count, so the script pins
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``,
``BLIS_NUM_THREADS``, ``VECLIB_MAXIMUM_THREADS`` and ``NUMEXPR_NUM_THREADS``
to 1 before numpy is first imported, as ``benchmarks/run.py`` does; two
sides run in different environments then still compare byte for byte.

The corpus:

- ``examples_config/quadratic_line.yaml`` under adaptive, nips_global,
  nips_local (without the adaptive-only ``d0``), and adaptive with the
  boundedness safeguard;
- a 200-agent ER(0.05) quadratic (h=10, n=20) under the three methods;
- ``tune_extra`` on ``examples_config/extra_tune.yaml``;
- the four suites at 3,000 vector rounds with alpha grid (1e-4, 1e-3, 1e-2),
  ``logistic_graphs`` on ``benchmarks/synthetic_logistic.generate(7)`` data;
- the three suites that tune EXTRA again with a grid that never converges,
  so their ``tune_failed`` rows are compared too.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import synthetic_logistic  # noqa: E402

import gossipopt  # noqa: E402
from gossipopt import RunConfig, experiment_suite, load_config, run, tune_extra  # noqa: E402

METHODS = ("adaptive", "nips_global", "nips_local")
SUITE_BUDGET = 3000
ALPHA_GRID = (1e-4, 1e-3, 1e-2)
FAILING_GRID = (10.0,)
DATA_SEED = 7


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
