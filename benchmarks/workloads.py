"""The three benchmark workloads: their run configs and the operations of one round.

The numerical problem of each workload is fixed, so the iteration and round
counts repeat exactly from run to run and seed to seed: changing the data seed
moves them by 10-20 % (line example: 1,472 to 1,756 adaptive iterations over
seeds 1-3), which would hide any timing regression inside the seed-to-seed
spread. ``--seed`` instead fixes the order of the operations within every
round and the token order of the synthetic libsvm file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import synthetic_logistic

_NIPS = {"delta": 1.0, "theta0": 1.0, "gamma": {"beta1": 2.0, "beta2": 1.0}}
_ALGO_DEFAULTS = {"adaptive": {**_NIPS, "d0": 1}, "nips_global": _NIPS, "nips_local": _NIPS, "extra": {}}

# examples_config/extra_tune.yaml
EXTRA_GRID = (1.0e-5, 3.0e-5, 1.0e-4, 3.0e-4, 1.0e-3, 3.0e-3, 1.0e-2)

ER_LARGE_M = 600
LOGISTIC_DATA_SEED = 7


@dataclass(frozen=True)
class Operation:
    """One ``run()`` call, or one ``tune_extra()`` call when ``grid`` is set."""

    name: str
    config: dict
    grid: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "quadratic" or "logistic"
    graph: dict
    problem: dict
    epsilon: float
    operations: tuple[Operation, ...]


def _operations(graph, problem, epsilon, max_vector_rounds, names, out_dir: Path, workload, seed):
    ops = []
    for name in names:
        algo = "extra" if name == "tune-extra" else name
        config = {
            "graph": graph,
            "problem": problem,
            "algorithm": {"algorithm": algo, **_ALGO_DEFAULTS[algo]},
            "c": 0.5,
            "epsilon": epsilon,
            "max_vector_rounds": max_vector_rounds,
            "seed": 1,
        }
        if name == "tune-extra":
            ops.append(Operation(name, config, EXTRA_GRID))
        else:
            config["output"] = str(out_dir / f"{workload}-seed{seed}-{name}.csv")
            ops.append(Operation(name, config))
    return tuple(ops)


def build(name: str, seed: int, out_dir: Path) -> Workload:
    """Make the workload's inputs (writing the libsvm file if it needs one)."""
    if name == "quad-line20":
        # examples_config/quadratic_line.yaml; nips_local is left out because it
        # diverges on this graph (no global min: k=2184, err_rel ~ 1e11)
        graph = {"kind": "line", "m": 20}
        problem = {"kind": "quadratic", "m": 20, "h": 110, "n": 100, "lambda": 0.0, "seed": 1}
        names, eps, budget = ("adaptive", "nips_global", "tune-extra"), 1e-5, 60_000
    elif name == "quad-er-large":
        m = ER_LARGE_M
        graph = {"kind": "erdos_renyi", "m": m, "p": round(3.0 * math.log(m) / m, 4), "seed": 7}
        problem = {"kind": "quadratic", "m": m, "h": 10, "n": 20, "lambda": 0.0, "seed": 1}
        names, eps, budget = ("adaptive", "nips_global", "nips_local"), 1e-5, 60_000
    elif name == "logistic-er20":
        path = out_dir / f"synthetic-logistic-seed{seed}.svm"
        labels, features = synthetic_logistic.generate(LOGISTIC_DATA_SEED)
        synthetic_logistic.write_libsvm(path, labels, features, token_seed=seed)
        graph = {"kind": "erdos_renyi", "m": 20, "p": 0.5, "seed": 11}
        problem = {"kind": "logistic", "dataset": str(path), "m": 20, "h": 159, "seed": 1}
        names, eps, budget = ("adaptive",), 1e-3, 100_000
    else:
        raise KeyError(name)
    ops = _operations(graph, problem, eps, budget, names, out_dir, name, seed)
    kind = problem["kind"]
    return Workload(name, kind, graph, problem, eps, ops)


NAMES = ("quad-line20", "quad-er-large", "logistic-er20")


def round_order(workload: Workload, seed: int, round_index: int) -> list[Operation]:
    """The seeded order of the workload's operations in one round."""
    rng = np.random.default_rng([seed, round_index])
    return [workload.operations[i] for i in rng.permutation(len(workload.operations))]
