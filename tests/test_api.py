"""The package's public surface, and the names the benchmark's probes look up in it."""

import importlib.util
import sys
import types
from pathlib import Path

import gossipopt
from gossipopt import algorithms

PUBLIC_NAMES = {
    "AdaptiveAlgorithm", "AdaptiveState", "BacktrackingError", "ConfigError", "DivergenceError",
    "ErgodicAverage", "ExtraAlgorithm", "FixedPoint", "GammaSchedule", "GossipMatrix", "Graph",
    "GraphError", "LogisticFamily", "LossError", "MeritRow", "MetricsError",
    "NeighborExchange", "QuadraticFamily", "RunConfig", "RunTrace", "TuneExtraError",
    "adaptive_step", "backtrack_batch", "build_complete_graph", "build_cycle_graph",
    "build_erdos_renyi", "build_line_graph", "centralized_solve", "diameter", "experiment_suite",
    "fixed_point", "generate_quadratic", "gossip_matrix", "graph_from_spec", "linear_rate_fit",
    "load_config", "local_max_consensus", "local_min_consensus", "merit_cvx", "merit_sc",
    "metropolis_weights", "parse_libsvm", "partition_logistic", "quadratic_condition_numbers",
    "run", "spectral_data", "tune_extra",
}


def test_public_api():
    names = {
        name for name in dir(gossipopt)
        if not name.startswith("_") and not isinstance(getattr(gossipopt, name), types.ModuleType)
    }
    assert names == PUBLIC_NAMES


def _benchmark_probes():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "probes.py"
    spec = importlib.util.spec_from_file_location("benchmark_probes", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    return module


def test_benchmark_probe_layers_resolve():
    # a layer with no callable left fails a traced benchmark round with LookupError
    for layer, module, names in _benchmark_probes().LAYERS:
        mod = getattr(gossipopt, module)
        found = []
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if callable(getattr(owner, attr, None)):
                found.append(name)
        assert found, f"layer {layer}: none of {names} in gossipopt.{module}"

    # the run probe marks the first iteration by wrapping each algorithm's own stats()
    steppers = [
        cls for cls in vars(algorithms).values()
        if isinstance(cls, type) and cls.__module__ == algorithms.__name__ and "step" in vars(cls)
    ]
    assert {algorithms.AdaptiveAlgorithm, algorithms.ExtraAlgorithm} <= set(steppers)
    for cls in steppers:
        assert "stats" in vars(cls), cls.__name__
