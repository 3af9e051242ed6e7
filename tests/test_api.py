"""The package's public surface, the README's account of it, and the names the benchmark's probes look up."""

import importlib.util
import re
import sys
import types
from pathlib import Path

import gossipopt
from gossipopt import algorithms

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = {
    "RunConfig", "load_config", "run", "tune_extra", "experiment_suite", "ConfigError", "TuneExtraError",
    "graph_from_spec", "gossip_matrix", "generate_quadratic", "parse_libsvm", "partition_logistic",
    "fixed_point", "AdaptiveAlgorithm", "ExtraAlgorithm",
    "GraphError", "LossError", "MetricsError", "DivergenceError", "BacktrackingError",
}


def _library_use() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme[readme.index("## Library use"):]


def test_public_api():
    names = {
        name for name in dir(gossipopt)
        if not name.startswith("_") and not isinstance(getattr(gossipopt, name), types.ModuleType)
    }
    assert names == PUBLIC_NAMES


def test_no_module_lists_its_own_public_names():
    for path in Path(gossipopt.__file__).parent.glob("*.py"):
        assert "__all__" not in path.read_text(encoding="utf-8"), path.name


def test_readme_table_lists_the_public_names():
    rows = [line for line in _library_use().splitlines() if line.startswith("| `")]
    listed = {name for row in rows for name in re.findall(r"`(\w+)", row.split("|")[1])}
    assert listed == PUBLIC_NAMES


def test_readme_library_use_example_runs(capsys):
    block = re.search(r"```python\n(.*?)```", _library_use(), re.S).group(1)
    cap = "MAX_ITERATIONS = 5000\n"
    assert block.count(cap) == 1
    exec(compile(block.replace(cap, "MAX_ITERATIONS = 20\n"), "README.md", "exec"), {})
    status, k, vector_rounds = capsys.readouterr().out.splitlines()[0].split()
    assert (status, int(k), int(vector_rounds)) == ("budget_exhausted", 20, 60)


def _benchmark_probes():
    path = ROOT / "benchmarks" / "probes.py"
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
