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


def _package_bindings() -> dict:
    """Every name of every gossipopt module, and of every class defined in one, with its binding."""
    bindings = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "gossipopt" and not mod_name.startswith("gossipopt."):
            continue
        for attr, value in vars(mod).items():
            bindings[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("gossipopt"):
                bindings.update(((mod_name, attr, a), v) for a, v in vars(value).items())
    return bindings


def test_benchmark_probes_trace_a_tiny_run_and_put_everything_back(tmp_path):
    # the benchmark's run probe and tracer, as a traced round installs them, around one
    # written quadratic run and a two-point EXTRA tuning
    probes = _benchmark_probes()
    before = _package_bindings()
    probe, tracer = probes.RunProbe(gossipopt), probes.Tracer(gossipopt)
    probe.install()
    tracer.install()
    config = {
        "graph": {"kind": "erdos_renyi", "m": 6, "p": 0.6, "seed": 4},
        "problem": {"kind": "quadratic", "m": 6, "h": 8, "n": 5, "lambda": 0.0, "seed": 2},
        "algorithm": {"algorithm": "adaptive"},
        "epsilon": 1e-3,
        "max_iterations": 300,
        "output": str(tmp_path / "run.csv"),
    }
    try:
        gossipopt.run(gossipopt.RunConfig.from_dict(config))
        extra = gossipopt.RunConfig.from_dict({**config, "algorithm": {"algorithm": "extra"}, "output": None})
        gossipopt.tune_extra(extra, grid=[0.01, 0.02])
    finally:
        spans = tracer.uninstall()
        probe.uninstall()

    after = _package_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []

    assert [r.algorithm for r in probe.records] == ["adaptive", "extra", "extra"]
    assert probe.records[0].csv is not None
    for record in probe.records:
        assert None not in (record.built, record.solve_end, record.fixed_point, record.trace)
        assert record.start < record.built < record.solve_end <= record.end

    traced = {probes.LAYER_NAMES[layer] for layer in spans.layer}
    assert traced >= {
        "algorithms.step", "algorithms.gossip", "algorithms.consensus", "backtracking", "losses.values",
        "losses.gradients", "metrics.merit_cvx", "harness.run",
    }
