import contextlib
import copy
import io
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from gossipopt import (
    BacktrackingError,
    ConfigError,
    DivergenceError,
    GraphError,
    RunConfig,
    TuneExtraError,
    algorithms,
    experiment_suite,
    fixed_point,
    generate_quadratic,
    gossip_matrix,
    harness,
    load_config,
    metrics,
    run,
    tune_extra,
)
from gossipopt.cli import main
from gossipopt.graphs import build_line_graph, spectral_data
from gossipopt.harness import CSV_HEADER
from gossipopt.losses import LogisticFamily, QuadraticFamily
from gossipopt.metrics import merit_sc
from conftest import synthetic_logistic

EXAMPLES = Path(__file__).resolve().parents[1] / "examples_config"


def small_quadratic_config(**overrides):
    raw = {
        "graph": {"kind": "erdos_renyi", "m": 6, "p": 0.6, "seed": 4},
        "problem": {"kind": "quadratic", "m": 6, "h": 8, "n": 5, "lambda": 0.0, "seed": 2},
        "algorithm": {"algorithm": "adaptive", "delta": 1.0, "theta0": 1.0, "d0": 1,
                      "gamma": {"beta1": 2.0, "beta2": 1.0}},
        "epsilon": 1e-6,
        "max_iterations": 5000,
        "max_vector_rounds": 50000,
        "seed": 2,
    }
    raw.update(overrides)
    return raw


def test_load_config_yaml_roundtrip(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(small_quadratic_config()))
    cfg = load_config(path)
    assert cfg.graph["kind"] == "erdos_renyi"
    assert cfg.epsilon == 1e-6


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda d: d.pop("graph"), "missing"),
        (lambda d: d.update(extra_key=1), "unknown"),
        (lambda d: d["algorithm"].pop("algorithm"), "algorithm"),
        (lambda d: d["algorithm"].update(algorithm="sgd"), "unknown algorithm"),
        (lambda d: d["problem"].update(kind="cubic"), "kind"),
        (lambda d: d["problem"].update(m=7), "differ"),
        (lambda d: d.update(epsilon=-1.0), "positive"),
        (lambda d: d.update(c=0.7), "c must"),
        (lambda d: d.update(stride=0), "positive"),
        (lambda d: d["algorithm"].update(d0=2.7), "algorithm.d0 must be an integer"),
        (lambda d: d["graph"].update(p="0.5"), "graph.p must be a finite real"),
    ],
)
def test_config_validation_errors(mutate, match):
    raw = small_quadratic_config()
    mutate(raw)
    with pytest.raises(ConfigError, match=match):
        RunConfig.from_dict(raw)


def test_logistic_config_requires_existing_dataset():
    raw = small_quadratic_config()
    raw["problem"] = {"kind": "logistic", "dataset": "/no/such/file", "m": 6, "h": 5}
    with pytest.raises(ConfigError, match="not found"):
        RunConfig.from_dict(raw)


def test_cli_rejects_a_dataset_without_features(tmp_path, capsys):
    # labels alone made a 0-dimensional problem that "converged" at k=1 and exited 0
    data = tmp_path / "labels.svm"
    data.write_text("+1\n-1\n-1\n+1\n")
    raw = small_quadratic_config()
    raw["graph"] = {"kind": "line", "m": 2}
    raw["problem"] = {"kind": "logistic", "dataset": str(data), "m": 2, "h": 2, "seed": 1}
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert "no idx:val entry" in capsys.readouterr().err


def test_run_converges_and_is_deterministic(tmp_path):
    cfg = RunConfig.from_dict(small_quadratic_config())
    t1 = run(cfg)
    t2 = run(cfg)
    assert t1.status == "converged"
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    t1.write_csv(p1)
    t2.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_csv_schema(tmp_path):
    cfg = RunConfig.from_dict(small_quadratic_config(max_iterations=20))
    trace = run(cfg)
    out = tmp_path / "trace.csv"
    trace.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert "seed" in lines[0]
    assert lines[1] == CSV_HEADER
    assert all(len(line.split(",")) == 12 for line in lines[2:])


def test_run_trace_invariants():
    cfg = RunConfig.from_dict(small_quadratic_config())
    trace = run(cfg)
    ks = [r.k for r in trace.rows]
    rounds = [r.vector_rounds for r in trace.rows]
    assert ks == sorted(set(ks))
    assert rounds == sorted(set(rounds))  # strictly increasing
    assert trace.rows[-1].status == trace.status
    assert all(r.status == "running" for r in trace.rows[:-1])


def test_run_budget_exhausted_status():
    cfg = RunConfig.from_dict(small_quadratic_config(max_iterations=3))
    trace = run(cfg)
    assert trace.status == "budget_exhausted"
    assert trace.final.k == 3


def test_run_stride_thins_rows():
    cfg = RunConfig.from_dict(small_quadratic_config(max_iterations=10, stride=4))
    trace = run(cfg)
    assert [r.k for r in trace.rows] == [0, 4, 8, 10]


@pytest.mark.parametrize(
    "algorithm,status",
    [({"algorithm": "adaptive"}, "budget_exhausted"), ({"algorithm": "extra", "extra_alpha": 0.3}, "diverged")],
)
def test_stride_rows_are_the_full_rows_sampled(tmp_path, monkeypatch, algorithm, status):
    # a thinned trace writes the every-iteration trace's rows at k % stride == 0
    # and its final row, bit for bit, and computes merits for those rows only
    calls = {"merit_cvx": 0, "spectral_data": 0, "V": 0}
    evaluated = []

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    class CountedMerit(harness.PreimageMerit):
        def __call__(self, *args):
            calls["V"] += 1
            evaluated.append(super().__call__(*args))
            return evaluated[-1]

    for name in ("merit_cvx", "spectral_data"):
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    monkeypatch.setattr(harness, "PreimageMerit", CountedMerit)
    lines, counts = {}, {}
    for stride in (1, 4):
        for name in calls:
            calls[name] = 0
        evaluated.clear()
        cfg = small_quadratic_config(max_iterations=30, stride=stride, algorithm=algorithm)
        trace = run(RunConfig.from_dict(cfg))
        assert trace.status == status
        trace.write_csv(tmp_path / f"{stride}.csv")
        lines[stride] = (tmp_path / f"{stride}.csv").read_text().splitlines()
        counts[stride] = dict(calls)
    full = lines[1][2:]
    assert lines[4][:2] == lines[1][:2]
    assert lines[4][2:] == [r for r in full[:-1] if int(r.split(",")[0]) % 4 == 0] + full[-1:]
    rows = len(lines[4]) - 2
    has_duals = algorithm["algorithm"] != "extra"
    assert counts[4] == {"merit_cvx": rows - 1, "spectral_data": has_duals, "V": rows * has_duals}
    assert counts[1]["merit_cvx"] == len(full) - 1 > counts[4]["merit_cvx"]
    assert evaluated == ([r.V for r in trace.rows] if has_duals else [])


def test_logistic_stop_reads_the_ergodic_merit_every_iteration(tmp_path, monkeypatch):
    data = tmp_path / "synth.svm"
    write_family_libsvm(data, synthetic_logistic(6, 20, 4, 3))
    cvx_calls = []
    merit_cvx = harness.merit_cvx
    monkeypatch.setattr(harness, "merit_cvx", lambda *args: cvx_calls.append(1) or merit_cvx(*args))
    cfg = small_quadratic_config(max_iterations=12, stride=5, epsilon=1e-12)
    cfg["problem"] = {"kind": "logistic", "dataset": str(data), "m": 6, "h": 20, "seed": 1}
    trace = run(RunConfig.from_dict(cfg))
    assert [r.k for r in trace.rows] == [0, 5, 10, 12]
    assert len(cvx_calls) == 12  # k = 1..12, with nothing averaged yet at k = 0


def test_err_rel_does_not_depend_on_blas_threads():
    # m*d = 12,000 terms: one OpenBLAS ddot would split ||X - X*||^2 across threads
    script = (
        "import math\n"
        "from gossipopt import RunConfig, run\n"
        "m = 600\n"
        "trace = run(RunConfig.from_dict({\n"
        "    'graph': {'kind': 'erdos_renyi', 'm': m, 'p': round(3 * math.log(m) / m, 4), 'seed': 7},\n"
        "    'problem': {'kind': 'quadratic', 'm': m, 'h': 10, 'n': 20, 'lambda': 0.0, 'seed': 1},\n"
        "    'algorithm': {'algorithm': 'adaptive'}, 'epsilon': 1e-5, 'seed': 1}))\n"
        "print(trace.status, [(r.k, r.vector_rounds, r.scalar_rounds, r.err_rel.hex()) for r in trace.rows])\n"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1
    assert outputs.pop().startswith("converged [(0, 0, 0,")


def test_run_divergence_recorded_not_raised():
    raw = small_quadratic_config()
    raw["algorithm"] = {"algorithm": "extra", "extra_alpha": 1e3}
    trace = run(RunConfig.from_dict(raw))
    assert trace.status == "diverged"
    assert trace.rows[-1].status == "diverged"


def test_run_round_accounting_by_algorithm():
    for name, vec_per_iter in (("adaptive", 3), ("nips_global", 3), ("nips_local", 3)):
        raw = small_quadratic_config(max_iterations=5)
        raw["algorithm"] = {"algorithm": name}
        trace = run(RunConfig.from_dict(raw))
        assert trace.final.vector_rounds == vec_per_iter * trace.final.k
    raw = small_quadratic_config(max_iterations=5)
    raw["algorithm"] = {"algorithm": "extra", "extra_alpha": 1e-4}
    trace = run(RunConfig.from_dict(raw))
    assert trace.final.vector_rounds == trace.final.k


def test_extra_requires_alpha():
    raw = small_quadratic_config()
    raw["algorithm"] = {"algorithm": "extra"}
    with pytest.raises(ConfigError, match="extra_alpha"):
        run(RunConfig.from_dict(raw))


def test_tune_extra_picks_fewest_rounds():
    raw = small_quadratic_config(epsilon=1e-5)
    raw["algorithm"] = {"algorithm": "extra"}
    cfg = RunConfig.from_dict(raw)
    grid = [3e-4, 1e-3, 3e-3, 1e-2, 3e-2]
    alpha, trace = tune_extra(cfg, grid=grid)
    assert trace.status == "converged"

    # oracle: run every grid point at full budget, expect the argmin
    results = {}
    for a in grid:
        sub_raw = small_quadratic_config(epsilon=1e-5)
        sub_raw["algorithm"] = {"algorithm": "extra", "extra_alpha": a}
        t = run(RunConfig.from_dict(sub_raw))
        if t.status == "converged":
            results[a] = t.final.vector_rounds
    best_rounds = min(results.values())
    best_alpha = min(a for a, r in results.items() if r == best_rounds)
    assert alpha == best_alpha
    assert trace.final.vector_rounds == best_rounds


def test_tune_extra_singleton_grid():
    raw = small_quadratic_config(epsilon=1e-4)
    raw["algorithm"] = {"algorithm": "extra"}
    alpha, trace = tune_extra(RunConfig.from_dict(raw), grid=[1e-3])
    assert alpha == 1e-3
    assert trace.status == "converged"


def test_tune_extra_all_fail():
    raw = small_quadratic_config()
    raw["algorithm"] = {"algorithm": "extra"}
    with pytest.raises(TuneExtraError) as err:
        tune_extra(RunConfig.from_dict(raw), grid=[1e3, 1e4])
    assert set(err.value.statuses) == {1e3, 1e4}
    assert "diverged" in str(err.value)


def test_tune_extra_rejects_non_extra_config():
    cfg = RunConfig.from_dict(small_quadratic_config())
    with pytest.raises(ConfigError):
        tune_extra(cfg)


# --- the set-up that the runs of one tune_extra or suite call share ---


def _csv_bytes(trace, path) -> bytes:
    trace.write_csv(path)
    return path.read_bytes()


def test_tune_extra_grid_runs_equal_runs_on_their_own(tmp_path, monkeypatch):
    # with a diverging, a converging and budget-capped grid points
    grid_runs, plain_run = [], harness.run
    monkeypatch.setattr(harness, "run", lambda cfg: grid_runs.append((cfg, plain_run(cfg))) or grid_runs[-1][1])
    raw = small_quadratic_config(epsilon=1e-5)
    raw["algorithm"] = {"algorithm": "extra"}
    tune_extra(RunConfig.from_dict(raw), grid=[1e3, 3e-2, 1e-2, 3e-3, 3e-4])
    assert {trace.status for _, trace in grid_runs} == {"diverged", "converged", "budget_exhausted"}
    for cfg, trace in grid_runs:
        assert _csv_bytes(trace, tmp_path / "grid.csv") == _csv_bytes(plain_run(cfg), tmp_path / "alone.csv")


@pytest.fixture
def setup_counts(monkeypatch):
    """Count the family builds, the x* solves and the graph builds from here on."""
    counts = {"families": 0, "solves": 0, "graphs": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "_build_family", counted("families", harness._build_family))
    monkeypatch.setattr(metrics, "centralized_solve", counted("solves", metrics.centralized_solve))
    monkeypatch.setattr(harness, "graph_from_spec", counted("graphs", harness.graph_from_spec))
    return counts


def test_tune_extra_builds_its_problem_once(setup_counts):
    raw = small_quadratic_config(epsilon=1e-5)
    raw["algorithm"] = {"algorithm": "extra"}
    tune_extra(RunConfig.from_dict(raw), grid=[3e-2, 1e-2, 3e-3, 1e-3])
    assert setup_counts == {"families": 1, "solves": 1, "graphs": 1}


def test_suite_builds_each_problem_and_graph_once(tmp_path, setup_counts):
    # 3 graphs x (3 methods + 3 grid points) runs on one problem; tune_extra's scope is the suite's
    experiment_suite("quadratic_graphs", tmp_path, max_vector_rounds=60, alpha_grid=(1e-2, 1e-3, 1e-4))
    assert setup_counts == {"families": 1, "solves": 1, "graphs": 3}


def test_top_level_runs_share_nothing(setup_counts):
    cfg = RunConfig.from_dict(small_quadratic_config(max_iterations=5))
    first, second = run(cfg), run(cfg)
    assert setup_counts == {"families": 2, "solves": 2, "graphs": 2}
    assert harness._SETUPS.get() is None
    assert [r.err_rel for r in first.rows] == [r.err_rel for r in second.rows]


def test_failed_tuning_drops_its_setups(setup_counts):
    raw = small_quadratic_config(max_iterations=5)
    raw["algorithm"] = {"algorithm": "extra"}
    with pytest.raises(TuneExtraError):
        tune_extra(RunConfig.from_dict(raw), grid=[1e3, 1e4])
    assert setup_counts["families"] == 1 and harness._SETUPS.get() is None
    run(RunConfig.from_dict(small_quadratic_config(max_iterations=5)))
    assert setup_counts["families"] == 2


def test_suite_stopped_by_a_config_error_drops_its_setups(tmp_path, monkeypatch, setup_counts):
    # the second graph's factor fails: the suite stops after the first graph's runs
    factors, spectral_data = [], harness.spectral_data

    def fail_second(gm):
        factors.append(gm)
        if len(factors) == 2:
            raise GraphError("no factor")
        return spectral_data(gm)

    monkeypatch.setattr(harness, "spectral_data", fail_second)
    with pytest.raises(ConfigError, match="no factor"):
        experiment_suite("quadratic_graphs", tmp_path, max_vector_rounds=60, alpha_grid=(1e-2,))
    assert setup_counts["families"] == 1 and harness._SETUPS.get() is None
    monkeypatch.setattr(harness, "spectral_data", spectral_data)
    run(RunConfig.from_dict({
        "graph": harness._SUITE_GRAPHS["line"], "problem": harness._quadratic(20, 110, 0.0, 1),
        "algorithm": {"algorithm": "adaptive"}, "max_iterations": 3, "seed": 1,
    }))
    assert setup_counts["families"] == 2


def test_shared_arrays_refuse_writes():
    # a run that wrote into what a scope shares would change the next run of the scope
    A, b = np.ones((2, 3, 2)), np.ones((2, 3))
    features, labels = np.ones((4, 6, 3)), np.ones((4, 6))
    quadratic, logistic = QuadraticFamily(A, b), LogisticFamily(features, labels)
    fp = fixed_point(quadratic)
    R = spectral_data(gossip_matrix(build_line_graph(4)))
    fold, fold_t = logistic._fold
    shared = [quadratic.A, quadratic.b, logistic.features, logistic.labels, logistic._S.data,
              logistic._ST.data, fold.data, fold_t.data, fp.x_star, fp.X_star, fp.Y_star, R]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 1.0
    # the arrays a family was given keep their own flags
    assert all(array.flags.writeable for array in (A, b, features, labels))


def write_binary_libsvm(path, n_rows=3185, n_features=123, active=14, seed=77):
    """Synthetic stand-in with the a3a shape: sparse binary rows, noisy labels."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n_features) * (rng.random(n_features) < 0.3)
    lines = []
    for _ in range(n_rows):
        idx = np.sort(rng.choice(n_features, size=active, replace=False)) + 1
        margin = w[idx - 1].sum()
        label = "+1" if rng.random() < 1.0 / (1.0 + np.exp(-1.5 * margin)) else "-1"
        lines.append(label + " " + " ".join(f"{i}:1" for i in idx))
    path.write_text("\n".join(lines) + "\n")


def test_logistic_pipeline_at_dataset_scale(tmp_path):
    # same shape as the public a3a file: 3185 rows, 123 features, 20 agents
    # holding 159 samples each; the convex merit target must be reached well
    # inside the round budget and decay like 1/k
    data = tmp_path / "synth.svm"
    write_binary_libsvm(data)
    cfg = RunConfig.from_dict(
        {
            "graph": {"kind": "erdos_renyi", "m": 20, "p": 0.5, "seed": 11},
            "problem": {"kind": "logistic", "dataset": str(data), "m": 20, "h": 159, "seed": 1},
            "algorithm": {"algorithm": "adaptive"},
            "epsilon": 1e-3,
            "max_vector_rounds": 100_000,
            "seed": 1,
        }
    )
    trace = run(cfg)
    assert trace.status == "converged"
    assert trace.final.M_erg <= 1e-3
    scaled = {r.k: r.k * r.M_erg for r in trace.rows if r.M_erg is not None and r.k >= 100}
    assert all(v <= 3.0 * scaled[100] for v in scaled.values())


def test_extra_rounds_trend_with_conditioning():
    # rounds-to-target should grow with the condition number; allow wiggle but
    # no more than a 2x drop between adjacent ridge levels
    rows = []
    for ridge in (50.0, 5.0, 0.0):  # decreasing ridge = increasing kappa
        raw = small_quadratic_config(epsilon=1e-5)
        raw["problem"]["lambda"] = ridge
        raw["algorithm"] = {"algorithm": "extra"}
        alpha, trace = tune_extra(
            RunConfig.from_dict(raw), grid=np.logspace(-5, -1, 9)
        )
        rows.append(trace.final.vector_rounds)
    assert rows[1] >= rows[0] / 2
    assert rows[2] >= rows[1] / 2


def write_family_libsvm(path, family):
    """Write a logistic family's samples, agent by agent, as a dense libsvm file."""
    lines = []
    for rows, labels in zip(family.features, family.labels):
        for row, label in zip(rows, labels):
            tokens = " ".join(f"{j}:{float(v)!r}" for j, v in enumerate(row, start=1))
            lines.append(f"{float(label)!r} {tokens}")
    path.write_text("\n".join(lines) + "\n")


SUITE_FORMATS = {
    "quadratic_graphs": ("graph,algorithm,alpha,status,iterations,vector_rounds,scalar_rounds,err_rel", 3 * 4),
    "condition_sweep": ("lambda,kappa,algorithm,alpha,status,vector_rounds", 5 * 4),
    "diameter_sweep": ("m,diameter,algorithm,status,vector_rounds", 4 * 2),
    "logistic_graphs": ("graph,algorithm,alpha,status,vector_rounds,merit", 3 * 4),
}


@pytest.mark.parametrize("name", list(SUITE_FORMATS))
def test_suite_summary_format(tmp_path, name):
    # counting contract at a tiny budget: one summary row per (member, algorithm),
    # each with the header's field count, and one trace CSV per run
    data = tmp_path / "synth.svm"
    write_family_libsvm(data, synthetic_logistic(20, 159, 10, 3))
    summary = experiment_suite(
        name, tmp_path, data_path=str(data), max_vector_rounds=60, alpha_grid=(1e-2,)
    )
    header, n_rows = SUITE_FORMATS[name]
    lines = summary.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + n_rows
    assert all(len(line.split(",")) == len(header.split(",")) for line in lines[1:])
    n_runs = sum(",tune_failed," not in line for line in lines[1:])
    assert len(list(summary.parent.glob("*.csv"))) == 1 + n_runs
    if name == "condition_sweep":
        keys = sorted({(float(line.split(",")[0]), float(line.split(",")[1])) for line in lines[1:]})
        assert [ridge for ridge, _ in keys] == [0.0, 1.0, 10.0, 100.0, 1000.0]
        kappas = [kappa for _, kappa in keys]
        assert kappas == sorted(kappas, reverse=True) and len(set(kappas)) == len(kappas)


def test_suite_tune_failed_row(tmp_path):
    summary = experiment_suite(
        "quadratic_graphs", tmp_path, max_vector_rounds=60, alpha_grid=(10.0,)
    )
    lines = summary.read_text().splitlines()
    assert "line,extra,,tune_failed,,,," in lines
    assert not (summary.parent / "line_extra.csv").exists()


def test_suite_rejects_an_empty_grid_before_writing(tmp_path):
    # the grid is part of every EXTRA run's config, so it is checked with the rest
    with pytest.raises(ConfigError, match="algorithm.extra_alpha_grid must be"):
        experiment_suite("quadratic_graphs", tmp_path, max_vector_rounds=60, alpha_grid=[])
    assert list(tmp_path.iterdir()) == []


def test_suite_rejects_unknown_name(tmp_path):
    with pytest.raises(ConfigError, match="unknown suite"):
        experiment_suite("warp_drive", tmp_path)


def test_suite_logistic_requires_data(tmp_path):
    with pytest.raises(ConfigError, match="data"):
        experiment_suite("logistic_graphs", tmp_path, data_path=None)
    assert not (tmp_path / "logistic_graphs").exists()


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(small_quadratic_config()))
    out_csv = tmp_path / "trace.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_csv)]) == 0
    assert out_csv.is_file()
    assert "status=converged" in capsys.readouterr().out

    budget = small_quadratic_config(max_iterations=2)
    cfg_path.write_text(yaml.safe_dump(budget))
    assert main(["run", "--config", str(cfg_path)]) == 2

    bad = small_quadratic_config()
    bad["algorithm"] = {"algorithm": "sgd"}
    cfg_path.write_text(yaml.safe_dump(bad))
    assert main(["run", "--config", str(cfg_path)]) == 3

    assert main(["run", "--config", str(tmp_path / "missing.yaml")]) == 3


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(max_iterations="lots"),
        lambda d: d.update(max_vector_rounds=1.0e5),
        lambda d: d.update(stride=2.5),
        lambda d: d.update(seed=True),
        lambda d: d.update(c="half"),
        lambda d: d.update(epsilon=None),
        lambda d: d.update(fixed_point_tol=1e-8),  # a constant of the oracle, not a key
        lambda d: d["problem"].pop("n"),
        lambda d: d["problem"].update(n="abc"),
        lambda d: d["problem"].update({"lambda": "x"}),
        lambda d: d["problem"].update(seed="x"),
        lambda d: d["graph"].update(p="x"),
        lambda d: d["graph"].update(seed="x"),
        lambda d: d.update(fixed_point_tol=-1),  # rejected as unknown, whatever the value
        lambda d: d.update(fixed_point_tol=1e-30),
        lambda d: d["problem"].update(n=[1]),
        lambda d: d["graph"].update(p=[1]),
        lambda d: d["algorithm"].update(safeguard={}),
        lambda d: d["algorithm"].update(safeguard=5),
        lambda d: d["algorithm"].update(safeguard={"R_tilde": float("nan")}),
        lambda d: d["algorithm"].update(safeguard={"R_tilde": -1}),
        lambda d: d["algorithm"].update(theta0=float("nan")),
        lambda d: d["algorithm"].update(gamma={"beta1": float("nan")}),
        lambda d: d["algorithm"].update(gamma=float("nan")),
        lambda d: d["algorithm"].update(gamma=0.5),
        # d0 and safeguard belong to the adaptive method alone
        lambda d: d["algorithm"].update(algorithm="nips_global"),
        lambda d: d["algorithm"].update(algorithm="nips_local"),
        lambda d: d["algorithm"].update(algorithm="extra", extra_alpha=1e-3),
        lambda d: d["algorithm"].update(
            algorithm="nips_global", d0=0, safeguard={"R_tilde": -1}),
        lambda d: d.update(algorithm={"algorithm": "nips_local", "safeguard": {"R_tilde": 1.0}}),
        lambda d: d.update(algorithm={"algorithm": "extra", "extra_alpha": 1e-3,
                                      "safeguard": {"R_tilde": 1.0}}),
        # EXTRA has no growth factor; theta0 and delta are checked for every method
        lambda d: d.update(algorithm={"algorithm": "extra", "extra_alpha": 1e-3, "gamma": 0.5}),
        lambda d: d.update(algorithm={"algorithm": "extra", "extra_alpha": 1e-3, "theta0": -1}),
        lambda d: d.update(algorithm={"algorithm": "extra", "extra_alpha": 1e-3, "delta": -3}),
        lambda d: d.update(output=5),
        lambda d: d.update(problem={"kind": "logistic", "dataset": 5, "m": 6, "h": 3}),
        lambda d: d.update(problem={"kind": "logistic", "dataset": str(Path(__file__).parent),
                                    "m": 6, "h": 3}),
        lambda d: d["algorithm"].update(d0=10**30),
        lambda d: d.update(epsilon=float("nan")),
        lambda d: d["problem"].update({"lambda": float("nan")}),
        lambda d: d["problem"].update({"lambda": float("inf")}),
        # integer keys take no bool, float or string, and nothing beyond int64
        lambda d: d["algorithm"].update(d0=2.7),
        lambda d: d["algorithm"].update(d0=True),
        lambda d: d["problem"].update(n="5"),
        lambda d: d["problem"].update(h=8.7),
        lambda d: d["problem"].update(h=True),
        lambda d: d["problem"].update(seed=1.5),
        lambda d: d["graph"].update(seed=1.5),
        lambda d: d["graph"].update(seed=2**63),
        # real keys take no bool or string, and nothing non-finite
        lambda d: d["graph"].update(p="0.5"),
        lambda d: d["problem"].update({"lambda": True}),
        lambda d: d["algorithm"].update(theta0="1"),
        lambda d: d["algorithm"].update(delta="0.5"),
        lambda d: d.update(algorithm={"algorithm": "extra", "extra_alpha": float("nan")}),
        lambda d: d.update(algorithm={"algorithm": "extra", "extra_alpha": float("inf")}),
        # every section, kind and method takes only the keys it lists
        lambda d: d["algorithm"].update(foo=1),
        lambda d: d.update(graph={"kind": "line", "m": 6, "p": 0.5}),
        lambda d: d["problem"].update(dataset="a3a"),
        lambda d: d["algorithm"].update(extra_alpha=1e-3),
        lambda d: d["algorithm"].update(extra_alpha_grid=[1e-3]),
        lambda d: d["algorithm"].update(gamma={"beta1": 2, "zeta": 1}),
        lambda d: d["algorithm"].update(safeguard={"R_tilde": 1.0, "q": 1}),
        lambda d: d["algorithm"].update(gamma=True),
        # the safeguard's one form is {R_tilde: r}; no key is no safeguard
        lambda d: d["algorithm"].update(safeguard={"enabled": True, "R_tilde": 1.0}),
        lambda d: d["algorithm"].update(safeguard={"enabled": False, "R_tilde": 1.0}),
        lambda d: d["algorithm"].update(safeguard={"enabled": False}),
        lambda d: d["algorithm"].update(safeguard=None),
    ],
    ids=["max_iterations", "max_vector_rounds", "stride", "seed", "c", "epsilon",
         "fixed_point_tol", "missing_n", "problem_n", "problem_lambda", "problem_seed",
         "graph_p", "graph_seed", "fixed_point_tol_negative", "fixed_point_tol_unreachable",
         "problem_n_list", "graph_p_list", "safeguard_no_radius", "safeguard_scalar",
         "safeguard_nan_radius", "safeguard_negative_radius", "theta0_nan", "gamma_beta1_nan",
         "gamma_nan", "gamma_below_one", "nips_global_d0", "nips_local_d0", "extra_d0",
         "nips_global_d0_safeguard", "nips_local_safeguard", "extra_safeguard", "extra_gamma",
         "extra_theta0_negative", "extra_delta_negative", "output_int", "dataset_int",
         "dataset_directory", "d0_beyond_int64", "epsilon_nan", "lambda_nan", "lambda_inf",
         "d0_float", "d0_bool", "problem_n_string", "problem_h_float", "problem_h_bool",
         "problem_seed_float", "graph_seed_float", "graph_seed_beyond_int64", "graph_p_string",
         "lambda_bool", "theta0_string", "delta_string", "extra_alpha_nan", "extra_alpha_inf",
         "algorithm_unknown_key", "line_graph_p", "quadratic_dataset", "adaptive_extra_alpha",
         "adaptive_extra_alpha_grid", "gamma_unknown_key", "safeguard_unknown_key", "gamma_bool",
         "safeguard_enabled", "safeguard_disabled", "safeguard_disabled_no_radius", "safeguard_null"],
)
def test_cli_rejects_mistyped_config(tmp_path, capfd, mutate):
    raw = small_quadratic_config()
    mutate(raw)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["run", "--config", str(cfg_path)]) == 3
    # captured at the file descriptors, so LAPACK's own error printing shows too
    out, err = capfd.readouterr()
    assert out == "" and err.startswith("config error:") and "Traceback" not in err


def test_cli_reads_exponent_floats_as_yaml_1_2_does(tmp_path, capsys):
    # 1e-6 (no dot) and 1.0e308 (unsigned exponent) are floats in YAML 1.2; YAML 1.1 reads strings
    raw = small_quadratic_config()
    del raw["epsilon"]
    raw["algorithm"]["theta0"] = "THETA0"
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw).replace("THETA0", "1.0e308") + "epsilon: 1e-6\n")
    cfg = load_config(cfg_path)
    assert cfg.epsilon == 1e-6 and cfg.algorithm["theta0"] == 1.0e308
    assert type(cfg.max_iterations) is int and type(cfg.graph["m"]) is int  # integers stay integers
    raw["algorithm"]["theta0"] = 1.0
    cfg_path.write_text(yaml.safe_dump(raw) + "epsilon: 1e-6\n")
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert "status=converged" in capsys.readouterr().out


@pytest.mark.parametrize(
    "line, message",
    [('epsilon: "1e-6"', "epsilon must be a positive finite real number, got '1e-6'"),
     ("graph: {kind: line, m: 2e1}", "graph.m must be an integer (positive, within int64), got 20.0")],
    ids=["quoted_exponent", "exponent_count"],
)
def test_cli_rejects_a_quoted_or_float_exponent_number(tmp_path, capsys, line, message):
    # a quoted scalar stays a string, and 2e1 is the float 20.0, which no count takes
    raw = small_quadratic_config()
    key = line.split(":")[0]
    del raw[key]
    if key == "graph":
        raw["problem"]["m"] = 20
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw) + line + "\n")
    assert main(["run", "--config", str(cfg_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.strip() == f"config error: {message}"


@pytest.mark.parametrize(
    "command",
    [
        lambda tmp, cfg: ["run", "--config", cfg, "--out", str(tmp)],
        lambda tmp, cfg: ["run", "--config", cfg, "--out", str(tmp / "file" / "x.csv")],
        lambda tmp, cfg: ["suite", "diameter_sweep", "--out", str(tmp / "file"), "--max-rounds", "30"],
    ],
    ids=["run_out_directory", "run_out_below_file", "suite_out_file"],
)
def test_cli_unwritable_output_exits_3(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(small_quadratic_config()))
    (tmp_path / "file").write_text("")
    assert main(command(tmp_path, str(cfg_path))) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write") and "Traceback" not in err


@pytest.mark.parametrize("method", ["adaptive", "nips_global", "nips_local"])
@pytest.mark.parametrize("theta0", [0.0, -1.0])
def test_cli_rejects_nonpositive_theta0(tmp_path, capsys, method, theta0):
    raw = small_quadratic_config()
    raw["algorithm"] = {"algorithm": method, "theta0": theta0}
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert "theta0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw,theta0",
    [(small_quadratic_config(), 1e160),
     (yaml.safe_load((EXAMPLES / "quadratic_line.yaml").read_text()), 1e300)],
    ids=["small_1e160", "line_1e300"],
)
def test_cli_huge_theta0_converges(tmp_path, capsys, raw, theta0):
    # the first trial points overflow to an infinite value; the line
    # search must back off to a finite value rather than accept the overflow
    raw["algorithm"]["theta0"] = theta0
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "trace.csv")]) == 0
    assert "status=converged" in capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_overflowing_ridge_exits_3_before_lapack_runs(tmp_path, capfd):
    # m * ridge = 4e308 overflows the Hessian's diagonal; inf * 0 off it gave NaNs,
    # and LAPACK printed its illegal-value lines to stdout before failing
    raw = small_quadratic_config(graph={"kind": "line", "m": 4})
    raw["problem"] = {"kind": "quadratic", "m": 4, "h": 3, "n": 2, "lambda": 1.0e308, "seed": 2}
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["run", "--config", str(cfg_path)]) == 3
    # captured at the file descriptors, so LAPACK's own printing would show
    out, err = capfd.readouterr()
    assert out == "" and err == "config error: centralized oracle: the summed Hessian is not finite\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_overflowing_growth_ends_stalled(tmp_path, capsys):
    # gamma_0 * theta0 = 2 * 1e308 is inf: no halving reaches a finite stepsize
    raw = small_quadratic_config()
    raw["algorithm"]["theta0"] = 1e308
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "status=stalled" in capsys.readouterr().out


def _fail_after(monkeypatch, searches: int, error=BacktrackingError) -> None:
    """Let the first ``searches`` line searches run, then make every later one raise ``error``."""
    real = algorithms.backtrack_batch
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) > searches:
            raise error("the step failed")
        return real(*args)

    monkeypatch.setattr(algorithms, "backtrack_batch", failing)


def test_run_ends_stalled_when_the_line_search_fails(monkeypatch):
    _fail_after(monkeypatch, 3)
    trace = run(RunConfig.from_dict(small_quadratic_config()))
    assert trace.status == "stalled"
    assert [r.k for r in trace.rows] == [0, 1, 2, 3]
    assert [r.status for r in trace.rows] == ["running"] * 3 + ["stalled"]
    # the stalled row is the iterate before the failed step: three steps of three rounds of each kind
    assert (trace.final.vector_rounds, trace.final.scalar_rounds) == (9, 9)


def test_cli_stalled_run_exits_1_without_traceback(tmp_path, capsys, monkeypatch):
    _fail_after(monkeypatch, 0)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(small_quadratic_config()))
    assert main(["run", "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert "status=stalled k=0" in out
    assert "Traceback" not in err and "Error" not in err


def test_cli_setup_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    # stands in for the m x m factor of a large graph; nothing large is allocated
    def no_memory(gm):
        raise MemoryError(f"Unable to allocate {8 * gm.graph.m**2} bytes")

    monkeypatch.setattr(harness, "spectral_data", no_memory)
    with pytest.raises(ConfigError, match="m=6 agents: Unable to allocate 288 bytes"):
        run(RunConfig.from_dict(small_quadratic_config()))
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(small_quadratic_config()))
    assert main(["run", "--config", str(cfg_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: not enough memory") and "Traceback" not in err


def _large_quadratic_config(m: int, n: int, **overrides) -> dict:
    """A sparse ER quadratic with m agents and dimension n: CSR gossip products."""
    raw = small_quadratic_config(**{"max_iterations": 40, **overrides})
    raw["graph"] = {"kind": "erdos_renyi", "m": m, "p": 0.03, "seed": 5}
    raw["problem"] = {"kind": "quadratic", "m": m, "h": 3, "n": n, "lambda": 0.1, "seed": 3}
    return raw


def _spy_on_V(monkeypatch) -> tuple[list, list]:
    """(merit_sc on the iterate of every row run() computes V for, the factors run() makes)."""
    expected, factors, algos = [], [], []
    make, spectral = harness._make_algorithm, harness.spectral_data
    monkeypatch.setattr(harness, "_make_algorithm", lambda *args: algos.append(make(*args)) or algos[-1])
    monkeypatch.setattr(harness, "spectral_data", lambda gm: factors.append(spectral(gm)) or factors[-1])

    class Spy(harness.PreimageMerit):
        def __init__(self, fp, R, W):
            super().__init__(fp, R, W)
            self.fp = fp

        def __call__(self, dX_sq, Y, Z, theta_min_prev):
            expected.append(merit_sc(algos[-1].X, Y, theta_min_prev, self.fp, factors[-1]))
            return super().__call__(dX_sq, Y, Z, theta_min_prev)

    monkeypatch.setattr(harness, "PreimageMerit", Spy)
    return expected, factors


@pytest.mark.parametrize(
    "raw,fail,status",
    [
        (small_quadratic_config(), None, "converged"),
        (small_quadratic_config(max_iterations=25, stride=3), None, "budget_exhausted"),
        (_large_quadratic_config(300, 7), None, "budget_exhausted"),
        (_large_quadratic_config(256, 20, stride=3), None, "budget_exhausted"),
        (_large_quadratic_config(260, 1, max_iterations=16), None, "budget_exhausted"),
        (_large_quadratic_config(280, 4, stride=2), (19, DivergenceError), "diverged"),
        (_large_quadratic_config(280, 4), (21, BacktrackingError), "stalled"),
        (_large_quadratic_config(256, 12, algorithm={"algorithm": "nips_local"}), None, "budget_exhausted"),
    ],
    ids=["m6", "m6-stride3", "m300-d7", "m256-d20-stride3", "m260-d1",
         "m280-d4-stride2-diverged", "m280-d4-stalled", "m256-d12-nips_local"],
)
def test_every_V_is_merit_sc_of_its_iterate(monkeypatch, raw, fail, status):
    # V, from the duals' carried preimage and one factor per run, is the merit of each
    # written row's iterate with its preimage solved exactly, up to the final row of every
    # kind of stop
    expected, factors = _spy_on_V(monkeypatch)
    if fail is not None:
        _fail_after(monkeypatch, *fail)
    trace = run(RunConfig.from_dict(raw))
    assert trace.status == status and len(factors) == 1
    V = [r.V for r in trace.rows]
    assert len(V) == len(expected) and all(v is not None for v in V)
    assert V == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_extra_rows_have_no_V(monkeypatch):
    expected, factors = _spy_on_V(monkeypatch)
    raw = _large_quadratic_config(300, 7, max_iterations=20)
    raw["algorithm"] = {"algorithm": "extra", "extra_alpha": 1e-3}
    trace = run(RunConfig.from_dict(raw))
    assert len(trace.rows) == 21 and all(r.V is None for r in trace.rows)
    assert expected == factors == []


@pytest.mark.parametrize("m,n", [(6, 5), (300, 7)])
def test_a_cut_run_is_a_prefix_of_a_longer_one(tmp_path, m, n):
    # the run cut at k=23 writes the longer run's rows up to k=23 byte for byte, V included
    raw = small_quadratic_config() if m == 6 else _large_quadratic_config(m, n)
    lines = {}
    for cut in (23, 40):
        out = tmp_path / f"{cut}.csv"
        run(RunConfig.from_dict({**raw, "max_iterations": cut, "epsilon": 1e-30, "output": str(out)}))
        lines[cut] = out.read_text().splitlines()[2:]
    assert len(lines[23]) == 24 and lines[23][:-1] == lines[40][:23]
    assert lines[23][-1] == lines[40][23].replace(",running", ",budget_exhausted")


def test_cli_merit_block_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    # the merit's m x m factor, the one m^2 array a run makes, cannot be allocated;
    # nothing large is allocated here
    def no_memory(gm):
        raise MemoryError(f"Unable to allocate {8 * gm.graph.m**2} bytes")

    monkeypatch.setattr(harness, "spectral_data", no_memory)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(small_quadratic_config()))
    assert main(["run", "--config", str(cfg_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("config error: not enough memory to set up a run with m=6 agents: ")
    assert "Unable to allocate 288 bytes" in err


def test_run_on_scaled_data_passes_the_oracle(monkeypatch):
    # A x3, b x1e4: ||sum grad f(0)|| = 2.7e7 lifts the gradient's rounding
    # floor to about 2.5e-8, above the absolute 1e-8 the oracle's loop aims at;
    # b x1e6 lifts the dual rows' sum at x* to about 4.6e-7, above 20 x 1e-8
    generate = harness.generate_quadratic
    raw = small_quadratic_config(max_iterations=3)
    raw["graph"] = {"kind": "line", "m": 20}
    raw["problem"] = {"kind": "quadratic", "m": 20, "h": 110, "n": 100, "lambda": 0.0, "seed": 10}
    for b_scale in (1e4, 1e6):

        def scaled(*args, **kwargs):
            base = generate(*args, **kwargs)
            return QuadraticFamily(3.0 * base.A, b_scale * base.b)

        monkeypatch.setattr(harness, "generate_quadratic", scaled)
        assert run(RunConfig.from_dict(raw)).status == "budget_exhausted"


def test_cli_tune_extra(tmp_path, capsys):
    raw = small_quadratic_config(epsilon=1e-4)
    raw["algorithm"] = {"algorithm": "extra", "extra_alpha_grid": [1e-3, 1e-2]}
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["tune-extra", "--config", str(cfg_path)]) == 0
    assert "best alpha" in capsys.readouterr().out


@pytest.mark.parametrize("gamma", [{"constant": 1.5}, 1.5, None], ids=["constant", "number", "null"])
def test_cli_gamma_takes_only_the_schedule(tmp_path, capsys, gamma):
    raw = small_quadratic_config()
    raw["algorithm"]["gamma"] = gamma
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["run", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err  # "algorithm.gamma must be a mapping", or its unknown key "constant"
    assert err.startswith("config error:") and "algorithm.gamma" in err and "Traceback" not in err


def test_safeguard_config_gives_the_radius():
    gm, fam = gossip_matrix(build_line_graph(3)), generate_quadratic(m=3, h=2, n=2, ridge=0.0, seed=1)
    guarded = harness._make_algorithm(
        {"algorithm": "adaptive", "safeguard": {"R_tilde": 5}}, gm, fam, np.zeros((3, 2)), 1.0)
    plain = harness._make_algorithm({"algorithm": "adaptive"}, gm, fam, np.zeros((3, 2)), 1.0)
    assert (guarded.safeguard_radius, plain.safeguard_radius) == (5.0, None)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "path, value",
    [(("graph", "m"), np.int64(6)), (("seed",), np.int64(1)), (("max_iterations",), np.int64(5)),
     (("epsilon",), np.float32(1e-5)), (("algorithm", "theta0"), np.float32(1.0)),
     (("problem", "lambda"), np.float32(0.0))],
    ids=["graph_m_int64", "seed_int64", "max_iterations_int64", "epsilon_float32", "theta0_float32",
         "lambda_float32"],
)
def test_config_rejects_numpy_scalars(tmp_path, path, value):
    # the trace comment's json.dumps takes neither, and graph_from_spec rejects an np.int64 m
    raw = small_quadratic_config()
    raw["output"] = str(tmp_path / "trace.csv")
    section = raw
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    with pytest.raises(ConfigError, match=".".join(path)):
        run(RunConfig.from_dict(raw))
    assert not (tmp_path / "trace.csv").exists()


def test_unit_gamma_is_the_schedule_with_beta1_one():
    gm, fam = gossip_matrix(build_line_graph(3)), generate_quadratic(m=3, h=2, n=2, ridge=0.0, seed=1)
    spec = {"algorithm": "adaptive", "gamma": {"beta1": 1}}
    algo = harness._make_algorithm(spec, gm, fam, np.zeros((3, 2)), 1.0)
    assert [algo.gamma(k) for k in range(50)] == [1.0] * 50


@pytest.mark.parametrize(
    "grid", ["ab", 5, ["x"], [float("nan")], [True]],
    ids=["string", "scalar", "list_of_string", "nan", "bool"],
)
def test_cli_tune_extra_rejects_malformed_grid(tmp_path, capsys, grid):
    raw = small_quadratic_config()
    raw["algorithm"] = {"algorithm": "extra", "extra_alpha_grid": grid}
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["tune-extra", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: algorithm.extra_alpha_grid") and "Traceback" not in err


def test_every_run_config_is_checked_when_built():
    # dataclasses.replace builds a RunConfig too: tune_extra's per-alpha runs, the CLI's --out
    cfg = RunConfig.from_dict(small_quadratic_config())
    with pytest.raises(ConfigError, match="unknown config key algorithm.d0"):
        replace(cfg, algorithm={**cfg.algorithm, "algorithm": "nips_global"})
    with pytest.raises(ConfigError, match="stride must be"):
        replace(cfg, stride=0)
    with pytest.raises(ConfigError, match="algorithm.extra_alpha must be"):
        replace(cfg, algorithm={"algorithm": "extra", "extra_alpha": float("nan")})
    with pytest.raises(ConfigError, match="algorithm.extra_alpha_grid must be"):
        tune_extra(replace(cfg, algorithm={"algorithm": "extra"}), grid=[])


# the example configs the fuzzing mutates, and the command each one is run with
FUZZ_COMMANDS = {"quadratic_line": "run", "extra_tune": "tune-extra"}
FUZZ_VALUES = (None, True, "x", [1], {}, float("nan"), float("inf"), -1, 0, 2**64)
DROP = "<drop>"


def _key_paths(node: dict, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _edit(raw: dict, path: tuple, value) -> None:
    """Set the key at ``path`` to ``value``, adding it if absent, or drop it when ``value`` is DROP."""
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        parent.pop(path[-1], None)
    else:  # a copy: FUZZ_VALUES' {} and [1] are shared between edits
        parent[path[-1]] = copy.deepcopy(value)


def _value_at(raw: dict, path: tuple):
    for key in path:
        raw = raw[key]
    return raw


@st.composite
def mutated_examples(draw):
    """An example config and one or two edits: drop a key, set it to an odd value, or add an unlisted key."""
    name = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    raw = yaml.safe_load((EXAMPLES / f"{name}.yaml").read_text())
    edits = []
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_key_paths(raw))
        if draw(st.booleans()):
            path = draw(st.sampled_from(paths))
        else:
            mappings = [()] + [p for p in paths if isinstance(_value_at(raw, p), dict)]
            path = draw(st.sampled_from(mappings)) + ("unlisted",)
        value = draw(st.sampled_from((DROP, *FUZZ_VALUES)))
        _edit(raw, path, value)
        edits.append((path, value))
    return name, edits


@settings(max_examples=40, deadline=None)
@given(case=mutated_examples(), must_reject=st.just(False))
# pinned: inputs that ran, or crashed, before every config key was checked, and a
# growth exponent whose power overflowed inside a step
@example(case=("quadratic_line", [(("algorithm", "foo"), 1)]), must_reject=True)
@example(case=("quadratic_line", [(("graph", "p"), 0.5)]), must_reject=True)
@example(case=("quadratic_line", [(("problem", "dataset"), "a3a")]), must_reject=True)
@example(case=("quadratic_line", [(("algorithm", "extra_alpha"), 1e-3)]), must_reject=True)
@example(case=("quadratic_line", [(("algorithm", "extra_alpha_grid"), [1e-3])]), must_reject=True)
@example(case=("quadratic_line", [(("algorithm", "gamma"), {"beta1": 2, "zeta": 1})]), must_reject=True)
@example(case=("quadratic_line", [(("algorithm", "safeguard"), {"R_tilde": 1.0, "q": 1})]), must_reject=True)
@example(
    case=("quadratic_line", [(("algorithm", "safeguard"), {"enabled": "no", "R_tilde": 1.0})]),
    must_reject=True,
)
@example(case=("quadratic_line", [(("algorithm", "gamma"), True)]), must_reject=True)
@example(case=("quadratic_line", [(("algorithm", "gamma", "beta2"), 2**64)]), must_reject=False)
@example(case=("extra_tune", [(("algorithm", "extra_alpha_grid"), "ab")]), must_reject=True)
@example(case=("extra_tune", [(("algorithm", "extra_alpha_grid"), 5)]), must_reject=True)
@example(case=("extra_tune", [(("algorithm", "extra_alpha_grid"), ["x"])]), must_reject=True)
@example(case=("extra_tune", [(("algorithm", "extra_alpha_grid"), [float("nan")])]), must_reject=True)
@example(case=("extra_tune", [(("algorithm", "extra_alpha_grid"), [True])]), must_reject=True)
def test_cli_mutated_example_configs_exit_cleanly(case, must_reject):
    # a mutated example config exits 0-3 and never with a traceback; one that
    # keeps a key no section lists, and each one pinned above, exits 3
    name, edits = case
    raw = yaml.safe_load((EXAMPLES / f"{name}.yaml").read_text())
    raw["max_iterations"] = 3
    for path, value in edits:
        _edit(raw, path, value)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([FUZZ_COMMANDS[name], "--config", str(cfg_path), "--out", str(Path(tmp) / "t.csv")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if must_reject or any("unlisted" in path for path in _key_paths(raw)):
        assert code == 3 and err.getvalue().startswith("config error:")


def test_cli_suite(tmp_path):
    assert main(["suite", "diameter_sweep", "--out", str(tmp_path), "--max-rounds", "120"]) == 0
    assert (tmp_path / "diameter_sweep" / "summary.csv").is_file()


def test_cli_suite_rejects_zero_round_budget(tmp_path, capsys):
    assert main(["suite", "diameter_sweep", "--out", str(tmp_path), "--max-rounds", "0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "diameter_sweep").exists()
