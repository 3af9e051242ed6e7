"""The scripts in tools/: the trace-corpus comparator on small hand-written corpora, and the
benchmark-pair summary on canned reports."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from gossipopt.harness import CSV_HEADER


ROOT = Path(__file__).resolve().parents[1]


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _write_trace(path: Path, rows) -> None:
    # rows: (err_rel, theta_min, status); V and M_erg follow err_rel
    lines = ['# {"seed": 1}', CSV_HEADER]
    for k, (err, theta, status) in enumerate(rows):
        lines.append(f"{k},{3 * k},{3 * k},{err!r},{err / 2!r},,{theta!r},{theta!r},,,,{status}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


SUMMARY = "graph,algorithm,status,iterations\n"
BASE = [(1.0, 1.0, "running"), (0.5, 0.5, "running"), (0.25, 0.5, "running"), (1e-6, 0.25, "converged")]


@pytest.fixture
def corpora(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        _write_trace(side / "line" / "adaptive.csv", BASE)
        (side / "suite").mkdir()
        (side / "suite" / "summary.csv").write_text(SUMMARY + "line,adaptive,converged,3\n")
    return a, b


def test_compare_identical_corpora(corpora, capsys):
    assert _tool("trace_corpus").compare(*corpora) == 0
    out = capsys.readouterr().out
    assert "line/adaptive.csv: identical; converged k=3 -> converged k=3" in out
    assert "2 files, 2 byte-identical, 0 missing" in out


def test_compare_reports_first_stepsize_difference(corpora, capsys):
    a, b = corpora
    rows = [BASE[0], (0.5 + 1e-12, 0.5, "running"), (0.25, 0.375, "running"), (1e-6, 0.25, "running"),
            (1e-7, 0.25, "converged")]
    _write_trace(b / "line" / "adaptive.csv", rows)
    (b / "suite" / "summary.csv").write_text(SUMMARY + "line,adaptive,converged,4\n")
    assert _tool("trace_corpus").compare(a, b) == 0  # same status, more iterations: reported, not gated
    out = capsys.readouterr().out
    assert "converged k=3 -> converged k=4" in out
    assert "first stepsize difference at k=2 (err_rel=0.25, M_erg=-)" in out
    # err_rel deviates by 1e-12 over its first value 1.0 before k=2; V by 5e-13 over 0.5
    assert "worst scaled deviation before it: err_rel 1.0e-12, V 1.0e-12" in out
    assert "1 cells differ: line/adaptive iterations: 3 -> 4" in out


def test_compare_fails_on_lost_convergence_only(corpora, capsys):
    a, b = corpora
    diverged = [*BASE[:3], (1e3, 0.25, "diverged")]
    _write_trace(b / "line" / "adaptive.csv", diverged)
    assert _tool("trace_corpus").compare(a, b) == 1
    assert "status change: line/adaptive.csv: converged -> diverged" in capsys.readouterr().out
    # a run that starts converging is not a regression
    assert _tool("trace_corpus").compare(b, a) == 0


def test_compare_fails_on_missing_file(corpora, capsys):
    a, b = corpora
    (b / "suite" / "summary.csv").unlink()
    assert _tool("trace_corpus").compare(a, b) == 1
    assert "suite/summary.csv: missing at B" in capsys.readouterr().out


def _result(seed: int, run_s: float, iterations: int, failed: int = 0) -> dict:
    """One workload's entry in a collect.py report."""
    metrics = {"run_s": {"value": run_s, "unit": "s"}, "iterations": {"value": iterations, "unit": "count"}}
    return {"seed": seed, "correct": True, "attempted": 10, "failed": failed, "metrics": metrics,
            "wall_s": 1.0, "exit": 0}


def test_bench_pairs_summary_arithmetic():
    parent = [_result(s, v, 100) for s, v in zip(range(1, 6), (1.0, 1.2, 0.9, 1.1, 1.4))]
    change = [_result(s, v, 100, failed=int(s == 3)) for s, v in zip(range(1, 6), (0.8, 1.2, 0.7, 1.0, 0.9))]
    entry = _tool("bench_pairs").summarize({"parent": {"w": parent}, "change": {"w": change}})["w"]
    run_s = entry["run_s"]
    # sorted 0.9 1.0 1.1 1.2 1.4: the exclusive quartiles sit at ranks 1.5 and 4.5
    assert run_s["parent"] == pytest.approx({"median": 1.1, "q1": 0.95, "q3": 1.3})
    assert run_s["change"] == pytest.approx({"median": 0.9, "q1": 0.75, "q3": 1.1})
    assert (run_s["change_lower_pairs"], run_s["ties"]) == (4, 1)
    assert run_s["median_change"] == pytest.approx(-0.2 / 1.1)
    assert run_s["parent_iqr"] == pytest.approx(0.35)
    iterations = entry["iterations"]
    assert (iterations["change_lower_pairs"], iterations["ties"], iterations["median_change"]) == (0, 5, 0.0)
    assert entry["pairs"] == 5
    assert entry["failed_ops"] == {"parent": 0, "change": 1}
    assert entry["attempted_ops"] == {"parent": 50, "change": 50}


def test_bench_pairs_prints_every_metric_and_whether_a_gain_holds(capsys):
    bench_pairs = _tool("bench_pairs")
    seeds = range(1, 11)
    parent = [1.0 + 0.01 * s for s in seeds]  # median 1.055, exclusive quartiles 1.0275 and 1.0825
    runs = {
        "parent": {w: [_result(s, v, 100) for s, v in zip(seeds, parent)] for w in ("w", "v")},
        "change": {
            # lower on 9 of 10 pairs; by 0.1, more than the IQR, at w, and by 0.001 at v
            w: [_result(s, v - gap if s < 10 else v + 0.01, 100) for s, v in zip(seeds, parent)]
            for w, gap in (("w", 0.1), ("v", 0.001))
        },
    }
    lines = bench_pairs.summary_lines(bench_pairs.summarize(runs))
    assert lines == [
        "w run_s: median 1.055 -> 0.955 (-9.5%), change lower on 9/10 pairs, parent IQR 0.055, gain rule holds",
        "w iterations: median 100 -> 100 (+0.0%), change lower on 0/10 pairs, parent IQR 0, "
        "gain rule does not hold",
        "v run_s: median 1.055 -> 1.054 (-0.1%), change lower on 9/10 pairs, parent IQR 0.055, "
        "gain rule does not hold",
        "v iterations: median 100 -> 100 (+0.0%), change lower on 0/10 pairs, parent IQR 0, "
        "gain rule does not hold",
    ]


def test_bench_pairs_rejects_unpaired_seeds():
    runs = {"parent": {"w": [_result(1, 1.0, 1)]}, "change": {"w": [_result(2, 1.0, 1)]}}
    with pytest.raises(ValueError, match="different seeds"):
        _tool("bench_pairs").summarize(runs)


@pytest.mark.parametrize("name", ["BENCH_11.json", "BENCH_12.json"])
def test_bench_pairs_reproduces_committed_summary(name):
    bench = json.loads((ROOT / name).read_text())
    assert _tool("bench_pairs").summarize(bench["runs"]) == bench["summary"]


def test_bench_pairs_alternates_the_side_that_runs_first(tmp_path, monkeypatch, capsys):
    bench_pairs = _tool("bench_pairs")
    calls = []

    def fake_collect(tree, seed):
        calls.append((tree.name, seed))
        run_s = 1.0 if tree.name == "parent" else 0.5
        return {"machine": {"nproc": 1}, "seconds": 30, "workloads": {"w": [_result(seed, run_s, 7)]}}

    monkeypatch.setattr(bench_pairs, "collect", fake_collect)
    monkeypatch.setattr(bench_pairs, "git_head", lambda tree: f"head-of-{tree.name}")
    out = tmp_path / "BENCH.json"
    args = [str(tmp_path / "parent"), str(tmp_path / "change"), "--seeds", "1-3"]
    assert bench_pairs.main([*args, "--out", str(out)]) == 0
    assert calls == [("change", 1), ("parent", 1), ("parent", 2), ("change", 2), ("change", 3), ("parent", 3)]
    bench = json.loads(out.read_text())
    assert (bench["seeds"], bench["seconds"], bench["parent_commit"]) == ([1, 2, 3], 30, "head-of-parent")
    printed = capsys.readouterr().out
    assert "w run_s: median 1 -> 0.5 (-50.0%), change lower on 3/3 pairs, parent IQR 0, gain rule holds" in printed
    assert "w iterations: median 7 -> 7 (+0.0%)" in printed
    assert bench["summary"]["w"]["run_s"]["change_lower_pairs"] == 3
    assert [r["seed"] for r in bench["runs"]["parent"]["w"]] == [1, 2, 3]


def test_bench_pairs_refuses_a_parent_without_git_head(tmp_path, monkeypatch):
    # a `git archive` export has no HEAD: the report could not name its parent commit
    bench_pairs = _tool("bench_pairs")
    calls = []
    monkeypatch.setattr(bench_pairs, "collect", lambda tree, seed: calls.append(seed))
    (tmp_path / "parent").mkdir()
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match="git clone.*git worktree add --detach"):
        bench_pairs.main([str(tmp_path / "parent"), str(ROOT), "--seeds", "1", "--out", str(out)])
    assert calls == [] and not out.exists()


def test_sweep_times_each_agent_count_in_its_own_process(tmp_path, capsys):
    # tiny cycles, one pair of runs each: every figure is there and the thinned run writes 2 rows
    out = tmp_path / "sweep.json"
    args = ["--out", str(out), "--agents", "6,9", "--runs", "1", "--iterations", "3"]
    assert _tool("sweep").main(args) == 0
    sweep = json.loads(out.read_text())
    assert (sweep["iterations"], sweep["runs"], list(sweep["trees"])) == (3, 1, ["this"])
    figures = sweep["trees"]["this"]["agents"]
    assert list(figures) == ["6", "9"]
    for m in figures.values():
        assert m["rows"] == {"written": 4, "thinned": 2}
        for key in ("setup_s", "spectral_s", "us_per_iter", "step_us", "peak_rss_mb"):
            assert m[key] > 0.0
        assert "merit_ms_per_row" in m
    assert "m=9" in capsys.readouterr().out


def test_sweep_rejects_a_tree_without_the_package(tmp_path):
    with pytest.raises(SystemExit):
        _tool("sweep").main(["--out", str(tmp_path / "s.json"), "--tree", f"x={tmp_path}"])
    assert not (tmp_path / "s.json").exists()
