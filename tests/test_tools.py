"""The trace-corpus comparator in tools/trace_corpus.py, on small hand-written corpora."""

import importlib.util
import sys
from pathlib import Path

import pytest

from gossipopt.harness import CSV_HEADER


def _trace_corpus():
    path = Path(__file__).resolve().parents[1] / "tools" / "trace_corpus.py"
    spec = importlib.util.spec_from_file_location("trace_corpus", path)
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
    assert _trace_corpus().compare(*corpora) == 0
    out = capsys.readouterr().out
    assert "line/adaptive.csv: identical; converged k=3 -> converged k=3" in out
    assert "2 files, 2 byte-identical, 0 missing" in out


def test_compare_reports_first_stepsize_difference(corpora, capsys):
    a, b = corpora
    rows = [BASE[0], (0.5 + 1e-12, 0.5, "running"), (0.25, 0.375, "running"), (1e-6, 0.25, "running"),
            (1e-7, 0.25, "converged")]
    _write_trace(b / "line" / "adaptive.csv", rows)
    (b / "suite" / "summary.csv").write_text(SUMMARY + "line,adaptive,converged,4\n")
    assert _trace_corpus().compare(a, b) == 0  # same status, more iterations: reported, not gated
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
    assert _trace_corpus().compare(a, b) == 1
    assert "status change: line/adaptive.csv: converged -> diverged" in capsys.readouterr().out
    # a run that starts converging is not a regression
    assert _trace_corpus().compare(b, a) == 0


def test_compare_fails_on_missing_file(corpora, capsys):
    a, b = corpora
    (b / "suite" / "summary.csv").unlink()
    assert _trace_corpus().compare(a, b) == 1
    assert "suite/summary.csv: missing at B" in capsys.readouterr().out
