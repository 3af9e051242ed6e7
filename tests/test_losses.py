import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gossipopt
from gossipopt import (
    LogisticFamily,
    LossError,
    QuadraticFamily,
    centralized_solve,
    generate_quadratic,
    parse_libsvm,
    partition_logistic,
    quadratic_condition_numbers,
)
from gossipopt import losses
from conftest import agent_gradient, agent_value, find_a3a, libsvm_reference, synthetic_logistic


def row_directional_fd(fam, X, U, eps=1e-6):
    """Central differences of every agent's loss at its row x_i along its row u_i."""
    return (fam.values(X + eps * U) - fam.values(X - eps * U)) / (2.0 * eps)


def one_hot_logistic(m: int, h: int, groups: int, width: int, seed: int) -> LogisticFamily:
    """a3a-like sparse data: one active binary feature per group of ``width`` columns.

    Every tenth sample has no active feature at all, so S has empty rows too.
    """
    rng = np.random.default_rng(seed)
    feats = np.zeros((m, h, groups * width))
    for g in range(groups):
        hit = rng.integers(width, size=(m, h))
        np.put_along_axis(feats, (g * width + hit)[:, :, None], 1.0, axis=2)
    feats[:, ::10] = 0.0
    labels = np.where(rng.random((m, h)) < 0.4, 1.0, -1.0)
    return LogisticFamily(feats, labels)


def test_quadratic_gradient_zero_at_least_squares_solution(rng):
    A = rng.standard_normal((1, 8, 5))
    b = rng.standard_normal((1, 8))
    fam = QuadraticFamily(A, b, ridge=0.0)
    x_star = np.linalg.lstsq(A[0], b[0], rcond=None)[0]
    assert np.linalg.norm(fam.gradients(x_star[None, :])[0]) < 1e-10


def test_logistic_value_at_zero_is_log2(rng):
    fam = synthetic_logistic(3, 7, 4, seed=0)
    np.testing.assert_allclose(fam.values(np.zeros((3, 4))), np.log(2.0), rtol=1e-12)


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_gradients_match_finite_differences(kind, rng):
    if kind == "quadratic":
        fam = generate_quadratic(m=4, h=6, n=5, ridge=0.3, seed=1)
    else:
        fam = synthetic_logistic(4, 9, 5, seed=1)
    for probe in range(25):  # 100 row checks over the 4 agents
        X = rng.standard_normal((fam.m, fam.dim))
        U = rng.standard_normal((fam.m, fam.dim))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        exact = np.einsum("ad,ad->a", fam.gradients(X), U)
        approx = row_directional_fd(fam, X, U)
        assert np.all(np.abs(exact - approx) <= 1e-5 * np.maximum(1.0, np.abs(exact)))


def test_stacked_gradients_match_per_agent(rng):
    # the stacked kernels against the per-agent reference written from each agent's data
    for fam in (
        generate_quadratic(m=5, h=4, n=3, ridge=0.1, seed=2),
        synthetic_logistic(5, 4, 3, seed=2),
        one_hot_logistic(5, 40, groups=6, width=5, seed=2),
    ):
        X = rng.standard_normal((fam.m, fam.dim))
        G = fam.gradients(X)
        V = fam.values(X)
        for i in range(fam.m):
            np.testing.assert_allclose(G[i], agent_gradient(fam, i, X[i]), rtol=1e-13)
            assert V[i] == pytest.approx(agent_value(fam, i, X[i]), rel=1e-13)


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "one_hot_logistic"])
def test_values_and_gradients_equal_separate_calls(kind, rng):
    # values and gradients from one shared image (residual or margins z) must not change a bit
    if kind == "quadratic":
        fam = generate_quadratic(m=6, h=11, n=7, ridge=0.4, seed=3)
    elif kind == "logistic":
        fam = synthetic_logistic(6, 11, 7, seed=3)
    else:
        fam = one_hot_logistic(6, 30, groups=4, width=3, seed=3)
    for _ in range(5):
        X = rng.standard_normal((fam.m, fam.dim))
        image = fam.images(X)
        F, G = fam.values(X, image), fam.gradients(X, image)
        assert np.array_equal(F, fam.values(X)) and np.array_equal(G, fam.gradients(X))
        # row i of the image reads x_i alone
        Z = X.copy()
        Z[1:] = rng.standard_normal((fam.m - 1, fam.dim))
        assert np.array_equal(fam.images(Z)[0], image[0])


def test_logistic_values_are_stable_softplus():
    # one sample per agent with a single feature: agent i's margin is exactly z_i
    z = np.concatenate([np.linspace(-1e3, 1e3, 2001), np.geomspace(1e-12, 40.0, 200)])
    z = np.concatenate([z, -z])
    fam = LogisticFamily(z[:, None, None], np.ones((z.size, 1)))
    values = fam.values(np.ones((z.size, 1)))
    reference = np.logaddexp(0.0, -z)
    assert np.isfinite(values).all()
    assert np.all(np.abs(values - reference) <= 1e-15 * np.maximum(reference, 1.0))


@pytest.mark.parametrize("data", ["one_hot", "gaussian", "scaled_quadratic"])
def test_centralized_solve_reaches_tolerance(data):
    if data == "one_hot":
        fam = one_hot_logistic(5, 40, groups=6, width=5, seed=21)
    elif data == "gaussian":
        fam = synthetic_logistic(5, 40, 30, seed=21)
    else:
        # large data lifts the gradient's rounding floor close to tol: two
        # least-squares solves end above it (1.3e-8), more Newton steps below
        base = generate_quadratic(20, 110, 100, 0.0, seed=0)
        fam = QuadraticFamily(3.0 * base.A, 2e3 * base.b)
    tol = 1e-8
    x = centralized_solve(fam, tol=tol)
    assert np.linalg.norm(fam.total_gradient(x)) <= tol
    # the minimizer of least norm: nothing along the stacked features' null space
    stacked = (fam.features if isinstance(fam, LogisticFamily) else fam.A).reshape(-1, fam.dim)
    _, sv, Vt = np.linalg.svd(stacked)
    null = Vt[np.count_nonzero(sv > 1e-10 * sv[0]):]
    assert np.linalg.norm(null @ x) <= 1e-12 * np.linalg.norm(x)


def test_centralized_solve_bytes_do_not_depend_on_blas_threads():
    # a3a-shaped one-hot data with 13 null directions: rounding must not pick the x*
    script = (
        "import hashlib\n"
        "from gossipopt import centralized_solve\n"
        "from test_losses import one_hot_logistic\n"
        "x = centralized_solve(one_hot_logistic(20, 159, groups=14, width=9, seed=21))\n"
        "print(hashlib.sha256(x.tobytes()).hexdigest())\n"
    )
    paths = [str(Path(gossipopt.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    hashes = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(paths))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        hashes.add(done.stdout)
    assert len(hashes) == 1


def test_generate_quadratic_benchmark_dimensions():
    fam = generate_quadratic(m=20, h=110, n=100, ridge=0.0, seed=1)
    assert fam.A.shape == (20, 110, 100)
    assert fam.b.shape == (20, 110)
    rank_one = generate_quadratic(m=20, h=1, n=100, ridge=0.0, seed=1)
    assert rank_one.A.shape == (20, 1, 100)


def test_generate_quadratic_deterministic():
    f1 = generate_quadratic(m=3, h=4, n=5, ridge=0.0, seed=7)
    f2 = generate_quadratic(m=3, h=4, n=5, ridge=0.0, seed=7)
    assert np.array_equal(f1.A, f2.A) and np.array_equal(f1.b, f2.b)


def _lower_bounds(fam, X, Y, mu):
    """Row-wise f_i(x_i) + <grad f_i(x_i), y_i - x_i> + (mu/2) ||y_i - x_i||^2."""
    D = Y - X
    return fam.values(X) + np.einsum("ad,ad->a", fam.gradients(X), D) + 0.5 * mu * np.einsum("ad,ad->a", D, D)


def test_quadratic_strong_convexity(rng):
    fam = generate_quadratic(m=3, h=5, n=4, ridge=0.8, seed=3)
    for _ in range(17):  # 51 row checks
        X, Y = rng.standard_normal((2, 3, 4))
        assert np.all(fam.values(Y) >= _lower_bounds(fam, X, Y, 0.8) - 1e-9)


def test_logistic_convexity(rng):
    fam = synthetic_logistic(3, 6, 4, seed=4)
    for _ in range(17):  # 51 row checks
        X, Y = rng.standard_normal((2, 3, 4))
        assert np.all(fam.values(Y) >= _lower_bounds(fam, X, Y, 0.0) - 1e-12)


def test_dimension_mismatch_errors():
    for fam in (generate_quadratic(m=2, h=3, n=4, ridge=0.0, seed=0), synthetic_logistic(2, 3, 4, seed=0)):
        for oracle in (fam.values, fam.gradients):
            for shape in ((3, 4), (2, 5), (4,)):
                with pytest.raises(LossError):
                    oracle(np.zeros(shape))


# --- libsvm parsing ---


def test_parse_libsvm_single_line(tmp_path):
    path = tmp_path / "one.svm"
    path.write_text("+1 3:0.5 7:1\n")
    labels, feats, dims = parse_libsvm(path)
    assert labels.tolist() == [1.0]
    assert dims == 7
    assert feats.shape == (1, 7)
    assert feats[0, 2] == 0.5 and feats[0, 6] == 1.0
    assert feats[0].sum() == 1.5


def test_parse_libsvm_label_only_row(tmp_path):
    path = tmp_path / "two.svm"
    path.write_text("+1 2:1.0\n-1\n")
    labels, feats, dims = parse_libsvm(path)
    assert labels.tolist() == [1.0, -1.0]
    assert dims == 2
    assert np.array_equal(feats[1], np.zeros(2))


def test_parse_libsvm_zero_one_labels(tmp_path):
    path = tmp_path / "zo.svm"
    path.write_text("1 1:1\n0 1:2\n")
    labels, _, _ = parse_libsvm(path)
    assert labels.tolist() == [1.0, -1.0]


def test_parse_libsvm_malformed_line(tmp_path):
    path = tmp_path / "bad.svm"
    path.write_text("+1 1:1\n-1 x:3\n")
    with pytest.raises(LossError, match="line 2"):
        parse_libsvm(path)


def test_parse_libsvm_zero_index_rejected(tmp_path):
    path = tmp_path / "zero.svm"
    path.write_text("+1 0:1\n")
    with pytest.raises(LossError, match="line 1"):
        parse_libsvm(path)


def test_parse_libsvm_empty_file(tmp_path):
    path = tmp_path / "empty.svm"
    path.write_text("")
    with pytest.raises(LossError, match="empty"):
        parse_libsvm(path)


def test_parse_libsvm_rejects_a_file_without_entries(tmp_path):
    # labels alone would make a 0-dimensional problem; a label-only row among others stays allowed
    path = tmp_path / "labels.svm"
    path.write_text("+1\n-1\n\n-1\n+1\n")
    with pytest.raises(LossError, match="no idx:val entry"):
        parse_libsvm(path)
    path.write_text("\n \t\n")
    with pytest.raises(LossError, match="empty"):
        parse_libsvm(path)


def _parsed(parse, path):
    """What a reader makes of a file: the bytes of its arrays, or its error message."""
    try:
        labels, feats, dims = parse(path)
    except LossError as exc:
        return str(exc)
    return labels.dtype, labels.tobytes(), feats.dtype, feats.shape, feats.tobytes(), dims


# token texts the reference reads as a valid index (1-based, 0-padded, signed, non-ASCII digits) ...
_INDEX_TEXT = st.integers(1, 12).flatmap(
    lambda i: st.sampled_from([str(i), f"0{i}", f"+{i}"] + ([chr(0x0660 + i)] if i < 10 else []))
)
_VALUE_TEXT = st.one_of(
    st.sampled_from(["1", "0", "-0", "0.5", "-2", "1e-3", "inf", "nan", "1_0"]),
    st.floats(width=64, allow_nan=False).map(repr),
)
_LABEL_TEXT = st.sampled_from(["+1", "-1", "1", "0", "2.5", "-0.0", "nan", "1e0"])
# ... and tokens it rejects, each in its own way
_BAD_TOKENS = ["x:3", "3", "3:", ":3", "3:1:2", "0:1", "-2:1", "3:y"]
_SPACE = st.sampled_from([" ", "\t", "  ", " \t "])


@st.composite
def libsvm_text(draw, bad: bool):
    """A libsvm file: shuffled and repeated indices, label-only, blank and whitespace-only lines,
    tabs and CRLF endings; with ``bad``, possibly a malformed token or label somewhere."""
    lines = []
    for _ in range(draw(st.integers(1, 14))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t", " \t "])))
            continue
        tokens = [draw(_LABEL_TEXT)]
        for _ in range(draw(st.integers(0, 5))):
            tokens.append(f"{draw(_INDEX_TEXT)}:{draw(_VALUE_TEXT)}")
        if bad and draw(st.integers(0, 9)) == 0:
            slot = draw(st.integers(0, len(tokens)))
            tokens.insert(slot, draw(st.sampled_from(_BAD_TOKENS if slot else ["x", "1:1", "+"])))
        line = draw(st.sampled_from(["", " ", "\t"])) + "".join(t + draw(_SPACE) for t in tokens)
        lines.append(line.rstrip(" \t") if draw(st.booleans()) else line)
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


@settings(max_examples=300, deadline=None)
@given(text=libsvm_text(bad=True), block=st.sampled_from([1, 2, 3, 5, 128]))
def test_parse_libsvm_matches_the_token_by_token_reference(tmp_path_factory, text, block):
    # labels, features and dimension byte for byte, or the same error naming the same line,
    # whichever block the line falls in
    path = tmp_path_factory.mktemp("svm") / "data.svm"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(losses, "_BLOCK_LINES", block):
        assert _parsed(parse_libsvm, path) == _parsed(libsvm_reference, path)


@pytest.mark.parametrize(
    "bad", ["-1 x:3", "-1 3", "-1 3:", "-1 :3", "-1 3:1:2", "-1 0:1", "x 3:1", "-1 3 4:1:2"]
)
@pytest.mark.parametrize("lineno", [1, 4, 11])
def test_parse_libsvm_names_the_malformed_line(tmp_path, monkeypatch, bad, lineno):
    # blocks of 4 lines: line 11 falls in the third block, after two good ones
    monkeypatch.setattr(losses, "_BLOCK_LINES", 4)
    lines = ["+1 1:1 5:0.5"] * 12
    lines[lineno - 1] = bad
    lines[lineno] = "+1 7:1:1"  # a later bad line must not be the one named
    path = tmp_path / "bad.svm"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LossError, match=f"line {lineno}:") as raised:
        parse_libsvm(path)
    assert str(raised.value) == _parsed(libsvm_reference, path)


def _benchmark_libsvm():
    spec = importlib.util.spec_from_file_location(
        "synthetic_logistic", Path(__file__).resolve().parents[1] / "benchmarks" / "synthetic_logistic.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_libsvm_reads_the_benchmark_file_byte_for_byte(tmp_path):
    # a3a-shaped data, 3,185 lines in many blocks, at the token orders of seeds 1-10
    synthetic = _benchmark_libsvm()
    labels, features = synthetic.generate(7)
    for seed in range(1, 11):
        path = tmp_path / f"seed{seed}.svm"
        synthetic.write_libsvm(path, labels, features, token_seed=seed)
        parsed = _parsed(parse_libsvm, path)
        assert parsed == _parsed(libsvm_reference, path)
        assert parsed[3] == (3185, 123)


def test_parse_a3a_counts():
    path = find_a3a()
    if path is None:
        pytest.skip("a3a dataset not present; see README for how to provide it")
    labels, feats, dims = parse_libsvm(path)
    assert len(labels) == 3185
    assert dims == 123
    assert set(np.unique(labels)) == {-1.0, 1.0}
    assert _parsed(parse_libsvm, path) == _parsed(libsvm_reference, path)


# --- partitioning ---


def _toy_dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    return np.where(rng.random(n) < 0.5, 1.0, -1.0), rng.standard_normal((n, d))


def test_partition_discards_leftovers():
    labels, feats = _toy_dataset(23, 3, seed=0)
    fam = partition_logistic(labels, feats, m=4, samples_per_agent=5, seed=1)
    assert fam.features.shape == (4, 5, 3)
    assert fam.m == 4 and fam.dim == 3


def test_partition_single_agent():
    labels, feats = _toy_dataset(10, 2, seed=0)
    fam = partition_logistic(labels, feats, m=1, samples_per_agent=6, seed=2)
    assert fam.features.shape == (1, 6, 2)


def test_partition_deterministic():
    labels, feats = _toy_dataset(30, 3, seed=0)
    f1 = partition_logistic(labels, feats, m=3, samples_per_agent=7, seed=9)
    f2 = partition_logistic(labels, feats, m=3, samples_per_agent=7, seed=9)
    assert np.array_equal(f1.features, f2.features)
    assert np.array_equal(f1.labels, f2.labels)


def test_partition_insufficient_samples():
    labels, feats = _toy_dataset(10, 2, seed=0)
    with pytest.raises(LossError, match="need"):
        partition_logistic(labels, feats, m=3, samples_per_agent=4, seed=0)


# --- centralized oracle ---


def test_centralized_quadratic_identity_system():
    A = np.eye(3)[None, :, :]
    b = np.array([[1.0, 2.0, 3.0]])
    fam = QuadraticFamily(A, b, ridge=0.0)
    x = centralized_solve(fam, tol=1e-10)
    np.testing.assert_allclose(x, b[0], atol=1e-12)


def test_centralized_quadratic_random_residual():
    fam = generate_quadratic(m=20, h=12, n=9, ridge=0.0, seed=11)
    x = centralized_solve(fam, tol=1e-8)
    assert np.linalg.norm(fam.total_gradient(x)) <= 1e-8


def test_centralized_rank_deficient_gives_min_norm():
    fam = generate_quadratic(m=5, h=1, n=20, ridge=0.0, seed=12)
    x = centralized_solve(fam, tol=1e-8)
    # minimum-norm solution lies in the span of the per-agent rows
    rows = fam.A.reshape(5, 20)
    coeffs = np.linalg.lstsq(rows.T, x, rcond=None)[0]
    assert np.linalg.norm(rows.T @ coeffs - x) <= 1e-8


def test_centralized_logistic_tiny_instance():
    fam = synthetic_logistic(2, 2, 2, seed=9)
    x = centralized_solve(fam, tol=1e-8)
    assert np.linalg.norm(fam.total_gradient(x)) <= 1e-8


def test_centralized_solve_bad_tol():
    fam = generate_quadratic(m=2, h=3, n=2, ridge=0.0, seed=0)
    with pytest.raises(LossError):
        centralized_solve(fam, tol=0.0)


def test_centralized_solve_raises_when_stalled(monkeypatch):
    # with no Newton step the gradient stays at its value at 0, above tol times itself
    monkeypatch.setattr(gossipopt.losses, "_NEWTON_ROUNDS", 0)
    with pytest.raises(LossError, match="stalled"):
        centralized_solve(generate_quadratic(m=2, h=3, n=2, ridge=0.0, seed=0))


def test_condition_numbers_decrease_with_ridge():
    base = generate_quadratic(m=4, h=30, n=20, ridge=0.0, seed=13)
    ridged = QuadraticFamily(base.A, base.b, ridge=50.0)
    assert quadratic_condition_numbers(ridged).max() < quadratic_condition_numbers(base).max()
