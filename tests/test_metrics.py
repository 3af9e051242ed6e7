import gc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_array

from gossipopt import AdaptiveAlgorithm, MetricsError, fixed_point, generate_quadratic, gossip_matrix, metrics
from gossipopt.graphs import (
    build_complete_graph,
    build_erdos_renyi,
    build_line_graph,
    metropolis_weights,
    spectral_data,
)
from gossipopt.losses import QuadraticFamily, inner
from gossipopt.metrics import (
    ErgodicAverage,
    FixedPoint,
    PreimageMerit,
    merit_cvx,
    merit_sc,
)
from conftest import (
    CountingFamily,
    connected_er,
    dense,
    linear_rate_fit,
    merit_cvx_reference,
    spectral_reference,
    synthetic_logistic,
)


def two_agent_pull():
    """f1 = ||x - 1||^2, f2 = ||x + 1||^2 in one dimension."""
    A = np.ones((2, 1, 1))
    b = np.array([[1.0], [-1.0]])
    return QuadraticFamily(A, b, ridge=0.0)


def zero_losses(m=2, d=1):
    return QuadraticFamily(np.zeros((m, 1, d)), np.zeros((m, 1)), ridge=0.0)


def test_fixed_point_hand_example():
    fp = fixed_point(two_agent_pull(), tol=1e-10)
    np.testing.assert_allclose(fp.x_star, [0.0], atol=1e-12)
    np.testing.assert_allclose(fp.Y_star, [[2.0], [-2.0]], atol=1e-12)
    assert abs(fp.Y_star.sum()) <= 1e-12


def test_fixed_point_symmetric_zero():
    A = np.tile(np.eye(2)[None, :, :], (2, 1, 1))
    fam = QuadraticFamily(A, np.zeros((2, 2)), ridge=0.0)
    fp = fixed_point(fam, tol=1e-10)
    np.testing.assert_allclose(fp.x_star, np.zeros(2), atol=1e-12)
    np.testing.assert_allclose(fp.Y_star, np.zeros((2, 2)), atol=1e-12)


def test_fixed_point_random_residual():
    fam = generate_quadratic(m=20, h=10, n=8, ridge=0.0, seed=30)
    fp = fixed_point(fam, tol=1e-8)
    assert np.linalg.norm(fam.gradients(fp.X_star).sum(axis=0)) <= 1e-8


def test_fixed_point_is_solved_once_per_family_and_tol(monkeypatch):
    solves = []
    solve = metrics.centralized_solve
    monkeypatch.setattr(metrics, "centralized_solve", lambda fam, tol: solves.append(tol) or solve(fam, tol=tol))
    fam = generate_quadratic(m=4, h=5, n=3, ridge=0.0, seed=2)
    fp = fixed_point(fam)
    assert fixed_point(fam) is fp and fixed_point(fam, tol=1e-10) is not fp
    assert fixed_point(generate_quadratic(m=4, h=5, n=3, ridge=0.0, seed=2)) is not fp
    assert solves == [1e-8, 1e-10, 1e-8]
    gc.collect()
    entries = len(metrics._FIXED_POINTS)
    del fam, fp
    gc.collect()
    assert len(metrics._FIXED_POINTS) == entries - 1  # each entry goes with its family


def test_merit_sc_zero_at_fixed_point():
    gm = gossip_matrix(build_complete_graph(2), c=0.5)
    R = spectral_data(gm)
    fp = fixed_point(two_agent_pull(), tol=1e-10)
    assert merit_sc(fp.X_star, fp.Y_star, 0.7, fp, R) <= 1e-24


def test_merit_sc_frobenius_term_only(rng):
    gm = gossip_matrix(build_complete_graph(2), c=0.5)
    R = spectral_data(gm)
    fp = fixed_point(two_agent_pull(), tol=1e-10)
    E = rng.standard_normal((2, 1))
    E /= np.linalg.norm(E)
    assert merit_sc(fp.X_star + E, fp.Y_star, 0.3, fp, R) == pytest.approx(1.0, rel=1e-12)


def test_merit_sc_hand_dual_term():
    # complete graph m=2, c=1/2: the disagreement direction has M-eigenvalue 1;
    # dual offset [1, -1] with theta 2 contributes 4 * 2 = 8
    gm = gossip_matrix(build_complete_graph(2), c=0.5)
    R = spectral_data(gm)
    fp = FixedPoint(
        x_star=np.zeros(1), X_star=np.zeros((2, 1)), Y_star=np.zeros((2, 1)), F_star=0.0
    )
    Y = np.array([[1.0], [-1.0]])
    assert merit_sc(fp.X_star, Y, 2.0, fp, R) == pytest.approx(8.0, abs=1e-12)


def test_merit_sc_positive_under_perturbations(rng):
    g = build_erdos_renyi(5, 0.6, seed=5)
    gm = gossip_matrix(g, c=0.5)
    R = spectral_data(gm)
    fam = generate_quadratic(m=5, h=6, n=3, ridge=0.0, seed=31)
    fp = fixed_point(fam, tol=1e-8)
    IW = np.eye(5) - dense(gm.W_op)
    for _ in range(20):
        dX = rng.standard_normal((5, 3)) * 1e-3
        assert merit_sc(fp.X_star + dX, fp.Y_star, 0.5, fp, R) >= 1e-16
        dY = IW @ rng.standard_normal((5, 3))  # perturbation in range(I - W)
        assert merit_sc(fp.X_star, fp.Y_star + dY, 0.5, fp, R) >= 1e-16


@settings(max_examples=60, deadline=None)
@given(
    # the line graph's M is smallest on the alternating direction
    g=st.one_of(connected_er, st.builds(build_line_graph, st.integers(2, 40))),
    c=st.floats(1e-3, 0.5),
    theta=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
    alternating=st.booleans(),
)
def test_merit_sc_matches_dense_reference(g, c, theta, seed, alternating):
    gm = gossip_matrix(g, c=c)
    rng = np.random.default_rng(seed)
    m, d = g.m, 3
    fp = FixedPoint(
        x_star=np.zeros(d), X_star=rng.standard_normal((m, d)), Y_star=rng.standard_normal((m, d)), F_star=0.0
    )
    if alternating:  # the dual term alone
        X, dY = fp.X_star.copy(), np.outer((-1.0) ** np.arange(m), rng.standard_normal(d))
    else:
        X, dY = fp.X_star + rng.standard_normal((m, d)), rng.standard_normal((m, d))
    Y = fp.Y_star + dY
    dY = dY - dY.mean(axis=0)
    dX = X - fp.X_star
    expected = np.sum(dX * dX) + theta**2 * max(np.sum(dY * (spectral_reference(gm) @ dY)), 0.0)
    assert merit_sc(X, Y, theta, fp, spectral_data(gm)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "m,d,stride,rows", [(7, 3, 1, 3), (12, 2, 8, 5), (40, 1, 16, 16), (300, 20, 8, 19), (260, 7, 16, 40)]
)
def test_preimage_merit_is_merit_sc_along_a_run(m, d, stride, rows):
    # V from the duals' carried preimage, at every stride-th iterate of a run, is the merit
    # of that iterate whose preimage merit_sc solves for exactly. Each rounds a product with
    # I - W, whose smallest nonzero eigenvalue lambda_2 is 1.5e-5 on the 300-agent line: a
    # rounding of relative eps there moves dY^T pinv(I - W) dY by up to about eps / lambda_2.
    gm = gossip_matrix(build_line_graph(m), c=0.4)
    fam = generate_quadratic(m=m, h=3, n=d, ridge=0.1, seed=m)
    fp = fixed_point(fam)
    R = spectral_data(gm)
    lambda_2 = np.linalg.eigvalsh(np.eye(m) - dense(gm.W_op))[1]
    rel = max(1e-12, 2 * np.finfo(float).eps / lambda_2)
    merit = PreimageMerit(fp, R, gm.W_op)
    algo = AdaptiveAlgorithm(gm, fam, np.zeros((m, d)))
    for _ in range(rows):
        for _ in range(stride):
            algo.step()
        theta = algo.stats()["theta_min"]
        V = merit(inner(algo.X - fp.X_star), algo.Y, algo.Z, theta)
        assert V == pytest.approx(merit_sc(algo.X, algo.Y, theta, fp, R), rel=rel, abs=0.0)


def exact_merit(X, Y, theta, fp, gm) -> Fraction:
    """V of one iterate in rational arithmetic, from the float entries of W_tilde, c, X, Y, X* and Y*.

    ||X - X*||^2 + theta^2 max(dY^T pinv(I - W) dY - ||dY||^2, 0), dY = Y - Y* off the all-ones
    direction, with pinv(I - W) dY solved from ((I - W) + c 11^T/m) D = dY by Gauss-Jordan.
    """
    m, d = X.shape
    c, W_tilde = Fraction(gm.c), dense(metropolis_weights(gm.graph))
    A = [[c * ((i == j) - Fraction(W_tilde[i, j])) + c / m for j in range(m)] for i in range(m)]
    dY = [[Fraction(Y[i, j]) - Fraction(fp.Y_star[i, j]) for j in range(d)] for i in range(m)]
    means = [sum(row[j] for row in dY) / m for j in range(d)]
    dY = [[row[j] - means[j] for j in range(d)] for row in dY]
    D = [list(a) + list(b) for a, b in zip(A, dY)]  # [A | dY], reduced to [I | A^-1 dY]
    for col in range(m):
        pivot = next(r for r in range(col, m) if D[r][col] != 0)
        D[col], D[pivot] = D[pivot], D[col]
        D[col] = [v / D[col][col] for v in D[col]]
        for r in range(m):
            if r != col and D[r][col] != 0:
                D[r] = [v - D[r][col] * p for v, p in zip(D[r], D[col])]
    Q = sum(D[i][m + j] * dY[i][j] for i in range(m) for j in range(d))
    dY_sq = sum(v * v for row in dY for v in row)
    dX_sq = sum((Fraction(X[i, j]) - Fraction(fp.X_star[i, j])) ** 2 for i in range(m) for j in range(d))
    return dX_sq + Fraction(theta) ** 2 * max(Q - dY_sq, Fraction(0))


@pytest.mark.parametrize("graph", [build_line_graph(8), build_erdos_renyi(7, 0.5, seed=3)], ids=["line8", "er7"])
@pytest.mark.parametrize("method", ["adaptive", "nips_global", "nips_local"])
def test_preimage_merit_matches_the_exact_rational_merit(graph, method):
    # along a run, every tenth row's V is within 1e-12 of V in exact arithmetic
    m = graph.m
    gm = gossip_matrix(graph, c=0.5)
    fam = generate_quadratic(m=m, h=4, n=3, ridge=0.0, seed=9)
    fp = fixed_point(fam)
    merit = PreimageMerit(fp, spectral_data(gm), gm.W_op)
    algo = AdaptiveAlgorithm(gm, fam, np.zeros((m, 3)), method=method)
    V = []
    for k in range(301):
        if k % 10 == 0:
            theta = algo.stats()["theta_min"]
            V.append(merit(inner(algo.X - fp.X_star), algo.Y, algo.Z, theta))
            exact = exact_merit(algo.X, algo.Y, theta, fp, gm)
            assert abs(Fraction(V[-1]) - exact) <= Fraction(1, 10**12) * exact, k
        algo.step()
    assert V[-1] <= 1e-6 * V[0]  # the rows reach well into the run's convergence


def direct_merit_cvx(X, fp, family, gm, delta):
    """merit_cvx with F(X) from the family's own oracle pass at X."""
    return merit_cvx(X, family.images(X), gm.W_op @ X, fp, family, delta)


def test_merit_cvx_zero_at_fixed_point():
    fam = two_agent_pull()
    gm = gossip_matrix(build_complete_graph(2), c=0.5)
    fp = fixed_point(fam, tol=1e-10)
    assert direct_merit_cvx(fp.X_star, fp, fam, gm, delta=1.0) <= 1e-12


def test_merit_cvx_consensual_suboptimal_point():
    fam = two_agent_pull()
    gm = gossip_matrix(build_complete_graph(2), c=0.5)
    fp = fixed_point(fam, tol=1e-10)
    X = np.full((2, 1), 0.5)  # consensual but away from the optimum
    expected = fam.values(X).sum() - fam.values(fp.X_star).sum()
    assert direct_merit_cvx(X, fp, fam, gm, delta=1.0) == pytest.approx(expected, rel=1e-12)
    assert expected > 0.0


def test_merit_cvx_hand_consensus_term():
    # complete graph m=2, c=1/2: I - W has eigenvalue 1/2 on disagreement,
    # so X = [1, -1] gives <(I-W)X, X> = 1 with zero losses
    fam = zero_losses()
    gm = gossip_matrix(build_complete_graph(2), c=0.5)
    fp = FixedPoint(
        x_star=np.zeros(1), X_star=np.zeros((2, 1)), Y_star=np.zeros((2, 1)), F_star=0.0
    )
    X = np.array([[1.0], [-1.0]])
    assert direct_merit_cvx(X, fp, fam, gm, delta=1.0) == pytest.approx(1.0, abs=1e-12)


def test_merit_cvx_makes_no_oracle_call(rng):
    # F(X*) is cached on the fixed point and F(X) read from the given image by
    # the family's total_at_mean, so a merit row computes no image, and calls
    # neither values nor gradients
    fam = generate_quadratic(m=4, h=5, n=3, ridge=0.0, seed=32)
    gm = gossip_matrix(build_erdos_renyi(4, 0.7, seed=6), c=0.5)
    fp = fixed_point(fam, tol=1e-8)
    counted = CountingFamily(fam)
    for rows in range(1, 4):
        X = rng.standard_normal((4, 3))
        merit_cvx(X, fam.images(X), gm.W_op @ X, fp, counted, delta=1.0)
        assert counted.passes == [] and counted.calls == {"images": 0, "values": 0, "gradients": 0}


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["quadratic", "logistic"]),
    m=st.integers(1, 6),
    iterates=st.integers(1, 12),
    spread=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_merit_cvx_from_mean_image_matches_direct(kind, m, iterates, spread, seed):
    # the mean of the images is the image of the mean iterate up to rounding
    rng = np.random.default_rng(seed)
    if kind == "quadratic":
        fam = generate_quadratic(m=m, h=5, n=3, ridge=float(rng.uniform(0.0, 2.0)), seed=seed % 1000)
    else:
        fam = synthetic_logistic(m, 7, 3, seed=seed % 1000)
    gm = gossip_matrix(build_complete_graph(m), c=0.5)
    fp = FixedPoint(
        x_star=np.zeros(3), X_star=np.zeros((m, 3)), Y_star=rng.standard_normal((m, 3)),
        F_star=float(rng.uniform(0.0, 10.0)),
    )
    erg = ErgodicAverage()
    for _ in range(iterates):
        X = spread * rng.standard_normal((m, 3))
        erg.update(X, fam.images(X), gm.W_op @ X)
    X_bar = erg.X_sum / erg.count
    merit = merit_cvx(erg.X_sum, erg.image_sum, erg.WX_sum, fp, fam, 0.5, erg.count)
    direct = direct_merit_cvx(X_bar, fp, fam, gm, delta=0.5)
    # the gap is a difference of these terms; its rounding scales with them
    terms = fam.values(X_bar).sum() + abs(fp.F_star) + abs(np.sum(fp.Y_star * X_bar))
    assert abs(merit - direct) <= 1e-12 * (abs(direct) + terms)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["quadratic", "logistic"]),
    graph=st.sampled_from(["complete", "line"]),
    ridge=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    count=st.integers(1, 50),
    spread=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_merit_cvx_from_sums_matches_the_materialized_reference(kind, graph, ridge, count, spread, seed):
    # the merit from the sums and the count against the mean iterate formed and
    # summed by numpy; the line graphs of 64 agents and more get a CSR W
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7)) if graph == "complete" else int(rng.integers(64, 81))
    g = build_complete_graph(m) if graph == "complete" else build_line_graph(m)
    gm = gossip_matrix(g, c=0.5)
    assert isinstance(gm.W_op, csr_array) == (graph == "line")
    if kind == "quadratic":
        fam = generate_quadratic(m=m, h=5, n=3, ridge=ridge, seed=seed % 1000)
    else:
        fam = synthetic_logistic(m, 7, 3, seed=seed % 1000)
    fp = FixedPoint(
        x_star=np.zeros(3), X_star=np.zeros((m, 3)), Y_star=rng.standard_normal((m, 3)),
        F_star=float(rng.uniform(0.0, 10.0)),
    )
    erg = ErgodicAverage()
    for _ in range(count):
        X = spread * rng.standard_normal((m, 3))
        erg.update(X, fam.images(X), gm.W_op @ X)
    merit = merit_cvx(erg.X_sum, erg.image_sum, erg.WX_sum, fp, fam, 0.5, erg.count)
    reference = merit_cvx_reference(erg.X_sum, erg.image_sum, fp, fam, gm, 0.5, erg.count)
    X_bar = erg.X_sum / erg.count
    # the gap is a difference of these terms; its rounding scales with them
    F_bar = fam.values(X_bar, erg.image_sum / erg.count).sum()
    terms = F_bar + abs(fp.F_star) + abs(np.sum(fp.Y_star * X_bar))
    assert abs(merit - reference) <= 1e-12 * (abs(reference) + terms)


@pytest.mark.parametrize("graph, m", [("complete", 6), ("line", 80)])
def test_merit_cvx_from_the_gossip_sum_matches_the_i_minus_w_form(graph, m, rng):
    # the consensus form from the summed gossip of each iterate, against delta <(I - W) S, S> / count^2
    gm = gossip_matrix(build_complete_graph(m) if graph == "complete" else build_line_graph(m), c=0.5)
    assert isinstance(gm.W_op, csr_array) == (m == 80)
    zero = QuadraticFamily(np.zeros((m, 1, 4)), np.zeros((m, 1)))
    origin = FixedPoint(np.zeros(4), np.zeros((m, 4)), np.zeros((m, 4)), 0.0)
    for count in (1, 3, 20):
        erg = ErgodicAverage()
        for _ in range(count):
            X = rng.uniform(0.1, 10.0) * rng.standard_normal((m, 4))
            erg.update(X, zero.images(X), gm.W_op @ X)
        S = erg.X_sum
        expected = 0.5 * float(np.sum(S * ((np.eye(m) - dense(gm.W_op)) @ S))) / count**2
        merit = merit_cvx(S, erg.image_sum, erg.WX_sum, origin, zero, 0.5, count)
        assert merit == pytest.approx(expected, rel=1e-12)


def test_merit_cvx_nonnegative_random(rng):
    fam = generate_quadratic(m=4, h=5, n=3, ridge=0.0, seed=32)
    gm = gossip_matrix(build_erdos_renyi(4, 0.7, seed=6), c=0.5)
    fp = fixed_point(fam, tol=1e-8)
    for _ in range(50):
        X = rng.standard_normal((4, 3)) * rng.uniform(0.1, 10.0)
        assert direct_merit_cvx(X, fp, fam, gm, delta=1.0) >= 0.0


def test_ergodic_average_constant():
    erg = ErgodicAverage()
    C, R, WC = np.full((2, 2), 3.5), np.full((2, 3), -0.25), np.full((2, 2), 1.5)
    for _ in range(7):
        erg.update(C, R, WC)
    assert erg.count == 7
    np.testing.assert_array_equal(erg.X_sum / erg.count, C)
    np.testing.assert_array_equal(erg.image_sum / erg.count, R)
    np.testing.assert_array_equal(erg.WX_sum / erg.count, WC)


def test_ergodic_average_two_point():
    erg = ErgodicAverage()
    erg.update(np.zeros((1, 2)), np.full((1, 3), 4.0), np.full((1, 2), -1.0))
    erg.update(np.full((1, 2), 2.0), np.zeros((1, 3)), np.zeros((1, 2)))
    np.testing.assert_array_equal(erg.X_sum, np.full((1, 2), 2.0))
    np.testing.assert_array_equal(erg.image_sum, np.full((1, 3), 4.0))
    np.testing.assert_array_equal(erg.WX_sum, np.full((1, 2), -1.0))
    assert erg.count == 2


def test_ergodic_average_matches_direct_sum(rng):
    erg = ErgodicAverage()
    xs = [rng.standard_normal((3, 2)) for _ in range(5)]
    rs = [rng.standard_normal((3, 4)) for _ in range(5)]
    ws = [rng.standard_normal((3, 2)) for _ in range(5)]
    for x, r, w in zip(xs, rs, ws):
        erg.update(x, r, w)
    np.testing.assert_allclose(erg.X_sum / erg.count, sum(xs) / 5.0, atol=1e-12)
    np.testing.assert_allclose(erg.image_sum / erg.count, sum(rs) / 5.0, atol=1e-12)
    np.testing.assert_allclose(erg.WX_sum / erg.count, sum(ws) / 5.0, atol=1e-12)


def test_ergodic_average_empty_errors():
    # the merit of an average of no iterates is an error, not a division by zero
    fam = two_agent_pull()
    gm = gossip_matrix(build_complete_graph(2), c=0.5)
    fp = fixed_point(fam, tol=1e-10)
    erg = ErgodicAverage()
    assert erg.X_sum is None and erg.image_sum is None and erg.WX_sum is None and erg.count == 0
    with pytest.raises(MetricsError):
        merit_cvx(fp.X_star, fam.images(fp.X_star), gm.W_op @ fp.X_star, fp, fam, 1.0, erg.count)


def test_linear_rate_fit_exact_geometric():
    ks = np.arange(200)
    vs = 0.5**ks
    assert linear_rate_fit(ks, vs) == pytest.approx(np.log(0.5), abs=1e-9)


def test_linear_rate_fit_constant():
    ks = np.arange(50)
    assert linear_rate_fit(ks, np.ones(50)) == pytest.approx(0.0, abs=1e-12)


def test_linear_rate_fit_sublinear_flattens():
    ks = np.arange(1, 2001)
    slope = linear_rate_fit(ks, 1.0 / ks)
    assert abs(slope) < 0.01  # nothing like a geometric certificate


def test_linear_rate_fit_skips_nonpositive_and_errors_when_short():
    ks = np.arange(30)
    vs = np.ones(30)
    vs[20:] = 0.0  # last half keeps only 5 positive rows
    with pytest.raises(MetricsError):
        linear_rate_fit(ks, vs)


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (600, 13), (8192,), (8193,), (600, 20), (40000,)])
def test_squared_norm_sums_chunks_of_one_ddot_left_to_right(shape, rng):
    A, B = rng.standard_normal(shape), rng.standard_normal(shape)
    a, b = A.ravel(), B.ravel()
    expected = expected_sq = 0.0
    for start in range(0, a.size, 8192):
        expected += np.vdot(a[start : start + 8192], b[start : start + 8192])
        expected_sq += np.vdot(a[start : start + 8192], a[start : start + 8192])
    assert inner(A, B) == expected
    assert inner(A) == inner(A, A) == expected_sq
    if a.size <= 8192:  # one chunk: the bytes of the one ddot it replaces
        assert inner(A, B) == np.vdot(A, B)
        assert inner(A) == np.vdot(A, A)
    # a strided view sums in its own C order, as its contiguous copy does
    assert inner(A.T) == inner(np.ascontiguousarray(A.T))
    assert inner(A.T, B.T) == inner(np.ascontiguousarray(A.T), np.ascontiguousarray(B.T))
    with pytest.raises(ValueError):
        inner(A, B[..., None])

