"""The sparse path: the CSR products sparse graphs get, against dense references, and a set-up
that allocates no dense m x m array."""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_array

from gossipopt import (
    AdaptiveAlgorithm,
    AdaptiveState,
    FixedPoint,
    NeighborExchange,
    QuadraticFamily,
    adaptive_step,
    build_cycle_graph,
    build_erdos_renyi,
    build_line_graph,
    fixed_point,
    generate_quadratic,
    gossip_matrix,
    merit_cvx,
    merit_sc,
    spectral_data,
)
from conftest import dense, metropolis_reference, written_out_step

DENSE = {
    "line20": lambda: build_line_graph(20),
    "line40": lambda: build_line_graph(40),
    "er20_p0.1": lambda: build_erdos_renyi(20, 0.1, seed=7),
    "er20_p0.5": lambda: build_erdos_renyi(20, 0.5, seed=11),
}
SPARSE = {
    "er200_p0.05": lambda: build_erdos_renyi(200, 0.05, seed=5),
    "er600": lambda: build_erdos_renyi(600, 0.032, seed=7),
    "cycle200": lambda: build_cycle_graph(200),
}


@pytest.mark.parametrize("name", list(DENSE))
def test_dense_graphs_keep_the_dense_matrices(name):
    gm = gossip_matrix(DENSE[name](), c=0.5)
    assert isinstance(gm.W_op, np.ndarray) and isinstance(gm.I_minus_W, np.ndarray)


@pytest.mark.parametrize("name", list(SPARSE))
def test_sparse_graphs_get_csr_operators(name):
    g, c = SPARSE[name](), 0.5
    gm = gossip_matrix(g, c=c)
    assert isinstance(gm.W_op, csr_array) and isinstance(gm.I_minus_W, csr_array)
    # the dense forms, built here from the edge-loop weights alone
    W = (1.0 - c) * np.eye(g.m) + c * metropolis_reference(g)
    assert np.array_equal(gm.W_op.toarray(), W)
    assert np.array_equal(gm.I_minus_W.toarray(), np.eye(g.m) - W)


@pytest.fixture(scope="module")
def er200():
    gm = gossip_matrix(SPARSE["er200_p0.05"](), c=0.5)
    return gm, generate_quadratic(m=200, h=10, n=20, ridge=0.0, seed=5)


def test_csr_gossip_matches_dense_product(er200, rng):
    gm, _ = er200
    exchange = NeighborExchange(gm)
    V = rng.standard_normal((200, 20))
    expected = dense(gm.W_op) @ V
    out = exchange.gossip_rows(V)
    assert isinstance(out, np.ndarray) and out.shape == V.shape
    assert np.linalg.norm(out - expected) <= 1e-15 * np.linalg.norm(expected)
    assert exchange.vector_rounds == 1


def test_csr_step_matches_written_out_recurrence(er200, rng):
    gm, fam = er200
    X = rng.standard_normal((200, 20))
    Y = rng.standard_normal((200, 20))
    state = AdaptiveState.initial(X, theta0=0.05)
    state.Y = Y.copy()
    adaptive_step(state, NeighborExchange(gm), fam, 1.5, 1.0, "adaptive")
    X_ref, Y_ref = written_out_step(dense(gm.W_op), fam, X, Y, state.theta, state.pi)
    assert np.abs(state.X - X_ref).max() <= 1e-12
    assert np.abs(state.Y - Y_ref).max() <= 1e-12


def test_csr_merit_cvx_matches_dense_form(er200, rng):
    # zero losses leave only the consensus form, the term the CSR kernel computes
    gm, _ = er200
    zero = QuadraticFamily(np.zeros((200, 1, 20)), np.zeros((200, 1)))
    origin = FixedPoint(np.zeros(20), np.zeros((200, 20)), np.zeros((200, 20)), 0.0)
    for _ in range(3):
        X = rng.standard_normal((200, 20))
        expected = 0.5 * float(np.sum(X * ((np.eye(200) - dense(gm.W_op)) @ X)))
        assert merit_cvx(X, zero.images(X), origin, zero, gm, delta=0.5) == pytest.approx(expected, rel=1e-12)


def traced_peak(build) -> int:
    """Peak bytes that ``build()`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sparse_set_up_allocates_no_dense_matrix():
    # a quarter of one dense m x m float64 array
    m = 2000
    limit = m * m * 8 // 4

    def gossip_set_up():
        gm = gossip_matrix(build_cycle_graph(m), c=0.5)
        return gm.W_op, gm.I_minus_W

    assert traced_peak(gossip_set_up) < limit
    assert traced_peak(lambda: build_erdos_renyi(m, 3.0 * np.log(m) / m, seed=3)) < limit


def test_graph_holds_only_its_pattern():
    # what a built graph keeps: the CSR pattern of about 48k entries (0.4 MB),
    # no Python copy of its 23k edges
    m = 2000
    tracemalloc.start()
    try:
        g = build_erdos_renyi(m, 3.0 * np.log(m) / m, seed=3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.indices.size > 40_000
    assert held < 1_000_000


@pytest.mark.parametrize("name", ["line20", "cycle200", "er600"])
def test_operators_leave_the_graph_pattern_alone(name):
    # at c = 1e-17 the diagonal of I - W rounds to zero, and its CSR drops those entries
    g = {**DENSE, **SPARSE}[name]()
    indptr, indices = g.indptr.copy(), g.indices.copy()
    gm = gossip_matrix(g, c=1e-17)
    assert np.array_equal(gm.W_op.diagonal(), np.ones(g.m))
    assert not gm.I_minus_W.diagonal().any()
    assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)
    assert g.indptr.dtype == g.indices.dtype == np.intp
    for a in (g.indptr, g.indices):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1


def test_sparse_run_path_never_builds_the_dense_matrices():
    # a step, both merits and the factor: every product a run makes
    gm = gossip_matrix(build_cycle_graph(200), c=0.5)
    fam = generate_quadratic(m=200, h=5, n=4, ridge=0.0, seed=1)
    fp = fixed_point(fam)
    algo = AdaptiveAlgorithm(gm, fam, np.zeros((200, 4)))
    algo.step()
    T = spectral_data(gm)
    merit_sc(algo.X, algo.Y, algo.stats()["theta_min"], fp, T)
    merit_cvx(algo.X, algo.image, fp, fam, gm, delta=1.0)
    assert isinstance(gm.W_op, csr_array) and isinstance(gm.I_minus_W, csr_array)
    assert "edges" not in vars(gm.graph)
