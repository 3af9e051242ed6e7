"""The CSR product kernel that sparse graphs get, against the dense matrices."""

import numpy as np
import pytest
from scipy.sparse import csr_array

from gossipopt import (
    AdaptiveState,
    FixedPoint,
    NeighborExchange,
    QuadraticFamily,
    adaptive_step,
    build_cycle_graph,
    build_erdos_renyi,
    build_line_graph,
    generate_quadratic,
    gossip_matrix,
    merit_cvx,
)
from conftest import written_out_step

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
    assert gm.W_op is gm.W
    assert isinstance(gm.I_minus_W, np.ndarray)


@pytest.mark.parametrize("name", list(SPARSE))
def test_sparse_graphs_get_csr_operators(name):
    gm = gossip_matrix(SPARSE[name](), c=0.5)
    assert isinstance(gm.W_op, csr_array) and isinstance(gm.I_minus_W, csr_array)
    np.testing.assert_array_equal(gm.W_op.toarray(), gm.W)
    np.testing.assert_array_equal(gm.I_minus_W.toarray(), np.eye(gm.graph.m) - gm.W)
    assert isinstance(gm.W, np.ndarray) and isinstance(gm.W_tilde, np.ndarray)


@pytest.fixture(scope="module")
def er200():
    gm = gossip_matrix(SPARSE["er200_p0.05"](), c=0.5)
    return gm, generate_quadratic(m=200, h=10, n=20, ridge=0.0, seed=5)


def test_csr_gossip_matches_dense_product(er200, rng):
    gm, _ = er200
    exchange = NeighborExchange(gm)
    V = rng.standard_normal((200, 20))
    dense = gm.W @ V
    out = exchange.gossip_rows(V)
    assert isinstance(out, np.ndarray) and out.shape == V.shape
    assert np.linalg.norm(out - dense) <= 1e-15 * np.linalg.norm(dense)
    assert exchange.vector_rounds == 1


def test_csr_step_matches_written_out_recurrence(er200, rng):
    gm, fam = er200
    X = rng.standard_normal((200, 20))
    Y = rng.standard_normal((200, 20))
    state = AdaptiveState.initial(X, theta0=0.05)
    state.Y = Y.copy()
    adaptive_step(state, NeighborExchange(gm), fam, 1.5, 1.0, "adaptive")
    X_ref, Y_ref = written_out_step(gm.W, fam, X, Y, state.theta, state.pi)
    assert np.abs(state.X - X_ref).max() <= 1e-12
    assert np.abs(state.Y - Y_ref).max() <= 1e-12


def test_csr_merit_cvx_matches_dense_form(er200, rng):
    # zero losses leave only the consensus form, the term the CSR kernel computes
    gm, _ = er200
    zero = QuadraticFamily(np.zeros((200, 1, 20)), np.zeros((200, 1)))
    origin = FixedPoint(np.zeros(20), np.zeros((200, 20)), np.zeros((200, 20)), 0.0)
    for _ in range(3):
        X = rng.standard_normal((200, 20))
        dense = 0.5 * float(np.sum(X * ((np.eye(200) - gm.W) @ X)))
        assert merit_cvx(X, origin, zero, gm, delta=0.5) == pytest.approx(dense, rel=1e-12)
