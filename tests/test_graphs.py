import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_array

from gossipopt import (
    GraphError,
    build_complete_graph,
    build_cycle_graph,
    build_erdos_renyi,
    build_line_graph,
    diameter,
    gossip_matrix,
    graph_from_spec,
    metropolis_weights,
    spectral_data,
)
from conftest import (
    connected_er,
    dense,
    edge_adjacency,
    erdos_renyi_reference,
    floyd_warshall_diameter,
    graph_from_pairs,
    metropolis_reference,
    metric_from_factor,
    neighborhood,
    spectral_reference,
)


def test_line_graph_edges():
    g = build_line_graph(3)
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert neighborhood(g, 1).tolist() == [0, 1, 2]  # self included
    assert g.indices.tolist() == [0, 1, 0, 1, 2, 1, 2]
    assert g.indptr.tolist() == [0, 2, 5, 7]
    assert g.m == 3


def test_line_graph_m20_diameter():
    assert diameter(build_line_graph(20)) == 19


def test_single_node():
    g = build_line_graph(1)
    assert g.edges == frozenset()
    assert diameter(g) == 0


def test_neighbors_include_self():
    for g in (build_erdos_renyi(8, 0.4, seed=3), build_line_graph(5), build_complete_graph(4)):
        for i in range(g.m):
            assert i in neighborhood(g, i)


def test_graph_copies_keep_a_read_only_pattern():
    g = build_erdos_renyi(12, 0.3, seed=2)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin.edges == g.edges
        for a in (twin.indptr, twin.indices):
            assert a.dtype == np.intp and not a.flags.writeable


def test_erdos_renyi_p1_is_complete():
    g = build_erdos_renyi(4, 1.0, seed=0)
    assert g.edges == build_complete_graph(4).edges
    assert diameter(g) == 1


def test_erdos_renyi_p0_connectivity_error():
    with pytest.raises(GraphError, match="connected"):
        build_erdos_renyi(20, 0.0, seed=0)


def test_erdos_renyi_connected_and_deterministic():
    g1 = build_erdos_renyi(20, 0.5, seed=42)
    g2 = build_erdos_renyi(20, 0.5, seed=42)
    assert g1.edges == g2.edges
    # independent reachability check: expand a frontier from node 0
    reached = {0}
    frontier = {0}
    while frontier:
        nxt = set()
        for u in frontier:
            for i, j in g1.edges:
                if i == u and j not in reached:
                    nxt.add(j)
                if j == u and i not in reached:
                    nxt.add(i)
        reached |= nxt
        frontier = nxt
    assert reached == set(range(20))


def test_erdos_renyi_matches_pair_loop_reference():
    # first draws connected and redraws up to tens deep ((20, 0.1, 7) connects
    # at the 16th): the retries consume the generator exactly as the one-shot
    # draw does; m = 200 and 600 span several row blocks
    draws = []
    cases = ((20, 0.1, (*range(6), 7)), (30, 0.08, range(4, 9)), (200, 0.05, (5,)), (600, 0.032, (7,)))
    for m, p, seeds in cases:
        for seed in seeds:
            edges, n_draws = erdos_renyi_reference(m, p, seed)
            assert build_erdos_renyi(m, p, seed).edges == edges
            draws.append(n_draws)
    assert min(draws) == 1 and max(draws) > 10


def test_erdos_renyi_bad_p():
    with pytest.raises(GraphError):
        build_erdos_renyi(5, 1.5, seed=0)
    with pytest.raises(GraphError):
        build_erdos_renyi(5, -0.1, seed=0)


@pytest.mark.parametrize(
    "g,expected",
    [
        (build_line_graph(5), 4),
        (build_complete_graph(6), 1),
        (build_cycle_graph(6), 3),
    ],
)
def test_diameter_examples(g, expected):
    assert diameter(g) == expected


def test_diameter_matches_floyd_warshall():
    for seed in range(40):
        m = 2 + seed % 7  # m <= 8
        g = build_erdos_renyi(m, 0.5, seed=seed)
        assert diameter(g) == floyd_warshall_diameter(g)


def test_diameter_disconnected_errors():
    g = graph_from_pairs(2, [])
    with pytest.raises(GraphError, match="disconnected"):
        diameter(g)


@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 129])
def test_diameter_matches_floyd_warshall_across_word_boundaries(m):
    # the flooded bitsets take ceil(m/64) words; 63, 64, 65 and 129 straddle them
    graphs = [build_line_graph(m), build_cycle_graph(m), build_complete_graph(m)]
    if m >= 2:
        graphs.append(build_erdos_renyi(m, min(1.0, 3.0 * np.log(m) / m), seed=m))
    for g in graphs:
        assert diameter(g) == floyd_warshall_diameter(g)


def test_diameter_disconnected_past_the_first_word_errors():
    # a 66-agent line and a 4-agent line: the flood stalls after a few rounds, not at once
    g = graph_from_pairs(70, [*build_line_graph(66).edges, (66, 67), (67, 68), (68, 69)])
    with pytest.raises(GraphError, match="disconnected"):
        diameter(g)


def test_metropolis_line3():
    w = metropolis_weights(build_line_graph(3))
    assert isinstance(w, csr_array)
    third = 1.0 / 3.0
    expected = np.array([[2 * third, third, 0.0], [third, third, third], [0.0, third, 2 * third]])
    np.testing.assert_allclose(w.toarray(), expected, rtol=0, atol=1e-15)
    assert np.array_equal(w.toarray(), metropolis_reference(build_line_graph(3)))


def test_metropolis_complete2():
    w = metropolis_weights(build_complete_graph(2)).toarray()
    np.testing.assert_allclose(w, [[0.5, 0.5], [0.5, 0.5]], rtol=0, atol=0)
    assert np.array_equal(w, metropolis_reference(build_complete_graph(2)))


def test_metropolis_single_node():
    w = metropolis_weights(build_line_graph(1)).toarray()
    np.testing.assert_allclose(w, [[1.0]])
    assert np.array_equal(w, metropolis_reference(build_line_graph(1)))


def test_metropolis_equals_edge_loop_on_600_agents():
    # ten summing blocks, and rows whose pairwise sum a sequential sum over
    # the nonzeros would round differently
    g = build_erdos_renyi(600, 0.032, seed=7)
    assert np.array_equal(metropolis_weights(g).toarray(), metropolis_reference(g))


def test_gossip_complete2_half_mixing():
    gm = gossip_matrix(build_complete_graph(2), c=0.5)
    np.testing.assert_allclose(dense(gm.W_op), [[0.75, 0.25], [0.25, 0.75]], rtol=0, atol=0)


def test_gossip_line3_half_mixing():
    gm = gossip_matrix(build_line_graph(3), c=0.5)
    sixth = 1.0 / 6.0
    expected = np.array(
        [[5 * sixth, sixth, 0.0], [sixth, 4 * sixth, sixth], [0.0, sixth, 5 * sixth]]
    )
    np.testing.assert_allclose(dense(gm.W_op), expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("c", [0.0, -0.1, 0.51, 1.0])
def test_gossip_rejects_illegal_c(c):
    with pytest.raises(GraphError):
        gossip_matrix(build_line_graph(3), c=c)


any_graph = st.one_of(
    connected_er,
    *(st.builds(build, st.integers(1, 24))
      for build in (build_line_graph, build_cycle_graph, build_complete_graph)),
)


@settings(max_examples=80, deadline=None)
@given(g=any_graph, c=st.floats(1e-3, 0.5))
def test_gossip_invariants_random_graphs(g, c):
    # W_tilde and W are doubly stochastic, exactly symmetric, and carry weight
    # off the diagonal exactly on the edge set
    gm = gossip_matrix(g, c=c)
    edges = edge_adjacency(g) != 0.0
    W_tilde, W = dense(metropolis_weights(g)), dense(gm.W_op)
    for W in (W_tilde, W):
        assert np.array_equal(W, W.T)
        assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(W.sum(axis=0) - 1.0).max() <= 1e-12
        off = W - np.diag(np.diag(W))
        assert np.array_equal(off != 0.0, edges)
    assert np.diag(W_tilde).min() > 0.0
    assert np.diag(W).min() >= 1.0 - c


@settings(max_examples=60, deadline=None)
@given(g=any_graph)
def test_metropolis_equals_edge_loop(g):
    assert np.array_equal(metropolis_weights(g).toarray(), metropolis_reference(g))


@settings(max_examples=40, deadline=None)
@given(g=connected_er, c=st.floats(1e-3, 0.5))
def test_spectral_matches_eigh_pinv_random_er(g, c):
    gm = gossip_matrix(g, c=c)
    M, ref = metric_from_factor(spectral_data(gm), c), spectral_reference(gm)
    assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()


def test_mixing_limit_small_c():
    # raw mixing formula outside the validated range: W -> I as c -> 0
    g = build_line_graph(4)
    wt = metropolis_weights(g).toarray()
    c = 1e-6
    W = (1.0 - c) * np.eye(4) + c * wt
    assert np.abs(W - np.eye(4)).max() < 1e-6
    assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-12


def test_spectral_complete2_hand_values():
    gm = gossip_matrix(build_complete_graph(2), c=0.5)
    assert np.linalg.eigvalsh(dense(metropolis_weights(gm.graph)))[0] == pytest.approx(0.0, abs=1e-12)
    # disagreement direction has M-eigenvalue 2/1 - 1 = 1, ones direction -1
    M = metric_from_factor(spectral_data(gm), gm.c)
    np.testing.assert_allclose(M, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-12)


def test_spectral_single_node():
    M = metric_from_factor(spectral_data(gossip_matrix(build_line_graph(1), c=0.5)), 0.5)
    np.testing.assert_allclose(M, [[-1.0]], atol=1e-12)


def test_spectral_lambda2_below_one_connected():
    for seed in range(5):
        g = build_erdos_renyi(10, 0.4, seed=seed)
        eig = np.linalg.eigvalsh(dense(metropolis_weights(g)))
        assert eig[-2] < 1.0 - 1e-8
        assert eig[0] >= -1.0 - 1e-12


@pytest.mark.parametrize(
    "g",
    [build_erdos_renyi(m, p, seed) for m, p, seed in
     ((2, 1.0, 0), (9, 0.4, 1), (20, 0.1, 7), (20, 0.5, 11), (60, 0.15, 2), (200, 0.05, 5))]
    + [build_line_graph(40), build_cycle_graph(30), build_complete_graph(12)],
    ids=lambda g: f"m{g.m}-e{len(g.edges)}",
)
@pytest.mark.parametrize("c", [0.5, 0.1])
def test_spectral_matches_eigh_pinv(g, c):
    gm = gossip_matrix(g, c=c)
    T = spectral_data(gm)
    # the layout dtrmm reads without a copy, and nothing below the diagonal
    assert T.flags.f_contiguous
    assert not np.tril(T, -1).any()
    M, ref = metric_from_factor(T, c), spectral_reference(gm)
    assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize(
    "m,edges",
    [(4, [(0, 1), (2, 3)]),  # Cholesky ends on a pivot of 1e-8
     (3, [(0, 1)])],  # Cholesky ends on a pivot of -1e-16
)
def test_spectral_disconnected_errors(m, edges):
    # two components leave two null directions of I - W_tilde: S is singular
    g = graph_from_pairs(m, edges)
    with pytest.raises(GraphError, match="disconnected"):
        spectral_data(gossip_matrix(g))


def test_M_positive_definite_on_disagreement_subspace():
    for seed in range(8):
        g = build_erdos_renyi(9, 0.4, seed=seed)
        gm = gossip_matrix(g, c=0.5)
        M = metric_from_factor(spectral_data(gm), gm.c)
        m = g.m
        ones = np.ones((m, 1)) / np.sqrt(m)
        proj = np.eye(m) - ones @ ones.T
        restricted = proj @ M @ proj
        eig = np.linalg.eigvalsh(restricted)
        # one zero eigenvalue from the projected-out direction; rest positive
        positive = eig[np.abs(eig) > 1e-9]
        lambda_min = np.linalg.eigvalsh(dense(metropolis_weights(g)))[0]
        floor = 1.0 / gm.c / (1.0 - lambda_min) - 1.0 - 1e-9
        assert positive.min() >= floor
        assert positive.min() > 0.0


def test_graph_from_spec_kinds():
    assert graph_from_spec({"kind": "line", "m": 4}).edges == build_line_graph(4).edges
    assert graph_from_spec({"kind": "cycle", "m": 5}).edges == build_cycle_graph(5).edges
    assert graph_from_spec({"kind": "complete", "m": 3}).edges == build_complete_graph(3).edges
    g = graph_from_spec({"kind": "erdos_renyi", "m": 10, "p": 0.5, "seed": 4})
    assert g.edges == build_erdos_renyi(10, 0.5, 4).edges


def test_graph_from_spec_errors():
    with pytest.raises(GraphError):
        graph_from_spec({"kind": "torus", "m": 4})
    with pytest.raises(GraphError):
        graph_from_spec({"kind": "line"})
    with pytest.raises(GraphError):
        graph_from_spec({"kind": "erdos_renyi", "m": 4})
    # a bool is an int to isinstance; True must not build a one-agent graph
    for flag in (True, False):
        with pytest.raises(GraphError, match="positive integer 'm'"):
            graph_from_spec({"kind": "line", "m": flag})
