import copy
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import shortest_path

from gossipopt import (
    AdaptiveAlgorithm,
    AdaptiveState,
    DivergenceError,
    ExtraAlgorithm,
    GammaSchedule,
    GossipMatrix,
    NeighborExchange,
    QuadraticFamily,
    adaptive_step,
    build_complete_graph,
    build_erdos_renyi,
    build_line_graph,
    diameter,
    fixed_point,
    generate_quadratic,
    gossip_matrix,
    graph_from_spec,
    local_max_consensus,
    local_min_consensus,
)
from gossipopt import algorithms
from gossipopt.algorithms import DIVERGENCE_NORM, METHODS
from conftest import (
    CountingFamily,
    agent_gradient,
    backtrack,
    connected_er,
    dense,
    edge_adjacency,
    floyd_warshall_diameter,
    neighborhood,
    synthetic_logistic,
    written_out_step,
)


def scalar_quadratic(scale=0.5):
    """Single-agent family f(x) = scale * x^2 (A = [[sqrt(scale)]], b = 0)."""
    return QuadraticFamily(np.array([[[np.sqrt(scale)]]]), np.zeros((1, 1)), ridge=0.0)


# --- consensus primitives ---


def test_local_min_line3():
    g = build_line_graph(3)
    assert local_min_consensus(np.array([3.0, 1.0, 2.0]), g).tolist() == [1.0, 1.0, 1.0]


def test_local_min_line4_iterated():
    g = build_line_graph(4)
    v = np.array([4.0, 3.0, 2.0, 1.0])
    v1 = local_min_consensus(v, g)
    assert v1.tolist() == [3.0, 2.0, 1.0, 1.0]
    for _ in range(2):  # diameter is 3; two more rounds reach the global min
        v1 = local_min_consensus(v1, g)
    assert v1.tolist() == [1.0] * 4


def test_local_min_complete_one_round(rng):
    g = build_complete_graph(6)
    v = rng.standard_normal(6)
    assert np.all(local_min_consensus(v, g) == v.min())


def test_local_max_examples():
    g = build_line_graph(3)
    assert local_max_consensus(np.array([1.0, 2.0, 1.0]), g).tolist() == [2.0, 2.0, 2.0]
    single = build_line_graph(1)
    assert local_max_consensus(np.array([5.0]), single).tolist() == [5.0]
    complete = build_complete_graph(4)
    v = np.array([0.0, -1.0, 4.0, 2.0])
    assert np.all(local_max_consensus(v, complete) == 4.0)


def test_min_consensus_reaches_global_within_diameter(rng):
    for seed in range(20):
        g = build_erdos_renyi(4 + seed % 17, 0.3, seed=seed)
        v = rng.standard_normal(g.m)
        out = v.copy()
        for _ in range(diameter(g)):
            out = local_min_consensus(out, g)
        assert np.all(out == v.min())


@settings(max_examples=60, deadline=None)
@given(g=connected_er, data=st.data())
def test_consensus_is_local_and_reaches_in_exactly_diameter_rounds(g, data):
    # the reference neighborhoods come from the edge set, not from the pattern;
    # float and integer payloads keep their values and their dtype
    closed = edge_adjacency(g) + np.eye(g.m) > 0
    floats = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=g.m, max_size=g.m)))
    ints = np.array(data.draw(st.lists(st.integers(-2**40, 2**40), min_size=g.m, max_size=g.m)))
    for v, low, high in ((floats, -np.inf, np.inf), (ints, -2**41, 2**41)):
        for consensus, pad, reduce in ((local_min_consensus, high, np.min),
                                       (local_max_consensus, low, np.max)):
            out = consensus(v, g)
            ref = reduce(np.where(closed, v[None, :], pad), axis=1)
            assert out.dtype == ref.dtype == v.dtype
            np.testing.assert_array_equal(out, ref)

    # a unique minimum at one end of a diametral pair floods the graph in
    # exactly diameter-many rounds
    hops = shortest_path(edge_adjacency(g), unweighted=True)
    source, far = np.unravel_index(np.argmax(hops), hops.shape)
    d = diameter(g)
    assert hops[source, far] == d == floyd_warshall_diameter(g)
    out = np.ones(g.m)
    out[source] = 0.0
    for _ in range(d - 1):
        out = local_min_consensus(out, g)
    assert out[far] == 1.0
    out = local_min_consensus(out, g)
    assert np.all(out == 0.0)


# --- gamma schedule ---


def test_gamma_schedule_default_values():
    gamma = GammaSchedule()
    assert gamma(0) == 2.0
    assert gamma(1) == 1.5
    assert gamma(10**9) == pytest.approx(1.0, abs=1e-8)
    assert all(GammaSchedule(beta1=1.0, beta2=b)(k) == 1.0 for b in (0.5, 1.0, 3.0) for k in range(50))
    # the power overflows: the factor is inf, and the line search ends the run stalled
    assert GammaSchedule(beta2=2.0**64)(0) == np.inf


def test_gamma_schedule_validation():
    for beta1, beta2 in ((0.5, 1.0), (2.0, 0.0), (2.0, -1.0), (np.nan, 1.0), (2.0, np.nan),
                         (np.inf, 1.0), (2.0, np.inf)):
        with pytest.raises(ValueError):
            GammaSchedule(beta1=beta1, beta2=beta2)


# --- exchange layer ---


def test_gossip_weights_come_only_from_the_graph(rng):
    g = build_erdos_renyi(12, 0.3, seed=2)
    gm = gossip_matrix(g, c=0.5)
    non_edge = np.setdiff1d(np.arange(g.m), neighborhood(g, 0))[0]
    for W in (gm.W_op, gm.I_minus_W):
        with pytest.raises(ValueError):
            W[0, non_edge] = 1e-3  # read-only: no weight can be smuggled onto a non-edge
    with pytest.raises(TypeError):
        GossipMatrix(g, 0.5, W=np.eye(g.m))

    # row i of one gossip round reads only the rows of N_i
    exchange = NeighborExchange(gm)
    V = rng.standard_normal((g.m, 3))
    out = exchange.gossip_rows(V)
    for i in range(g.m):
        outside = np.setdiff1d(np.arange(g.m), neighborhood(g, i))
        moved = V.copy()
        moved[outside] = rng.standard_normal((outside.size, 3)) * 1e6
        np.testing.assert_array_equal(exchange.gossip_rows(moved)[i], out[i])


@pytest.mark.parametrize(
    "name,scalars_per_iter",
    [
        ("adaptive", 3),
        ("adaptive+safeguard", 4),
        ("nips_global", 4),  # flooded min: diameter-many, 4 on the 5-agent line
        ("nips_local", 1),
        ("extra", 0),
    ],
)
def test_round_accounting(name, scalars_per_iter):
    g = build_line_graph(5)
    assert diameter(g) == 4
    gm = gossip_matrix(g, c=0.5)
    fam = generate_quadratic(m=5, h=4, n=3, ridge=0.0, seed=3)
    X0 = np.zeros((5, 3))
    if name == "extra":
        algo = ExtraAlgorithm(gm, fam, X0=X0, alpha=1e-3)
    else:
        method, _, guard = name.partition("+")
        radius = 1e9 if guard else None
        algo = AdaptiveAlgorithm(gm, fam, X0=X0, method=method, safeguard_radius=radius)
    k = 4
    for _ in range(k):
        algo.step()
    assert algo.exchange.vector_rounds == (k if name == "extra" else 3 * k)
    assert algo.exchange.scalar_rounds == scalars_per_iter * k


@pytest.mark.parametrize("method", METHODS)
def test_one_gradient_call_per_step(method):
    # one image pass at X_half serves the dual update and the line search's f(X_half)
    fam = CountingFamily(generate_quadratic(m=6, h=5, n=4, ridge=0.1, seed=3))
    gm = gossip_matrix(build_erdos_renyi(6, 0.5, seed=1), c=0.5)
    algo = AdaptiveAlgorithm(gm, fam, X0=np.zeros((6, 4)), method=method)
    for k in range(1, 6):
        X_half = gm.W_op @ algo.X
        start = len(fam.passes)
        algo.step()
        step_passes = fam.passes[start:]
        assert np.array_equal(step_passes[0], X_half)
        assert sum(np.array_equal(X, X_half) for X in step_passes) == 1
        assert fam.calls["gradients"] == k


def _image_merge_instance(kind):
    """Line-graph losses whose trial stepsizes differ, so the merge lowers some agents' theta."""
    if kind == "quadratic":
        fam, g = heterogeneous_line_instance(np.random.default_rng(40))
    else:
        fam, g = synthetic_logistic(5, 8, 4, seed=11), build_line_graph(5)
    return fam, gossip_matrix(g, c=0.5)


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
@pytest.mark.parametrize("method", METHODS)
def test_adaptive_step_image_is_the_image_of_the_iterate(monkeypatch, method, kind):
    # the step reuses the line search's last trial image where the merge kept
    # theta_bar and recomputes it otherwise: both must equal a fresh pass, bit for bit
    fam, gm = _image_merge_instance(kind)
    searched, search = [], algorithms.backtrack_batch

    def recording(*args):
        result = search(*args)
        searched.append(result[0])
        return result

    monkeypatch.setattr(algorithms, "backtrack_batch", recording)
    algo = AdaptiveAlgorithm(gm, fam, X0=np.zeros((fam.m, fam.dim)), method=method)
    assert algo.image is None
    merged_below = 0
    for _ in range(300):
        algo.step()
        merged_below += np.any(algo.state.theta != searched[-1])
        assert np.array_equal(algo.image, fam.images(algo.X))
    assert 0 < merged_below < 300  # both branches ran


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_extra_iterates_match_start_of_step_gradient(kind):
    # the reference evaluates grad F(X^k) at the start of step k, as the recurrence
    # is written; the step evaluates the image of X^k at the end of the step before
    fam, gm = _image_merge_instance(kind)
    alpha = 2e-5 if kind == "quadratic" else 0.5
    X0 = np.zeros((fam.m, fam.dim))
    algo = ExtraAlgorithm(gm, fam, X0=X0, alpha=alpha)
    assert np.array_equal(algo.image, fam.images(X0))
    X, X_prev = X0, None
    for k in range(300):
        G, WX = fam.gradients(X), gm.W_op @ X
        if k == 0:
            X_new = WX - alpha * G
        else:
            X_new = X + WX - 0.5 * (X_prev + WX_prev) - alpha * (G - G_prev)
        X_prev, WX_prev, G_prev, X = X, WX, G, X_new
        algo.step()
        assert np.array_equal(algo.X, X) and np.array_equal(algo.image, fam.images(X))


# --- adaptive method ---


def test_single_agent_collapses_to_backtracked_gradient_descent():
    fam = generate_quadratic(m=1, h=6, n=4, ridge=0.0, seed=5)
    gm = gossip_matrix(build_line_graph(1), c=0.5)
    x0 = np.full((1, 4), 2.0)
    algo = AdaptiveAlgorithm(gm, fam, X0=x0, theta0=1.0, gamma=GammaSchedule())

    x = x0[0].copy()
    theta = 1.0
    for k in range(25):
        algo.step()
        gamma_prev = GammaSchedule()(max(k - 1, 0))
        theta, _ = backtrack(theta, fam, 0, x, -agent_gradient(fam, 0, x), gamma_prev, 1.0)
        x = x - theta * agent_gradient(fam, 0, x)
        np.testing.assert_allclose(algo.X[0], x, rtol=1e-12, atol=1e-12)
        assert np.all(algo.Y == 0.0)  # dual stays at its zero start


def test_fixed_point_is_stationary():
    fam = generate_quadratic(m=4, h=6, n=3, ridge=0.0, seed=6)
    gm = gossip_matrix(build_erdos_renyi(4, 0.8, seed=1), c=0.5)
    fp = fixed_point(fam, tol=1e-10)
    algo = AdaptiveAlgorithm(gm, fam, X0=fp.X_star, theta0=1e-3, gamma=GammaSchedule(beta1=1.0))
    algo.state.Y = fp.Y_star.copy()
    algo.step()
    scale = 1.0 + np.linalg.norm(fp.X_star) + np.linalg.norm(fp.Y_star)
    moved = np.linalg.norm(algo.X - fp.X_star) + np.linalg.norm(algo.Y - fp.Y_star)
    assert moved / scale <= 1e-10


@pytest.mark.parametrize("method", METHODS)
def test_step_matches_written_out_recurrence(method, rng):
    fam = generate_quadratic(m=4, h=5, n=3, ridge=0.1, seed=7)
    gm = gossip_matrix(build_erdos_renyi(4, 0.9, seed=2), c=0.5)
    for _ in range(5):
        X = rng.standard_normal((4, 3))
        Y = rng.standard_normal((4, 3))
        state = AdaptiveState.initial(X, theta0=float(rng.uniform(1e-3, 1.0)))
        state.Y = Y.copy()
        adaptive_step(state, NeighborExchange(gm), fam, 1.5, 1.0, method)
        X_ref, Y_ref = written_out_step(dense(gm.W_op), fam, X, Y, state.theta, state.pi)
        assert np.abs(state.X - X_ref).max() <= 1e-12
        assert np.abs(state.Y - Y_ref).max() <= 1e-12
        if method != "adaptive":
            np.testing.assert_array_equal(state.pi, state.theta)
        if method == "nips_global":
            assert state.theta.max() == state.theta.min()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "make_family",
    [lambda: generate_quadratic(m=6, h=5, n=4, ridge=0.0, seed=9),
     lambda: synthetic_logistic(6, 10, 4, seed=9)],
    ids=["quadratic", "logistic"],
)
def test_dual_column_sums_conserved(method, make_family):
    # the duals start at zero and move only through I - W: their rows sum to ~0
    fam = make_family()
    gm = gossip_matrix(build_erdos_renyi(6, 0.5, seed=3), c=0.5)
    algo = AdaptiveAlgorithm(gm, fam, X0=np.zeros((6, 4)), method=method)
    grad_scale = 1.0
    for _ in range(150):
        algo.step()
        grad_scale = max(grad_scale, np.abs(fam.gradients(algo.X)).max())
        assert np.abs(algo.Y.sum(axis=0)).max() <= 1e-8 * grad_scale


def heterogeneous_line_instance(rng):
    """Ill-conditioned quadratics with per-agent curvature scales on a line.

    Heterogeneous scales keep the trial stepsizes non-consensual (so the
    diameter estimator has to work) and conditioning keeps the run far from
    the float noise floor for many iterations.
    """
    m, h, n = 5, 12, 10
    colscale = np.logspace(0, -2, n)
    agent_scale = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    A = rng.standard_normal((m, h, n)) * colscale * agent_scale[:, None, None]
    fam = QuadraticFamily(A, rng.standard_normal((m, h)), ridge=0.0)
    return fam, build_line_graph(m)


def test_tracker_recovery_and_pi_consensuality():
    fam, g = heterogeneous_line_instance(np.random.default_rng(40))
    gm = gossip_matrix(g, c=0.5)
    algo = AdaptiveAlgorithm(gm, fam, X0=np.zeros((5, fam.dim)))
    d_true = diameter(g)

    trace = []
    for _ in range(600):
        algo.step()
        s = algo.state
        trace.append(
            (s.k, s.theta.copy(), s.theta_tracker.copy(), s.pi.copy(), s.diam.copy())
        )

    diam_final = trace[-1][4]
    assert (diam_final == diam_final[0]).all() and diam_final[0] >= d_true
    d = int(diam_final[0])
    stable_from = next(t[0] for t in trace if (t[4] == diam_final[0]).all())

    theta_min = {t[0] - 1: t[1].min() for t in trace}  # iteration j -> min theta^j
    gamma_of = algo.gamma

    pi_checks = recovery_checks = 0
    for t, _, tracker, pi, _ in trace:
        j = t - 1  # entry t holds the values produced at iteration j = t-1
        if j < stable_from + 2 * d:
            continue
        if j % d == 0:
            # dual stepsizes are consensual exactly at horizon multiples
            assert pi.max() - pi.min() == 0.0
            pi_checks += 1
            # quiet window: the min stepsize only grew since the reseed
            quiet = all(
                theta_min.get(i) == gamma_of(max(i - 1, 0)) * theta_min.get(i - 1, np.nan)
                for i in range(j - d + 2, j + 1)
                if i in theta_min and (i - 1) in theta_min
            )
            if quiet:
                recovery_checks += 1
                # the tracker is consensual and recovers the network minimum
                assert tracker.max() - tracker.min() == 0.0
                assert tracker[0] == theta_min[j]
    assert pi_checks >= 20
    assert recovery_checks >= 20


def test_diameter_estimates_nondecreasing_and_bounded():
    for m in (5, 10):
        fam = generate_quadratic(m=m, h=6, n=5, ridge=0.0, seed=m)
        g = build_line_graph(m)
        gm = gossip_matrix(g, c=0.5)
        algo = AdaptiveAlgorithm(gm, fam, X0=np.zeros((m, 5)), d0=1)
        prev = algo.state.diam.copy()
        for _ in range(300):
            algo.step()
            cur = algo.state.diam
            assert np.all(cur >= prev)
            assert cur.max() <= 2 * (m - 1)
            prev = cur.copy()
        bound = int(np.ceil(np.log2(2 * (m - 1))))
        assert algo.state.double_count.max() <= bound


def test_adaptive_safeguard_bits_and_theta_monotone():
    fam = synthetic_logistic(6, 10, 4, seed=3)
    gm = gossip_matrix(build_line_graph(6), c=0.5)
    X0 = np.zeros((6, 4))

    free = AdaptiveAlgorithm(gm, fam, X0=X0)
    excursion = 0.0
    for _ in range(300):
        free.step()
        excursion = max(excursion, np.linalg.norm(free.X - X0, axis=1).max())

    guarded = AdaptiveAlgorithm(gm, fam, X0=X0, safeguard_radius=excursion / 2.0)
    hist = []
    for _ in range(300):
        guarded.step()
        hist.append((guarded.state.bounded.copy(), guarded.state.theta.copy()))

    bits = np.array([h for h, _ in hist])
    thetas = np.array([t for _, t in hist])
    assert bits.min() == 0  # some agent tripped the radius
    first_zero = int(np.argmax(bits.min(axis=1) == 0))
    # zeros are absorbing and flood the graph within diameter-many rounds
    assert np.all(bits[first_zero + diameter(gm.graph) :] == 0)
    for t in range(len(hist) - 1):
        frozen = bits[t] == 0
        assert np.all(thetas[t + 1][frozen] <= thetas[t][frozen] + 1e-18)


def test_safeguard_huge_radius_matches_default():
    fam = generate_quadratic(m=4, h=5, n=3, ridge=0.0, seed=10)
    gm = gossip_matrix(build_line_graph(4), c=0.5)
    plain = AdaptiveAlgorithm(gm, fam, X0=np.zeros((4, 3)))
    guarded = AdaptiveAlgorithm(gm, fam, X0=np.zeros((4, 3)), safeguard_radius=1e9)
    for _ in range(60):
        plain.step()
        guarded.step()
        assert np.abs(plain.X - guarded.X).max() <= 1e-12
        assert np.abs(plain.Y - guarded.Y).max() <= 1e-12


def test_adaptive_divergence_guard():
    fam = generate_quadratic(m=3, h=4, n=2, ridge=0.0, seed=11)
    gm = gossip_matrix(build_line_graph(3), c=0.5)
    state = AdaptiveState.initial(np.full((3, 2), 10 * DIVERGENCE_NORM), theta0=1.0)
    with pytest.raises(DivergenceError):
        adaptive_step(state, NeighborExchange(gm), fam, 2.0, 1.0)
    assert state.k == 0


def test_divergence_leaves_state_untouched():
    fam = generate_quadratic(m=3, h=4, n=2, ridge=0.0, seed=11)
    gm = gossip_matrix(build_line_graph(3), c=0.5)
    state = AdaptiveState.initial(np.full((3, 2), 1e13), theta0=1.0)
    state.X0 = np.zeros((3, 2))  # every agent is outside the safeguard radius
    before = copy.deepcopy(state)
    with pytest.raises(DivergenceError):
        adaptive_step(state, NeighborExchange(gm), fam, 2.0, 1.0, safeguard_radius=1.0)
    for f in fields(state):
        np.testing.assert_array_equal(getattr(state, f.name), getattr(before, f.name), err_msg=f.name)


def test_state_validation():
    for theta0 in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="theta0"):
            AdaptiveState.initial(np.zeros((2, 2)), theta0=theta0)
    with pytest.raises(ValueError):
        AdaptiveState.initial(np.zeros((2, 2)), d0=0)
    gm = gossip_matrix(build_line_graph(2), c=0.5)
    fam = generate_quadratic(m=2, h=2, n=2, ridge=0.0, seed=0)
    with pytest.raises(ValueError):
        AdaptiveAlgorithm(gm, fam, X0=np.zeros((2, 2)), delta=1.5)
    with pytest.raises(ValueError):
        AdaptiveAlgorithm(gm, fam, X0=np.zeros((2, 2)), method="sideways")
    for alpha in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha"):
            ExtraAlgorithm(gm, fam, X0=np.zeros((2, 2)), alpha=alpha)
    with pytest.raises(TypeError, match="callable"):
        AdaptiveAlgorithm(gm, fam, X0=np.zeros((2, 2)), gamma=1.5)


# --- baseline ---


def test_baseline_modes_differ_on_heterogeneous_losses():
    # same problem, different stepsize synchronization: the local rule keeps
    # heterogeneous stepsizes, the global rule cannot
    scales = [1.0, 4.0, 16.0]
    A = np.array([[[np.sqrt(s)]] for s in scales])
    fam = QuadraticFamily(A, np.ones((3, 1)), ridge=0.0)
    gm = gossip_matrix(build_line_graph(3), c=0.5)
    glob = AdaptiveAlgorithm(gm, fam, X0=np.zeros((3, 1)), method="nips_global")
    loc = AdaptiveAlgorithm(gm, fam, X0=np.zeros((3, 1)), method="nips_local")
    saw_heterogeneous = False
    for _ in range(20):
        glob.step()
        loc.step()
        assert glob.state.theta.max() == glob.state.theta.min()
        if loc.state.theta.max() > loc.state.theta.min():
            saw_heterogeneous = True
    assert saw_heterogeneous
    assert np.abs(glob.X - loc.X).max() > 1e-12


def test_baseline_single_agent_matches_adaptive():
    fam = generate_quadratic(m=1, h=5, n=3, ridge=0.0, seed=12)
    gm = gossip_matrix(build_line_graph(1), c=0.5)
    ada = AdaptiveAlgorithm(gm, fam, X0=np.ones((1, 3)))
    base = AdaptiveAlgorithm(gm, fam, X0=np.ones((1, 3)), method="nips_global")
    for _ in range(20):
        ada.step()
        base.step()
        np.testing.assert_allclose(ada.X, base.X, rtol=1e-12, atol=1e-14)


# --- EXTRA ---


def test_extra_hand_recursion():
    fam = scalar_quadratic(0.5)  # f(x) = x^2 / 2
    gm = gossip_matrix(build_line_graph(1), c=0.5)
    algo = ExtraAlgorithm(gm, fam, X0=np.array([[1.0]]), alpha=0.5)
    algo.step()
    assert algo.X[0, 0] == pytest.approx(0.5, abs=1e-15)
    algo.step()
    assert algo.X[0, 0] == pytest.approx(0.25, abs=1e-15)


def test_extra_stationary_with_tiny_alpha():
    fam = generate_quadratic(m=3, h=5, n=2, ridge=0.0, seed=13)
    gm = gossip_matrix(build_complete_graph(3), c=0.5)
    fp = fixed_point(fam, tol=1e-10)
    algo = ExtraAlgorithm(gm, fam, X0=fp.X_star, alpha=1e-30)
    for _ in range(3):
        algo.step()
    assert np.abs(algo.X - fp.X_star).max() <= 1e-12


def test_extra_diverges_with_huge_alpha():
    fam = generate_quadratic(m=3, h=5, n=2, ridge=0.0, seed=13)
    gm = gossip_matrix(build_line_graph(3), c=0.5)
    algo = ExtraAlgorithm(gm, fam, X0=np.ones((3, 2)), alpha=1e3)
    with pytest.raises(DivergenceError):
        for _ in range(200):
            algo.step()


def test_extra_converges_with_reasonable_alpha():
    fam = generate_quadratic(m=4, h=8, n=3, ridge=0.0, seed=14)
    gm = gossip_matrix(build_erdos_renyi(4, 0.8, seed=4), c=0.5)
    fp = fixed_point(fam, tol=1e-10)
    X0 = np.zeros((4, 3))
    denom = np.linalg.norm(X0 - fp.X_star)
    algo = ExtraAlgorithm(gm, fam, X0=X0, alpha=0.01)
    for _ in range(2000):
        algo.step()
        if np.linalg.norm(algo.X - fp.X_star) / denom <= 1e-5:
            break
    assert np.linalg.norm(algo.X - fp.X_star) / denom <= 1e-5


def _rounds(algo) -> tuple[int, int]:
    return algo.exchange.vector_rounds, algo.exchange.scalar_rounds


def test_failed_extra_step_charges_no_rounds():
    # the line example with alpha = 10 diverges within a few steps
    fam = generate_quadratic(m=20, h=110, n=100, ridge=0.0, seed=1)
    algo = ExtraAlgorithm(gossip_matrix(build_line_graph(20), c=0.5), fam, np.zeros((20, 100)), alpha=10.0)
    for _ in range(200):
        before = _rounds(algo)
        try:
            algo.step()
        except DivergenceError:
            break
    else:
        pytest.fail("EXTRA with alpha = 10 did not diverge")
    assert algo.k > 0
    assert _rounds(algo) == before == (algo.k, 0)


@pytest.mark.parametrize("method", METHODS)
def test_failed_adaptive_step_charges_no_rounds(monkeypatch, method):
    fam = generate_quadratic(m=6, h=5, n=3, ridge=0.0, seed=15)
    algo = AdaptiveAlgorithm(gossip_matrix(build_line_graph(6), c=0.5), fam, np.zeros((6, 3)), method=method)
    for _ in range(4):
        algo.step()
    before, state = _rounds(algo), copy.deepcopy(algo.state)
    # the divergence check runs after every gossip and consensus round of the step
    monkeypatch.setattr(algorithms, "DIVERGENCE_NORM", -1.0)
    with pytest.raises(DivergenceError):
        algo.step()
    assert before[0] == 12 and before[1] > 0
    assert _rounds(algo) == before
    assert algo.state.k == state.k == 4
    np.testing.assert_array_equal(algo.X, state.X)


# --- exact metamorphic checks: locality and scale equivariance ---


def _agent_rows(state: AdaptiveState) -> np.ndarray:
    """Each agent's X, Y, theta, tracker, pi and diameter estimate, as the bits of one row."""
    rows = np.column_stack([state.X, state.Y, state.theta, state.theta_tracker, state.pi, state.diam])
    return rows.view(np.uint64)


LIGHT_CONE_GRAPHS = {
    "line60": {"kind": "line", "m": 60},
    "cycle60": {"kind": "cycle", "m": 60},
    "er120": {"kind": "erdos_renyi", "m": 120, "p": 0.03, "seed": 4},
}


@pytest.mark.parametrize("graph", sorted(LIGHT_CONE_GRAPHS))
@pytest.mark.parametrize("method, hops_per_iteration", [("adaptive", 3), ("nips_local", 2)])
def test_perturbing_one_agent_reaches_a_bounded_number_of_hops(graph, method, hops_per_iteration):
    # after k iterations, every agent farther than hops_per_iteration * k from agent j
    # holds exactly the state it holds without the perturbation of f_j
    g = graph_from_spec(LIGHT_CONE_GRAPHS[graph])
    gm = gossip_matrix(g)
    base = generate_quadratic(g.m, h=6, n=5, ridge=0.0, seed=3)
    j = 0
    hops = shortest_path(edge_adjacency(g), unweighted=True, indices=j)
    for factor in (10.0, 0.1, 3.0):
        A = base.A.copy()
        A[j] *= factor
        algos = [AdaptiveAlgorithm(gm, fam, np.zeros((g.m, 5)), method=method)
                 for fam in (base, QuadraticFamily(A, base.b))]
        for k in range(1, 16):
            for algo in algos:
                algo.step()
            differs = (_agent_rows(algos[0].state) != _agent_rows(algos[1].state)).any(axis=1)
            assert differs[j]
            assert hops[differs].max() <= hops_per_iteration * k, (factor, k)


def test_network_wide_minimum_reaches_the_far_end_at_once():
    # nips_global's flood is not local: the light cone check above would see it at k = 1
    g = build_line_graph(60)
    gm = gossip_matrix(g)
    base = generate_quadratic(60, h=6, n=5, ridge=0.0, seed=3)
    A = base.A.copy()
    A[0] *= 10.0
    algos = [AdaptiveAlgorithm(gm, fam, np.zeros((60, 5)), method="nips_global")
             for fam in (base, QuadraticFamily(A, base.b))]
    for algo in algos:
        algo.step()
    differs = (_agent_rows(algos[0].state) != _agent_rows(algos[1].state)).any(axis=1)
    assert differs[59]


SCALE_CASES = [
    ({"kind": "line", "m": 20}, "adaptive", 0.0),
    ({"kind": "line", "m": 20}, "adaptive", 1.0),
    ({"kind": "line", "m": 20}, "nips_local", 0.0),
    ({"kind": "line", "m": 20}, "nips_local", 1.0),
    ({"kind": "erdos_renyi", "m": 30, "p": 0.2, "seed": 2}, "adaptive", 0.0),
    ({"kind": "cycle", "m": 40}, "nips_global", 0.0),
]


@pytest.mark.parametrize("spec, method, ridge", SCALE_CASES)
def test_scaling_every_loss_scales_the_stepsizes_and_duals_exactly(spec, method, ridge):
    # f_i -> s f_i with theta0 -> theta0 / s: the iterates are those of the unscaled run,
    # theta * s and Y / s too, bit for bit, at every iteration; s and sqrt(s) are powers of two
    g = graph_from_spec(spec)
    gm = gossip_matrix(g)
    base = generate_quadratic(g.m, h=6, n=5, ridge=ridge, seed=1)
    reference = AdaptiveAlgorithm(gm, base, np.zeros((g.m, 5)), method=method)
    scaled = {
        s: AdaptiveAlgorithm(gm, QuadraticFamily(np.sqrt(s) * base.A, np.sqrt(s) * base.b, s * ridge),
                             np.zeros((g.m, 5)), method=method, theta0=1.0 / s)
        for s in (4.0, 2.0**-6, 1024.0)
    }
    for _ in range(400):
        reference.step()
        for s, algo in scaled.items():
            algo.step()
            assert np.array_equal(algo.X, reference.X)
            assert np.array_equal(algo.state.theta * s, reference.state.theta)
            assert np.array_equal(algo.Y / s, reference.Y)
    for algo in scaled.values():
        assert (algo.exchange.vector_rounds, algo.exchange.scalar_rounds) == (
            reference.exchange.vector_rounds, reference.exchange.scalar_rounds)
