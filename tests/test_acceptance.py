"""Acceptance suite: one test per criterion, printed pass lines via -s.

Run with: pytest tests/test_acceptance.py -v -s
"""

import itertools

import numpy as np
import pytest

from gossipopt import (
    AdaptiveAlgorithm,
    AdaptiveState,
    FixedPoint,
    GammaSchedule,
    NeighborExchange,
    QuadraticFamily,
    RunConfig,
    adaptive_step,
    backtrack_batch,
    build_erdos_renyi,
    build_line_graph,
    diameter,
    fixed_point,
    generate_quadratic,
    gossip_matrix,
    linear_rate_fit,
    local_min_consensus,
    merit_cvx,
    merit_sc,
    metropolis_weights,
    run,
    spectral_data,
)
from gossipopt.algorithms import METHODS
from gossipopt.harness import experiment_suite
from conftest import (
    curvature_family,
    dense,
    find_a3a,
    graph_from_pairs,
    metric_from_factor,
    search_one,
    synthetic_logistic,
    written_out_step,
)


def _passed(num: int, label: str) -> None:
    print(f"[acceptance] criterion {num:2d} ({label}): PASS")


QUADRATIC_PROBLEM = {"kind": "quadratic", "m": 20, "h": 110, "n": 100, "lambda": 0.0, "seed": 1}

GRAPH_BUDGETS = {
    "er05": ({"kind": "erdos_renyi", "m": 20, "p": 0.5, "seed": 11}, 5_000),
    "er01": ({"kind": "erdos_renyi", "m": 20, "p": 0.1, "seed": 7}, 20_000),
    "line": ({"kind": "line", "m": 20}, 60_000),
}


@pytest.fixture(scope="module")
def strongly_convex_traces():
    traces = {}
    for label, (gspec, budget) in GRAPH_BUDGETS.items():
        cfg = RunConfig.from_dict(
            {
                "graph": gspec,
                "problem": QUADRATIC_PROBLEM,
                "algorithm": {
                    "algorithm": "adaptive",
                    "delta": 1.0,
                    "theta0": 1.0,
                    "d0": 1,
                    "gamma": {"beta1": 2.0, "beta2": 1.0},
                },
                "epsilon": 1e-5,
                "max_vector_rounds": budget,
                "seed": 1,
            }
        )
        traces[label] = run(cfg)
    return traces


def test_criterion_1_strongly_convex_convergence(strongly_convex_traces):
    for label, (_, budget) in GRAPH_BUDGETS.items():
        trace = strongly_convex_traces[label]
        assert trace.status == "converged", f"{label}: {trace.status}"
        assert trace.final.err_rel <= 1e-5
        assert trace.final.vector_rounds <= budget
        assert trace.wall_time < 120.0
    _passed(1, "strongly convex convergence within round budgets")


def test_criterion_2_linear_rate_certificate(strongly_convex_traces):
    for label, trace in strongly_convex_traces.items():
        ks = [r.k for r in trace.rows]
        vs = [r.V for r in trace.rows]
        slope = linear_rate_fit(ks, vs)
        assert slope < -1e-4, f"{label}: slope {slope}"
    _passed(2, "geometric decay of the strongly convex merit")


def test_criterion_3_convex_sublinear_on_a3a():
    path = find_a3a()
    if path is None:
        pytest.skip(
            "a3a dataset not present (no general network egress in this environment); "
            "download it from the LIBSVM binary collection and place it at tests/data/a3a "
            "or set A3A_PATH, then rerun. The criterion runs verbatim once the file exists."
        )
    cfg = RunConfig.from_dict(
        {
            "graph": {"kind": "erdos_renyi", "m": 20, "p": 0.5, "seed": 11},
            "problem": {"kind": "logistic", "dataset": str(path), "m": 20, "h": 159, "seed": 1},
            "algorithm": {
                "algorithm": "adaptive",
                "delta": 1.0,
                "theta0": 1.0,
                "d0": 1,
                "gamma": {"beta1": 2.0, "beta2": 1.0},
            },
            "epsilon": 1e-3,
            "max_vector_rounds": 100_000,
            "seed": 1,
        }
    )
    trace = run(cfg)
    assert trace.status == "converged"
    assert trace.final.vector_rounds <= 100_000
    scaled = {r.k: r.k * r.M_erg for r in trace.rows if r.M_erg is not None and r.k >= 100}
    assert 100 in scaled
    cap = 3.0 * scaled[100]
    assert all(v <= cap for v in scaled.values())
    _passed(3, "sublinear convex convergence on a3a")


def test_criterion_4_equivalence_oracle(rng):
    # one step of each merge rule equals the recurrence written out with the
    # stepsizes that step chose; nips_global's are uniform, the benchmark update
    checked = 0
    while checked < 50:
        m = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        g = build_erdos_renyi(m, float(rng.uniform(0.5, 1.0)), seed=checked)
        gm = gossip_matrix(g, c=0.5)
        fam = generate_quadratic(m=m, h=4, n=d, ridge=float(rng.uniform(0, 1)), seed=checked)
        X = rng.standard_normal((m, d))
        Y = rng.standard_normal((m, d))
        theta0 = float(rng.uniform(1e-3, 1.0))
        for method in METHODS:
            state = AdaptiveState.initial(X, theta0=theta0)
            state.Y = Y.copy()
            adaptive_step(state, NeighborExchange(gm), fam, 1.5, 1.0, method)
            X_ref, Y_ref = written_out_step(dense(gm.W_op), fam, X, Y, state.theta, state.pi)
            assert np.abs(state.X - X_ref).max() <= 1e-12
            assert np.abs(state.Y - Y_ref).max() <= 1e-12
            if method == "nips_global":
                assert state.theta.max() == state.theta.min()
        checked += 1
    _passed(4, "uniform-stepsize step equals the benchmark update")


def test_criterion_5_fixed_point_stationarity(rng):
    for trial in range(10):
        m = int(rng.integers(2, 6))
        d = int(rng.integers(1, 5))
        g = build_erdos_renyi(m, 0.8, seed=100 + trial)
        gm = gossip_matrix(g, c=0.5)
        fam = generate_quadratic(m=m, h=d + 2, n=d, ridge=0.1, seed=200 + trial)
        fp = fixed_point(fam, tol=1e-10)
        algo = AdaptiveAlgorithm(gm, fam, X0=fp.X_star, theta0=1e-3, gamma=GammaSchedule(beta1=1.0))
        algo.state.Y = fp.Y_star.copy()
        algo.step()
        scale = 1.0 + np.linalg.norm(fp.X_star) + np.linalg.norm(fp.Y_star)
        moved = np.linalg.norm(algo.X - fp.X_star) + np.linalg.norm(algo.Y - fp.Y_star)
        assert moved / scale <= 1e-10
    _passed(5, "one step from a fixed point stays put")


def test_criterion_6_backtracking_properties(rng):
    # hand-derived example on f(x) = x^2/2: theta=4 halves twice
    assert search_one(curvature_family(1.0), 4.0, [1.0], [-1.0], 1.0, 1.0) == (1.0, 3)

    # dichotomy over 10^4 randomized calls with a shared running stepsize
    fam = curvature_family(5.0, dim=2)
    theta = 1.0
    for _ in range(10_000):
        gamma = float(rng.uniform(1.0, 2.0 - 1e-9))
        new, _ = search_one(fam, theta, rng.standard_normal(2), rng.standard_normal(2), gamma, 1.0)
        assert new < theta or new == gamma * theta
        theta = new

    # termination floor on known-curvature quadratics, 300 agents per curvature
    for L in (1.0, 10.0, 100.0):
        fam = curvature_family(L, m=300, dim=3)
        theta0 = rng.uniform(1e-4, 10.0, size=300)
        gamma = rng.uniform(1.0, 2.0, size=300)
        X = rng.standard_normal((300, 3))
        D = rng.standard_normal((300, 3))
        theta, _, _ = backtrack_batch(theta0, fam, X, fam.values(X), fam.gradients(X), D, gamma, 1.0)
        assert np.all(theta >= np.minimum(gamma * theta0, 1.0 / (2.0 * L)) - 1e-15)
    _passed(6, "backtracking dichotomy, floor, and hand examples")


def _connected_graphs_up_to(max_m):
    for m in range(1, max_m + 1):
        pairs = list(itertools.combinations(range(m), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            adjacency = [set([i]) for i in range(m)]
            for i, j in edges:
                adjacency[i].add(j)
                adjacency[j].add(i)
            seen = {0}
            frontier = [0]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in adjacency[u]:
                        if v not in seen:
                            seen.add(v)
                            nxt.append(v)
                frontier = nxt
            if len(seen) == m:
                yield graph_from_pairs(m, edges)


def test_criterion_7_min_consensus_reach(rng):
    count = 0
    for g in _connected_graphs_up_to(6):
        v = rng.standard_normal(g.m)
        out = v.copy()
        for _ in range(max(diameter(g), 1)):
            out = local_min_consensus(out, g)
        assert np.all(out == v.min())
        count += 1
    assert count > 26_000  # all connected labelled graphs up to 6 nodes

    for seed in range(100):
        g = build_erdos_renyi(2 + seed % 19, 0.35, seed=seed)
        v = rng.standard_normal(g.m)
        out = v.copy()
        for _ in range(diameter(g)):
            out = local_min_consensus(out, g)
        assert np.all(out == v.min())
    _passed(7, "min-consensus reaches the global min within diameter rounds")


@pytest.mark.parametrize("m", [5, 10, 20])
def test_criterion_8_diameter_estimator(m):
    if m == 20:
        fam = generate_quadratic(m=20, h=110, n=100, ridge=0.0, seed=1)
    else:
        fam = generate_quadratic(m=m, h=6, n=5, ridge=0.0, seed=m)
    gm = gossip_matrix(build_line_graph(m), c=0.5)
    algo = AdaptiveAlgorithm(gm, fam, X0=np.zeros((m, fam.dim)), d0=1)
    prev = algo.state.diam.copy()
    for _ in range(400):
        algo.step()
        cur = algo.state.diam
        assert np.all(cur >= prev)  # estimates never shrink
        assert cur.max() <= 2 * (m - 1)
        prev = cur.copy()
    assert algo.state.double_count.max() <= int(np.ceil(np.log2(2 * (m - 1))))
    if m == 20:
        _passed(8, "diameter estimator bounds on line graphs")


def test_criterion_9_gradient_checks(rng):
    quad = generate_quadratic(m=4, h=6, n=5, ridge=0.3, seed=301)
    logi = synthetic_logistic(4, 9, 5, seed=302)
    eps = 1e-6
    for fam in (quad, logi):
        for probe in range(25):  # 100 row checks over the 4 agents
            X = rng.standard_normal((fam.m, fam.dim))
            U = rng.standard_normal((fam.m, fam.dim))
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            exact = np.einsum("ad,ad->a", fam.gradients(X), U)
            approx = (fam.values(X + eps * U) - fam.values(X - eps * U)) / (2 * eps)
            assert np.all(np.abs(exact - approx) <= 1e-5 * np.maximum(1.0, np.abs(exact)))
    _passed(9, "analytic gradients match central differences")


def test_criterion_10_gossip_and_merit_algebra(rng):
    for seed in range(10):
        g = build_erdos_renyi(10, 0.4, seed=400 + seed)
        gm = gossip_matrix(g, c=0.5)
        for W in (dense(metropolis_weights(g)), dense(gm.W_op)):
            assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-12
            assert np.abs(W - W.T).max() <= 1e-12
        M = metric_from_factor(spectral_data(gm), gm.c)
        ones = np.ones((10, 1)) / np.sqrt(10.0)
        proj = np.eye(10) - ones @ ones.T
        eig = np.linalg.eigvalsh(proj @ M @ proj)
        assert eig[np.abs(eig) > 1e-9].min() > 0.0  # positive definite on 1-perp

    # hand-computed merit values on the two-agent complete graph
    gm2 = gossip_matrix(build_erdos_renyi(2, 1.0, seed=0), c=0.5)
    T = spectral_data(gm2)
    fp = FixedPoint(
        x_star=np.zeros(1), X_star=np.zeros((2, 1)), Y_star=np.zeros((2, 1)), F_star=0.0
    )
    dual_case = merit_sc(fp.X_star, np.array([[1.0], [-1.0]]), 2.0, fp, T)
    assert abs(dual_case - 8.0) <= 1e-12
    zero_losses = QuadraticFamily(np.zeros((2, 1, 1)), np.zeros((2, 1)), ridge=0.0)
    X = np.array([[1.0], [-1.0]])
    cons_case = merit_cvx(X, zero_losses.images(X), fp, zero_losses, gm2, delta=1.0)
    assert abs(cons_case - 1.0) <= 1e-12
    _passed(10, "gossip invariants and hand-computed merit values")


def test_criterion_11_boundedness_safeguard():
    fam = synthetic_logistic(6, 10, 4, seed=3)
    gm = gossip_matrix(build_line_graph(6), c=0.5)
    X0 = np.zeros((6, 4))

    free = AdaptiveAlgorithm(gm, fam, X0=X0)
    excursion = 0.0
    free_states = []
    for _ in range(300):
        free.step()
        excursion = max(excursion, np.linalg.norm(free.X - X0, axis=1).max())
        free_states.append((free.X.copy(), free.Y.copy()))

    guarded = AdaptiveAlgorithm(gm, fam, X0=X0, safeguard_radius=excursion / 2.0)
    hist = []
    for _ in range(300):
        guarded.step()
        hist.append((guarded.state.bounded.copy(), guarded.state.theta.copy()))
    bits = np.array([h for h, _ in hist])
    thetas = np.array([t for _, t in hist])
    assert bits.min() == 0
    for t in range(len(hist) - 1):
        frozen = bits[t] == 0
        # a zero bit forces unit growth, so those stepsizes cannot increase
        assert np.all(thetas[t + 1][frozen] <= thetas[t][frozen])

    huge = AdaptiveAlgorithm(gm, fam, X0=X0, safeguard_radius=1e9)
    for X_free, Y_free in free_states:
        huge.step()
        assert np.abs(huge.X - X_free).max() <= 1e-12
        assert np.abs(huge.Y - Y_free).max() <= 1e-12
    _passed(11, "safeguard freezes growth and is inert at huge radius")


def test_criterion_12_suite_determinism(tmp_path):
    s1 = experiment_suite("diameter_sweep", tmp_path / "a", max_vector_rounds=240)
    s2 = experiment_suite("diameter_sweep", tmp_path / "b", max_vector_rounds=240)
    files1 = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.csv"))
    files2 = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.csv"))
    assert files1 == files2 and len(files1) == 9  # 8 traces + summary
    for rel in files1:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    assert s1.read_bytes() == s2.read_bytes()
    _passed(12, "suites are byte-deterministic under fixed seeds")
