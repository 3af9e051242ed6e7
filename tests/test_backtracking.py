import numpy as np
import pytest

from gossipopt import (
    BacktrackingError,
    backtrack,
    backtrack_batch,
    generate_quadratic,
)


class Scaled1D:
    """f(x) = (L/2) x^2 on vectors; constant curvature L along any direction."""

    def __init__(self, L=1.0):
        self.L = L

    def value(self, x):
        return 0.5 * self.L * float(np.vdot(x, x))

    def gradient(self, x):
        return self.L * np.asarray(x, dtype=float)


def test_hand_example_unit_quadratic():
    res = backtrack(1.0, Scaled1D(), np.array([1.0]), np.array([-1.0]), gamma=1.0, delta=1.0)
    assert res.theta == 1.0
    assert res.trials == 1
    np.testing.assert_allclose(res.x_plus, [0.0])


def test_hand_example_halves_twice():
    res = backtrack(4.0, Scaled1D(), np.array([1.0]), np.array([-1.0]), gamma=1.0, delta=1.0)
    assert res.theta == 1.0
    assert res.trials == 3


def test_zero_direction_accepts_immediately():
    res = backtrack(0.7, Scaled1D(5.0), np.array([2.0, -1.0]), np.zeros(2), gamma=1.6, delta=0.5)
    assert res.trials == 1
    assert res.theta == 1.6 * 0.7
    np.testing.assert_array_equal(res.x_plus, [2.0, -1.0])


def test_result_invariant_theta_formula(rng):
    f = Scaled1D(3.0)
    for _ in range(200):
        theta = float(rng.uniform(0.01, 10.0))
        gamma = float(rng.uniform(1.0, 2.0))
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        res = backtrack(theta, f, x, y, gamma, delta=1.0)
        assert res.theta == gamma * theta / 2.0 ** (res.trials - 1)


def test_dichotomy_over_shared_theta_sequence(rng):
    # either a strict decrease or exactly gamma * previous, along a running theta
    f = Scaled1D(7.0)
    theta = 1.0
    for k in range(2000):
        gamma = float(rng.uniform(1.0, 2.0 - 1e-9))
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        new = backtrack(theta, f, x, y, gamma, delta=1.0).theta
        assert new < theta or new == gamma * theta
        theta = new


def test_nonincreasing_with_unit_gamma(rng):
    f = Scaled1D(4.0)
    theta = 2.0
    prev = theta
    for _ in range(300):
        theta = backtrack(theta, f, rng.standard_normal(2), rng.standard_normal(2), 1.0, 1.0).theta
        assert theta <= prev
        prev = theta


@pytest.mark.parametrize("L", [1.0, 10.0, 100.0])
def test_termination_floor(L, rng):
    f = Scaled1D(L)
    delta = 1.0
    for _ in range(100):
        theta = float(rng.uniform(1e-4, 10.0))
        gamma = float(rng.uniform(1.0, 2.0))
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        res = backtrack(theta, f, x, y, gamma, delta)
        assert res.theta >= min(gamma * theta, delta / (2.0 * L)) - 1e-15


def test_decrease_count_bounded_by_log_growth(rng):
    # halvings are paid for by gamma growth: sum(trials - 1) equals
    # log2(theta_0 / theta_K) + sum log2(gamma_k), and theta never drops
    # below delta / (2 L), so decreases are O(sum log gamma)
    f = Scaled1D(10.0)
    delta = 1.0
    theta0 = theta = 1.0
    decreases = 0
    halvings = 0
    log2_gamma_sum = 0.0
    K = 10_000
    for k in range(K):
        gamma = (k + 2.0) / (k + 1.0)
        res = backtrack(theta, f, rng.standard_normal(2), rng.standard_normal(2), gamma, delta)
        if res.theta < theta:
            decreases += 1
        halvings += res.trials - 1
        log2_gamma_sum += np.log2(gamma)
        theta = res.theta
    bound = log2_gamma_sum + np.log2(theta0 * 2.0 * f.L / delta) + 1.0
    assert decreases <= halvings <= bound
    print(f"decrease probe: {decreases} decreases, {halvings} halvings, bound {bound:.1f}")


def test_underflow_raises():
    class Hostile:
        # claims a huge descent slope but never decreases: the test can
        # never pass and the stepsize underflows
        def value(self, x):
            return 0.0 if float(np.vdot(x, x)) == 0.0 else 1.0

        def gradient(self, x):
            return np.full_like(np.asarray(x, dtype=float), -1e6)

    with pytest.raises(BacktrackingError, match="underflow"):
        backtrack(1.0, Hostile(), np.zeros(2), np.ones(2), gamma=1.0, delta=1.0)


def test_rejects_nonpositive_theta():
    with pytest.raises(BacktrackingError):
        backtrack(0.0, Scaled1D(), np.zeros(1), np.ones(1), 1.0, 1.0)


def test_batch_matches_scalar_per_agent(rng):
    fam = generate_quadratic(m=6, h=5, n=4, ridge=0.2, seed=21)
    for trial in range(20):
        theta = rng.uniform(0.001, 5.0, size=6)
        gamma = float(rng.uniform(1.0, 2.0))
        X = rng.standard_normal((6, 4))
        D = rng.standard_normal((6, 4))
        thetas, trials = backtrack_batch(theta, fam, X, fam.gradients(X), D, gamma, delta=0.8)
        for i in range(6):
            ref = backtrack(theta[i], fam.agent_loss(i), X[i], D[i], gamma, delta=0.8)
            assert thetas[i] == ref.theta
            assert trials[i] == ref.trials


def test_batch_per_agent_gamma(rng):
    fam = generate_quadratic(m=3, h=4, n=3, ridge=0.0, seed=22)
    theta = np.array([0.5, 0.5, 0.5])
    gammas = np.array([1.0, 1.5, 2.0])
    X = rng.standard_normal((3, 3))
    D = np.zeros((3, 3))  # zero directions accept at the first trial
    thetas, trials = backtrack_batch(theta, fam, X, fam.gradients(X), D, gammas, delta=1.0)
    np.testing.assert_allclose(thetas, gammas * theta)
    assert trials.tolist() == [1, 1, 1]


def test_batch_rejects_nonpositive_theta():
    fam = generate_quadratic(m=2, h=3, n=2, ridge=0.0, seed=0)
    X = np.zeros((2, 2))
    with pytest.raises(BacktrackingError):
        backtrack_batch(np.array([1.0, -1.0]), fam, X, fam.gradients(X), np.zeros((2, 2)), 1.0, 1.0)
