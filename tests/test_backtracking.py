import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gossipopt import BacktrackingError, generate_quadratic
from gossipopt.backtracking import backtrack_batch
from conftest import (
    agent_gradient,
    agent_value,
    backtrack,
    curvature_family,
    search_one,
    synthetic_logistic,
)


def test_hand_example_unit_quadratic():
    assert search_one(curvature_family(1.0), 1.0, [1.0], [-1.0], gamma=1.0, delta=1.0) == (1.0, 1)


def test_hand_example_halves_twice():
    assert search_one(curvature_family(1.0), 4.0, [1.0], [-1.0], gamma=1.0, delta=1.0) == (1.0, 3)


def test_zero_direction_accepts_immediately():
    # f(x + t 0) equals the bound exactly: ties accept
    fam = curvature_family(5.0, dim=2)
    assert search_one(fam, 0.7, [2.0, -1.0], np.zeros(2), gamma=1.6, delta=0.5) == (1.6 * 0.7, 1)


def test_result_invariant_theta_formula(rng):
    m = 200
    fam = curvature_family(3.0, m=m, dim=3)
    theta = rng.uniform(0.01, 10.0, size=m)
    gamma = rng.uniform(1.0, 2.0, size=m)
    X = rng.standard_normal((m, 3))
    D = rng.standard_normal((m, 3))
    thetas, trials, _ = backtrack_batch(theta, fam, X, fam.values(X), fam.gradients(X), D, gamma, 1.0)
    assert np.array_equal(thetas, gamma * theta / 2.0 ** (trials - 1))


def test_dichotomy_over_shared_theta_sequence(rng):
    # either a strict decrease or exactly gamma * previous, along a running theta
    fam = curvature_family(7.0, dim=2)
    theta = 1.0
    for k in range(2000):
        gamma = float(rng.uniform(1.0, 2.0 - 1e-9))
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        new, _ = search_one(fam, theta, x, y, gamma, delta=1.0)
        assert new < theta or new == gamma * theta
        theta = new


def test_nonincreasing_with_unit_gamma(rng):
    fam = curvature_family(4.0, dim=2)
    theta = 2.0
    prev = theta
    for _ in range(300):
        theta, _ = search_one(fam, theta, rng.standard_normal(2), rng.standard_normal(2), 1.0, 1.0)
        assert theta <= prev
        prev = theta


@pytest.mark.parametrize("L", [1.0, 10.0, 100.0])
def test_termination_floor(L, rng):
    m = 100
    fam = curvature_family(L, m=m, dim=3)
    delta = 1.0
    theta = rng.uniform(1e-4, 10.0, size=m)
    gamma = rng.uniform(1.0, 2.0, size=m)
    X = rng.standard_normal((m, 3))
    D = rng.standard_normal((m, 3))
    thetas, _, _ = backtrack_batch(theta, fam, X, fam.values(X), fam.gradients(X), D, gamma, delta)
    assert np.all(thetas >= np.minimum(gamma * theta, delta / (2.0 * L)) - 1e-15)


def test_decrease_count_bounded_by_log_growth(rng):
    # halvings are paid for by gamma growth: sum(trials - 1) equals
    # log2(theta_0 / theta_K) + sum log2(gamma_k), and theta never drops
    # below delta / (2 L), so decreases are O(sum log gamma)
    L = 10.0
    fam = curvature_family(L, dim=2)
    delta = 1.0
    theta0 = theta = 1.0
    decreases = 0
    halvings = 0
    log2_gamma_sum = 0.0
    K = 10_000
    for k in range(K):
        gamma = (k + 2.0) / (k + 1.0)
        new, trials = search_one(fam, theta, rng.standard_normal(2), rng.standard_normal(2), gamma, delta)
        if new < theta:
            decreases += 1
        halvings += trials - 1
        log2_gamma_sum += np.log2(gamma)
        theta = new
    bound = log2_gamma_sum + np.log2(theta0 * 2.0 * L / delta) + 1.0
    assert decreases <= halvings <= bound
    print(f"decrease probe: {decreases} decreases, {halvings} halvings, bound {bound:.1f}")


class _StepFamily:
    """Zero at the origin and one elsewhere: no stepsize gives sufficient decrease."""

    def images(self, X):
        return X

    def values(self, X, image):
        return np.any(image != 0.0, axis=1).astype(float)


def test_underflow_raises():
    # a huge claimed descent slope that the values never follow
    X = np.zeros((1, 2))
    with pytest.raises(BacktrackingError, match="underflow"):
        backtrack_batch(
            np.array([1.0]), _StepFamily(), X, np.zeros(1), np.full((1, 2), -1e6), np.ones((1, 2)), 1.0, 1.0
        )


def test_rejects_nonpositive_theta():
    with pytest.raises(BacktrackingError):
        search_one(curvature_family(1.0), 0.0, np.zeros(1), np.ones(1), 1.0, 1.0)


def decided_beyond_rounding(fam, i: int, theta: float, x, y, gamma: float, delta: float) -> bool:
    """Whether every sufficient-decrease test of agent i's search is decided by more than rounding.

    On a quadratic, f(x + ty) - f(x) - t<grad f(x), y> = t^2 K exactly, with
    K = ||A_i y||^2 + (ridge/2) ||y||^2, so trial t is rejected iff
    t^2 K > delta t ||y||^2 / 2. The code tests this as a difference of
    values, which the stacked and per-agent kernels round differently: a
    trial whose exact margin is within rounding of the compared terms can
    go either way. A zero direction is decided: both searches compare f(x)
    with itself and accept the first trial.
    """
    if not y.any():
        return True
    K = float(np.sum((fam.A[i] @ y) ** 2)) + 0.5 * fam.ridge * float(y @ y)
    fx, slope = agent_value(fam, i, x), float(agent_gradient(fam, i, x) @ y)
    t = gamma * theta
    while t >= 1e-300:
        curvature, slack = t * t * K, 0.5 * delta * t * float(y @ y)
        if abs(curvature - slack) <= 1e-12 * (abs(fx) + t * abs(slope) + curvature + slack):
            return False
        if curvature <= slack:
            return True
        t *= 0.5
    return True


def scalar_or_none(fam, i: int, theta: float, x, y, gamma: float, delta: float):
    """The reference search of agent i, or None where it underflows."""
    try:
        return backtrack(theta, fam, i, x, y, gamma, delta)
    except BacktrackingError:
        return None


unit_interval = st.floats(0.0, 1.0, exclude_min=True)
rows = arrays(np.float64, (6, 4), elements=st.floats(-10.0, 10.0))


@settings(max_examples=100, deadline=None)
@given(
    theta=arrays(np.float64, 6, elements=unit_interval),
    delta=unit_interval,
    gamma=st.one_of(st.floats(1.0, 2.0), arrays(np.float64, 6, elements=st.floats(1.0, 2.0))),
    X=rows,
    D=rows,
)
def test_batch_matches_scalar_per_agent(theta, delta, gamma, X, D):
    fam = generate_quadratic(m=6, h=5, n=4, ridge=0.2, seed=21)
    gammas = np.broadcast_to(gamma, 6)
    agents = [(fam, i, theta[i], X[i], D[i], gammas[i], delta) for i in range(6)]
    reference = [scalar_or_none(*agent) for agent in agents]
    decided = [decided_beyond_rounding(*agent) for agent in agents]
    try:
        thetas, trials, image = backtrack_batch(
            theta, fam, X, fam.values(X), fam.gradients(X), D, gamma, delta
        )
    except BacktrackingError:
        # the lockstep search gives up when some agent's own search underflows
        assert any(ref is None or not ok for ref, ok in zip(reference, decided))
        return
    assert np.array_equal(image, fam.images(X + thetas[:, None] * D))
    for i in range(6):
        if decided[i]:
            assert (thetas[i], trials[i]) == reference[i]


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_batch_image_is_taken_at_the_accepted_stepsizes(kind, rng):
    # agents accept after different trial counts; each row of the last trial's
    # image is at the agent's own accepted stepsize
    fam = generate_quadratic(m=8, h=5, n=4, ridge=0.2, seed=23) if kind == "quadratic" else (
        synthetic_logistic(8, 9, 4, seed=23)
    )
    for _ in range(20):
        X = rng.standard_normal((8, 4))
        D = -fam.gradients(X) * rng.uniform(0.1, 10.0, size=(8, 1))
        theta = rng.uniform(0.01, 100.0, size=8)
        thetas, trials, image = backtrack_batch(theta, fam, X, fam.values(X), fam.gradients(X), D, 1.5, 0.5)
        assert len(set(trials.tolist())) > 1
        assert np.array_equal(image, fam.images(X + thetas[:, None] * D))


def test_batch_per_agent_gamma(rng):
    fam = generate_quadratic(m=3, h=4, n=3, ridge=0.0, seed=22)
    theta = np.array([0.5, 0.5, 0.5])
    gammas = np.array([1.0, 1.5, 2.0])
    X = rng.standard_normal((3, 3))
    D = np.zeros((3, 3))  # zero directions accept at the first trial
    thetas, trials, _ = backtrack_batch(theta, fam, X, fam.values(X), fam.gradients(X), D, gammas, delta=1.0)
    np.testing.assert_allclose(thetas, gammas * theta)
    assert trials.tolist() == [1, 1, 1]


def test_batch_rejects_nonpositive_theta():
    fam = generate_quadratic(m=2, h=3, n=2, ridge=0.0, seed=0)
    X = np.zeros((2, 2))
    with pytest.raises(BacktrackingError):
        backtrack_batch(
            np.array([1.0, -1.0]), fam, X, fam.values(X), fam.gradients(X), np.zeros((2, 2)), 1.0, 1.0
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_trial_is_rejected():
    # at theta = 1e300 the residual overflows: the value is inf, and so is the
    # bound; inf <= inf holds, so only the finiteness check halves the trial
    fam = generate_quadratic(m=6, h=5, n=4, ridge=0.0, seed=21)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 4))
    D = rng.standard_normal((6, 4))
    assert np.isposinf(fam.values(X + 1e300 * D)).all()
    theta = np.full(6, 1e300)
    thetas, trials, _ = backtrack_batch(theta, fam, X, fam.values(X), fam.gradients(X), D, 1.0, delta=1.0)
    assert thetas.max() < 1e10 and trials.min() > 900
    for i in range(6):
        assert (thetas[i], trials[i]) == backtrack(1e300, fam, i, X[i], D[i], 1.0, delta=1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_growth_raises():
    fam = curvature_family(1.0)
    with pytest.raises(BacktrackingError, match="overflow"):
        search_one(fam, 1e308, np.zeros(1), np.ones(1), 2.0, 1.0)
    with pytest.raises(BacktrackingError, match="overflow"):
        backtrack(1e308, fam, 0, np.zeros(1), np.ones(1), 2.0, 1.0)
