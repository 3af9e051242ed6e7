"""Armijo-style backtracking with between-search growth.

The search multiplies the previous stepsize by gamma, then halves until the
sufficient-decrease inequality with slack delta holds:

    f(x + t y) <= f(x) + <grad f(x), t y> + (delta / 2t) ||t y||^2

The loop continues on strict ``>``; ties accept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BacktrackResult", "BacktrackingError", "backtrack", "backtrack_batch"]

# Below this the trial stepsize has underflowed: the objective is not smooth
# along the direction (or the handle is buggy), so the search cannot end.
_THETA_FLOOR = 1e-300


class BacktrackingError(RuntimeError):
    """The sufficient-decrease test never passed before stepsize underflow."""


@dataclass(frozen=True)
class BacktrackResult:
    """Accepted stepsize, number of test evaluations, and the trial point.

    ``theta == gamma * theta_in / 2**(trials - 1)`` always holds.
    """

    theta: float
    trials: int
    x_plus: np.ndarray


def backtrack(theta: float, f, x: np.ndarray, y: np.ndarray, gamma: float, delta: float) -> BacktrackResult:
    """Run the search for one agent; ``f`` exposes value(x) and gradient(x)."""
    if theta <= 0.0:
        raise BacktrackingError(f"initial stepsize must be positive, got {theta}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx = f.value(x)
    gx = f.gradient(x)
    theta_plus = gamma * theta
    trials = 1
    while True:
        x_plus = x + theta_plus * y
        dx = x_plus - x
        bound = fx + float(np.vdot(gx, dx)) + (delta / (2.0 * theta_plus)) * float(np.vdot(dx, dx))
        if not (f.value(x_plus) > bound):
            return BacktrackResult(theta=theta_plus, trials=trials, x_plus=x_plus)
        theta_plus *= 0.5
        trials += 1
        if theta_plus < _THETA_FLOOR:
            raise BacktrackingError("stepsize underflow: sufficient decrease never reached")


def backtrack_batch(
    theta: np.ndarray,
    family,
    X: np.ndarray,
    G: np.ndarray,
    directions: np.ndarray,
    gamma: float | np.ndarray,
    delta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Run all m agents' searches in lockstep on stacked rows.

    ``G`` is the caller's gradient stack at ``X``. Equivalent to calling
    :func:`backtrack` per agent with f_i, row x_i and direction y_i; returns
    (accepted stepsizes, per-agent trial counts).
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0):
        raise BacktrackingError("initial stepsizes must be positive")
    fx = family.values(X)
    theta_plus = np.asarray(gamma, dtype=float) * theta
    trials = np.ones(len(theta), dtype=int)
    active = np.ones(len(theta), dtype=bool)
    while True:
        X_plus = X + theta_plus[:, None] * directions
        dx = X_plus - X
        bound = fx + np.einsum("ad,ad->a", G, dx) + (delta / (2.0 * theta_plus)) * np.einsum(
            "ad,ad->a", dx, dx
        )
        fail = active & (family.values(X_plus) > bound)
        if not fail.any():
            return theta_plus, trials
        theta_plus = np.where(fail, 0.5 * theta_plus, theta_plus)
        trials += fail
        if np.any(theta_plus[fail] < _THETA_FLOOR):
            raise BacktrackingError("stepsize underflow: sufficient decrease never reached")
        active = fail
