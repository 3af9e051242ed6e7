"""Armijo-style backtracking with between-search growth.

The search multiplies the previous stepsize by gamma, then halves until the
sufficient-decrease inequality with slack delta holds:

    f(x + t y) <= f(x) + <grad f(x), t y> + (delta / 2t) ||t y||^2

The loop continues on strict ``>``; ties accept. A trial value that is not
finite (an overflowed quadratic) never passes the test.
"""

from __future__ import annotations

import numpy as np

# Below this the trial stepsize has underflowed: the objective is not smooth
# along the direction (or the oracle is buggy), so the search cannot end.
_THETA_FLOOR = 1e-300


class BacktrackingError(RuntimeError):
    """The sufficient-decrease test never passed before stepsize underflow."""


def backtrack_batch(
    theta: np.ndarray,
    family,
    X: np.ndarray,
    fX: np.ndarray,
    G: np.ndarray,
    directions: np.ndarray,
    gamma: float | np.ndarray,
    delta: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run all m agents' searches in lockstep on stacked rows.

    Agent i searches from row x_i along direction y_i with its own loss f_i;
    ``fX`` and ``G`` are the caller's values and gradients at ``X``. Returns
    (accepted stepsizes, per-agent trial counts, the final trial's image);
    each accepted stepsize equals ``gamma * theta / 2**(trials - 1)``. Every
    agent's row of the final trial sits at its accepted stepsize, so the image
    is ``family.images(X + thetas[:, None] * directions)``.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0):
        raise BacktrackingError("initial stepsizes must be positive")
    with np.errstate(over="ignore"):  # an overflowed product is the error raised next
        theta_plus = np.asarray(gamma, dtype=float) * theta
    if not np.isfinite(theta_plus).all():
        raise BacktrackingError("stepsize overflow: the grown stepsize is not finite")
    trials = np.ones(len(theta), dtype=int)
    active = np.ones(len(theta), dtype=bool)
    while True:
        X_plus = X + theta_plus[:, None] * directions
        dx = X_plus - X
        bound = fX + np.einsum("ad,ad->a", G, dx) + (delta / (2.0 * theta_plus)) * np.einsum(
            "ad,ad->a", dx, dx
        )
        image = family.images(X_plus)
        values = family.values(X_plus, image)
        fail = active & ~(np.isfinite(values) & (values <= bound))
        if not fail.any():
            return theta_plus, trials, image
        theta_plus = np.where(fail, 0.5 * theta_plus, theta_plus)
        trials += fail
        if np.any(theta_plus[fail] < _THETA_FLOOR):
            raise BacktrackingError("stepsize underflow: sufficient decrease never reached")
        active = fail
