import os
from pathlib import Path

import numpy as np
import pytest

from gossipopt import LogisticFamily


def find_a3a() -> Path | None:
    """Locate the a3a libsvm file: $A3A_PATH, tests/data/a3a, or ./data/a3a."""
    candidates = [os.environ.get("A3A_PATH")]
    here = Path(__file__).resolve().parent
    candidates += [here / "data" / "a3a", here.parent / "data" / "a3a"]
    for cand in candidates:
        if cand and Path(cand).is_file():
            return Path(cand)
    return None


def synthetic_logistic(m: int, h: int, d: int, seed: int) -> LogisticFamily:
    """Non-separable logistic data sampled from a planted linear model."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    feats = rng.standard_normal((m, h, d))
    margins = np.einsum("ahd,d->ah", feats, w)
    labels = np.where(rng.random((m, h)) < 1.0 / (1.0 + np.exp(-margins)), 1.0, -1.0)
    return LogisticFamily(feats, labels)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def written_out_step(W, family, X, Y, theta, pi):
    """The primal-dual recurrence written out with given stepsizes theta and pi.

    X_half = W X,  Y_half = W (Y + grad F(X_half)),
    X+ = X_half - diag(theta) Y_half,
    Y+ = Y_half + (I - W) diag(pi)^-1 X - grad F(X_half).
    """
    X_half = W @ X
    G_half = family.gradients(X_half)
    Y_half = W @ (Y + G_half)
    X_new = X_half - theta[:, None] * Y_half
    Y_new = Y_half + (np.eye(len(W)) - W) @ (X / pi[:, None]) - G_half
    return X_new, Y_new


def floyd_warshall_diameter(g) -> int:
    """Hop diameter from the edge set by Floyd-Warshall, independent of the package."""
    dist = np.full((g.m, g.m), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, j in g.edges:
        dist[i, j] = dist[j, i] = 1.0
    for k in range(g.m):
        dist = np.minimum(dist, dist[:, [k]] + dist[[k], :])
    return int(dist.max())


class CountingFamily:
    """Delegates to a loss family and counts its stacked value and gradient calls."""

    def __init__(self, family):
        self.family = family
        self.calls = {"values": 0, "gradients": 0}

    def __getattr__(self, name):
        return getattr(self.family, name)

    def values(self, X):
        self.calls["values"] += 1
        return self.family.values(X)

    def gradients(self, X):
        self.calls["gradients"] += 1
        return self.family.gradients(X)
