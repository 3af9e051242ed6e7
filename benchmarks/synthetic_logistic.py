"""Seeded synthetic logistic-regression data shaped like a3a, written as libsvm text.

This is *not* a3a. It has a3a's shape (3,185 samples, 123 binary features,
14 active per row, roughly a quarter positive labels) so the logistic
workload exercises the same parser, loss and solver code paths offline.

Each row picks exactly one feature from each of 14 one-hot groups (a3a's
categorical attributes), with group-specific frequencies floored so every
feature occurs. Labels are drawn from a planted linear model,
``P(y = +1) = sigmoid(<w, x> - offset)``, so the classes overlap and the
logistic loss has a finite minimizer.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

N_SAMPLES = 3185
N_FEATURES = 123
N_GROUPS = 14
WEIGHT_SCALE = 0.2  # planted weights ~ N(0, 0.2^2): ~1.25k iterations to the ergodic merit 1e-3
OFFSET = 1.1  # shifts the positive share to ~26% (a3a: 24%)


def generate(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (labels in {-1, +1}, 0/1 feature rows) drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, N_FEATURES), N_GROUPS - 1, replace=False))
    bounds = np.concatenate(([0], cuts, [N_FEATURES]))
    weights = rng.normal(0.0, WEIGHT_SCALE, N_FEATURES)
    features = np.zeros((N_SAMPLES, N_FEATURES))
    rows = np.arange(N_SAMPLES)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        size = hi - lo
        freq = 0.5 * rng.dirichlet(np.ones(size)) + 0.5 / size
        features[rows, lo + rng.choice(size, N_SAMPLES, p=freq)] = 1.0
    margin = features @ weights
    margin -= margin.mean() + OFFSET
    labels = np.where(rng.random(N_SAMPLES) < 1.0 / (1.0 + np.exp(-margin)), 1.0, -1.0)
    if not features.any(axis=0).all():
        raise ValueError(f"seed {seed} left a feature column empty")
    return labels, features


def write_libsvm(path: Path, labels: np.ndarray, features: np.ndarray, token_seed: int) -> None:
    """Write ``<+1|-1> idx:1 ...`` lines with 1-based indices.

    ``token_seed`` shuffles the order of the index:value tokens within each
    line. The parsed matrices do not depend on it; the file text does.
    """
    rng = np.random.default_rng(token_seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for label, row in zip(labels, features):
            idx = rng.permutation(np.flatnonzero(row)) + 1
            tokens = " ".join(f"{j}:1" for j in idx)
            fh.write(f"{'+1' if label > 0 else '-1'} {tokens}\n")
