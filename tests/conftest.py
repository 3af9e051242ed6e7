import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.special import expit

from gossipopt import BacktrackingError, LossError, MetricsError
from gossipopt.backtracking import backtrack_batch
from gossipopt.graphs import Graph, build_erdos_renyi, metropolis_weights
from gossipopt.losses import LogisticFamily, QuadraticFamily

# connected Erdos-Renyi graphs for the graph property tests
connected_er = st.builds(
    build_erdos_renyi,
    m=st.integers(2, 24),
    p=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**31 - 1),
)


def find_a3a() -> Path | None:
    """Locate the a3a libsvm file: $A3A_PATH, tests/data/a3a, or ./data/a3a."""
    candidates = [os.environ.get("A3A_PATH")]
    here = Path(__file__).resolve().parent
    candidates += [here / "data" / "a3a", here.parent / "data" / "a3a"]
    for cand in candidates:
        if cand and Path(cand).is_file():
            return Path(cand)
    return None


def libsvm_reference(path) -> tuple[np.ndarray, np.ndarray, int]:
    """``parse_libsvm`` token by token: the reference for its bulk reader.

    Each line's label goes through ``float``, each ``idx:val`` token through
    ``str.split(":", 1)``, ``int`` and ``float`` into a dict, so a repeated
    index keeps its last value; the first malformed line raises ``LossError``
    naming it, a line with a byte that is not UTF-8 among them. An empty file,
    or one with no entry at all, is rejected.
    """
    labels, row_sizes, cols, vals = [], [], [], []
    # surrogateescape reads an undecodable byte b as the lone surrogate U+DC00 + b
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            try:
                undecodable = [ord(c) - 0xDC00 for c in line if "\udc80" <= c <= "\udcff"]
                if undecodable:
                    raise ValueError(f"byte {undecodable[0]:#04x} is not UTF-8")
                raw = float(tokens[0])
                entries = {}
                for tok in tokens[1:]:
                    idx_s, val_s = tok.split(":", 1)
                    idx = int(idx_s)
                    if idx < 1:
                        raise ValueError(f"index {idx} is not 1-based")
                    entries[idx] = float(val_s)
            except ValueError as exc:
                raise LossError(f"{path}: malformed libsvm line {lineno}: {exc}") from exc
            labels.append(1.0 if raw > 0 else -1.0)
            row_sizes.append(len(entries))
            cols.extend(entries)
            vals.extend(entries.values())
    if not labels:
        raise LossError(f"{path}: empty libsvm file")
    if not cols:
        raise LossError(f"{path}: no idx:val entry in the libsvm file")
    col_index = np.array(cols, dtype=np.intp) - 1
    n_features = int(col_index.max()) + 1
    features = np.zeros((len(labels), n_features))
    features[np.repeat(np.arange(len(labels)), row_sizes), col_index] = vals
    return np.array(labels), features, n_features


def synthetic_logistic(m: int, h: int, d: int, seed: int) -> LogisticFamily:
    """Non-separable logistic data sampled from a planted linear model."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    feats = rng.standard_normal((m, h, d))
    margins = np.einsum("ahd,d->ah", feats, w)
    labels = np.where(rng.random((m, h)) < 1.0 / (1.0 + np.exp(-margins)), 1.0, -1.0)
    return LogisticFamily(feats, labels)


def logistic_hessian_reference(family: LogisticFamily, x: np.ndarray) -> np.ndarray:
    """``LogisticFamily._hessian`` as first written: T rebuilt from S, then T^T (CSC) times DT.

    The reference for the family's cached fold, which must give the same bytes.
    """
    z = family.images(np.broadcast_to(x, (family.m, family.dim))).ravel()
    S = family._S
    weights = np.repeat(expit(z) * expit(-z) / family._h, np.diff(S.indptr))
    T = csr_array((S.data, S.indices % family.dim, S.indptr), shape=(len(z), family.dim))
    DT = csr_array((S.data * weights, T.indices, S.indptr), shape=T.shape)
    return (T.T @ DT).toarray()


class ScaledLoss:
    """A loss family times s: its values, gradients and totals multiplied by s, its images as they are."""

    def __init__(self, family, s: float):
        self.family, self.s = family, s

    def __getattr__(self, name):
        return getattr(self.family, name)

    def values(self, X, image=None):
        return self.s * self.family.values(X, image)

    def gradients(self, X, image=None):
        return self.s * self.family.gradients(X, image)

    def total_at_mean(self, S, R, count):
        return self.s * self.family.total_at_mean(S, R, count)


def agent_value(family, i: int, x: np.ndarray) -> float:
    """f_i(x) from agent i's own data, independent of the stacked kernels.

    A quadratic value that overflows is +inf, as ``QuadraticFamily.values``
    gives it: the ridge term is skipped at ridge 0, where 0 * inf would be NaN.
    """
    if isinstance(family, QuadraticFamily):
        with np.errstate(over="ignore"):
            r = family.A[i] @ x - family.b[i]
            value = float(r @ r)
            return value + 0.5 * family.ridge * float(x @ x) if family.ridge else value
    z = family.labels[i] * (family.features[i] @ x)
    return float(np.logaddexp(0.0, -z).mean())


def agent_gradient(family, i: int, x: np.ndarray) -> np.ndarray:
    """grad f_i(x) from agent i's own data, independent of the stacked kernels."""
    if isinstance(family, QuadraticFamily):
        return 2.0 * (family.A[i].T @ (family.A[i] @ x - family.b[i])) + family.ridge * x
    z = family.labels[i] * (family.features[i] @ x)
    w = family.labels[i] * expit(-z)
    return -(family.features[i].T @ w) / family.features.shape[1]


def backtrack(theta: float, family, i: int, x, y, gamma: float, delta: float) -> tuple[float, int]:
    """Agent i's line search alone, on the per-agent oracle: (accepted stepsize, trials).

    The reference for ``backtrack_batch``: grow by gamma, then halve while
    f(x + t y) > f(x) + <grad f(x), t y> + (delta / 2t) ||t y||^2,
    or while f(x + t y) is not finite.
    """
    fx = agent_value(family, i, x)
    gx = agent_gradient(family, i, x)
    theta_plus = gamma * theta
    if not np.isfinite(theta_plus):
        raise BacktrackingError("stepsize overflow: the grown stepsize is not finite")
    trials = 1
    while True:
        x_plus = x + theta_plus * y
        dx = x_plus - x
        bound = fx + float(np.vdot(gx, dx)) + (delta / (2.0 * theta_plus)) * float(np.vdot(dx, dx))
        value = agent_value(family, i, x_plus)
        if np.isfinite(value) and value <= bound:
            return theta_plus, trials
        theta_plus *= 0.5
        trials += 1
        if theta_plus < 1e-300:
            raise BacktrackingError("stepsize underflow: sufficient decrease never reached")


def curvature_family(L: float, m: int = 1, dim: int = 1) -> QuadraticFamily:
    """m agents with f_i(x) = (L/2) ||x||^2, written as the ridge term alone.

    The ridge form keeps the arithmetic exact for the hand examples: the
    equivalent A = sqrt(L/2) I rounds, since sqrt(1/2)**2 != 1/2 in floating point.
    """
    return QuadraticFamily(np.zeros((m, 1, dim)), np.zeros((m, 1)), ridge=L)


def search_one(family, theta: float, x, y, gamma: float, delta: float) -> tuple[float, int]:
    """One agent's search through ``backtrack_batch`` on a one-row family: (stepsize, trials)."""
    X = np.asarray(x, dtype=float)[None, :]
    D = np.asarray(y, dtype=float)[None, :]
    thetas, trials, _ = backtrack_batch(
        np.array([theta]), family, X, family.values(X), family.gradients(X), D, gamma, delta
    )
    return float(thetas[0]), int(trials[0])


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


def erdos_renyi_reference(m: int, p: float, seed: int) -> tuple[frozenset, int]:
    """Edge set of the first connected G(m, p) draw, by one draw over all pairs, and the draw count.

    The reference for ``build_erdos_renyi``, which draws a block of rows at a
    time: here all m(m-1)/2 uniforms of a draw come at once, one per pair
    i < j in row-major order (``np.triu_indices``), an edge where it falls
    below p, redrawn until a search from agent 0 reaches every agent.
    """
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(m, 1)
    draws = 0
    while True:
        draws += 1
        mask = rng.random(rows.size) < p
        edges = frozenset(zip(rows[mask].tolist(), cols[mask].tolist()))
        adjacency = [set() for _ in range(m)]
        for i, j in edges:
            adjacency[i].add(j)
            adjacency[j].add(i)
        reached, frontier = {0}, [0]
        while frontier:
            for v in adjacency[frontier.pop()] - reached:
                reached.add(v)
                frontier.append(v)
        if len(reached) == m:
            return edges, draws


def graph_from_pairs(m: int, pairs) -> Graph:
    """The Graph on agents 0..m-1 with edges ``pairs``, connected or not.

    Builds the CSR pattern of the closed neighborhoods here, past the
    builders' connectivity check, for the tests that need a disconnected graph.
    """
    closed = [{i} for i in range(m)]
    for i, j in pairs:
        closed[i].add(j)
        closed[j].add(i)
    indices = np.array([j for row in closed for j in sorted(row)], dtype=np.intp)
    indptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum([len(row) for row in closed], out=indptr[1:])
    return Graph(indptr, indices)


def neighborhood(g, i: int) -> np.ndarray:
    """Row i of the graph's pattern: agent i's closed neighborhood, i included."""
    return g.indices[g.indptr[i]:g.indptr[i + 1]]


def edge_adjacency(g) -> np.ndarray:
    """0/1 adjacency matrix with zero diagonal, rebuilt from the edge set alone."""
    a = np.zeros((g.m, g.m))
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1.0
    return a


def floyd_warshall_diameter(g) -> int:
    """Hop diameter from the edge set by Floyd-Warshall, independent of the package."""
    dist = np.where(edge_adjacency(g) > 0, 1.0, np.inf)
    np.fill_diagonal(dist, 0.0)
    for k in range(g.m):
        dist = np.minimum(dist, dist[:, [k]] + dist[[k], :])
    return int(dist.max())


def metropolis_reference(g) -> np.ndarray:
    """Metropolis weights by a loop over the edge set: 1 / (1 + max(deg_i, deg_j)) on edges.

    The diagonal entry of row i is 1 minus the row's sum over agent i's closed
    neighbourhood in index order (its own entry counted as 0), added as
    ``np.add.reduceat`` adds a segment: the first term plus numpy's sum of the rest.
    """
    degree = [0] * g.m
    closed = [{i} for i in range(g.m)]
    for i, j in g.edges:
        degree[i] += 1
        degree[j] += 1
        closed[i].add(j)
        closed[j].add(i)
    w = np.zeros((g.m, g.m))
    for i, j in g.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(degree[i], degree[j]))
    for i in range(g.m):
        row = w[i, sorted(closed[i])]
        w[i, i] = 1.0 - (row[0] + row[1:].sum())
    return w


def linear_rate_fit(ks, values) -> float:
    """Least-squares slope of log(V) over the last half of a trace.

    Rows with non-positive V are skipped; a clearly negative slope certifies
    geometric decay.
    """
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    if ks.shape != values.shape or ks.ndim != 1:
        raise MetricsError("need matching 1-d iteration and merit arrays")
    start = len(ks) // 2
    ks, values = ks[start:], values[start:]
    keep = values > 0.0
    ks, values = ks[keep], values[keep]
    if len(ks) < 10:
        raise MetricsError(f"need at least 10 positive rows in the fit window, got {len(ks)}")
    return float(np.polyfit(ks, np.log(values), 1)[0])


def dense(op) -> np.ndarray:
    """A mixing operator as a dense array: ``gm.W_op`` or ``metropolis_weights(g)``."""
    return op if isinstance(op, np.ndarray) else op.toarray()


def spectral_reference(gm) -> np.ndarray:
    """M = c^-1 pinv(I - W_tilde) - I from the eigendecomposition of W_tilde.

    Eigenvalues of I - W_tilde within 1e-10 of zero count as exactly zero.
    """
    vals, vecs = np.linalg.eigh(dense(metropolis_weights(gm.graph)))
    gap = 1.0 - vals
    inv = np.where(np.abs(gap) > 1e-10, 1.0 / np.where(gap == 0.0, 1.0, gap), 0.0)
    return (vecs * inv) @ vecs.T / gm.c - np.eye(gm.graph.m)


def merit_cvx_reference(S, R, fp, family, gm, delta, count=1) -> float:
    """``merit_cvx`` from the materialized means X = S/count and R/count, summed by numpy.

    max( delta <(I-W) X, X>, F(X) - F(X*) + <Y*, X> ), with F(X) from
    ``family.values`` at the mean image.
    """
    X, image = S / count, R / count
    consensus = max(delta * float(np.sum(X * ((np.eye(len(X)) - dense(gm.W_op)) @ X))), 0.0)
    gap = float(family.values(X, image).sum() - fp.F_star + np.sum(fp.Y_star * X))
    return max(consensus, gap)


def metric_from_factor(R: np.ndarray, c: float) -> np.ndarray:
    """The dense M = (R^T R)^-1 - 11^T/(cm) - I that a ``spectral_data`` factor R stands for."""
    m = R.shape[0]
    R_inv = np.linalg.inv(R)
    return R_inv @ R_inv.T - 1.0 / (c * m) - np.eye(m)


class CountingFamily:
    """Delegates to a loss family and records the iterate of each oracle pass.

    ``passes`` lists a copy of X for every image the family computes: each
    ``images(X)`` call, and each value or gradient call made without an image.
    ``calls`` counts the image, value and gradient calls.
    """

    def __init__(self, family):
        self.family = family
        self.passes = []
        self.calls = {"images": 0, "values": 0, "gradients": 0}

    def __getattr__(self, name):
        return getattr(self.family, name)

    def images(self, X):
        self.calls["images"] += 1
        self.passes.append(np.array(X, dtype=float))
        return self.family.images(X)

    def values(self, X, image=None):
        self.calls["values"] += 1
        return self.family.values(X, self.images(X) if image is None else image)

    def gradients(self, X, image=None):
        self.calls["gradients"] += 1
        return self.family.gradients(X, self.images(X) if image is None else image)
