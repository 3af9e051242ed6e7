"""Per-agent differentiable losses, data generation, and the exact-solution oracle.

Losses are held in "stacked" form: the m agents' variables are the rows of an
(m, d) matrix X; ``values(X)`` and ``gradients(X)`` evaluate agent i's loss at
row i, for every agent at once, with no 1/m scaling. ``values_and_gradients(X)``
returns both from one shared contraction, bit for bit equal to the separate
calls. The quadratic contractions are batched BLAS products,
``(A @ X[:, :, None])``; the logistic ones are products with one label-signed,
block-diagonal CSR matrix, which reads only the nonzero features.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array, get_index_dtype
from scipy.special import expit

__all__ = [
    "LossError",
    "QuadraticFamily",
    "LogisticFamily",
    "generate_quadratic",
    "parse_libsvm",
    "partition_logistic",
    "centralized_solve",
    "quadratic_condition_numbers",
]

# Newton steps of the centralized oracle; logistic data needs about five
_NEWTON_ROUNDS = 30


class LossError(ValueError):
    """Malformed loss data, dimension mismatch, or oracle failure."""


class _FamilyBase:
    m: int
    dim: int

    def _check_stack(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape != (self.m, self.dim):
            raise LossError(f"expected stacked iterate {(self.m, self.dim)}, got {X.shape}")
        return X

    def total_value(self, x: np.ndarray) -> float:
        X = np.broadcast_to(x, (self.m, self.dim))
        return float(self.values(X).sum())

    def total_gradient(self, x: np.ndarray) -> np.ndarray:
        X = np.broadcast_to(x, (self.m, self.dim))
        return self.gradients(X).sum(axis=0)


class QuadraticFamily(_FamilyBase):
    """f_i(x) = ||A_i x - b_i||^2 + (ridge/2) ||x||^2 per agent."""

    def __init__(self, A: np.ndarray, b: np.ndarray, ridge: float = 0.0):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 3 or b.shape != A.shape[:2]:
            raise LossError(f"need A of shape (m, h, n) and matching b, got {A.shape}, {b.shape}")
        if not (0.0 <= ridge < np.inf):
            raise LossError(f"ridge coefficient must be finite and >= 0, got {ridge}")
        self.A = A
        self.b = b
        self.ridge = float(ridge)
        self.m = A.shape[0]
        self.dim = A.shape[2]

    def _residuals(self, X: np.ndarray) -> np.ndarray:
        return (self.A @ X[:, :, None])[:, :, 0] - self.b

    def _values(self, X: np.ndarray, r: np.ndarray) -> np.ndarray:
        values = np.einsum("ah,ah->a", r, r)
        if self.ridge:  # skipped, not added as zeros, without a ridge
            values += 0.5 * self.ridge * np.einsum("an,an->a", X, X)
        return values

    def _gradients(self, X: np.ndarray, r: np.ndarray) -> np.ndarray:
        grads = (r[:, None, :] @ self.A)[:, 0, :]
        grads *= 2.0
        if self.ridge:
            grads += self.ridge * X
        return grads

    def values(self, X: np.ndarray) -> np.ndarray:
        X = self._check_stack(X)
        return self._values(X, self._residuals(X))

    def gradients(self, X: np.ndarray) -> np.ndarray:
        X = self._check_stack(X)
        return self._gradients(X, self._residuals(X))

    def values_and_gradients(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = self._check_stack(X)
        r = self._residuals(X)
        return self._values(X, r), self._gradients(X, r)

    def _hessian(self, x: np.ndarray) -> np.ndarray:
        """Hessian of sum_i f_i, the same at every x: 2 sum_i A_i^T A_i + m ridge I."""
        return 2.0 * np.einsum("ahn,ahk->nk", self.A, self.A) + self.m * self.ridge * np.eye(self.dim)


class LogisticFamily(_FamilyBase):
    """f_i(x) = (1/h_i) sum_j log(1 + exp(-b_ij <x, a_ij>)) per agent.

    ``features`` (m, h, d) and ``labels`` (m, h) stay as given. The oracle
    runs on one CSR matrix S of shape (m*h, m*d), block-diagonal with block i
    equal to diag(b_i) F_i, and on a CSR copy of its transpose: the margins
    are S vec(X) and the gradients -S^T vec(expit(-z)) / h.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if features.ndim != 3 or labels.shape != features.shape[:2]:
            raise LossError(
                f"need features (m, h, d) and matching labels, got {features.shape}, {labels.shape}"
            )
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise LossError("labels must be -1 or +1")
        self.features = features
        self.labels = labels
        self.m, self._h, self.dim = features.shape
        # sign each sample row by its label, then shift agent i's columns to
        # block i: row r of the stacked samples belongs to agent r // h
        rows = self.m * self._h
        F = csr_array(features.reshape(rows, self.dim))
        row_nnz = np.diff(F.indptr)
        F.data *= np.repeat(labels.ravel(), row_nnz)
        # m*d columns may outgrow the index dtype scipy picked for d
        idx = get_index_dtype((F.indices, F.indptr), maxval=self.m * self.dim)
        cols = F.indices.astype(idx, copy=False)
        cols += np.repeat(np.arange(rows, dtype=idx) // self._h * self.dim, row_nnz)
        self._S = csr_array((F.data, cols, F.indptr), shape=(rows, self.m * self.dim))
        self._ST = self._S.T.tocsr()

    def _margins(self, X: np.ndarray) -> np.ndarray:
        return (self._S @ X.ravel()).reshape(self.m, self._h)

    @staticmethod
    def _values(z: np.ndarray) -> np.ndarray:
        # softplus(-z), stable for either sign of z
        return (np.maximum(-z, 0.0) + np.log1p(np.exp(-np.abs(z)))).mean(axis=1)

    def _gradients(self, z: np.ndarray) -> np.ndarray:
        return -(self._ST @ expit(-z).ravel()).reshape(self.m, self.dim) / self._h

    def values(self, X: np.ndarray) -> np.ndarray:
        return self._values(self._margins(self._check_stack(X)))

    def gradients(self, X: np.ndarray) -> np.ndarray:
        return self._gradients(self._margins(self._check_stack(X)))

    def values_and_gradients(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = self._margins(self._check_stack(X))
        return self._values(z), self._gradients(z)

    def _hessian(self, x: np.ndarray) -> np.ndarray:
        """Hessian of sum_i f_i at the shared x: T^T diag(s(z)s(-z)/h) T, s = expit.

        T is S with its agent blocks folded onto the d shared columns (the
        label-signed stacked features). A CSR product, so no threaded BLAS
        call decides its bytes.
        """
        z = self._margins(np.broadcast_to(x, (self.m, self.dim))).ravel()
        S = self._S
        weights = np.repeat(expit(z) * expit(-z) / self._h, np.diff(S.indptr))
        T = csr_array((S.data, S.indices % self.dim, S.indptr), shape=(len(z), self.dim))
        DT = csr_array((S.data * weights, T.indices, S.indptr), shape=T.shape)
        return (T.T @ DT).toarray()


def generate_quadratic(m: int, h: int, n: int, ridge: float, seed: int) -> QuadraticFamily:
    """Standard-normal A_i and b_i, independent across agents, seeded."""
    if min(m, h, n) < 1:
        raise LossError(f"m, h, n must be >= 1, got {(m, h, n)}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, h, n))
    b = rng.standard_normal((m, h))
    return QuadraticFamily(A, b, ridge)


def parse_libsvm(path) -> tuple[np.ndarray, np.ndarray, int]:
    """Read a libsvm text file: ``<label> <idx>:<val> ...`` with 1-based indices.

    Returns (labels in {-1,+1}, dense feature rows, feature count). Rows are
    densified to the maximum index seen anywhere in the file.
    """
    labels: list[float] = []
    row_sizes: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            try:
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
    col_index = np.array(cols, dtype=np.intp) - 1
    n_features = int(col_index.max()) + 1 if cols else 0
    features = np.zeros((len(labels), n_features))
    features[np.repeat(np.arange(len(labels)), row_sizes), col_index] = vals
    return np.array(labels), features, n_features


def partition_logistic(
    labels: np.ndarray, features: np.ndarray, m: int, samples_per_agent: int, seed: int
) -> LogisticFamily:
    """Seeded shuffle, then contiguous equal blocks per agent; leftovers dropped."""
    n = len(labels)
    need = m * samples_per_agent
    if need > n:
        raise LossError(f"need {need} samples for m={m}, h={samples_per_agent}; have {n}")
    order = np.random.default_rng(seed).permutation(n)[:need]
    shape = (m, samples_per_agent)
    return LogisticFamily(features[order].reshape(*shape, -1), labels[order].reshape(shape))


def centralized_solve(family, tol: float = 1e-8) -> np.ndarray:
    """Exact-solution oracle: the minimum-norm x with || sum_i grad f_i(x) || <= tol.

    Damped Newton from x = 0 on the family's summed Hessian. Each step is the
    least-squares (pseudo-inverse) solution, so every iterate stays in the
    Hessian's range, the row space of the stacked features: where the sum is
    rank-deficient the limit is the solution of least norm. A quadratic is
    solved by the first full step up to rounding; any further step refines it.
    A step is halved while it raises the summed loss (a tie accepts it).
    Raises ``LossError`` when the gradient contract fails after
    ``_NEWTON_ROUNDS`` steps.
    """
    if tol <= 0.0:
        raise LossError(f"tolerance must be positive, got {tol}")
    x = np.zeros(family.dim)
    f = family.total_value(x)
    for _ in range(_NEWTON_ROUNDS):
        g = family.total_gradient(x)
        if np.linalg.norm(g) <= 0.1 * tol:
            break
        step = np.linalg.lstsq(family._hessian(x), g, rcond=None)[0]
        t = 1.0
        while (f_trial := family.total_value(x - t * step)) > f and t > 1e-12:
            t *= 0.5
        x, f = x - t * step, f_trial
    residual = float(np.linalg.norm(family.total_gradient(x)))
    if residual > tol:
        raise LossError(f"centralized oracle stalled: ||sum grad|| = {residual:.3e} > tol {tol:.1e}")
    return x


def quadratic_condition_numbers(family: QuadraticFamily) -> np.ndarray:
    """Per-agent condition numbers of the Hessians 2 A_i^T A_i + ridge I."""
    out = np.empty(family.m)
    for i in range(family.m):
        ev = np.linalg.eigvalsh(2.0 * family.A[i].T @ family.A[i] + family.ridge * np.eye(family.dim))
        out[i] = np.inf if ev[0] <= 0.0 else ev[-1] / ev[0]
    return out
