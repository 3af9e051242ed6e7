"""Per-agent differentiable losses, data generation, and the exact-solution oracle.

Losses are held in "stacked" form: the m agents' variables are the rows of an
(m, d) matrix X, and agent i's loss is evaluated at row i, for every agent at
once, with no 1/m scaling. Each loss reads X only through an affine image, the
oracle's one pass over the data: ``images(X)`` returns the residuals
A_i x_i - b_i of a quadratic or the margins S vec(X) of a logistic loss, an
(m, h) array whose row i depends on x_i alone. ``values(X, image)`` and
``gradients(X, image)`` evaluate from a given image, X supplying only the ridge
term; without one they compute it from X. A caller that keeps the image of an
iterate so evaluates the losses there with no further pass, and
``total_at_mean(S, R, count)`` gives sum_i f_i at the mean of ``count``
iterates from the sums S of the iterates and R of their images (R/count is
the image of the mean up to rounding, as the map is affine). The quadratic
contractions are batched BLAS products, ``(A @ X[:, :, None])``; the logistic
ones are products with one label-signed, block-diagonal CSR matrix, which
reads only the nonzero features.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, islice
from operator import itemgetter

import numpy as np
from scipy.sparse import csr_array, get_index_dtype
from scipy.special import expit

# Newton steps of the centralized oracle; logistic data needs about five
_NEWTON_ROUNDS = 30
# terms per BLAS ddot in inner, below OpenBLAS's threading threshold of 10,000
_DDOT_CHUNK = 8192
# lines of a libsvm file parsed at a time, which bounds the memory its tokens take
_BLOCK_LINES = 128
_HEAD, _TAIL = itemgetter(0), itemgetter(slice(1, None))
# every byte but ' ' and ':', which bytes.translate deletes
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b" :")))


class LossError(ValueError):
    """Malformed loss data, dimension mismatch, or oracle failure."""


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that refuses writes; ``a`` itself keeps its flags."""
    view = a.view()
    view.setflags(write=False)
    return view


def inner(A: np.ndarray, B: np.ndarray | None = None) -> float:
    """<A, B>, or ||A||^2 without B, summed in C order however strided, the same at every BLAS thread count.

    BLAS ``ddot`` sums a contiguous run of terms, and OpenBLAS splits a run of
    more than 10,000 across threads, which rounds differently at each thread
    count. So the terms go to ``ddot`` in chunks of at most ``_DDOT_CHUNK``,
    whose sums are added left to right: arrays of up to ``_DDOT_CHUNK`` terms
    get exactly the bytes of one ``ddot``.
    """
    if B is not None and A.shape != B.shape:
        raise ValueError(f"inner product of shapes {A.shape} and {B.shape}")
    a = A.ravel()  # C order, copied only where A is strided
    b = a if B is None else B.ravel()
    if a.size <= _DDOT_CHUNK:  # the loop's one chunk, without its per-call overhead
        return float(np.vdot(a, b))
    total = 0.0
    for start in range(0, a.size, _DDOT_CHUNK):
        total += np.vdot(a[start : start + _DDOT_CHUNK], b[start : start + _DDOT_CHUNK])
    return float(total)


def _frozen(M: csr_array) -> csr_array:
    """``M`` with its data and index arrays read-only."""
    for a in (M.data, M.indices, M.indptr):
        a.setflags(write=False)
    return M


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
    """f_i(x) = ||A_i x - b_i||^2 + (ridge/2) ||x||^2 per agent; ``A`` and ``b`` are read-only views."""

    def __init__(self, A: np.ndarray, b: np.ndarray, ridge: float = 0.0):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 3 or b.shape != A.shape[:2]:
            raise LossError(f"need A of shape (m, h, n) and matching b, got {A.shape}, {b.shape}")
        if not (0.0 <= ridge < np.inf):
            raise LossError(f"ridge coefficient must be finite and >= 0, got {ridge}")
        self.A = _read_only(A)
        self.b = _read_only(b)
        self.ridge = float(ridge)
        self.m = A.shape[0]
        self.dim = A.shape[2]

    def images(self, X: np.ndarray) -> np.ndarray:
        """The residuals A_i x_i - b_i, shape (m, h)."""
        X = self._check_stack(X)
        return (self.A @ X[:, :, None])[:, :, 0] - self.b

    def values(self, X: np.ndarray, image: np.ndarray | None = None) -> np.ndarray:
        X = self._check_stack(X)
        r = self.images(X) if image is None else image
        values = np.einsum("ah,ah->a", r, r)
        if self.ridge:  # skipped, not added as zeros, without a ridge
            values += 0.5 * self.ridge * np.einsum("an,an->a", X, X)
        return values

    def total_at_mean(self, S: np.ndarray, R: np.ndarray, count: int) -> float:
        """sum_i f_i at the mean iterate S/count, from the sums S of iterates and R of their images.

        The loss is homogeneous of degree 2 in (x, image), so the total at the
        mean is (||R||^2 + (ridge/2) ||S||^2) / count^2, and no mean is formed.
        """
        total = inner(R)
        if self.ridge:
            total += 0.5 * self.ridge * inner(S)
        return total / count**2

    def gradients(self, X: np.ndarray, image: np.ndarray | None = None) -> np.ndarray:
        X = self._check_stack(X)
        r = self.images(X) if image is None else image
        grads = (r[:, None, :] @ self.A)[:, 0, :]
        grads *= 2.0
        if self.ridge:
            grads += self.ridge * X
        return grads

    def _hessian(self, x: np.ndarray) -> np.ndarray:
        """Hessian of sum_i f_i, the same at every x: 2 sum_i A_i^T A_i + m ridge I."""
        H = 2.0 * np.einsum("ahn,ahk->nk", self.A, self.A)
        H.flat[:: self.dim + 1] += self.m * self.ridge
        return H


class LogisticFamily(_FamilyBase):
    """f_i(x) = (1/h_i) sum_j log(1 + exp(-b_ij <x, a_ij>)) per agent.

    ``features`` (m, h, d) and ``labels`` (m, h) are kept as read-only views
    of the arrays given, and every CSR matrix below is read-only too. The oracle
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
        self.features = _read_only(features)
        self.labels = _read_only(labels)
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
        self._S = _frozen(csr_array((F.data, cols, F.indptr), shape=(rows, self.m * self.dim)))
        self._ST = _frozen(self._S.T.tocsr())

    def images(self, X: np.ndarray) -> np.ndarray:
        """The margins z = S vec(X), shape (m, h)."""
        return (self._S @ self._check_stack(X).ravel()).reshape(self.m, self._h)

    def values(self, X: np.ndarray, image: np.ndarray | None = None) -> np.ndarray:
        return self._softplus_means(self.images(X) if image is None else image)

    def total_at_mean(self, S: np.ndarray, R: np.ndarray, count: int) -> float:
        """sum_i f_i at the mean iterate, from the sum R of the iterates' margins: the softplus at R/count."""
        return float(self._softplus_means(R / count).sum())

    @staticmethod
    def _softplus_means(z: np.ndarray) -> np.ndarray:
        """Each agent's mean of softplus(-z) over its samples, stable for either sign of z."""
        return (np.maximum(-z, 0.0) + np.log1p(np.exp(-np.abs(z)))).mean(axis=1)

    def gradients(self, X: np.ndarray, image: np.ndarray | None = None) -> np.ndarray:
        z = self.images(X) if image is None else image
        return -(self._ST @ expit(-z).ravel()).reshape(self.m, self.dim) / self._h

    @cached_property
    def _fold(self) -> tuple[csr_array, csr_array]:
        """T, S with its agent blocks folded onto the d shared columns, and T^T as CSR; built on first use."""
        S = self._S
        T = csr_array((S.data, S.indices % self.dim, S.indptr), shape=(S.shape[0], self.dim))
        return _frozen(T), _frozen(T.T.tocsr())

    def _hessian(self, x: np.ndarray) -> np.ndarray:
        """Hessian of sum_i f_i at the shared x: T^T diag(s(z)s(-z)/h) T, s = expit.

        T (the label-signed stacked features) and T^T keep their pattern from
        step to step, so only the weights and DT's data are new. A CSR product,
        so no threaded BLAS call decides its bytes.
        """
        z = self.images(np.broadcast_to(x, (self.m, self.dim))).ravel()
        T, TT = self._fold
        weights = np.repeat(expit(z) * expit(-z) / self._h, np.diff(T.indptr))
        DT = csr_array((T.data * weights, T.indices, T.indptr), shape=T.shape)
        return (TT @ DT).toarray()


def generate_quadratic(m: int, h: int, n: int, ridge: float, seed: int) -> QuadraticFamily:
    """Standard-normal A_i and b_i, independent across agents, seeded."""
    if min(m, h, n) < 1:
        raise LossError(f"m, h, n must be >= 1, got {(m, h, n)}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, h, n))
    b = rng.standard_normal((m, h))
    return QuadraticFamily(A, b, ridge)


def _check_libsvm_line(tokens: list[str]) -> None:
    """Raise the ValueError that makes one split libsvm line malformed, if any."""
    try:
        " ".join(tokens).encode()
    except UnicodeEncodeError as exc:  # the reader keeps an undecodable byte b as the char U+DC00 + b
        raise ValueError(f"byte {ord(exc.object[exc.start]) - 0xDC00:#04x} is not UTF-8") from None
    float(tokens[0])
    for token in tokens[1:]:
        idx_s, val_s = token.split(":", 1)
        if (idx := int(idx_s)) < 1:
            raise ValueError(f"index {idx} is not 1-based")
        float(val_s)


class _IndexMemo(dict):
    """``int`` of each index string looked up, parsed on its first lookup only."""

    def __missing__(self, idx_s: str) -> int:
        self[idx_s] = idx = int(idx_s)
        return idx


def parse_libsvm(path) -> tuple[np.ndarray, np.ndarray, int]:
    """Read a libsvm text file: ``<label> <idx>:<val> ...`` with 1-based indices.

    Returns (labels in {-1,+1}, dense feature rows, feature count). Tokens are
    separated by any whitespace and parsed by Python's ``float`` (labels and
    values) and ``int`` (indices); a label above 0 becomes +1, any other -1.
    Blank lines are skipped, a row may have no entry, and a repeated index
    keeps its last value. Rows are densified to the largest index seen
    anywhere in the file. A malformed line (a byte that is not UTF-8 makes
    one), an empty file or a file without any ``idx:val`` entry raises
    ``LossError``.

    The file is read ``_BLOCK_LINES`` lines at a time. Each line is split
    once, each block's entries are joined and split on ':' once, and its
    labels, indices and values are parsed by ``map``, each distinct index
    string only once, so no Python bytecode runs per token. When a block
    fails, its lines are checked one by one to name the first bad one.
    """
    labels, row_sizes, cols, vals = [], [], [], []
    first_line = 1
    indices = _IndexMemo()  # a file repeats the same few index strings
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while lines := list(islice(fh, _BLOCK_LINES)):
            rows = list(filter(None, map(str.split, lines)))
            entries = list(chain.from_iterable(map(_TAIL, rows)))
            text = " ".join(entries)
            try:
                # one ':' per entry: the separators alternate ':', ' ', ..., ':'
                if text.encode().translate(None, _NOT_SEPARATORS) != (b": " * len(entries))[:-1]:
                    raise ValueError("an entry is not one idx:val pair")
                parts = text.replace(" ", ":").split(":") if entries else []
                labels.append(np.fromiter(map(float, map(_HEAD, rows)), float, len(rows)))
                cols.append(np.fromiter(map(indices.__getitem__, parts[0::2]), np.intp, len(entries)))
                vals.append(np.fromiter(map(float, parts[1::2]), float, len(entries)))
                if (cols[-1] < 1).any():
                    raise ValueError("an index is not 1-based")
            except (ValueError, OverflowError):  # an index beyond np.intp overflows
                for lineno, line in enumerate(lines, start=first_line):
                    try:
                        if tokens := line.split():
                            _check_libsvm_line(tokens)
                    except ValueError as exc:
                        raise LossError(f"{path}: malformed libsvm line {lineno}: {exc}") from exc
                raise
            row_sizes.append(np.fromiter(map(len, rows), np.intp, len(rows)) - 1)
            first_line += len(lines)
    labels = np.concatenate(labels) if labels else np.empty(0)
    if not labels.size:
        raise LossError(f"{path}: empty libsvm file")
    col_index = np.concatenate(cols) - 1
    if not col_index.size:
        raise LossError(f"{path}: no idx:val entry in the libsvm file")
    n_features = int(col_index.max()) + 1
    features = np.zeros((labels.size, n_features))
    flat = features.ravel()
    keys = np.repeat(np.arange(labels.size) * n_features, np.concatenate(row_sizes)) + col_index
    # numpy leaves the winner of a repeated index to its iteration order, so
    # mark each entry's last occurrence by its position first, then store those
    order = np.arange(1.0, keys.size + 1.0)
    np.maximum.at(flat, keys, order)
    last = flat[keys] == order
    flat[keys[last]] = np.concatenate(vals)[last]
    return np.where(labels > 0, 1.0, -1.0), features, n_features


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
    """Exact-solution oracle: the minimum-norm minimizer x of sum_i f_i.

    Damped Newton from x = 0 on the family's summed Hessian. Each step is the
    least-squares (pseudo-inverse) solution, so every iterate stays in the
    Hessian's range, the row space of the stacked features: where the sum is
    rank-deficient the limit is the solution of least norm. A quadratic is
    solved by the first full step up to rounding; any further step refines it.
    A step is halved while it raises the summed loss (a tie accepts it). The
    loop stops once || sum_i grad f_i(x) || <= 0.1 tol, or after
    ``_NEWTON_ROUNDS`` steps. The gradient's rounding floor grows with the
    data's scale, so the loop raises ``LossError`` only when the final gradient
    exceeds tol * max(1, || sum_i grad f_i(0) ||).
    """
    if tol <= 0.0:
        raise LossError(f"tolerance must be positive, got {tol}")
    x = np.zeros(family.dim)
    f = family.total_value(x)
    g = family.total_gradient(x)
    bound = tol * max(1.0, float(np.linalg.norm(g)))
    for _ in range(_NEWTON_ROUNDS):
        if np.linalg.norm(g) <= 0.1 * tol:
            break
        H = family._hessian(x)
        if not np.isfinite(H).all():  # LAPACK would print to stdout, then fail
            raise LossError("centralized oracle: the summed Hessian is not finite")
        step = np.linalg.lstsq(H, g, rcond=None)[0]
        t = 1.0
        while (f_trial := family.total_value(x - t * step)) > f and t > 1e-12:
            t *= 0.5
        x, f = x - t * step, f_trial
        g = family.total_gradient(x)
    residual = float(np.linalg.norm(g))
    if residual > bound:
        raise LossError(f"centralized oracle stalled: ||sum grad|| = {residual:.3e} > {bound:.1e}")
    return x


def quadratic_condition_numbers(family: QuadraticFamily) -> np.ndarray:
    """Per-agent condition numbers of the Hessians 2 A_i^T A_i + ridge I."""
    out = np.empty(family.m)
    for i in range(family.m):
        ev = np.linalg.eigvalsh(2.0 * family.A[i].T @ family.A[i] + family.ridge * np.eye(family.dim))
        out[i] = np.inf if ev[0] <= 0.0 else ev[-1] / ev[0]
    return out
