"""Fixed points, merit functions, ergodic averages, and rate diagnostics."""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrmm

from .graphs import GossipMatrix
from .losses import centralized_solve, inner

__all__ = [
    "ErgodicAverage",
    "FixedPoint",
    "MeritBlock",
    "MetricsError",
    "fixed_point",
    "linear_rate_fit",
    "merit_cvx",
    "merit_sc",
]


# family -> {tol: FixedPoint}, each entry dropped with its family
_FIXED_POINTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class FixedPoint:
    """Consensual optimum: X* stacks x* on every row, Y* = -grad F(X*).

    The dual rows sum to ~0 across agents (x* zeroes the aggregate gradient),
    which places Y* in the range of I - W. ``F_star`` is the unscaled optimal
    value F(X*) = sum_i f_i(x*). The arrays are read-only.
    """

    x_star: np.ndarray
    X_star: np.ndarray
    Y_star: np.ndarray
    F_star: float


def fixed_point(family, tol: float = 1e-8) -> FixedPoint:
    """Centralized anchor for the merit functions; validates the dual row sums.

    The sum of the dual rows is the aggregate gradient at x*, whose rounding
    floor grows with the data's scale; so it is bounded by
    m tol max(1, || sum_i grad f_i(0) ||), the scale ``centralized_solve`` uses.

    A family's fixed point is computed once per tol: a repeated call returns
    the same ``FixedPoint`` for as long as the family object lives. The
    families' data are read-only, so the anchor cannot go stale.
    """
    memo = _FIXED_POINTS.setdefault(family, {})
    if tol not in memo:
        memo[tol] = _fixed_point(family, tol)
    return memo[tol]


def _fixed_point(family, tol: float) -> FixedPoint:
    x_star = centralized_solve(family, tol=tol)
    X_star = np.tile(x_star, (family.m, 1))
    Y_star = -family.gradients(X_star)
    drift = float(np.linalg.norm(Y_star.sum(axis=0)))
    scale = max(1.0, float(np.linalg.norm(family.total_gradient(np.zeros(family.dim)))))
    if drift > family.m * tol * scale:
        raise MetricsError(f"fixed point inconsistent: ||sum of dual rows|| = {drift:.3e}")
    F_star = float(family.values(X_star).sum())
    for a in (x_star, X_star, Y_star):
        a.setflags(write=False)
    return FixedPoint(x_star=x_star, X_star=X_star, Y_star=Y_star, F_star=F_star)


class MeritBlock:
    """The strongly convex merit V of a block of up to ``rows`` iterates, in one triangular product.

    V = ||X - X*||^2 + theta^2 ||Y - Y*||^2_M, with M = T T^T - 11^T/(cm) - I and ``T`` the
    factor of ``spectral_data``. The dual difference dY is first projected off the all-ones
    direction, along which M is indefinite and which the theory keeps the duals out of
    (range(I - W)); the 11^T term then vanishes, and the M-form ||T^T dY||^2 - ||dY||^2 is
    floored at zero against roundoff.

    ``add`` keeps a row's scalars and writes its dY^T into the next d rows of one Fortran
    (rows d x m) buffer, allocated here. Once the block is full, or on ``flush``, one in-place
    BLAS ``dtrmm`` multiplies the whole buffer by T, so the product a slot goes through never
    depends on how many rows are pending, and the block's V are returned in the order added.
    """

    def __init__(self, fp: FixedPoint, T: np.ndarray, rows: int):
        m, d = fp.Y_star.shape
        self._fp, self._T, self._rows, self._d = fp, T, rows, d
        self._buffer = np.zeros((rows * d, m), order="F")
        self._pending: list[tuple[float, float, float]] = []  # (||dX||^2, ||dY||^2, theta^2)

    def add(self, dX_sq: float, Y: np.ndarray, theta_min_prev: float) -> list[float]:
        """Queue one row, given ||X - X*||^2; the block's V once this row fills it, else []."""
        b = len(self._pending) * self._d
        dY = self._buffer[b : b + self._d].T  # the slot, agents by rows as in Y
        np.subtract(Y, self._fp.Y_star, out=dY)
        dY -= dY.mean(axis=0)
        try:
            theta_sq = theta_min_prev**2
        except OverflowError:  # a Python float above about 1.34e154
            theta_sq = np.inf
        self._pending.append((dX_sq, inner(dY), theta_sq))
        return self.flush() if len(self._pending) == self._rows else []

    def flush(self) -> list[float]:
        """The V of every pending row, in the order added; the block is empty afterwards."""
        if not self._pending:
            return []
        # (T^T dY)^T = dY^T T for every slot: one right-side triangular product, in place
        Z = dtrmm(1.0, self._T, self._buffer, side=1, overwrite_b=1)
        values = []
        for i, (dX_sq, dY_sq, theta_sq) in enumerate(self._pending):
            m_form = max(inner(Z[i * self._d : (i + 1) * self._d].T) - dY_sq, 0.0)
            values.append(dX_sq + theta_sq * m_form)
        self._pending.clear()
        return values


def merit_sc(X: np.ndarray, Y: np.ndarray, theta_min_prev: float, fp: FixedPoint, T: np.ndarray) -> float:
    """Strongly convex merit of one iterate: ||X - X*||^2 + theta^2 ||Y - Y*||^2_M (see ``MeritBlock``)."""
    (V,) = MeritBlock(fp, T, rows=1).add(inner(X - fp.X_star), Y, theta_min_prev)
    return V


def merit_cvx(
    S: np.ndarray, R: np.ndarray, fp: FixedPoint, family, gm: GossipMatrix, delta: float, count: int = 1
) -> float:
    """Convex merit at the mean iterate X = S/count: max of the consensus form and the Lagrangian gap.

    max( delta <(I-W) X, X>,  F(X) - F(X*) + <Y*, X> ) with unscaled
    F(X) = sum_i f_i(x_i); zero exactly at consensual optimal points. S is the
    sum of ``count`` iterates and R the sum of their images (``family.images``),
    as ``ErgodicAverage`` keeps them; with count 1 they are one iterate and its
    image. The mean is never formed: the consensus form is
    delta <(I-W) S, S> / count^2, floored at 0 against roundoff, <Y*, X> is
    <Y*, S> / count, and F(X) is the family's ``total_at_mean``, so a merit
    makes no oracle pass. Every inner product is a chunked ``inner``, the same
    at every BLAS thread count.
    """
    if count < 1:
        raise MetricsError("convex merit of an empty ergodic average")
    consensus = max(delta * inner(gm.I_minus_W @ S, S) / count**2, 0.0)
    gap = family.total_at_mean(S, R, count) - fp.F_star + inner(fp.Y_star, S) / count
    return max(consensus, gap)


class ErgodicAverage:
    """Running sums of the iterates X^1..X^k and of their oracle images, O(m(d + h)) per step.

    ``merit_cvx(X_sum, image_sum, ..., count)`` evaluates the convex merit at
    the mean iterate from the sums; no mean is formed. The sums are None until
    the first ``update``.
    """

    def __init__(self):
        self.X_sum = self.image_sum = None
        self.count = 0

    def update(self, X: np.ndarray, image: np.ndarray) -> None:
        if self.X_sum is None:
            self.X_sum, self.image_sum = np.zeros(np.shape(X)), np.zeros(np.shape(image))
        self.X_sum += X
        self.image_sum += image
        self.count += 1


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
