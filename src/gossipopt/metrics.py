"""Fixed points, merit functions, ergodic averages, and rate diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrmm

from .graphs import GossipMatrix
from .losses import centralized_solve

__all__ = [
    "ErgodicAverage",
    "FixedPoint",
    "MeritBlock",
    "MetricsError",
    "fixed_point",
    "linear_rate_fit",
    "merit_cvx",
    "merit_sc",
    "squared_norm",
]


# terms per BLAS ddot in squared_norm, below OpenBLAS's threading threshold of 10,000
_NORM_CHUNK = 8192


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class FixedPoint:
    """Consensual optimum: X* stacks x* on every row, Y* = -grad F(X*).

    The dual rows sum to ~0 across agents (x* zeroes the aggregate gradient),
    which places Y* in the range of I - W. ``F_star`` is the unscaled optimal
    value F(X*) = sum_i f_i(x*).
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
    """
    x_star = centralized_solve(family, tol=tol)
    X_star = np.tile(x_star, (family.m, 1))
    Y_star = -family.gradients(X_star)
    drift = float(np.linalg.norm(Y_star.sum(axis=0)))
    scale = max(1.0, float(np.linalg.norm(family.total_gradient(np.zeros(family.dim)))))
    if drift > family.m * tol * scale:
        raise MetricsError(f"fixed point inconsistent: ||sum of dual rows|| = {drift:.3e}")
    F_star = float(family.values(X_star).sum())
    return FixedPoint(x_star=x_star, X_star=X_star, Y_star=Y_star, F_star=F_star)


def squared_norm(A: np.ndarray) -> float:
    """||A||^2 summed in A's C order, however A is strided, the same at every BLAS thread count.

    BLAS ``ddot`` sums a contiguous run of terms, and OpenBLAS splits a run of
    more than 10,000 across threads, which rounds differently at each thread
    count. So the terms go to ``ddot`` in chunks of at most ``_NORM_CHUNK``,
    whose sums are added left to right: an array of up to ``_NORM_CHUNK``
    terms gets exactly the bytes of one ``ddot``.
    """
    a = np.ascontiguousarray(A).ravel()
    total = 0.0
    for start in range(0, a.size, _NORM_CHUNK):
        chunk = a[start : start + _NORM_CHUNK]
        total += np.vdot(chunk, chunk)
    return float(total)


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
        self._pending.append((dX_sq, squared_norm(dY), theta_sq))
        return self.flush() if len(self._pending) == self._rows else []

    def flush(self) -> list[float]:
        """The V of every pending row, in the order added; the block is empty afterwards."""
        if not self._pending:
            return []
        # (T^T dY)^T = dY^T T for every slot: one right-side triangular product, in place
        Z = dtrmm(1.0, self._T, self._buffer, side=1, overwrite_b=1)
        values = []
        for i, (dX_sq, dY_sq, theta_sq) in enumerate(self._pending):
            m_form = max(squared_norm(Z[i * self._d : (i + 1) * self._d].T) - dY_sq, 0.0)
            values.append(dX_sq + theta_sq * m_form)
        self._pending.clear()
        return values


def merit_sc(X: np.ndarray, Y: np.ndarray, theta_min_prev: float, fp: FixedPoint, T: np.ndarray) -> float:
    """Strongly convex merit of one iterate: ||X - X*||^2 + theta^2 ||Y - Y*||^2_M (see ``MeritBlock``)."""
    dX = X - fp.X_star
    (V,) = MeritBlock(fp, T, rows=1).add(squared_norm(dX), Y, theta_min_prev)
    return V


def merit_cvx(
    X: np.ndarray, image: np.ndarray, fp: FixedPoint, family, gm: GossipMatrix, delta: float
) -> float:
    """Convex merit: max of the consensus form and the Lagrangian gap.

    max( delta <(I-W) X, X>,  F(X) - F(X*) + <Y*, X> ) with unscaled
    F(X) = sum_i f_i(x_i); zero exactly at consensual optimal points. F is
    evaluated from ``image``, the family's image of X (``family.images(X)``, or
    the running mean of the images kept by ``ErgodicAverage``), so a merit
    makes no oracle pass; X supplies the ridge term and <Y*, X>.
    """
    consensus = max(delta * float(np.sum(X * (gm.I_minus_W @ X))), 0.0)
    gap = float(family.values(X, image).sum() - fp.F_star + np.sum(fp.Y_star * X))
    return max(consensus, gap)


class ErgodicAverage:
    """Running means of the iterates X^1..X^k and of their oracle images, O(m(d + h)) per step.

    The images are affine in X, so the mean image is the image of the mean
    iterate up to rounding; ``merit_cvx`` reads it in place of an oracle pass.
    """

    def __init__(self):
        self._sum = self._image_sum = None
        self.count = 0

    def update(self, X: np.ndarray, image: np.ndarray) -> None:
        if self._sum is None:
            self._sum, self._image_sum = np.zeros(np.shape(X)), np.zeros(np.shape(image))
        self._sum += X
        self._image_sum += image
        self.count += 1

    def _mean(self, total: np.ndarray) -> np.ndarray:
        if self.count == 0:
            raise MetricsError("ergodic average of an empty sequence")
        return total / self.count

    @property
    def value(self) -> np.ndarray:
        return self._mean(self._sum)

    @property
    def image(self) -> np.ndarray:
        return self._mean(self._image_sum)


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
