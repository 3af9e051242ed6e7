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
    "MetricsError",
    "fixed_point",
    "linear_rate_fit",
    "merit_cvx",
    "merit_sc",
]


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


def merit_sc(X: np.ndarray, Y: np.ndarray, theta_min_prev: float, fp: FixedPoint, T: np.ndarray) -> float:
    """Strongly convex merit: ||X - X*||^2 + theta^2 ||Y - Y*||^2_M, with M = T T^T - 11^T/(cm) - I.

    ``T`` is the factor of ``spectral_data``. The dual difference dY is first projected off the
    all-ones direction, along which M is indefinite and which the theory keeps the duals out of
    (range(I - W)); the 11^T term then vanishes, and the M-form ||T^T dY||^2 - ||dY||^2 is
    floored at zero against roundoff.
    """
    dX = X - fp.X_star
    dY = Y - fp.Y_star
    dY -= dY.mean(axis=0)
    dY_sq = np.vdot(dY, dY)
    # (T^T dY)^T = dY^T T: one right-side triangular product on the Fortran-ordered view, in place
    Z = dtrmm(1.0, T, dY.T, side=1, overwrite_b=1).T
    m_form = max(float(np.vdot(Z, Z) - dY_sq), 0.0)
    try:
        theta_sq = theta_min_prev**2
    except OverflowError:  # a Python float above about 1.34e154
        theta_sq = np.inf
    return float(np.vdot(dX, dX)) + theta_sq * m_form


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
