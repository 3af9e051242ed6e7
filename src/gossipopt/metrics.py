"""Fixed points, merit functions and ergodic averages."""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs

from .losses import centralized_solve, inner


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


def _off_ones(A: np.ndarray) -> np.ndarray:
    """A, in place, with its column means taken out: A off the all-ones direction."""
    A -= np.einsum("ij->j", A) / len(A)  # A.mean(axis=0), with less call overhead; no BLAS
    return A


def _dual_preimage(R: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The Z with zero column sums and (I - W) Z = B off the all-ones direction: one ``dpotrs``, O(m^2 d).

    R is the factor of ``spectral_data``.
    """
    Z, _ = dpotrs(R, _off_ones(B.copy()))  # cannot fail: spectral_data checked R's pivots
    return _off_ones(Z)


def _merit(dX_sq: float, D_dY: float, curvature: float, dY_sq: float, theta_min_prev: float) -> float:
    """V = ||dX||^2 + theta^2 max(Q - ||dY||^2, 0), Q = 2 <D, dY> - <D, (I - W) D>, from those scalars.

    dY = Y - Y* and D, its preimage under I - W up to e, are off the all-ones direction, along
    which M is indefinite and which the theory keeps the duals out of. Q is the variational form
    of dY^T pinv(I - W) dY = ||dY||^2_M + ||dY||^2, short of it by e^T (I - W) e: second order in
    e, which a carried preimage gathers from the rounding of every step it went through.
    """
    try:
        theta_sq = theta_min_prev**2
    except OverflowError:  # a Python float above about 1.34e154
        theta_sq = np.inf
    return dX_sq + theta_sq * max(2.0 * D_dY - curvature - dY_sq, 0.0)  # floored against roundoff


def merit_sc(X: np.ndarray, Y: np.ndarray, theta_min_prev: float, fp: FixedPoint, R: np.ndarray) -> float:
    """Strongly convex merit of one iterate: ||X - X*||^2 + theta^2 ||Y - Y*||^2_M, M = c^-1 pinv(I - W_tilde) - I.

    D is dY's exact preimage, solved with the factor R of ``spectral_data``, and its curvature
    <D, (I - W) D> is ||R D||^2, as D has zero column sums (see ``_merit``).
    """
    dY = _off_ones(Y - fp.Y_star)
    D = _dual_preimage(R, dY)
    return _merit(inner(X - fp.X_star), inner(D, dY), inner(R @ D), inner(dY), theta_min_prev)


class PreimageMerit:
    """``merit_sc`` of a run's rows from the duals' carried preimage (``AdaptiveAlgorithm.Z``).

    Y*'s preimage Z* is solved once, with the factor R of ``spectral_data``. A row then takes
    D = Z - Z* and its curvature from one product with the gossip operator W: O(nnz d), no solve.
    """

    def __init__(self, fp: FixedPoint, R: np.ndarray, W):
        self._Y_star, self._Z_star, self._W = fp.Y_star, _dual_preimage(R, fp.Y_star), W

    def __call__(self, dX_sq: float, Y: np.ndarray, Z: np.ndarray, theta_min_prev: float) -> float:
        dY = _off_ones(Y - self._Y_star)
        D = _off_ones(Z - self._Z_star)
        return _merit(dX_sq, inner(D, dY), inner(D, D - self._W @ D), inner(dY), theta_min_prev)


def merit_cvx(
    S: np.ndarray, R: np.ndarray, WS: np.ndarray, fp: FixedPoint, family, delta: float, count: int = 1
) -> float:
    """Convex merit at the mean iterate X = S/count: max of the consensus form and the Lagrangian gap.

    max( delta <(I-W) X, X>,  F(X) - F(X*) + <Y*, X> ) with unscaled
    F(X) = sum_i f_i(x_i); zero exactly at consensual optimal points. S is the
    sum of ``count`` iterates, R and WS the sums of their images (``family.images``) and of
    their gossip W X, as ``ErgodicAverage`` keeps them; with count 1, one iterate's. The mean
    is never formed and no product made: the consensus form is
    delta <S - WS, S> / count^2, floored at 0 against roundoff, <Y*, X> is
    <Y*, S> / count, and F(X) is the family's ``total_at_mean``, so a merit
    makes no oracle pass. Every inner product is a chunked ``inner``, the same
    at every BLAS thread count.
    """
    if count < 1:
        raise MetricsError("convex merit of an empty ergodic average")
    consensus = max(delta * inner(S - WS, S) / count**2, 0.0)
    gap = family.total_at_mean(S, R, count) - fp.F_star + inner(fp.Y_star, S) / count
    return max(consensus, gap)


class ErgodicAverage:
    """Running sums of the iterates X^1..X^k, their oracle images and their gossip, O(m(d + h)) a step.

    ``merit_cvx(X_sum, image_sum, WX_sum, ..., count)`` evaluates the convex
    merit at the mean iterate from the sums; no mean is formed. The sums are
    None until the first ``update``.
    """

    def __init__(self):
        self.X_sum = self.image_sum = self.WX_sum = None
        self.count = 0

    def update(self, X: np.ndarray, image: np.ndarray, WX: np.ndarray) -> None:
        if self.X_sum is None:
            self.X_sum, self.image_sum, self.WX_sum = (np.zeros(np.shape(a)) for a in (X, image, WX))
        self.X_sum += X
        self.image_sum += image
        self.WX_sum += WX
        self.count += 1
