"""Decentralized optimization over a neighbor-exchange layer.

The adaptive method and the prior adaptive scheme it improves on are one
primal-dual recurrence, ``adaptive_step``: gossip the primal rows, gossip the
gradient-tracking dual rows, backtrack a trial stepsize per agent, merge the
trial stepsizes, then update. Only the merge differs, and ``method`` names it:

* ``adaptive`` - the fully decentralized adaptive primal-dual method: one-hop
  min-consensus of the trial stepsizes, separately tracked consensual dual
  stepsizes, and an online doubling estimator of the effective graph diameter.
* ``nips_global`` - the prior scheme's network-wide minimum (simulated as an
  oracle, charged a diameter-long flood of scalar rounds); the dual stepsize
  is the primal one.
* ``nips_local`` - the prior scheme's one-hop minimum; the dual stepsize is the
  primal one.

``ExtraAlgorithm`` runs EXTRA with a fixed, externally tuned stepsize.

All exchanges cross graph edges; the layer counts vector gossip rounds and
scalar consensus rounds separately.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .backtracking import backtrack_batch
from .graphs import Graph, GossipMatrix, diameter

# Iterates whose norm is not at most this (NaN, inf or overflowing) abort the run: the stepsize is unstable.
DIVERGENCE_NORM = 1e12

# Stepsize merge rules of the primal-dual recurrence.
METHODS = ("adaptive", "nips_global", "nips_local")


class DivergenceError(RuntimeError):
    """Iterate norm exploded; for EXTRA this signals alpha is too large."""


def _diverged(X: np.ndarray) -> bool:
    return not np.linalg.norm(X) <= DIVERGENCE_NORM


def local_min_consensus(v: np.ndarray, g: Graph) -> np.ndarray:
    """One round of neighborhood minima: out_i = min_{j in N_i} v_j."""
    return np.minimum.reduceat(np.asarray(v)[g.indices], g.indptr[:-1])


def local_max_consensus(v: np.ndarray, g: Graph) -> np.ndarray:
    """One round of neighborhood maxima: out_i = max_{j in N_i} v_j."""
    return np.maximum.reduceat(np.asarray(v)[g.indices], g.indptr[:-1])


@dataclass(frozen=True)
class GammaSchedule:
    """Growth factor ((k + beta1)/(k + 1))**beta2; decays to 1 from beta1**beta2."""

    beta1: float = 2.0
    beta2: float = 1.0

    def __post_init__(self):
        if not (1.0 <= self.beta1 < np.inf and 0.0 < self.beta2 < np.inf):
            raise ValueError(f"need finite beta1 >= 1 and beta2 > 0, got {(self.beta1, self.beta2)}")

    def __call__(self, k: int) -> float:
        try:
            return float(((k + self.beta1) / (k + 1.0)) ** self.beta2)
        except OverflowError:  # a float power raises on overflow, where numpy would round to inf
            return np.inf


class NeighborExchange:
    """Neighbor-exchange message layer with communication accounting.

    ``gossip_rows`` multiplies by W and charges one vector round (one
    d-dimensional payload per edge direction plus self-loops); a product made
    ahead is charged by ``charge_gossip`` in the iteration that exchanges it.
    ``neighbor_max`` charges one scalar round, and so does ``neighbor_min``
    unless it piggybacks on an exchange already charged this iteration.
    Locality holds by construction: ``GossipMatrix`` derives W from the
    graph's edges and keeps it read-only. ``W`` is the matrix's product
    operator ``gm.W_op``, CSR on sparse graphs.
    """

    def __init__(self, gm: GossipMatrix):
        self.graph = gm.graph
        self.W = gm.W_op
        self.vector_rounds = 0
        self.scalar_rounds = 0

    def gossip_rows(self, V: np.ndarray, charge: bool = True) -> np.ndarray:
        if charge:
            self.vector_rounds += 1
        return self.W @ V

    def charge_gossip(self) -> None:
        """Cost of one vector round whose product ``gossip_rows(..., charge=False)`` made ahead."""
        self.vector_rounds += 1

    def neighbor_min(self, v: np.ndarray, charge: bool = True) -> np.ndarray:
        if charge:
            self.scalar_rounds += 1
        return local_min_consensus(v, self.graph)

    def neighbor_max(self, v: np.ndarray) -> np.ndarray:
        self.scalar_rounds += 1
        return local_max_consensus(v, self.graph)

    def charge_flood(self) -> None:
        """Cost of one network-wide min: diameter-many scalar rounds."""
        self.scalar_rounds += self._diameter

    @contextmanager
    def charged_on_success(self) -> Iterator[None]:
        """Keep the rounds charged inside the block only if it does not raise."""
        rounds = self.vector_rounds, self.scalar_rounds
        try:
            yield
        except BaseException:
            self.vector_rounds, self.scalar_rounds = rounds
            raise

    @cached_property
    def _diameter(self) -> int:
        return diameter(self.graph)


def _safeguard_update(algo: AdaptiveAlgorithm) -> np.ndarray:
    """Boundedness bits: 0 once the iterate leaves the radius, min-spread after.

    An agent whose primal drift, or dual drift scaled by its stepsize, reaches
    the radius sets its bit to zero; everyone else takes the neighborhood
    minimum of the previous bits, so zeros are absorbing and spread one hop
    per iteration.
    """
    drift_x = np.linalg.norm(algo.X - algo.X0, axis=1)
    drift_y = algo.theta * np.linalg.norm(algo.Y, axis=1)
    outside = np.maximum(drift_x, drift_y) >= algo.safeguard_radius
    return np.where(outside, 0, algo.exchange.neighbor_min(algo.bounded))


def adaptive_step(algo: AdaptiveAlgorithm, gamma_prev: float) -> None:
    """Advance the primal-dual recurrence by one synchronous iteration (in place).

    ``gamma_prev`` is the growth factor paired with this iteration's
    backtracking; the stepsize trackers grow by the same factor so that the
    network-min stepsize is recovered exactly over quiet windows.
    ``algo.name`` picks how the per-agent trial stepsizes are merged (see the
    module docstring). The state is written only once the new iterate has
    passed the divergence check, so a ``DivergenceError`` leaves it untouched.
    """
    exchange, family, method, k = algo.exchange, algo.family, algo.name, algo.k
    m = algo.X.shape[0]

    gamma_bt: float | np.ndarray = gamma_prev
    bounded_new = algo.bounded
    if algo.safeguard_radius is not None:
        bounded_new = _safeguard_update(algo)
        # 1 + h*(gamma-1), written so the h=1 branch is bit-exact gamma
        gamma_bt = np.where(algo.bounded == 1, gamma_prev, 1.0)

    # gossip the primal rows (the state holds their product), then the gradient-tracking
    # dual rows; one image pass at X_half serves the dual update and the line search's f(X_half)
    exchange.charge_gossip()
    X_half = algo.WX
    image_half = family.images(X_half)
    F_half, G_half = family.values(X_half, image_half), family.gradients(X_half, image_half)
    Y_shifted = algo.Y + G_half
    Y_half = exchange.gossip_rows(Y_shifted)

    # per-agent line search along the negated dual direction, then merge the
    # trial stepsizes by a network-wide or a one-hop minimum
    theta_bar, _, image = backtrack_batch(
        algo.theta, family, X_half, F_half, G_half, -Y_half, gamma_bt, algo.delta
    )
    if method == "nips_global":
        exchange.charge_flood()
        theta_new = np.full(m, theta_bar.min())
    else:
        theta_new = exchange.neighbor_min(theta_bar)

    tracker_new, pi_new, diam_new, doubled = algo.theta_tracker, theta_new, algo.diam, 0
    if method == "adaptive":
        # tracker: reseed from the fresh stepsizes every d_i-th iteration,
        # otherwise keep a gamma-grown neighborhood minimum; the paired
        # values travel in one scalar round
        grown = gamma_prev * algo.theta_tracker
        reseed = (k % algo.diam) == (1 % algo.diam)
        reseed_min = exchange.neighbor_min(theta_new)
        grown_min = exchange.neighbor_min(grown, charge=False)
        tracker_new = np.where(reseed, reseed_min, grown_min)

        # dual stepsizes adopt the tracker at horizon multiples and grow
        # by the same factor in between
        at_horizon = (k % algo.diam) == 0
        pi_new = np.where(at_horizon, tracker_new, gamma_prev * algo.pi)

        # diameter estimate: if the tracker is not locally consensual at a
        # horizon multiple, the horizon was too short - double it; either
        # way sync estimates by a one-hop max
        tracker_min = exchange.neighbor_min(tracker_new, charge=False)
        doubled = at_horizon & (tracker_new != tracker_min)
        d_max = exchange.neighbor_max(algo.diam)
        diam_new = np.where(doubled, 2 * d_max, d_max)

    # primal descent plus the dual correction built from the pi-scaled gossip; the scaled difference
    # is grouped first so its large terms cancel cleanly. Y_new - Y = (I - W)(X_scaled - Y_shifted)
    X_new = X_half - theta_new[:, None] * Y_half
    X_scaled = algo.X / pi_new[:, None]
    Y_new = Y_half + (X_scaled - exchange.gossip_rows(X_scaled)) - G_half
    Z_new = algo.Z + (X_scaled - Y_shifted)

    if _diverged(X_new):
        raise DivergenceError(f"{method} iterate diverged at k={k}")
    # the search's last trial put each row at its own theta_bar, so its image
    # is that of X_new wherever the merge kept theta_bar
    if np.any(theta_new != theta_bar):
        image = family.images(X_new)
    WX_new = exchange.gossip_rows(X_new, charge=False)  # the next step's first exchange

    algo.X, algo.Y, algo.Z, algo.image, algo.WX, algo.k = X_new, Y_new, Z_new, image, WX_new, k + 1
    algo.theta, algo.theta_tracker, algo.pi = theta_new, tracker_new, pi_new
    algo.diam, algo.bounded, algo.double_count = diam_new, bounded_new, algo.double_count + doubled


class AdaptiveAlgorithm:
    """The primal-dual recurrence of one run: its state, exchange and gamma schedule.

    ``method`` is ``adaptive`` (the default), ``nips_global`` or ``nips_local``; ``d0`` and
    ``safeguard_radius`` (finite and positive, or None for no safeguard) belong to the adaptive
    method, and the others refuse a radius or a ``d0`` other than 1. ``gamma`` maps the
    iteration k to the growth factor, as :class:`GammaSchedule` does.

    The state is the attributes ``adaptive_step`` advances. ``X`` and ``Y`` are the primal and
    dual rows, ``k`` the iterations made, ``image`` ``family.images(X)``, None before the first
    step, and ``WX`` the gossip ``W @ X``, made at construction and by each step for the next
    one, which charges its round. ``Z``, the duals' preimage for the merit V, starts at zero and
    each agent moves its row from its own rows, so Y = (I - W) Z up to rounding. ``theta``,
    ``theta_tracker`` and ``pi`` hold the stepsizes produced by the previous iteration
    (``theta0`` before the first step). ``diam`` is each agent's current effective-diameter
    estimate, ``double_count`` its doublings so far, ``bounded`` the safeguard bits, and ``X0``
    the starting rows the safeguard measures primal drift from (the duals start at zero, so
    their drift is ``Y`` itself). The tracker and the diameter estimate belong to the
    ``adaptive`` merge; the ``nips_*`` merges leave them at their initial values and set ``pi``
    to ``theta``.
    """

    def __init__(
        self,
        gm: GossipMatrix,
        family,
        X0: np.ndarray,
        method: str = "adaptive",
        delta: float = 1.0,
        theta0: float = 1.0,
        d0: int = 1,
        gamma: Callable[[int], float] = GammaSchedule(),
        safeguard_radius: float | None = None,
    ):
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {method!r}")
        if not (0.0 < delta <= 1.0):
            raise ValueError(f"delta must lie in (0, 1], got {delta}")
        if not (0.0 < theta0 < np.inf) or d0 < 1:
            raise ValueError(f"need a finite theta0 > 0 and d0 >= 1, got {(theta0, d0)}")
        if not callable(gamma):
            raise TypeError(f"gamma must be a callable k -> growth factor, got {gamma!r}")
        if safeguard_radius is not None and not (0.0 < safeguard_radius < np.inf):
            raise ValueError(f"safeguard_radius must be finite and positive, got {safeguard_radius}")
        if method != "adaptive" and (safeguard_radius is not None or d0 != 1):
            raise ValueError(f"{method} takes no {'d0' if safeguard_radius is None else 'safeguard_radius'}")
        self.exchange = NeighborExchange(gm)
        self.family = family
        self.name = method
        self.delta = delta
        self.gamma = gamma
        self.safeguard_radius = safeguard_radius

        X0 = np.asarray(X0, dtype=float)
        m = X0.shape[0]
        self.X, self.X0, self.Y, self.Z = X0.copy(), X0.copy(), np.zeros_like(X0), np.zeros_like(X0)
        self.theta, self.theta_tracker, self.pi = (np.full(m, float(theta0)) for _ in range(3))
        self.diam = np.full(m, int(d0), dtype=int)
        self.bounded = np.ones(m, dtype=int)
        self.double_count = np.zeros(m, dtype=int)
        self.k = 0
        self.image: np.ndarray | None = None
        self.WX = self.exchange.gossip_rows(self.X, charge=False)

    def step(self) -> None:
        """One iteration; a step that raises leaves the state and the round counters as they were."""
        with self.exchange.charged_on_success():
            # iteration k pairs with the k-1 growth factor; the undefined k=-1
            # slot takes the schedule's first value
            adaptive_step(self, self.gamma(max(self.k - 1, 0)))

    def stats(self) -> dict:
        tracked = self.name == "adaptive"
        return {
            "theta_min": float(self.theta.min()),
            "theta_max": float(self.theta.max()),
            "pi_min": float(self.pi.min()) if tracked else None,
            "pi_max": float(self.pi.max()) if tracked else None,
            "d_max": int(self.diam.max()) if tracked else None,
        }


class ExtraAlgorithm:
    """EXTRA with a fixed stepsize; one gossip round per iteration.

    First step: X^1 = W X^0 - alpha grad F(X^0). After that
    X^{k+2} = (I+W) X^{k+1} - (I+W)/2 X^k - alpha (grad F(X^{k+1}) - grad F(X^k)),
    with the previous gossip product cached so each iteration costs a single
    vector round. A step ends by evaluating the new iterate's image and gossip,
    which the next step reads, so ``image`` is ``family.images(X)`` and ``WX``
    is ``W @ X`` throughout; the next step charges that gossip's round.
    """

    name = "extra"
    Y = None  # EXTRA keeps no dual rows

    def __init__(self, gm: GossipMatrix, family, X0: np.ndarray, alpha: float):
        if not (0.0 < alpha < np.inf):
            raise ValueError(f"alpha must be finite and positive, got {alpha}")
        self.exchange = NeighborExchange(gm)
        self.family = family
        self.alpha = float(alpha)
        self.X = np.asarray(X0, dtype=float).copy()
        self.image = family.images(self.X)
        self.WX = self.exchange.gossip_rows(self.X, charge=False)
        self.k = 0
        self._X_prev = self._WX_prev = self._G_prev = None

    def step(self) -> None:
        """One iteration; a step that raises leaves the iterates and the round counters as they were."""
        with self.exchange.charged_on_success():
            self.exchange.charge_gossip()
            WX = self.WX
            G = self.family.gradients(self.X, self.image)
            if self.k == 0:
                X_new = WX - self.alpha * G
            else:
                X_new = (
                    self.X
                    + WX
                    - 0.5 * (self._X_prev + self._WX_prev)
                    - self.alpha * (G - self._G_prev)
                )
            if _diverged(X_new):
                raise DivergenceError(f"EXTRA diverged at k={self.k} (alpha={self.alpha})")
            image = self.family.images(X_new)
            WX_new = self.exchange.gossip_rows(X_new, charge=False)
            self._X_prev, self._WX_prev, self._G_prev = self.X, WX, G
            self.X, self.image, self.WX = X_new, image, WX_new
            self.k += 1

    def stats(self) -> dict:
        return {
            "theta_min": self.alpha,
            "theta_max": self.alpha,
            "pi_min": None,
            "pi_max": None,
            "d_max": None,
        }
