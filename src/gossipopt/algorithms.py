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

__all__ = [
    "AdaptiveAlgorithm",
    "AdaptiveState",
    "DivergenceError",
    "ExtraAlgorithm",
    "GammaSchedule",
    "NeighborExchange",
    "adaptive_step",
    "local_max_consensus",
    "local_min_consensus",
]

# Iterates larger than this abort the run: the stepsize is unstable.
DIVERGENCE_NORM = 1e12

# Stepsize merge rules of the primal-dual recurrence.
METHODS = ("adaptive", "nips_global", "nips_local")


class DivergenceError(RuntimeError):
    """Iterate norm exploded; for EXTRA this signals alpha is too large."""


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
    d-dimensional payload per edge direction plus self-loops);
    ``neighbor_min``/``neighbor_max`` charge one scalar round unless they
    piggyback on an exchange already charged this iteration. Locality holds
    by construction: ``GossipMatrix`` derives W from the graph's edges and
    keeps it read-only. ``W`` is the matrix's product operator ``gm.W_op``,
    CSR on sparse graphs.
    """

    def __init__(self, gm: GossipMatrix):
        self.graph = gm.graph
        self.W = gm.W_op
        self.vector_rounds = 0
        self.scalar_rounds = 0

    def gossip_rows(self, V: np.ndarray) -> np.ndarray:
        self.vector_rounds += 1
        return self.W @ V

    def neighbor_min(self, v: np.ndarray, charge: bool = True) -> np.ndarray:
        if charge:
            self.scalar_rounds += 1
        return local_min_consensus(v, self.graph)

    def neighbor_max(self, v: np.ndarray, charge: bool = True) -> np.ndarray:
        if charge:
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


@dataclass
class AdaptiveState:
    """Full per-iteration state of the primal-dual recurrence.

    ``theta``, ``theta_tracker`` and ``pi`` hold the values produced by the
    previous iteration (the -1 initializations before the first step).
    ``diam`` is each agent's current effective-diameter estimate, ``bounded``
    the safeguard bits, ``X0`` the starting rows the safeguard measures
    primal drift from (the duals start at zero, so their drift is ``Y`` itself),
    ``double_count`` accumulates per-agent doubling events of the
    estimator, and ``image`` is ``family.images(X)``, None before the first
    step. The tracker and the diameter estimate belong to
    the ``adaptive`` merge; the ``nips_*`` merges leave them at their initial
    values and set ``pi`` to ``theta``.
    """

    X: np.ndarray
    Y: np.ndarray
    theta: np.ndarray
    theta_tracker: np.ndarray
    pi: np.ndarray
    diam: np.ndarray
    bounded: np.ndarray
    X0: np.ndarray
    double_count: np.ndarray
    k: int = 0
    image: np.ndarray | None = None

    @classmethod
    def initial(cls, X0: np.ndarray, theta0: float = 1.0, d0: int = 1) -> "AdaptiveState":
        X0 = np.asarray(X0, dtype=float)
        m = X0.shape[0]
        if not (0.0 < theta0 < np.inf) or d0 < 1:
            raise ValueError(f"need a finite theta0 > 0 and d0 >= 1, got {(theta0, d0)}")
        return cls(
            X=X0.copy(),
            Y=np.zeros_like(X0),
            theta=np.full(m, float(theta0)),
            theta_tracker=np.full(m, float(theta0)),
            pi=np.full(m, float(theta0)),
            diam=np.full(m, int(d0), dtype=int),
            bounded=np.ones(m, dtype=int),
            X0=X0.copy(),
            double_count=np.zeros(m, dtype=int),
        )


def _safeguard_update(state: AdaptiveState, exchange: NeighborExchange, radius: float) -> np.ndarray:
    """Boundedness bits: 0 once the iterate leaves the radius, min-spread after.

    An agent whose primal drift, or dual drift scaled by its stepsize, reaches
    the radius sets its bit to zero; everyone else takes the neighborhood
    minimum of the previous bits, so zeros are absorbing and spread one hop
    per iteration.
    """
    drift_x = np.linalg.norm(state.X - state.X0, axis=1)
    drift_y = state.theta * np.linalg.norm(state.Y, axis=1)
    outside = np.maximum(drift_x, drift_y) >= radius
    return np.where(outside, 0, exchange.neighbor_min(state.bounded))


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def adaptive_step(
    state: AdaptiveState,
    exchange: NeighborExchange,
    family,
    gamma_prev: float,
    delta: float,
    method: str = "adaptive",
    safeguard_radius: float | None = None,
) -> AdaptiveState:
    """Advance the primal-dual recurrence by one synchronous iteration (in place).

    ``gamma_prev`` is the growth factor paired with this iteration's
    backtracking; the stepsize trackers grow by the same factor so that the
    network-min stepsize is recovered exactly over quiet windows. ``method``
    picks how the per-agent trial stepsizes are merged (see the module
    docstring). The state is written only once the new iterate has passed
    the divergence check, so a ``DivergenceError`` leaves it untouched.
    """
    _check_method(method)
    k = state.k
    m = state.X.shape[0]

    gamma_bt: float | np.ndarray = gamma_prev
    bounded_new = state.bounded
    if safeguard_radius is not None:
        bounded_new = _safeguard_update(state, exchange, safeguard_radius)
        # 1 + h*(gamma-1), written so the h=1 branch is bit-exact gamma
        gamma_bt = np.where(state.bounded == 1, gamma_prev, 1.0)

    # gossip the primal rows, then the gradient-tracking dual rows; one image
    # pass at X_half serves the dual update and the line search's f(X_half)
    X_half = exchange.gossip_rows(state.X)
    image_half = family.images(X_half)
    F_half, G_half = family.values(X_half, image_half), family.gradients(X_half, image_half)
    Y_half = exchange.gossip_rows(state.Y + G_half)

    # per-agent line search along the negated dual direction, then merge the
    # trial stepsizes by a network-wide or a one-hop minimum
    theta_bar, _, image = backtrack_batch(
        state.theta, family, X_half, F_half, G_half, -Y_half, gamma_bt, delta
    )
    if method == "nips_global":
        exchange.charge_flood()
        theta_new = np.full(m, theta_bar.min())
    else:
        theta_new = exchange.neighbor_min(theta_bar)

    tracker_new, pi_new, diam_new, doubled = state.theta_tracker, theta_new, state.diam, 0
    if method == "adaptive":
        # tracker: reseed from the fresh stepsizes every d_i-th iteration,
        # otherwise keep a gamma-grown neighborhood minimum; the paired
        # values travel in one scalar round
        grown = gamma_prev * state.theta_tracker
        reseed = (k % state.diam) == (1 % state.diam)
        reseed_min = exchange.neighbor_min(theta_new)
        grown_min = exchange.neighbor_min(grown, charge=False)
        tracker_new = np.where(reseed, reseed_min, grown_min)

        # dual stepsizes adopt the tracker at horizon multiples and grow
        # by the same factor in between
        at_horizon = (k % state.diam) == 0
        pi_new = np.where(at_horizon, tracker_new, gamma_prev * state.pi)

        # diameter estimate: if the tracker is not locally consensual at a
        # horizon multiple, the horizon was too short - double it; either
        # way sync estimates by a one-hop max
        tracker_min = exchange.neighbor_min(tracker_new, charge=False)
        doubled = at_horizon & (tracker_new != tracker_min)
        d_max = exchange.neighbor_max(state.diam)
        diam_new = np.where(doubled, 2 * d_max, d_max)

    # primal descent plus the dual correction built from the pi-scaled gossip;
    # the scaled difference is grouped first so its large terms cancel cleanly
    X_new = X_half - theta_new[:, None] * Y_half
    X_scaled = state.X / pi_new[:, None]
    Y_new = Y_half + (X_scaled - exchange.gossip_rows(X_scaled)) - G_half

    if not np.isfinite(X_new).all() or np.linalg.norm(X_new) > DIVERGENCE_NORM:
        raise DivergenceError(f"{method} iterate diverged at k={k}")
    # the search's last trial put each row at its own theta_bar, so its image
    # is that of X_new wherever the merge kept theta_bar
    if np.any(theta_new != theta_bar):
        image = family.images(X_new)

    state.X = X_new
    state.Y = Y_new
    state.theta = theta_new
    state.theta_tracker = tracker_new
    state.pi = pi_new
    state.diam = diam_new
    state.bounded = bounded_new
    state.double_count = state.double_count + doubled
    state.k = k + 1
    state.image = image
    return state


class AdaptiveAlgorithm:
    """Driver owning the state, exchange, and gamma schedule of one run.

    ``method`` is ``adaptive`` (the default), ``nips_global`` or
    ``nips_local``; ``d0`` and ``safeguard_radius`` belong to the adaptive
    method. ``gamma`` maps the iteration k to the growth factor, as
    :class:`GammaSchedule` does.
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
        _check_method(method)
        if not (0.0 < delta <= 1.0):
            raise ValueError(f"delta must lie in (0, 1], got {delta}")
        self.exchange = NeighborExchange(gm)
        self.family = family
        self.state = AdaptiveState.initial(X0, theta0=theta0, d0=d0)
        self.name = method
        self.delta = delta
        if not callable(gamma):
            raise TypeError(f"gamma must be a callable k -> growth factor, got {gamma!r}")
        self.gamma = gamma
        self.safeguard_radius = safeguard_radius

    def _gamma_prev(self) -> float:
        # iteration k pairs with the k-1 growth factor; clamp the undefined
        # k=-1 slot to the schedule's first value
        return self.gamma(max(self.state.k - 1, 0))

    def step(self) -> None:
        """One iteration; a step that raises leaves the state and the round counters as they were."""
        with self.exchange.charged_on_success():
            adaptive_step(
                self.state,
                self.exchange,
                self.family,
                self._gamma_prev(),
                self.delta,
                self.name,
                self.safeguard_radius,
            )

    @property
    def X(self) -> np.ndarray:
        return self.state.X

    @property
    def Y(self) -> np.ndarray:
        return self.state.Y

    @property
    def image(self) -> np.ndarray | None:
        return self.state.image

    def stats(self) -> dict:
        s = self.state
        tracked = self.name == "adaptive"
        return {
            "theta_min": float(s.theta.min()),
            "theta_max": float(s.theta.max()),
            "pi_min": float(s.pi.min()) if tracked else None,
            "pi_max": float(s.pi.max()) if tracked else None,
            "d_max": int(s.diam.max()) if tracked else None,
        }


class ExtraAlgorithm:
    """EXTRA with a fixed stepsize; one gossip round per iteration.

    First step: X^1 = W X^0 - alpha grad F(X^0). After that
    X^{k+2} = (I+W) X^{k+1} - (I+W)/2 X^k - alpha (grad F(X^{k+1}) - grad F(X^k)),
    with the previous gossip product cached so each iteration costs a single
    vector round. A step ends by evaluating the new iterate's image, which the
    next step's gradient reads, so ``image`` is ``family.images(X)`` throughout.
    """

    name = "extra"

    def __init__(self, gm: GossipMatrix, family, X0: np.ndarray, alpha: float):
        if not (0.0 < alpha < np.inf):
            raise ValueError(f"alpha must be finite and positive, got {alpha}")
        self.exchange = NeighborExchange(gm)
        self.family = family
        self.alpha = float(alpha)
        self.X = np.asarray(X0, dtype=float).copy()
        self.image = family.images(self.X)
        self.k = 0
        self._X_prev: np.ndarray | None = None
        self._WX_prev: np.ndarray | None = None
        self._G_prev: np.ndarray | None = None

    @property
    def Y(self) -> None:
        return None

    def step(self) -> None:
        """One iteration; a step that raises leaves the iterates and the round counters as they were."""
        with self.exchange.charged_on_success():
            WX = self.exchange.gossip_rows(self.X)
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
            if not np.isfinite(X_new).all() or np.linalg.norm(X_new) > DIVERGENCE_NORM:
                raise DivergenceError(f"EXTRA diverged at k={self.k} (alpha={self.alpha})")
            image = self.family.images(X_new)
            self._X_prev = self.X
            self._WX_prev = WX
            self._G_prev = G
            self.X = X_new
            self.image = image
            self.k += 1

    def stats(self) -> dict:
        return {
            "theta_min": self.alpha,
            "theta_max": self.alpha,
            "pi_min": None,
            "pi_max": None,
            "d_max": None,
        }
