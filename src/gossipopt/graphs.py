"""Graph topologies, gossip matrices, and spectral helpers for mesh networks."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpotrf
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

_ER_MAX_DRAWS = 1000

# Rows per block of an Erdos-Renyi draw: it holds the uniforms of at most this many rows of m.
_ROW_BLOCK = 64

# A spectral gap 1 - lambda_2(W_tilde) at or below this counts as zero: the
# graph is disconnected, and I - W_tilde has more than one null direction.
_GAP_CUTOFF = 1e-10


class GraphError(ValueError):
    """Invalid topology: a disconnected graph or bad parameters."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected connected graph on agents 0..m-1, as the CSR pattern of its closed neighborhoods.

    Row i, ``indices[indptr[i]:indptr[i + 1]]``, lists agent i *and* the agents
    adjacent to it, sorted: one exchange round combines all of their values.
    Both arrays are intp, as the consensus hot path indexes with them, and read-only.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    def __reduce__(self):
        # copies and unpickled graphs are rebuilt through __post_init__, read-only too
        return Graph, (self.indptr, self.indices)

    @property
    def m(self) -> int:
        return self.indptr.size - 1

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges (i, j), i < j; derived on first access, which no run makes."""
        rows = _pattern_rows(self)
        upper = rows < self.indices
        return frozenset(zip(rows[upper].tolist(), self.indices[upper].tolist()))


def _make_graph(m: int, i: np.ndarray, j: np.ndarray) -> Graph:
    """The connected graph on agents 0..m-1 with the edges (i[k], j[k]), each once, none a loop."""
    if m < 1:
        raise GraphError(f"agent count must be >= 1, got {m}")
    agents = np.arange(m)
    rows = np.concatenate((i, j, agents))
    cols = np.concatenate((j, i, agents))
    position = np.sort(rows * m + cols)  # of each entry in the row-major m x m matrix
    indices, indptr = position % m, np.searchsorted(position, np.arange(m + 1) * m)
    # the pattern is symmetric, so its strong components are the connected
    # ones; the strong search skips the symmetrizing copy of directed=False
    hops = csr_array((np.ones(indices.size), indices, indptr), shape=(m, m))
    if connected_components(hops, connection="strong", return_labels=False) > 1:
        raise GraphError("graph is disconnected")
    return Graph(indptr, indices)


def build_line_graph(m: int) -> Graph:
    """Path graph 0-1-...-(m-1); diameter m-1."""
    return _make_graph(m, np.arange(m - 1), np.arange(1, m))


def build_cycle_graph(m: int) -> Graph:
    if m < 3:
        return build_line_graph(m)
    return _make_graph(m, np.arange(m), (np.arange(m) + 1) % m)


def build_complete_graph(m: int) -> Graph:
    return _make_graph(m, *np.triu_indices(m, 1))


def build_erdos_renyi(m: int, p: float, seed: int) -> Graph:
    """Sample G(m, p) repeatedly from a seeded generator until connected.

    Each draw takes one uniform per pair i < j in row-major order, a block of
    rows at a time, so a draw holds O(m) numbers rather than m(m-1)/2. The
    generator state advances deterministically between draws; the first
    connected draw is returned. Gives up after a fixed retry budget, which
    signals that p is too small for m.
    """
    if m < 2:
        raise GraphError(f"Erdos-Renyi sampling needs m >= 2, got {m}")
    if not (0.0 <= p <= 1.0):
        raise GraphError(f"edge probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    for _ in range(_ER_MAX_DRAWS):
        i, j = _er_draw(rng, m, p)
        try:
            return _make_graph(m, i, j)
        except GraphError:
            continue
    raise GraphError(
        f"no connected Erdos-Renyi draw in {_ER_MAX_DRAWS} attempts (m={m}, p={p})"
    )


def _er_draw(rng: np.random.Generator, m: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The edges (i, j) of one G(m, p) draw: the pairs i < j whose uniform falls below p."""
    heads, tails = [], []
    for lo in range(0, m - 1, _ROW_BLOCK):
        rows = np.arange(lo, min(lo + _ROW_BLOCK, m - 1))
        width = m - 1 - rows  # pairs (i, j > i) of each row
        ends = np.cumsum(width)
        k = np.flatnonzero(rng.random(int(ends[-1])) < p)  # positions within the block
        r = np.searchsorted(ends, k, side="right")
        heads.append(rows[r])
        tails.append(rows[r] + 1 + k - (ends[r] - width[r]))
    return np.concatenate(heads), np.concatenate(tails)


def graph_from_spec(spec: dict) -> Graph:
    """Build a graph from a run-config mapping: {kind, m, p?, seed?}."""
    kind = spec.get("kind")
    m = spec.get("m")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise GraphError(f"graph spec needs a positive integer 'm', got {m!r}")
    if kind == "line":
        return build_line_graph(m)
    if kind == "cycle":
        return build_cycle_graph(m)
    if kind == "complete":
        return build_complete_graph(m)
    if kind == "erdos_renyi":
        if "p" not in spec:
            raise GraphError("erdos_renyi graph spec needs 'p'")
        return build_erdos_renyi(m, float(spec["p"]), int(spec.get("seed", 0)))
    raise GraphError(f"unknown graph kind {kind!r}")


def diameter(g: Graph) -> int:
    """Exact hop diameter by flooding bitsets of heard-from agents; errors on disconnected input.

    Agent i starts with bit i set, in ceil(m/64) uint64 words. Each round ORs
    the bitsets over every closed neighborhood of ``g``; the diameter is the
    number of rounds until every bitset is full. A round that changes nothing
    before then means some agent is unreachable.
    """
    agents = np.arange(g.m)
    heard = np.zeros((g.m, -(-g.m // 64)), dtype=np.uint64)
    heard[agents, agents // 64] = np.left_shift(np.uint64(1), (agents % 64).astype(np.uint64))
    everyone = np.bitwise_or.reduce(heard, axis=0)
    rounds = 0
    while (heard != everyone).any():
        flooded = np.bitwise_or.reduceat(heard[g.indices], g.indptr[:-1], axis=0)
        if np.array_equal(flooded, heard):
            raise GraphError("diameter of a disconnected graph")
        heard = flooded
        rounds += 1
    return rounds


def _pattern_rows(g: Graph) -> np.ndarray:
    """The row of each entry of ``g.indices``."""
    return np.repeat(np.arange(g.m), np.diff(g.indptr))


def _on_pattern(g: Graph, data: np.ndarray) -> csr_array:
    """The m x m CSR matrix with ``data`` on the pattern of ``g``, with int32 copies of its indices."""
    indices, indptr = g.indices.astype(np.int32), g.indptr.astype(np.int32)
    return csr_array((data, indices, indptr), shape=(g.m, g.m))


def _product_operator(g: Graph, data: np.ndarray) -> np.ndarray | csr_array:
    """The matrix with ``data`` on the closed neighborhoods of ``g``, in the kernel its products use.

    CSR when nnz = m + 2|E| is at most m^2/16, a read-only dense array
    otherwise: a CSR product costs O(nnz d) plus a fixed dispatch of several
    microseconds, a dense one O(m^2 d) at BLAS speed. The 20-agent examples
    stay dense; the 600-agent benchmark graph gets CSR, 4-5x faster per
    product. The kernels round differently but each is deterministic, so runs
    are byte-identical on either side of the rule.
    """
    if 16 * g.indices.size <= g.m * g.m:
        return _on_pattern(g, data)
    A = np.zeros((g.m, g.m))
    A[_pattern_rows(g), g.indices] = data
    A.setflags(write=False)
    return A


def metropolis_weights(g: Graph) -> csr_array:
    """Metropolis-Hastings mixing weights, computable from local degrees, as CSR.

    Off-diagonal: 1 / (1 + max(deg_i, deg_j)) on edges; the diagonal entry
    is 1 minus the sum of the row's off-diagonal weights, taken over the row's
    nonzeros, so every row sums to one. The pattern is that of ``g``.
    """
    rows = _pattern_rows(g)
    degree = np.diff(g.indptr) - 1
    self_loop = g.indices == rows
    data = 1.0 / (1.0 + np.maximum(degree[rows], degree[g.indices]))
    data[self_loop] = 0.0
    data[self_loop] = 1.0 - np.add.reduceat(data, g.indptr[:-1])
    return _on_pattern(g, data)


@dataclass(frozen=True)
class GossipMatrix:
    """Mixing pair (W_tilde, W) of a graph, with W = (1-c) I + c W_tilde, c in (0, 1/2].

    Both matrices are derived from the graph's Metropolis weights on its
    closed neighborhoods, so weight sits only on graph edges and self-loops:
    one multiplication by W models one synchronous round of neighbor
    exchanges. ``W_op`` is the operator the runs multiply by, in the kernel
    ``_product_operator`` picks for the graph (CSR on sparse graphs, a dense
    read-only array otherwise).
    """

    graph: Graph
    c: float
    # W_tilde as CSR, and W's entries on the graph's closed neighborhoods
    _W_tilde: csr_array = field(init=False, repr=False, compare=False)
    _w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.c <= 0.5):
            raise GraphError(f"mixing coefficient c must lie in (0, 1/2], got {self.c}")
        W_tilde = metropolis_weights(self.graph)
        diagonal = self.graph.indices == _pattern_rows(self.graph)
        # the dense (1-c) I + c W_tilde, entry by entry
        w = self.c * W_tilde.data
        w[diagonal] += 1.0 - self.c
        object.__setattr__(self, "_W_tilde", W_tilde)
        object.__setattr__(self, "_w", w)

    @cached_property
    def W_op(self) -> np.ndarray | csr_array:
        """W as the gossip product operator; built on first use."""
        return _product_operator(self.graph, self._w)


def gossip_matrix(g: Graph, c: float = 0.5) -> GossipMatrix:
    """Metropolis weights W_tilde of ``g`` and W = (1-c) I + c W_tilde."""
    return GossipMatrix(g, c)


def spectral_data(gm: GossipMatrix) -> np.ndarray:
    """Upper-triangular R with R^T R = (I - W) + c 11^T/m, the factor the merit V solves with.

    I - W = c (I - W_tilde) annihilates only the all-ones direction on a
    connected graph, and the rank-one term lifts that direction to c, so the
    sum is positive definite, and for B with 1^T B = 0 the solve
    Z = R^-1 R^-T B is the preimage of B under I - W with 1^T Z = 0:
    Z^T B = B^T pinv(I - W) B, with pinv(I - W) = c^-1 pinv(I - W_tilde).
    The matrix is scattered from the CSR W_tilde into one m x m array, which
    LAPACK's ``dpotrf`` factors in place, so R is the only m x m array of a
    run. R is Fortran-ordered, the layout ``dpotrs`` reads without a copy,
    zero below the diagonal, and read-only.
    """
    m = gm.graph.m
    R = gm._W_tilde.toarray().T  # Fortran order, LAPACK's own: the factorization works in place
    np.subtract(1.0 / m, R, out=R)
    R.flat[:: m + 1] += 1.0
    R *= gm.c
    R, info = dpotrf(R, overwrite_a=1)
    # every squared pivot is at least c min(gap, 1); a singular matrix rounds
    # to a last pivot near sqrt(eps) rather than to info > 0
    if info != 0 or R.diagonal().min() ** 2 <= gm.c * _GAP_CUTOFF:
        raise GraphError("I - W_tilde + 11^T/m is singular: the graph is disconnected")
    R.setflags(write=False)
    return R
