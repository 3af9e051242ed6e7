"""Graph topologies, gossip matrices, and spectral helpers for mesh networks."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

__all__ = [
    "Graph",
    "GraphError",
    "GossipMatrix",
    "build_line_graph",
    "build_cycle_graph",
    "build_complete_graph",
    "build_erdos_renyi",
    "graph_from_spec",
    "diameter",
    "metropolis_weights",
    "gossip_matrix",
    "spectral_data",
]

_ER_MAX_DRAWS = 1000

# Rows per block of the set-up's dense work arrays: the Erdos-Renyi draws and the
# Metropolis diagonal's row sums touch at most this many rows of m at a time.
_ROW_BLOCK = 64

# A spectral gap 1 - lambda_2(W_tilde) at or below this counts as zero: the
# graph is disconnected, and I - W_tilde has more than one null direction.
_GAP_CUTOFF = 1e-10


class GraphError(ValueError):
    """Invalid topology: malformed edges, disconnected graph, or bad parameters."""


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on agents 0..m-1.

    ``neighbors[i]`` is the one-hop neighborhood of agent i *including i
    itself*, so one exchange round combines an agent's own value with its
    neighbors' values.
    """

    m: int
    edges: frozenset[tuple[int, int]]
    neighbors: tuple[tuple[int, ...], ...]

    @cached_property
    def neighbor_index(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR layout of ``neighbors``: the concatenated indices and the row starts."""
        sizes = np.fromiter(map(len, self.neighbors), dtype=np.intp, count=self.m)
        index = np.fromiter(chain.from_iterable(self.neighbors), dtype=np.intp, count=int(sizes.sum()))
        starts = np.zeros(self.m, dtype=np.intp)
        np.cumsum(sizes[:-1], out=starts[1:])
        return index, starts


def _hop_matrix(g: Graph) -> csr_array:
    """Sparse 0/1 matrix of the closed neighborhoods, for scipy's graph routines."""
    index, starts = g.neighbor_index
    return csr_array((np.ones(index.size), index, np.append(starts, index.size)), shape=(g.m, g.m))


def _make_graph(m: int, edges) -> Graph:
    if m < 1:
        raise GraphError(f"agent count must be >= 1, got {m}")

    def normalized():
        for i, j in edges:
            if i == j or not (0 <= i < m) or not (0 <= j < m):
                raise GraphError(f"invalid edge ({i}, {j}) for m={m}")
            yield (i, j) if i < j else (j, i)

    edge_set = frozenset(normalized())
    # lists, not sets: the edge set already holds each edge once
    adjacency = [[i] for i in range(m)]
    for i, j in edge_set:
        adjacency[i].append(j)
        adjacency[j].append(i)
    neighbors = tuple(tuple(sorted(closed)) for closed in adjacency)
    graph = Graph(m=m, edges=edge_set, neighbors=neighbors)
    # the hop matrix is symmetric, so its strong components are the connected
    # ones; the strong search skips the symmetrizing copy of directed=False
    if connected_components(_hop_matrix(graph), connection="strong", return_labels=False) > 1:
        raise GraphError("graph is disconnected")
    return graph


def build_line_graph(m: int) -> Graph:
    """Path graph 0-1-...-(m-1); diameter m-1."""
    return _make_graph(m, [(i, i + 1) for i in range(m - 1)])


def build_cycle_graph(m: int) -> Graph:
    if m < 3:
        return build_line_graph(m)
    return _make_graph(m, [(i, (i + 1) % m) for i in range(m)])


def build_complete_graph(m: int) -> Graph:
    return _make_graph(m, [(i, j) for i in range(m) for j in range(i + 1, m)])


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
            return _make_graph(m, zip(i.tolist(), j.tolist()))
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
    if not isinstance(m, int) or m < 1:
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
    the bitsets over every closed neighborhood of ``g.neighbor_index``; the
    diameter is the number of rounds until every bitset is full. A round that
    changes nothing before then means some agent is unreachable.
    """
    index, starts = g.neighbor_index
    agents = np.arange(g.m)
    heard = np.zeros((g.m, -(-g.m // 64)), dtype=np.uint64)
    heard[agents, agents // 64] = np.left_shift(np.uint64(1), (agents % 64).astype(np.uint64))
    everyone = np.bitwise_or.reduce(heard, axis=0)
    rounds = 0
    while (heard != everyone).any():
        flooded = np.bitwise_or.reduceat(heard[index], starts, axis=0)
        if np.array_equal(flooded, heard):
            raise GraphError("diameter of a disconnected graph")
        heard = flooded
        rounds += 1
    return rounds


def _pattern_rows(g: Graph) -> np.ndarray:
    """The row of each entry of ``g.neighbor_index``'s concatenated indices."""
    index, starts = g.neighbor_index
    return np.repeat(np.arange(g.m), np.diff(starts, append=index.size))


def _on_pattern(g: Graph, data: np.ndarray) -> csr_array:
    """The m x m CSR matrix with ``data`` on ``g.neighbor_index``'s entries.

    Zeros are dropped, as a dense-to-CSR conversion drops them: a tiny c can
    round a weight of W, or a diagonal entry of I - W, to zero.
    """
    index, starts = g.neighbor_index
    indptr = np.append(starts, index.size).astype(np.int32)
    A = csr_array((data, index.astype(np.int32), indptr), shape=(g.m, g.m))
    A.eliminate_zeros()
    return A


def _product_operator(g: Graph, data: np.ndarray) -> np.ndarray | csr_array:
    """The matrix with ``data`` on the closed neighborhoods of ``g``, in the kernel its products use.

    CSR when nnz = m + 2|E| is at most m^2/16, a read-only dense array
    otherwise: a CSR product costs O(nnz d) plus a fixed dispatch of several
    microseconds, a dense one O(m^2 d) at BLAS speed. The 20-agent examples
    stay dense; the 600-agent benchmark graph gets CSR, 4-5x faster per
    product. The kernels round differently but each is deterministic, so runs
    are byte-identical on either side of the rule.
    """
    A = _on_pattern(g, data)
    nnz = g.m + 2 * len(g.edges)
    return A if 16 * nnz <= g.m * g.m else _read_only(A.toarray())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def metropolis_weights(g: Graph) -> csr_array:
    """Metropolis-Hastings mixing weights, computable from local degrees, as CSR.

    Off-diagonal: 1 / (1 + max(deg_i, deg_j)) on edges; the diagonal absorbs
    the remainder so every row sums to one. The pattern is
    ``g.neighbor_index``. A diagonal entry is 1 minus the row's sum over all
    m columns in numpy's pairwise order, the rounding of the dense
    ``1 - w.sum(axis=1)``, which a sum over the row's nonzeros alone misses;
    so the rows are summed as dense blocks of ``_ROW_BLOCK`` rows.
    """
    index, starts = g.neighbor_index
    indptr = np.append(starts, index.size)
    rows = _pattern_rows(g)
    degree = np.diff(indptr) - 1
    self_loop = index == rows
    data = 1.0 / (1.0 + np.maximum(degree[rows], degree[index]))
    data[self_loop] = 0.0
    block = np.empty((_ROW_BLOCK, g.m))
    for lo in range(0, g.m, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, g.m)
        dense = block[: hi - lo]
        dense.fill(0.0)
        span = slice(indptr[lo], indptr[hi])
        dense[rows[span] - lo, index[span]] = data[span]
        data[span][self_loop[span]] = 1.0 - dense.sum(axis=1)
    return _on_pattern(g, data)


@dataclass(frozen=True)
class GossipMatrix:
    """Mixing pair (W_tilde, W) of a graph, with W = (1-c) I + c W_tilde, c in (0, 1/2].

    Both matrices are derived from the graph's Metropolis weights on its
    closed neighborhoods, so weight sits only on graph edges and self-loops:
    one multiplication by W models one synchronous round of neighbor
    exchanges. ``W_op`` and ``I_minus_W`` are the operators the runs multiply
    by, in the kernel ``_product_operator`` picks for the graph (CSR on
    sparse graphs). The dense read-only ``W_tilde`` and ``W`` are built on
    first access, so a run on a sparse graph never builds them; on a dense
    graph ``W`` is ``W_op`` itself.
    """

    graph: Graph
    c: float
    # W_tilde as CSR, and W's and I - W's entries on the graph's closed neighborhoods
    _W_tilde: csr_array = field(init=False, repr=False, compare=False)
    _w: np.ndarray = field(init=False, repr=False, compare=False)
    _i_minus_w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.c <= 0.5):
            raise GraphError(f"mixing coefficient c must lie in (0, 1/2], got {self.c}")
        W_tilde = metropolis_weights(self.graph)
        diagonal = self.graph.neighbor_index[0] == _pattern_rows(self.graph)
        # the dense (1-c) I + c W_tilde and I - W, entry by entry
        w = self.c * W_tilde.data
        w[diagonal] += 1.0 - self.c
        i_minus_w = -w
        i_minus_w[diagonal] = 1.0 - w[diagonal]
        object.__setattr__(self, "_W_tilde", W_tilde)
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_i_minus_w", i_minus_w)

    @cached_property
    def W_tilde(self) -> np.ndarray:
        """W_tilde as a dense read-only array; built on first access."""
        return _read_only(self._W_tilde.toarray())

    @cached_property
    def W(self) -> np.ndarray:
        """W as a dense read-only array; built on first access."""
        op = self.W_op
        return op if isinstance(op, np.ndarray) else _read_only(op.toarray())

    @cached_property
    def W_op(self) -> np.ndarray | csr_array:
        """W as the gossip product operator; built on first use."""
        return _product_operator(self.graph, self._w)

    @cached_property
    def I_minus_W(self) -> np.ndarray | csr_array:
        """I - W, the operator of the convex merit's consensus form; built on first use."""
        return _product_operator(self.graph, self._i_minus_w)


def gossip_matrix(g: Graph, c: float = 0.5) -> GossipMatrix:
    """Metropolis weights W_tilde of ``g`` and W = (1-c) I + c W_tilde."""
    return GossipMatrix(g, c)


def spectral_data(gm: GossipMatrix) -> np.ndarray:
    """Upper-triangular T with M = T T^T - 11^T/(cm) - I = c^-1 pinv(I - W_tilde) - I.

    M weights the strongly convex merit's dual distance; it is positive
    definite on the complement of the all-ones direction whenever c <= 1/2.
    On a connected graph S = I - W_tilde + 11^T/m is positive definite and
    pinv(I - W_tilde) = S^-1 - 11^T/m. With the Cholesky factor S = R^T R
    (LAPACK ``dpotrf``, inverted by ``dtrtri``), T = R^-1 / sqrt(c): no
    eigendecomposition and no m x m product. S is scattered from the CSR
    W_tilde into one m x m array, which both LAPACK calls overwrite in place,
    so T is the only m x m array of a run. T is Fortran-ordered, the layout
    BLAS ``dtrmm`` reads without a copy, and zero below the diagonal.
    """
    m = gm.graph.m
    S = gm._W_tilde.toarray().T  # Fortran order, LAPACK's own: the factorization works in place
    np.subtract(1.0 / m, S, out=S)
    S.flat[:: m + 1] += 1.0
    R, info = dpotrf(S, overwrite_a=1)
    # every squared pivot is at least lambda_min(S) = min(gap, 1); a singular S
    # rounds to a last pivot near sqrt(eps) rather than to info > 0
    if info != 0 or R.diagonal().min() ** 2 <= _GAP_CUTOFF:
        raise GraphError("I - W_tilde + 11^T/m is singular: the graph is disconnected")
    T, _ = dtrtri(R, overwrite_c=1)  # cannot fail: the pivots checked above are nonzero
    T *= gm.c**-0.5
    return T
