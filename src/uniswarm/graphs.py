"""Distance-induced proximity graphs over planar agent positions.

Two agents are neighbors when their Euclidean distance is strictly below
the interaction radius.  Since an agent is at distance zero from itself,
the neighbor set is self-inclusive by default, which makes the averaging
matrix row-stochastic and ties its spectrum exactly to the normalized
Laplacian of the same adjacency.  A ``self_inclusive=False`` switch is
kept for sensitivity runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class SpectralError(RuntimeError):
    """Eigen-solver failed to converge; carries the residual norm."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class ProximityGraph:
    radius: float
    adjacency: np.ndarray  # (m, m) bool, symmetric
    degrees: np.ndarray  # (m,) int
    self_inclusive: bool = True

    @property
    def node_count(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def float_adjacency(self) -> np.ndarray:
        """The adjacency as 0/1 floats, built on first use and kept with the
        graph: a product with the bool matrix converts it on every call."""
        return self.adjacency.astype(float)

    @cached_property
    def divisors(self) -> np.ndarray:
        """max(d_i, 1) as floats, the divisors of a neighbor mean, kept with
        the graph like :attr:`float_adjacency`."""
        return np.maximum(self.degrees, 1).astype(float)


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: np.ndarray  # non-decreasing, in [0, 2]
    spectral_gap: float  # max(|1 - lambda_1|, |1 - lambda_{n-1}|)
    is_connected: bool


@dataclass(frozen=True)
class RingSet:
    """Agents whose initial distance from ``node`` lies in [(1-eta)r, (1+eta)r].

    The annulus bounds how much the node's neighborhood can change while
    every pairwise distance stays within the drift budget.
    """

    node: int
    followers: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    leaders: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def r_i1(self) -> int:
        return len(self.followers)

    @property
    def r_i2(self) -> int:
        return len(self.leaders)


def pairwise_distances(positions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The (m, m) Euclidean distances of the (m, 2) positions, written to
    ``out`` when given."""
    from scipy.spatial.distance import cdist

    positions = np.asarray(positions, dtype=float)
    return cdist(positions, positions, out=out)


def _shaped_positions(positions: np.ndarray, ndim: int = 2) -> np.ndarray:
    """``positions`` as floats, checked to be non-empty and of shape (m, 2),
    or (n, m, 2) for ``ndim=3``."""
    positions = np.asarray(positions, dtype=float)
    if positions.size == 0:
        raise ValueError("empty swarm")
    if positions.ndim != ndim or positions.shape[-1] != 2:
        shape = "(m, 2)" if ndim == 2 else "(n, m, 2)"
        raise ValueError(f"positions must have shape {shape}, got {positions.shape}")
    return positions


def _require_finite(positions: np.ndarray) -> None:
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite")


def _checked_positions(positions: np.ndarray) -> np.ndarray:
    positions = _shaped_positions(positions)
    _require_finite(positions)
    return positions


# A chunk of instants holds one condensed distance vector, m(m-1)/2 float64
# entries, per instant in at most this many bytes, and at least one instant:
# at m = 23 that is 129 instants, at m = 130 three, and from m = 182 on one;
# from m = 257 on one instant's vector alone is above the budget.
_CHUNK_BYTES = 256 * 1024

# Below this many agents, the fixed cost of a pdist call outweighs its
# arithmetic, and one numpy pass over the whole chunk is faster.  Only from
# this size on is scipy.spatial imported, which takes about half a second
# in a fresh interpreter on a 2-vCPU host.
_PDIST_MIN_AGENTS = 64


def _distance_chunks(positions: np.ndarray):
    """Yields the pairwise distances of the (N, m, 2) ``positions`` of
    successive instants in (n, P) chunks, each a new array that the caller
    may keep.  Row j of a chunk is an instant's condensed distance vector:
    the P = m(m-1)/2 distances of the pairs i < j in the order of
    ``scipy.spatial.distance.pdist``, equal to the entries of
    :func:`pairwise_distances` above the diagonal.  The positions of a chunk
    are checked to be finite before its distances are computed."""
    m = positions.shape[1]
    pairs = m * (m - 1) // 2
    size = max(1, _CHUNK_BYTES // (8 * max(pairs, 1)))
    if m >= _PDIST_MIN_AGENTS:
        from scipy.spatial.distance import pdist
    else:
        first, second = np.triu_indices(m, 1)
    for start in range(0, len(positions), size):
        chunk = positions[start:start + size]
        _require_finite(chunk)
        if m >= _PDIST_MIN_AGENTS:
            distances = np.empty((len(chunk), pairs))
            for x, out in zip(chunk, distances):
                pdist(x, out=out)
        else:
            # sqrt((x_i - x_j)^2 + (y_i - y_j)^2), the arithmetic of pdist and
            # cdist, which overflows to inf without a warning as they do
            with np.errstate(over="ignore"):
                step = np.take(chunk, first, axis=1)
                step -= np.take(chunk, second, axis=1)
                step *= step
                distances = np.add(step[..., 0], step[..., 1])
            np.sqrt(distances, out=distances)
        yield distances


def _checked_radius(radius: float) -> float:
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return float(radius)


def build_graph(positions: np.ndarray, radius: float, self_inclusive: bool = True) -> ProximityGraph:
    """Neighbor graph with edge (i, j) iff ||X_i - X_j|| < radius (strict)."""
    positions = _checked_positions(positions)
    adjacency = pairwise_distances(positions) < _checked_radius(radius)
    np.fill_diagonal(adjacency, self_inclusive)
    return _graph(adjacency, radius, self_inclusive)


def _graph(adjacency: np.ndarray, radius: float, self_inclusive: bool) -> ProximityGraph:
    return ProximityGraph(radius=float(radius), adjacency=adjacency,
                          degrees=adjacency.sum(axis=1), self_inclusive=self_inclusive)


class GraphSweep:
    """The neighbor graphs of successive sampling instants.

    Neighbor relations change only at sampling instants, and between most
    consecutive instants they do not change at all.  The sweep computes one
    condensed distance vector per instant (see :func:`_distance_chunks`)
    and compares its strict-``<`` pairs with the current graph's, a chunk of
    instants at a time (see :meth:`runs`); while they are equal, it keeps
    the previous :class:`ProximityGraph` object itself, so a caller that
    keeps quantities derived from a graph reuses them while ``graph is
    previous``.  Only a changed graph gets an m x m adjacency.  An adjacency
    that returns to an earlier, non-adjacent instant's gets a new object.
    """

    def __init__(self, radius: float, self_inclusive: bool = True):
        self.radius = _checked_radius(radius)
        self.self_inclusive = self_inclusive
        self.graph: ProximityGraph | None = None  # the graph of the last instant taken
        self._pairs: np.ndarray | None = None  # the condensed adjacency of ``graph``
        # per agent count m: the flat indices i*m + j and j*m + i of the pairs i < j
        self._scatter: tuple[int, np.ndarray, np.ndarray] | None = None

    def _adjacency(self, pairs: np.ndarray, m: int) -> np.ndarray:
        """The m x m adjacency of the condensed ``pairs``, the diagonal set to
        ``self_inclusive``: the pairs scattered into both triangles, the same
        matrix as ``scipy.spatial.distance.squareform`` gives."""
        if self._scatter is None or self._scatter[0] != m:
            first, second = np.triu_indices(m, 1)
            self._scatter = (m, first * m + second, second * m + first)
        _, upper, lower = self._scatter
        adjacency = np.zeros((m, m), dtype=bool)
        flat = adjacency.reshape(-1)
        flat[upper] = pairs
        flat[lower] = pairs
        np.fill_diagonal(adjacency, self.self_inclusive)
        return adjacency

    def runs(self, positions: np.ndarray):
        """Yields the next instants, whose agent positions are the (N, m, 2)
        ``positions``, in order, as runs of consecutive instants on one
        graph: (graph, distances), ``distances`` the (n, P) condensed
        pairwise distances of the run's instants, P = m(m-1)/2 in the pair
        order of ``scipy.spatial.distance.pdist``.

        A run ends at a graph change or at the end of a chunk, so two runs
        in a row may share a graph.  Each chunk's positions are checked to
        be finite, and its pairs within the radius are compared with the
        current graph's in one operation.  The sweep does not read or write
        a chunk's distances once it has yielded them.  The sweep takes a
        run's graph as its own only when it yields that run: a caller that
        stops consuming leaves the sweep at the graph of the last instant
        it took.
        """
        positions = np.asarray(positions, dtype=float)
        if positions.ndim == 3 and not len(positions):
            return  # no instants
        for distances in _distance_chunks(_shaped_positions(positions, ndim=3)):
            n = len(distances)
            chunk = distances < self.radius
            start = 0
            while start < n:
                if self.graph is None or not np.array_equal(chunk[start], self._pairs):
                    self._pairs = chunk[start]
                    adjacency = self._adjacency(self._pairs, positions.shape[1])
                    self.graph = _graph(adjacency, self.radius, self.self_inclusive)
                stop = start + 1
                if stop < n:
                    changed = np.flatnonzero((chunk[stop:] != self._pairs).any(axis=1))
                    stop = stop + int(changed[0]) if len(changed) else n
                yield self.graph, distances[start:stop]
                start = stop


def connectivity(graph: ProximityGraph) -> bool:
    """True iff a single component spans all nodes (breadth-first traversal)."""
    adjacency = graph.adjacency
    m = graph.node_count
    seen = np.zeros(m, dtype=bool)
    seen[0] = True
    frontier = np.zeros(m, dtype=bool)
    frontier[0] = True
    while frontier.any():
        reached = adjacency[frontier].any(axis=0) & ~seen
        seen |= reached
        frontier = reached
    return bool(seen.all())


def averaging_matrix(graph: ProximityGraph) -> np.ndarray:
    """Row-stochastic P with P_ij = 1/d_i on edges.

    With the self-inclusive convention d_i >= 1 always.  When the
    convention is disabled, an isolated node holds its own state
    (identity row), extending the definition to degree zero.
    """
    return averaging_rows(graph, np.arange(graph.node_count))


def averaging_rows(graph: ProximityGraph, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` (node indices) of :func:`averaging_matrix`; row i
    depends only on the adjacency row of node i."""
    degrees = graph.degrees[rows].astype(float)
    isolated = degrees == 0
    p = graph.adjacency[rows] / np.where(isolated, 1.0, degrees)[:, None]
    if isolated.any():
        idx = np.where(isolated)[0]
        p[idx, rows[idx]] = 1.0
    return p


def leader_fractions(graph: ProximityGraph,
                     leader_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alpha_i, the leader share of each node's neighborhood with the node
    itself excluded, and the size of that neighborhood.

    alpha_i is 0 where the neighborhood is empty.
    """
    mask = np.asarray(leader_mask, dtype=float)
    own = np.diagonal(graph.adjacency)
    leaders = graph.float_adjacency @ mask - own * mask
    totals = graph.degrees - own
    fractions = np.where(totals > 0, leaders / np.where(totals > 0, totals, 1), 0.0)
    return fractions, totals


def normalized_laplacian(graph: ProximityGraph) -> np.ndarray:
    degrees = np.maximum(graph.degrees.astype(float), 1.0)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    lap = -(graph.adjacency.astype(float) * np.outer(inv_sqrt, inv_sqrt))
    np.fill_diagonal(lap, np.diagonal(lap) + 1.0)
    return lap


# Dense eigendecomposition is exact and cheap up to a few thousand nodes;
# beyond the limit only the extremal eigenvalues are needed for the gap.
DENSE_EIG_LIMIT = 5000

_CONNECTED_TOL = 1e-9


def spectral_summary(graph: ProximityGraph) -> SpectralSummary:
    """Eigenvalues of the normalized Laplacian of the (self-inclusive) adjacency.

    The gap is max(|1 - lambda_1|, |1 - lambda_{n-1}|); the eigenvalues of
    the averaging matrix P equal 1 - lambda_i by similarity, so the gap
    computed here is exactly the consensus contraction rate.
    """
    m = graph.node_count
    if m == 1:
        return SpectralSummary(eigenvalues=np.zeros(1), spectral_gap=0.0, is_connected=True)

    if m <= DENSE_EIG_LIMIT:
        eigenvalues = np.linalg.eigvalsh(normalized_laplacian(graph))
        eigenvalues = np.sort(eigenvalues)
        lam1 = eigenvalues[1]
        lam_top = eigenvalues[-1]
        connected = lam1 > _CONNECTED_TOL
    else:
        eigenvalues, lam1, lam_top, connected = _extremal_eigenvalues(graph)

    gap = max(abs(1.0 - lam1), abs(1.0 - lam_top))
    return SpectralSummary(eigenvalues=eigenvalues, spectral_gap=float(gap),
                           is_connected=bool(connected))


def _extremal_eigenvalues(graph: ProximityGraph):
    """lambda_0, lambda_1 and lambda_{n-1} of the normalized Laplacian.

    A disconnected graph has lambda_1 = 0 exactly, so it gets the gap 1 of
    the dense path without the shift-invert at sigma = 0, whose LU factor is
    exactly singular there.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    lap = csr_matrix(normalized_laplacian(graph))
    connected = connectivity(graph)
    try:
        high = eigsh(lap, k=1, which="LA", return_eigenvectors=False)
        low = (np.sort(eigsh(lap, k=2, sigma=0, which="LM", return_eigenvectors=False))
               if connected else np.zeros(2))
    except ArpackNoConvergence as exc:
        residual = float(np.linalg.norm(getattr(exc, "eigenvalues", np.array([np.inf]))))
        raise SpectralError("eigen-solver did not converge", residual) from exc
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SpectralError(f"eigen-solver failed: {exc}", float("nan")) from exc
    eigenvalues = np.array([low[0], low[1], high[0]])
    return eigenvalues, eigenvalues[1], eigenvalues[2], connected


STRICT_ETA_MAX = 1.0 / 512.0


def ring_sets(initial_positions: np.ndarray, radius: float, eta: float,
              leader_mask: np.ndarray | None = None, strict: bool = False) -> list[RingSet]:
    """Per-node annulus membership [(1-eta)r, (1+eta)r], split by role.

    ``strict`` enforces eta <= 1/512; otherwise any eta in (0, 1) is allowed
    for sensitivity studies.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if strict and eta > STRICT_ETA_MAX:
        raise ValueError(f"strict mode requires eta <= 1/512, got {eta}")
    positions = np.asarray(initial_positions, dtype=float)
    m = positions.shape[0]
    if leader_mask is None:
        leader_mask = np.zeros(m, dtype=bool)
    leader_mask = np.asarray(leader_mask, dtype=bool)

    dist = pairwise_distances(positions)
    lo, hi = (1.0 - eta) * radius, (1.0 + eta) * radius
    in_annulus = (dist >= lo) & (dist <= hi)
    np.fill_diagonal(in_annulus, False)

    out = []
    for i in range(m):
        members = np.where(in_annulus[i])[0]
        out.append(RingSet(node=i,
                           followers=members[~leader_mask[members]],
                           leaders=members[leader_mask[members]]))
    return out

