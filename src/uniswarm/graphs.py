"""Distance-induced proximity graphs over planar agent positions.

Two agents are neighbors when their Euclidean distance is strictly below
the interaction radius.  Since an agent is at distance zero from itself,
the neighbor set is self-inclusive by default, which makes the averaging
matrix row-stochastic and ties its spectrum exactly to the normalized
Laplacian of the same adjacency.  A ``self_inclusive=False`` switch is
kept for sensitivity runs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist


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


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    positions = np.asarray(positions, dtype=float)
    return cdist(positions, positions)


def _checked_positions(positions: np.ndarray) -> np.ndarray:
    positions = np.asarray(positions, dtype=float)
    if positions.size == 0:
        raise ValueError("empty swarm")
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must have shape (m, 2), got {positions.shape}")
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite")
    return positions


def _checked_radius(radius: float) -> float:
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return float(radius)


def build_graph(positions: np.ndarray, radius: float, self_inclusive: bool = True) -> ProximityGraph:
    """Neighbor graph with edge (i, j) iff ||X_i - X_j|| < radius (strict)."""
    positions = _checked_positions(positions)
    _checked_radius(radius)
    return graph_from_distances(pairwise_distances(positions), radius, self_inclusive)


def _adjacency(distances: np.ndarray, radius: float, self_inclusive: bool) -> np.ndarray:
    adjacency = distances < radius
    np.fill_diagonal(adjacency, self_inclusive)
    return adjacency


def _graph(adjacency: np.ndarray, radius: float, self_inclusive: bool) -> ProximityGraph:
    return ProximityGraph(radius=float(radius), adjacency=adjacency,
                          degrees=adjacency.sum(axis=1), self_inclusive=self_inclusive)


def graph_from_distances(distances: np.ndarray, radius: float,
                         self_inclusive: bool) -> ProximityGraph:
    """The graph of :func:`build_graph` from an already computed distance matrix."""
    return _graph(_adjacency(distances, radius, self_inclusive), radius, self_inclusive)


class GraphSweep:
    """The neighbor graphs of successive sampling instants.

    Neighbor relations change only at sampling instants, and between most
    consecutive instants they do not change at all.  Each call of
    :meth:`advance` computes one distance matrix and the strict-``<``
    adjacency; when that adjacency equals the previous instant's, it returns
    the previous :class:`ProximityGraph` object itself, so a caller that
    keeps quantities derived from a graph reuses them while ``graph is
    previous``.  An adjacency that returns to an earlier, non-adjacent
    instant's gets a new object.
    """

    def __init__(self, radius: float, self_inclusive: bool = True):
        self.radius = _checked_radius(radius)
        self.self_inclusive = self_inclusive
        self.graph: ProximityGraph | None = None
        self.distances: np.ndarray | None = None  # pairwise distances of the last instant

    def advance(self, positions: np.ndarray) -> ProximityGraph:
        """The graph of ``positions``, the next instant's agent positions."""
        self.distances = pairwise_distances(_checked_positions(positions))
        adjacency = _adjacency(self.distances, self.radius, self.self_inclusive)
        if self.graph is None or not np.array_equal(adjacency, self.graph.adjacency):
            self.graph = _graph(adjacency, self.radius, self.self_inclusive)
        return self.graph


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


def matrix_deviation(p_now: np.ndarray, p_initial: np.ndarray) -> float:
    """Spectral norm ||P(t_k) - P(0)||."""
    p_now = np.asarray(p_now, dtype=float)
    p_initial = np.asarray(p_initial, dtype=float)
    if p_now.shape != p_initial.shape:
        raise ValueError(f"dimension mismatch: {p_now.shape} vs {p_initial.shape}")
    return float(np.linalg.norm(p_now - p_initial, 2))


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


def write_edge_list_csv(graph: ProximityGraph, path) -> None:
    """Edge list as ``i,j`` rows with i < j; self-edges omitted on export."""
    ii, jj = np.where(np.triu(graph.adjacency, k=1))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i, j in zip(ii.tolist(), jj.tolist()):
            writer.writerow([i, j])


def spectral_summary_record(graph: ProximityGraph, summary: SpectralSummary | None = None) -> dict:
    if summary is None:
        summary = spectral_summary(graph)
    eigs = summary.eigenvalues
    return {
        "n": graph.node_count,
        "radius": graph.radius,
        "lambda1": float(eigs[1]) if len(eigs) > 1 else 0.0,
        "lambdaN1": float(eigs[-1]),
        "gap": summary.spectral_gap,
        "connected": summary.is_connected,
    }
