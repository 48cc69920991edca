"""Distance-induced proximity graphs over planar agent positions.

Two agents are neighbors when their Euclidean distance is strictly below
the interaction radius.  Since an agent is at distance zero from itself,
the neighbor set is self-inclusive by default, which makes the averaging
matrix row-stochastic and ties its spectrum exactly to the normalized
Laplacian of the same adjacency.  A ``self_inclusive=False`` switch is
kept for sensitivity runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class ProximityGraph:
    radius: float
    adjacency: np.ndarray  # (m, m) bool, symmetric
    self_inclusive: bool = True

    @property
    def node_count(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def edges(self) -> np.ndarray:
        """The flat indices i*m + j of the true entries of the adjacency in
        increasing order, built on first use and kept with the graph.  A
        graph of :class:`GraphSweep` is given them with its adjacency."""
        return np.flatnonzero(self.adjacency)

    @cached_property
    def degrees(self) -> np.ndarray:
        """d_i, the (m,) int neighbor counts, the node itself included when
        the graph is self-inclusive: the lengths of the rows of
        :attr:`neighbor_lists`."""
        columns, starts = self.neighbor_lists
        return np.diff(starts, append=len(columns))

    @cached_property
    def divisors(self) -> np.ndarray:
        """max(d_i, 1) as floats, the divisors of a neighbor mean (see
        :func:`neighbor_sums`), built on first use and kept with the graph."""
        return np.maximum(self.degrees, 1).astype(float)

    @cached_property
    def neighbor_lists(self) -> tuple[np.ndarray, np.ndarray]:
        """Each node's neighbors in index order, built on first use and kept
        with the graph: the flat ``columns`` of rows 0..m-1, one row after
        the other, and the (m,) ``starts`` of the rows in ``columns``.  A row
        without neighbors, which only a graph without self loops can have,
        starts where the next row does."""
        m = self.node_count
        return self.edges % m, np.searchsorted(self.edges, np.arange(m) * m)


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: np.ndarray  # non-decreasing, in [0, 2]
    spectral_gap: float  # max(|1 - lambda_1|, |1 - lambda_{n-1}|)
    is_connected: bool


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


def _chunk_instants(m: int) -> int:
    """Instants per chunk of :func:`_distance_chunks` at ``m`` agents."""
    return max(1, _CHUNK_BYTES // (8 * max(m * (m - 1) // 2, 1)))


def _distance_buffers(positions: np.ndarray) -> np.ndarray:
    """Two chunks' room for the distances of the (N, m, 2) ``positions``,
    for the ``buffers`` of :func:`_distance_chunks`."""
    n, m = positions.shape[:2]
    return np.empty((2, min(n, _chunk_instants(m)), m * (m - 1) // 2))


def _distance_chunks(positions: np.ndarray, buffers: np.ndarray | None = None):
    """Yields the pairwise distances of the (N, m, 2) ``positions`` of
    successive instants in (n, P) chunks, each a new array that the caller
    may keep.  Row j of a chunk is an instant's condensed distance vector:
    the P = m(m-1)/2 distances of the pairs i < j in the order of
    ``scipy.spatial.distance.pdist``, equal to the entries of
    :func:`pairwise_distances` above the diagonal.  The positions of a chunk
    are checked to be finite before its distances are computed.

    With ``buffers`` from :func:`_distance_buffers`, the chunks are written
    into its two halves in turn instead, so that a chunk is overwritten two
    chunks later; this lets a worker thread compute distances in memory
    that its caller allocated."""
    m = positions.shape[1]
    pairs = m * (m - 1) // 2
    size = _chunk_instants(m)
    if m >= _PDIST_MIN_AGENTS:
        from scipy.spatial.distance import pdist
    else:
        first, second = np.triu_indices(m, 1)
    for i, start in enumerate(range(0, len(positions), size)):
        chunk = positions[start:start + size]
        _require_finite(chunk)
        out = None if buffers is None else buffers[i % 2, :len(chunk)]
        if m >= _PDIST_MIN_AGENTS:
            distances = np.empty((len(chunk), pairs)) if out is None else out
            for x, row in zip(chunk, distances):
                pdist(x, out=row)
        else:
            distances = _pair_distances(chunk, first, second, out=out)
        yield distances


def _pair_distances(positions: np.ndarray, first: np.ndarray, second: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """The (n, C) distances of the agent pairs (first[c], second[c]) at the
    (n, m, 2) ``positions``, written to ``out`` when given:
    sqrt((x_i - x_j)^2 + (y_i - y_j)^2), the arithmetic of pdist and cdist,
    which overflows to inf without a warning as they do."""
    with np.errstate(over="ignore"):
        step = np.take(positions, first, axis=1)
        step -= np.take(positions, second, axis=1)
        step *= step
        distances = np.add(step[..., 0], step[..., 1], out=out)
    return np.sqrt(distances, out=distances)


# --- the band of pairs that can change neighbor relation ----------------------
#
# Between an anchor instant a and an instant t, every agent i moves by
# w_i = x_i(t) - x_i(a), and for any point c the distance of a pair changes
# by |Delta_ij(t) - Delta_ij(a)| <= |w_i - w_j| <= 2 rho_t, with
# rho_t = max_i |w_i - c|; c is the centre of the bounding box of the w_i.
# This is the paper's ring-set argument with the drift measured rather than
# budgeted: a pair whose anchor distance is farther than 2 rho_t from the
# radius has the same neighbor relation at t as at a.  Only the pairs in
# the band |Delta_ij(a) - r| <= 2 rho_t need their distance at t.
#
# The sweep decides on computed values, so the band carries an allowance
# for their rounding.  With u = 2^-53 the unit roundoff:
# - A pdist distance d^ of an exact distance d: the difference, the two
#   squares, the sum and the square root each round by a factor 1 + u, and
#   the square root halves the error of its argument, so
#   |d^ - d| <= 3u d + 2^-537.  The last term is underflow: squared
#   differences below about 1e-154 are subnormal and round by up to 2^-1075
#   each, and sqrt(2^-1074) = 2^-537.  Overflow gives inf, which an anchor
#   may not hold (see below).
# - The displacements w^_i = fl(x_i(t) - x_i(a)) round by u |w_i|, which is
#   large next to rho when the swarm has drifted far as a whole since the
#   anchor.  With M the largest |coordinate| of any w^_i, this adds at most
#   sqrt(2) u M (1 + u) to rho.  rho^, the largest pdist-rounded norm of
#   w^_i - c, understates max_i |w^_i - c| by at most 3u rho + 2^-537.
# - So |d^_t - d^_a| <= 2 rho^ (1 + 6.1u) + 2.9u M + 6.1u (r + g) + 2^-534,
#   with g = |d^_a - r|.  A pair is kept out of the band only when the
#   computed margin g^ = fl(g) exceeds the computed band.  That band is
#       2 rho^ + _BAND_ROUNDING (rho^ + M + r) + _BAND_UNDERFLOW,
#   rounded in four additions of non-negative terms.  With the rounding of
#   g^ and the 6.1u g term, the band must exceed the bound by a factor of
#   1 + 11.3u, which asks for 35u rho^, 3u M, 6.2u r and 2^-534: it has
#   _BAND_ROUNDING = 64u = 2^-47 of each and _BAND_UNDERFLOW = 2^-530.
# A band or rho that is not finite (an overflowing displacement or offset)
# holds every pair, which sends the sweep back to a full evaluation, as does
# an anchor with a distance that is not finite.
_BAND_ROUNDING = 2.0 ** -47
_BAND_UNDERFLOW = 2.0 ** -530

# A band that would hold more than this share of the pairs sends the sweep
# back to a full chunk of distances, whose last instant is a nearer anchor
# with a narrower band.  The share is not tuned: on the criterion-8 pool runs
# the band settles near 2% of the pairs, and on fig3 it passes 1/8 within
# about 16 instants of an anchor and most of the pairs within a chunk.
_BAND_SHARE = 0.125


def _spread(displacements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho_t and M_t of each instant t of the (n, m, 2) ``displacements``
    since the anchor: the largest pdist-rounded distance of an agent's
    displacement from the centre of their bounding box, and the largest
    |coordinate| of a displacement.  The coordinates are reduced as two
    (n, m) views, which numpy reduces faster than the middle axis."""
    x, y = displacements[..., 0], displacements[..., 1]
    high_x, low_x, high_y, low_y = x.max(axis=1), x.min(axis=1), y.max(axis=1), y.min(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        offsets_x = x - ((high_x + low_x) / 2)[:, None]
        offsets_y = y - ((high_y + low_y) / 2)[:, None]
        offsets_x *= offsets_x
        offsets_y *= offsets_y
        offsets_x += offsets_y
        rho = np.sqrt(offsets_x.max(axis=1))
    scale = np.maximum(np.maximum(np.abs(high_x), np.abs(low_x)),
                       np.maximum(np.abs(high_y), np.abs(low_y)))
    return rho, scale


def _bands(displacements: np.ndarray, radius: float) -> np.ndarray:
    """The band of each instant of the (n, m, 2) ``displacements`` since the
    anchor (see _BAND_ROUNDING), inf where it is not finite."""
    rho, scale = _spread(displacements)
    with np.errstate(over="ignore", invalid="ignore"):
        bands = 2 * rho + _BAND_ROUNDING * (rho + scale + radius) + _BAND_UNDERFLOW
    return np.where(np.isfinite(bands), bands, np.inf)


def _checked_radius(radius: float) -> float:
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return float(radius)


def build_graph(positions: np.ndarray, radius: float, self_inclusive: bool = True) -> ProximityGraph:
    """Neighbor graph with edge (i, j) iff ||X_i - X_j|| < radius (strict)."""
    positions = _checked_positions(positions)
    adjacency = pairwise_distances(positions) < _checked_radius(radius)
    np.fill_diagonal(adjacency, self_inclusive)
    return ProximityGraph(radius=float(radius), adjacency=adjacency, self_inclusive=self_inclusive)


class GraphSweep:
    """The neighbor graphs of successive sampling instants.

    Neighbor relations change only at sampling instants, and between most
    consecutive instants they do not change at all.  The sweep compares
    each instant's strict-``<`` pairs with the current graph's, a chunk of
    instants at a time; while they are equal, it keeps the previous
    :class:`ProximityGraph` object itself, so a caller that keeps quantities
    derived from a graph reuses them while ``graph is previous``.  Only a
    changed graph gets an m x m adjacency.  An adjacency that returns to an
    earlier, non-adjacent instant's gets a new object.  :meth:`runs` also
    gives the condensed distances of every instant (see
    :func:`_distance_chunks`); :meth:`graphs` gives the graphs alone, from the
    distances of the pairs near the radius, and reuses graph objects exactly
    where :meth:`runs` does.
    """

    def __init__(self, radius: float, self_inclusive: bool = True):
        self.radius = _checked_radius(radius)
        self.self_inclusive = self_inclusive
        self.graph: ProximityGraph | None = None  # the graph of the last instant taken
        self._pairs: np.ndarray | None = None  # the condensed adjacency of ``graph``
        self._index: tuple | None = None  # see _pair_index, for the last agent count m

    def _pair_index(self, m: int) -> tuple[np.ndarray, ...]:
        """For m agents, the agents i < j of each condensed pair, the flat
        indices i*m + j and j*m + i of the pairs in an m x m matrix, and
        the flat indices i*m + i of its diagonal."""
        if self._index is None or self._index[0] != m:
            first, second = np.triu_indices(m, 1)
            self._index = (m, first, second, first * m + second, second * m + first,
                           np.arange(m) * (m + 1))
        return self._index[1:]

    def _graph(self, pairs: np.ndarray, m: int) -> ProximityGraph:
        """The graph of the condensed ``pairs``, the diagonal set to
        ``self_inclusive``, built from the flat indices of the true pairs in
        both triangles and of the diagonal.  Sorted, they are the graph's
        ``edges``, np.flatnonzero of its adjacency, which is set at them
        alone: the matrix that ``scipy.spatial.distance.squareform`` gives."""
        _, _, upper, lower, diagonal = self._pair_index(m)
        true = np.flatnonzero(pairs)
        parts = (upper[true], lower[true]) + ((diagonal,) if self.self_inclusive else ())
        edges = np.concatenate(parts)
        edges.sort()
        adjacency = np.zeros((m, m), dtype=bool)
        adjacency.reshape(-1)[edges] = True
        graph = ProximityGraph(radius=self.radius, adjacency=adjacency,
                               self_inclusive=self.self_inclusive)
        graph.__dict__["edges"] = edges  # the value of the cached property
        return graph

    def _take(self, rows: np.ndarray, m: int, pairs_of=None):
        """Yields (graph, start, stop) for the runs of instants on one graph
        among the successive instants of the (n, C) bool ``rows``.  A row
        holds an instant's pairs within the radius, or, with ``pairs_of``,
        the part of them that can differ between the n instants, and
        ``pairs_of(j)`` gives instant j's condensed pairs.  The first instant
        is compared with the current graph's pairs, the others with the
        instant before them."""
        pairs_of = pairs_of or rows.__getitem__
        start, n = 0, len(rows)
        while start < n:
            if start or self.graph is None or not np.array_equal(pairs_of(start), self._pairs):
                self._pairs = pairs_of(start)
                self.graph = self._graph(self._pairs, m)
            stop = start + 1
            if stop < n:
                changed = np.flatnonzero((rows[stop:] != rows[start]).any(axis=1))
                stop = stop + int(changed[0]) if len(changed) else n
            yield self.graph, start, stop
            start = stop

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
            for graph, start, stop in self._take(distances < self.radius, positions.shape[1]):
                yield graph, distances[start:stop]

    def graphs(self, positions: np.ndarray):
        """Yields the graphs of the instants of :meth:`runs` as runs
        (graph, n) of n consecutive instants, the same graph objects at the
        same instants, without the distances of every pair at every instant.

        The first instants get a full chunk of condensed distances, whose
        last instant becomes the anchor.  The next instants are taken from
        their bands around the anchor (see :meth:`_band_runs`): only the
        pairs near the radius are evaluated.  Where a band would hold more
        than _BAND_SHARE of the pairs, the sweep computes a full chunk again
        and anchors anew at its end.  Before it tries a band, it estimates
        the band at the horizon, the last instant of the next full chunk, by
        the diagonal of the displacements' bounding box, which is at least
        2 rho: where that holds too many pairs, no band would outlast the
        chunk.  After k such estimates fail in a row, the next 2^k - 1
        anchors are passed over, so a swarm whose neighbor relations churn
        costs about what :meth:`runs` costs.  The positions are checked to
        be finite a chunk or block of instants at a time.
        """
        positions = np.asarray(positions, dtype=float)
        if positions.ndim == 3 and not len(positions):
            return  # no instants
        positions = _shaped_positions(positions, ndim=3)
        total, m = positions.shape[:2]
        limit = int(_BAND_SHARE * m * (m - 1) // 2)
        k, chunks, failed, wait = 0, None, 0, 0
        while k < total:
            if chunks is None:
                chunks = _distance_chunks(positions[k:])
            distances = next(chunks)
            for graph, start, stop in self._take(distances < self.radius, m):
                yield graph, stop - start
            k += len(distances)
            if k == total or m < 2:
                continue
            if wait:
                wait -= 1
                continue
            span = positions[min(k + len(distances), total) - 1] - positions[k - 1]
            diagonal = math.hypot(*(span.max(axis=0) - span.min(axis=0)).tolist())
            if np.count_nonzero(np.abs(distances[-1] - self.radius) <= diagonal) > limit:
                failed += 1
                wait = 2 ** failed - 1
                continue
            failed = 0
            end = yield from self._band_runs(positions, k, distances[-1], limit)
            if end > k:  # the next full chunk starts off the chunks' grid
                k, chunks = end, None

    def _band_runs(self, positions: np.ndarray, k: int, anchor: np.ndarray, limit: int):
        """Yields the runs (graph, n) of the instants from k on for as long
        as each one's band around the anchor, instant k - 1 with the
        condensed distances ``anchor``, holds at most ``limit`` pairs, and
        returns the first instant it did not take.

        Instant t is evaluated only at the pairs within its band of the
        radius, 2 rho_t plus the rounding allowance (see _BAND_ROUNDING):
        no other pair can have crossed the radius since the anchor.  A block
        of instants takes the widest band among them, so their pairs are
        evaluated in one operation with the pdist arithmetic; no distance
        that overflowed makes an anchor."""
        if not np.isfinite(anchor).all():
            return k
        total, m = positions.shape[:2]
        first, second = self._pair_index(m)[:2]
        margins = np.abs(anchor - self.radius)
        order = np.argsort(margins)
        margins = margins[order]
        origin, anchor_pairs = positions[k - 1], anchor < self.radius
        window = max(1, _CHUNK_BYTES // (16 * m))
        while k < total:
            block = positions[k:k + window]
            _require_finite(block)
            bands = np.maximum.accumulate(_bands(block - origin, self.radius))
            counts = np.searchsorted(margins, bands, side="right")
            n = int(np.count_nonzero(counts <= limit))
            if not n:
                break
            band = order[:counts[n - 1]]
            n = min(n, max(1, _CHUNK_BYTES // (16 * max(len(band), 1))))
            inside = _pair_distances(block[:n], first[band], second[band]) < self.radius

            def pairs_of(j):
                pairs = anchor_pairs.copy()
                pairs[band] = inside[j]
                return pairs

            for graph, start, stop in self._take(inside, m, pairs_of):
                yield graph, stop - start
            k += n
        return k


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
    isolated = graph.degrees[rows] == 0
    p = graph.adjacency[rows] / graph.divisors[rows][:, None]
    if isolated.any():
        idx = np.where(isolated)[0]
        p[idx, rows[idx]] = 1.0
    return p


def neighbor_sums(graph: ProximityGraph, values: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The sum of the float ``values`` over each node's neighbors, written to
    ``out`` when given; 0 for a node without neighbors.

    Every neighborhood sum of the library is taken here, in one fixed
    order: a row's neighbors in index order, added by ``np.add.reduceat``.
    No BLAS product is involved, so the bits of a run do not depend on the
    BLAS build or on the CPU's kernel (the principle of Demmel and Nguyen,
    "Fast Reproducible Floating-Point Summation", ARITH 21, 2013).
    ``reduceat`` gives an empty segment the element at its start, not 0, so
    only the rows with neighbors reach it.
    """
    columns, starts = graph.neighbor_lists
    gathered = values[columns]
    if graph.self_inclusive:  # every row holds at least its own node
        return np.add.reduceat(gathered, starts, out=out)
    occupied = np.flatnonzero(graph.degrees)
    out = np.empty(graph.node_count) if out is None else out
    out.fill(0.0)
    out[occupied] = np.add.reduceat(gathered, starts[occupied])
    return out


def leader_fractions(graph: ProximityGraph,
                     leader_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alpha_i, the leader share of each node's neighborhood with the node
    itself excluded, and the size of that neighborhood.

    alpha_i is 0 where the neighborhood is empty.
    """
    mask = np.asarray(leader_mask, dtype=float)
    own = np.diagonal(graph.adjacency)
    leaders = neighbor_sums(graph, mask) - own * mask
    totals = graph.degrees - own
    fractions = np.where(totals > 0, leaders / np.where(totals > 0, totals, 1), 0.0)
    return fractions, totals


def normalized_laplacian(graph: ProximityGraph) -> np.ndarray:
    inv_sqrt = 1.0 / np.sqrt(graph.divisors)
    lap = -(graph.adjacency.astype(float) * np.outer(inv_sqrt, inv_sqrt))
    np.fill_diagonal(lap, np.diagonal(lap) + 1.0)
    return lap


_CONNECTED_TOL = 1e-9


def spectral_summary(graph: ProximityGraph) -> SpectralSummary:
    """Eigenvalues of the normalized Laplacian of the (self-inclusive) adjacency.

    The gap is max(|1 - lambda_1|, |1 - lambda_{n-1}|); the eigenvalues of
    the averaging matrix P equal 1 - lambda_i by similarity, so the gap
    computed here is exactly the consensus contraction rate.
    """
    if graph.node_count == 1:
        return SpectralSummary(eigenvalues=np.zeros(1), spectral_gap=0.0, is_connected=True)
    eigenvalues = np.sort(np.linalg.eigvalsh(normalized_laplacian(graph)))
    lam1, lam_top = eigenvalues[1], eigenvalues[-1]
    gap = max(abs(1.0 - lam1), abs(1.0 - lam_top))
    return SpectralSummary(eigenvalues=eigenvalues, spectral_gap=float(gap),
                           is_connected=bool(lam1 > _CONNECTED_TOL))
