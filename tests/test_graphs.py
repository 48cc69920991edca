import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uniswarm import (GraphSweep, SwarmState, build_graph, connectivity, follower_control, graphs,
                      spectral_summary)
from uniswarm.graphs import (averaging_matrix, leader_fractions, neighbor_sums, normalized_laplacian,
                             pairwise_distances)

from conftest import matrix_deviation

positions_strategy = st.integers(min_value=0, max_value=10_000).map(
    lambda s: np.random.default_rng(s).random((int(np.random.default_rng(s + 1).integers(2, 30)), 2)))


def test_two_agents_within_radius_have_degree_two():
    g = build_graph(np.array([[0.0, 0.0], [0.2, 0.0]]), 0.3)
    assert list(g.degrees) == [2, 2]


def test_singleton_graph_connected():
    g = build_graph(np.array([[0.5, 0.5]]), 0.1)
    assert g.degrees[0] == 1
    assert connectivity(g)


def test_boundary_distance_is_not_an_edge():
    g = build_graph(np.array([[0.0, 0.0], [0.3, 0.0]]), 0.3)
    assert not g.adjacency[0, 1]


def test_build_graph_input_validation():
    with pytest.raises(ValueError, match="empty swarm"):
        build_graph(np.empty((0, 2)), 0.3)
    with pytest.raises(ValueError, match="shape"):
        build_graph(np.zeros((3, 3)), 0.3)
    with pytest.raises(ValueError, match="finite"):
        build_graph(np.array([[0.0, np.nan]]), 0.3)
    with pytest.raises(ValueError, match="radius"):
        build_graph(np.zeros((2, 2)), 0.0)


def test_mean_degree_matches_boundary_truncated_expectation():
    # frozen from a 20-seed oracle run: ratios to n*pi*r^2 + 1 fell in [0.90, 0.95]
    n, r = 1000, 0.1
    ratios = [build_graph(np.random.default_rng(s).random((n, 2)), r).degrees.mean()
              / (n * math.pi * r * r + 1) for s in range(10)]
    assert all(0.8 <= q <= 1.0 for q in ratios)


def test_two_distant_agents_disconnected():
    g = build_graph(np.array([[0.0, 0.0], [0.5, 0.0]]), 0.3)
    assert not connectivity(g)


def test_complete_graph_connected():
    g = build_graph(np.random.default_rng(0).random((5, 2)) * 0.01, 1.0)
    assert g.adjacency.all()
    assert connectivity(g)


def test_random_geometric_graphs_usually_connected():
    hits = sum(connectivity(build_graph(np.random.default_rng(s).random((200, 2)), 0.3))
               for s in range(100))
    assert hits >= 95


def test_averaging_matrix_complete_graph_is_uniform():
    g = build_graph(np.random.default_rng(1).random((6, 2)) * 0.01, 1.0)
    assert np.array_equal(averaging_matrix(g), np.full((6, 6), 1.0 / 6.0))


def test_averaging_matrix_isolated_node_identity_row():
    g = build_graph(np.array([[0.0, 0.0], [5.0, 5.0]]), 0.3, self_inclusive=False)
    p = averaging_matrix(g)
    assert np.array_equal(p, np.eye(2))


def test_averaging_matrix_three_node_path():
    g = build_graph(np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.0]]), 0.3)
    p = averaging_matrix(g)
    np.testing.assert_allclose(p[1], [1 / 3, 1 / 3, 1 / 3])
    np.testing.assert_allclose(p[0], [1 / 2, 1 / 2, 0.0])


def test_complete_graph_spectrum():
    g = build_graph(np.random.default_rng(2).random((8, 2)) * 0.01, 1.0)
    s = spectral_summary(g)
    assert abs(s.spectral_gap) <= 1e-12
    np.testing.assert_allclose(np.sort(s.eigenvalues), [0.0] + [1.0] * 7, atol=1e-12)


def test_two_cliques_give_repeated_zero_eigenvalue():
    pos = np.vstack([np.random.default_rng(3).random((4, 2)) * 0.01,
                     np.random.default_rng(4).random((4, 2)) * 0.01 + 5.0])
    s = spectral_summary(build_graph(pos, 0.5))
    assert not s.is_connected
    assert s.eigenvalues[1] < 1e-12
    assert s.spectral_gap == pytest.approx(1.0)


def test_singleton_spectral_summary():
    s = spectral_summary(build_graph(np.array([[0.5, 0.5]]), 0.1))
    assert s.spectral_gap == 0.0 and s.is_connected


def test_connectivity_agrees_with_spectral_test():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        g = build_graph(rng.random((int(rng.integers(2, 31)), 2)), float(rng.uniform(0.1, 0.8)))
        s = spectral_summary(g)
        assert connectivity(g) == s.is_connected


def test_eigenvalue_range():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g = build_graph(rng.random((int(rng.integers(2, 31)), 2)), 0.4)
        eigs = spectral_summary(g).eigenvalues
        assert eigs.min() >= -1e-9
        assert eigs.max() < 2.0  # strict with the self-inclusive convention


def test_self_inclusive_toggle_shifts_every_degree_by_one():
    pos = np.random.default_rng(5).random((20, 2))
    with_self = build_graph(pos, 0.3)
    without = build_graph(pos, 0.3, self_inclusive=False)
    assert np.array_equal(with_self.degrees, without.degrees + 1)


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=2, max_value=25))
@settings(max_examples=40, deadline=None)
def test_row_sums_are_one(seed, m):
    g = build_graph(np.random.default_rng(seed).random((m, 2)), 0.4)
    np.testing.assert_allclose(averaging_matrix(g).sum(axis=1), 1.0, atol=1e-12)


def test_matrix_deviation_identical_is_zero():
    p = averaging_matrix(build_graph(np.random.default_rng(6).random((10, 2)), 0.4))
    assert matrix_deviation(p, p) == 0.0


def test_matrix_deviation_rank_one():
    rng = np.random.default_rng(7)
    p = rng.random((10, 10))
    u, v = rng.random(10), rng.random(10)
    got = matrix_deviation(p + np.outer(u, v), p)
    assert got == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)


def test_matrix_deviation_matches_power_iteration():
    rng = np.random.default_rng(8)
    a, b = rng.random((10, 10)), rng.random((10, 10))
    diff = a - b
    gram = diff.T @ diff
    x = rng.random(10)
    for _ in range(2000):
        x = gram @ x
        x /= np.linalg.norm(x)
    oracle = math.sqrt(x @ gram @ x)
    assert matrix_deviation(a, b) == pytest.approx(oracle, abs=1e-8)


def test_matrix_deviation_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        matrix_deviation(np.eye(3), np.eye(4))


def test_pairwise_distances_symmetric_zero_diagonal():
    d = pairwise_distances(np.random.default_rng(10).random((7, 2)))
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)


def test_normalized_laplacian_matches_averaging_spectrum():
    g = build_graph(np.random.default_rng(11).random((15, 2)), 0.4)
    lam = np.sort(np.linalg.eigvalsh(normalized_laplacian(g)))
    mu = np.sort(np.linalg.eigvals(averaging_matrix(g)).real)
    np.testing.assert_allclose(np.sort(1.0 - lam), mu, atol=1e-9)


# --- GraphSweep --------------------------------------------------------------

def test_graph_sweep_reuses_the_unchanged_graph():
    pos = np.array([[0.0, 0.0], [0.2, 0.0], [0.5, 0.0]])
    sweep = GraphSweep(0.3)
    first, distances = next(sweep.runs(pos[None]))
    assert np.array_equal(distances[0], pairwise_distances(pos)[np.triu_indices(3, 1)])
    assert next(sweep.runs(pos[None] + 0.01))[0] is first  # same neighbor sets
    moved = pos.copy()
    moved[2, 0] = 0.45  # 2 joins 1: B
    second, _ = next(sweep.runs(moved[None]))
    assert second is not first
    assert np.array_equal(second.adjacency, build_graph(moved, 0.3).adjacency)
    assert np.array_equal(second.degrees, build_graph(moved, 0.3).degrees)
    third, _ = next(sweep.runs(pos[None]))  # back to A: a new object equal to the first
    assert third is not second and third is not first
    assert np.array_equal(third.adjacency, first.adjacency)


@pytest.mark.parametrize("self_inclusive", [True, False])
def test_graph_sweep_matches_build_graph(self_inclusive):
    # and a sparse swarm, about 15 neighbors of 2000 agents
    for m, radius, instants in ((25, 0.3, 20), (2000, 0.05, 4)):
        rng = np.random.default_rng(12)
        pos = rng.random((m, 2))
        sweep = GraphSweep(radius, self_inclusive)
        for _ in range(instants):
            pos = pos + rng.normal(scale=0.02, size=pos.shape)
            (got, _), want = next(sweep.runs(pos[None])), build_graph(pos, radius, self_inclusive)
            assert np.array_equal(got.adjacency, want.adjacency)
            assert np.array_equal(got.degrees, want.degrees)
            assert np.array_equal(got.edges, want.edges)
            assert (got.radius, got.self_inclusive) == (want.radius, want.self_inclusive)


def test_graph_sweep_input_validation():
    with pytest.raises(ValueError, match="radius"):
        GraphSweep(0.0)
    sweep = GraphSweep(0.3)
    with pytest.raises(ValueError, match="finite"):
        next(sweep.runs(np.array([[0.0, np.inf], [0.1, 0.1]])[None]))
    with pytest.raises(ValueError, match="shape"):
        next(sweep.runs(np.zeros((3, 3))[None]))


@pytest.mark.parametrize("instants", [1, 3, None])
@pytest.mark.parametrize("self_inclusive", [True, False])
def test_graph_sweep_runs_match_per_instant_advance(monkeypatch, instants, self_inclusive):
    rng = np.random.default_rng(13)
    steps = np.cumsum(rng.normal(scale=0.03, size=(60, 20, 2)), axis=0)
    positions = rng.random((20, 2)) + steps
    if instants is not None:
        monkeypatch.setattr(graphs, "_CHUNK_BYTES", instants * 8 * (20 * 19 // 2))
    want_sweep = GraphSweep(0.3, self_inclusive)
    want = []
    for x in positions:  # one instant at a time
        graph, distances = next(want_sweep.runs(x[None]))
        want.append((graph, distances[0]))
    sweep = GraphSweep(0.3, self_inclusive)
    got = [(graph, d) for graph, run in sweep.runs(positions) for d in run]
    assert len(got) == len(want)
    for (graph, d), (want_graph, want_d) in zip(got, want):
        assert np.array_equal(d, want_d)
        assert np.array_equal(graph.adjacency, want_graph.adjacency)
        assert np.array_equal(graph.degrees, want_graph.degrees)
    # the same reuse of graph objects, and the sweep ends on the last graph
    assert ([a[0] is b[0] for a, b in zip(got[1:], got[:-1])]
            == [a[0] is b[0] for a, b in zip(want[1:], want[:-1])])
    assert sweep.graph is got[-1][0]
    assert list(GraphSweep(0.3).runs(positions[:0])) == []


def test_graph_sweep_runs_check_each_chunk_for_finite_positions(monkeypatch):
    monkeypatch.setattr(graphs, "_CHUNK_BYTES", 4 * 8 * 3)  # 4 instants of 3 pairs per chunk
    positions = np.tile(np.array([[0.0, 0.0], [0.2, 0.0], [0.5, 0.0]]), (10, 1, 1))
    positions[6, 1, 0] = np.nan
    sweep = GraphSweep(0.3)
    runs = sweep.runs(positions)
    graph, distances = next(runs)
    assert len(distances) == 4  # the first chunk, on one graph
    with pytest.raises(ValueError, match="positions must be finite"):
        next(runs)
    assert sweep.graph is graph
    with pytest.raises(ValueError, match=r"shape \(n, m, 2\)"):
        next(GraphSweep(0.3).runs(np.zeros((2, 3, 3))))


# --- the condensed pair map -----------------------------------------------------

@pytest.mark.parametrize("sizes", [range(1, 301), [1000, 2000, 5000]])
def test_condensed_pairs_are_triu_indices(sizes):
    for m in sizes:
        first, second = np.triu_indices(m, 1)
        block = 1 << 20  # pairs mapped at a time, to keep m = 5000 small
        for start in range(0, len(first), block):
            k = np.arange(start, min(start + block, len(first)))
            i, j = graphs._condensed_pairs(k, m)
            assert np.array_equal(i, first[k]) and np.array_equal(j, second[k]), m


@pytest.mark.parametrize("m", [10**4, 10**5])
def test_condensed_pairs_at_row_boundaries(m):
    # row i holds the pairs (i, i+1), ..., (i, m-1) from i(2m-1-i)/2 on
    want = {}
    for row in (0, 1, 2, m // 2, m - 3, m - 2):
        start = row * (2 * m - 1 - row) // 2
        want[start] = (row, row + 1)
        want[start + m - 2 - row] = (row, m - 1)
        if row:
            want[start - 1] = (row - 1, m - 1)
    assert max(want) == m * (m - 1) // 2 - 1  # the last pair, (m-2, m-1)
    k = np.array(sorted(want))
    i, j = graphs._condensed_pairs(k, m)
    assert list(zip(i.tolist(), j.tolist())) == [want[key] for key in k.tolist()]


@pytest.mark.parametrize("self_inclusive", [True, False])
def test_sweep_graphs_build_no_dense_matrix(self_inclusive):
    """A graph is its edges: the sweep, the neighbor sums, the leader shares
    and an agent's control read them alone, and the m x m matrix is built
    only when asked for, once."""
    positions = _marked_swarm(130, 0.15, seed=3)
    steps = np.random.default_rng(4).normal(scale=0.01, size=(40, 130, 2))
    walk = positions + np.cumsum(steps, axis=0)
    mask = np.arange(130) % 4 == 0
    state = SwarmState(positions=positions, headings=np.zeros(130), speeds=np.ones(130),
                       leader_mask=mask)
    graphs_seen = [graph for graph, _ in GraphSweep(0.15, self_inclusive).runs(walk)]
    graphs_seen += [graph for graph, _ in GraphSweep(0.15, self_inclusive).graphs(walk)]
    assert len({id(graph) for graph in graphs_seen}) > 2
    for graph in graphs_seen:
        assert graph.divisors.min() >= 1
        neighbor_sums(graph, mask.astype(float))
        leader_fractions(graph, mask)
        follower_control(0, state, graph, 0.01)
        assert "adjacency" not in vars(graph)
    built = build_graph(walk[-1], 0.15, self_inclusive)
    assert "adjacency" not in vars(built)
    assert np.array_equal(graphs_seen[-1].adjacency, built.adjacency)
    assert graphs_seen[-1].adjacency is graphs_seen[-1].adjacency


# --- condensed distances -------------------------------------------------------

@st.composite
def _swarm_instants(draw):
    """(n, m, 2) positions of a few instants: m up to 130, on both sides of the
    pdist threshold, coordinates of either sign at one magnitude from 1e-300
    to 1e300, and some agents on top of others."""
    m = draw(st.one_of(st.sampled_from([1, 2, 63, 64]), st.integers(1, 130)))
    n = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.integers(-300, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = rng.uniform(-1.0, 1.0, (n, m, 2)) * scale
    for k, i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1),
                                           st.integers(0, m - 1)), max_size=4)):
        positions[k, i] = positions[k, j]
    return positions


@given(_swarm_instants(), st.sampled_from([1, 2, 3, None]), st.booleans())
@settings(max_examples=150, deadline=None)
def test_distance_chunks_and_sweep_match_the_dense_matrices(positions, instants, self_inclusive):
    n, m, _ = positions.shape
    pairs = np.triu_indices(m, 1)
    # a radius equal to one pair's distance, which is then not an edge
    distance = pairwise_distances(positions[0])[0, -1]
    radius = float(distance) if 0 < distance < np.inf else 1.0
    with pytest.MonkeyPatch.context() as mp:
        if instants is not None:
            mp.setattr(graphs, "_CHUNK_BYTES", instants * 8 * max(len(pairs[0]), 1))
        chunks = list(graphs._distance_chunks(positions))
        runs = list(GraphSweep(radius, self_inclusive).runs(positions))
    sizes = [len(c) for c in chunks]
    assert sum(sizes) == n
    if instants is not None:
        assert sizes == [min(instants, n - k) for k in range(0, n, instants)]
    for x, d in zip(positions, np.concatenate(chunks)):
        assert np.array_equal(d, pairwise_distances(x)[pairs])
    graphs_seen = [graph for graph, distances in runs for _ in distances]
    assert len(graphs_seen) == n
    for x, graph in zip(positions, graphs_seen):
        want = build_graph(x, radius, self_inclusive)
        assert np.array_equal(graph.adjacency, want.adjacency)
        assert np.array_equal(graph.degrees, want.degrees)


@pytest.mark.parametrize("m", [2, 23, 64, 130])
@pytest.mark.parametrize("instants", [1, 3])
def test_distance_chunks_take_turns_in_the_buffers(monkeypatch, m, instants):
    positions = np.random.default_rng(m).uniform(-1.0, 1.0, (8, m, 2))
    pairs = m * (m - 1) // 2
    monkeypatch.setattr(graphs, "_CHUNK_BYTES", instants * 8 * pairs)
    buffers = graphs._distance_buffers(positions)
    assert buffers.shape == (2, instants, pairs)
    assert graphs._distance_buffers(positions[:2]).shape == (2, min(instants, 2), pairs)
    want = list(graphs._distance_chunks(positions))
    got = graphs._distance_chunks(positions, buffers)
    for i, chunk in enumerate(want):
        distances = next(got)
        assert np.shares_memory(distances, buffers[i % 2])
        assert np.array_equal(distances, chunk)
    assert next(got, None) is None


def test_sweep_pair_at_exactly_the_radius_is_no_edge():
    positions = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    sweep = GraphSweep(5.0)
    graph, distances = next(sweep.runs(positions[None]))
    assert distances[0, 0] == 5.0  # the pair (0, 1)
    assert not graph.adjacency[0, 1] and not graph.adjacency[1, 0]
    assert graph.adjacency[0, 2] and graph.adjacency[1, 2]
    assert np.array_equal(graph.adjacency, build_graph(positions, 5.0).adjacency)


@pytest.mark.parametrize("self_inclusive", [True, False])
def test_sweep_adjacency_equals_squareform_at_every_agent_count(self_inclusive):
    """The sweep scatters a changed graph's condensed pairs into an m x m
    adjacency with flat indices kept per agent count; one sweep goes through
    every count, so the indices are rebuilt whenever m changes."""
    from scipy.spatial.distance import squareform

    sweep = GraphSweep(0.15, self_inclusive)
    for m in (1, 2, 63, 64, 130, 500, 63):
        positions = np.random.default_rng(m).random((m, 2))
        graph, distances = next(sweep.runs(positions[None]))
        want = squareform(distances[0] < 0.15, checks=False)
        np.fill_diagonal(want, self_inclusive)
        assert graph.adjacency.dtype == bool
        assert np.array_equal(graph.adjacency, want)
        assert np.array_equal(graph.adjacency, graph.adjacency.T)
        assert np.array_equal(graph.adjacency, build_graph(positions, 0.15, self_inclusive).adjacency)
        assert np.array_equal(graph.degrees, want.sum(axis=1))


def _marked_swarm(m: int, radius: float, seed: int) -> np.ndarray:
    """m random agents in the unit square, of which, as far as there are
    agents for them, agent 0 sits far from all others, agents 1 and 2 at one
    point, and agents 3 and 4 exactly ``radius`` apart."""
    positions = np.random.default_rng(seed).random((m, 2))
    marked = [[10.0, 10.0], [0.5, 0.5], [0.5, 0.5], [0.0, 0.75], [radius, 0.75]]
    positions[:5] = marked[:m]
    return positions


@pytest.mark.parametrize("m, radius", [(1, 0.15), (2, 0.15), (23, 0.3), (130, 0.15),
                                       (500, 0.15), (2000, 0.05)])
@pytest.mark.parametrize("self_inclusive", [True, False])
def test_sweep_graph_equals_the_dense_derivation(m, radius, self_inclusive):
    """A changed graph of the sweep gets its adjacency, degrees and neighbor
    lists from the flat indices of its true pairs; they equal what the
    dense matrix of strict-< distances gives."""
    positions = _marked_swarm(m, radius, seed=m)
    graph, distances = next(GraphSweep(radius, self_inclusive).runs(positions[None]))
    dense = pairwise_distances(positions) < radius
    np.fill_diagonal(dense, self_inclusive)
    degrees = dense.sum(axis=1)
    assert np.array_equal(graph.adjacency, dense)
    assert graph.degrees.dtype == degrees.dtype
    assert np.array_equal(graph.degrees, degrees)
    assert np.array_equal(graph.edges, np.flatnonzero(dense))
    columns, starts = graph.neighbor_lists
    assert np.array_equal(columns, np.flatnonzero(dense) % m)
    assert np.array_equal(starts, np.cumsum(degrees) - degrees)
    assert degrees[0] == self_inclusive  # agent 0 is isolated
    if m >= 5:
        assert dense[1, 2] and dense[2, 1]  # coincident agents are neighbors
        assert distances[0, 3 * m - 6] == radius  # the pair (3, 4), d == r: no edge
        assert not dense[3, 4] and not dense[4, 3]


# --- GraphSweep.graphs: the graphs from the pairs near the radius -----------

def _instant_graphs(runs):
    """The graph of each instant of the (graph, distances) or (graph, n) runs."""
    return [graph for graph, run in runs
            for _ in range(run if isinstance(run, int) else len(run))]


def _assert_graphs_match_runs(positions, radius, self_inclusive=True):
    """GraphSweep.graphs gives build_graph's graph at every instant, and new
    graph objects at the same instants as GraphSweep.runs."""
    want = _instant_graphs(GraphSweep(radius, self_inclusive).runs(positions))
    sweep = GraphSweep(radius, self_inclusive)
    got = _instant_graphs(sweep.graphs(positions))
    assert len(got) == len(want) == len(positions)
    for x, graph in zip(positions, got):
        built = build_graph(x, radius, self_inclusive)
        assert np.array_equal(graph.adjacency, built.adjacency)
        assert np.array_equal(graph.degrees, built.degrees)
        assert np.array_equal(graph.edges, built.edges)
        assert (graph.radius, graph.self_inclusive) == (built.radius, built.self_inclusive)
    assert ([a is b for a, b in zip(got[1:], got[:-1])]
            == [a is b for a, b in zip(want[1:], want[:-1])])
    assert sweep.graph is got[-1]


@st.composite
def _random_walks(draw):
    """(n, m, 2) positions of a random walk, a radius and a chunk size.

    Steps of 1e-3 r to 1e2 r take the band path, its fallback to a full chunk
    and the re-anchoring; coordinates of one magnitude from 1e-300 to 1e300,
    sometimes with a common drift far larger than the swarm; some agents on
    top of others; and a radius at one pair's distance at one instant or one
    ulp to either side of it."""
    m = draw(st.sampled_from([1, 2, 23, 63, 64, 130]))
    n = draw(st.integers(1, 40))
    scale = 10.0 ** draw(st.integers(-300, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = 0.3 * 10.0 ** draw(st.floats(-3, 2))
    walk = rng.uniform(-1.0, 1.0, (m, 2)) + np.cumsum(rng.normal(scale=step, size=(n, m, 2)),
                                                      axis=0)
    if draw(st.booleans()):
        walk += np.arange(n)[:, None, None] * draw(st.sampled_from([1e3, 1e8]))
    with np.errstate(over="ignore"):
        positions = walk * scale
    # a walk far from the origin at 1e300 can overflow to inf, which the
    # sweep rejects; that case has its own test below
    assume(np.isfinite(positions).all())
    for k, i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1),
                                           st.integers(0, m - 1)), max_size=4)):
        positions[k, i] = positions[k, j]
    distance = pairwise_distances(positions[draw(st.integers(0, n - 1))])[0, -1]
    radius = float(distance) if 0 < distance < np.inf else 0.3 * scale
    radius = draw(st.sampled_from([radius, np.nextafter(radius, 0), np.nextafter(radius, np.inf)]))
    return positions, radius, draw(st.sampled_from([1, 2, 3, None]))


@given(_random_walks(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_sweep_graphs_match_build_graph_and_runs(walk, self_inclusive):
    positions, radius, instants = walk
    m = positions.shape[1]
    with pytest.MonkeyPatch.context() as mp:
        if instants is not None:
            mp.setattr(graphs, "_CHUNK_BYTES", instants * 8 * max(m * (m - 1) // 2, 1))
        _assert_graphs_match_runs(positions, radius, self_inclusive)


@given(_random_walks(), st.data())
@settings(max_examples=50, deadline=None)
def test_sweep_graphs_raise_for_a_position_that_is_not_finite(walk, data):
    positions, radius, _ = walk
    n, m, _ = positions.shape
    k, i = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))
    positions[k, i, data.draw(st.integers(0, 1))] = data.draw(
        st.sampled_from([np.nan, np.inf, -np.inf]))
    for sweep in (GraphSweep(radius).runs, GraphSweep(radius).graphs):
        with pytest.raises(ValueError, match="^positions must be finite$"):
            list(sweep(positions))


def _crossing(instants: int = 12) -> np.ndarray:
    """Agent 1 walks towards agent 0 by 0.1 per instant, from 1.25 away, and
    crosses the radius 1 at instant 3; eight agents stand far from every other."""
    positions = np.zeros((instants, 10, 2))
    positions[:, 1, 0] = 1.25 - 0.1 * np.arange(instants)
    positions[:, 2:, 0] = 10.0 * np.arange(2, 10)
    return positions


def test_sweep_graphs_take_a_crossing_pair_from_its_band(monkeypatch):
    # one instant per full chunk, so instant 0 is the anchor and the band path
    # takes the rest: the crossing pair enters the band, 2 rho_t = 0.1 t, at t = 3
    monkeypatch.setattr(graphs, "_CHUNK_BYTES", 8 * 45)
    chunks, rows = graphs._distance_chunks, []

    def counting(positions):
        for chunk in chunks(positions):
            rows.append(len(chunk))
            yield chunk

    monkeypatch.setattr(graphs, "_distance_chunks", counting)
    positions = _crossing()
    _assert_graphs_match_runs(positions, 1.0)
    assert rows[-1:] == [1] and sum(rows) == 1 + len(positions)  # runs' own rows, and one
    # the mutation: half the drift bound leaves the pair out of the band at t = 3
    spread = graphs._spread
    monkeypatch.setattr(graphs, "_spread", lambda d: (spread(d)[0] / 2, spread(d)[1]))
    got = _instant_graphs(GraphSweep(1.0).graphs(positions))
    assert not got[3].adjacency[0, 1] and build_graph(positions[3], 1.0).adjacency[0, 1]


def test_sweep_graphs_without_pairs_or_instants():
    positions = np.random.default_rng(5).random((7, 1, 2))
    ((graph, n),) = GraphSweep(0.3).graphs(positions)
    assert n == 7 and graph.adjacency.tolist() == [[True]]
    assert list(GraphSweep(0.3).graphs(positions[:0])) == []
    with pytest.raises(ValueError, match=r"shape \(n, m, 2\)"):
        next(GraphSweep(0.3).graphs(np.zeros((2, 3, 3))))


# --- the neighbor-sum kernel ----------------------------------------------------

def _graph_with_isolated_nodes(m: int, self_inclusive: bool, seed: int):
    """A random graph of m agents in which the first, a middle and the last
    agent sit far from the others and from each other."""
    rng = np.random.default_rng(seed)
    positions = rng.random((m, 2))
    for i in sorted({0, m // 2, m - 1}):
        positions[i] = (10.0 + 3.0 * i, -5.0)
    radius = min(0.5, 3.0 / math.sqrt(m))
    return build_graph(positions, radius, self_inclusive=self_inclusive)


def _row_sums_at_offset(values: np.ndarray, neighbors: np.ndarray, offset: int) -> float:
    """A reduceat over one row's neighbor values alone, placed ``offset``
    floats into a fresh buffer."""
    buffer = np.empty(len(neighbors) + offset)
    buffer[offset:] = values[neighbors]
    return np.add.reduceat(buffer[offset:], [0])[0]


@pytest.mark.parametrize("m", [1, 2, 23, 130, 500])
@pytest.mark.parametrize("self_inclusive", [True, False])
def test_neighbor_sums_take_each_row_in_index_order(m, self_inclusive):
    graph = _graph_with_isolated_nodes(m, self_inclusive, seed=m)
    rng = np.random.default_rng(m + 1)
    for values in (rng.random(m), rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8, m)):
        for offset in (0, 1, 3):
            placed = np.empty(m + offset)[offset:]
            placed[:] = values
            sums = neighbor_sums(graph, placed)
            for i, row in enumerate(graph.adjacency):
                neighbors = np.flatnonzero(row)
                if not len(neighbors):
                    assert sums[i] == 0.0
                    continue
                # bit-equal to the row summed alone, at any memory offset
                assert sums[i] == _row_sums_at_offset(values, neighbors, offset)
                # and within the rounding of any summation order of the row
                terms = values[neighbors].tolist()
                bound = len(terms) * np.finfo(float).eps * math.fsum(map(abs, terms))
                assert abs(sums[i] - math.fsum(terms)) <= bound
    if not self_inclusive:
        assert (graph.degrees == 0).sum() == min(m, 3)


@pytest.mark.parametrize("self_inclusive", [True, False])
def test_neighbor_sums_write_out_and_zero_the_empty_rows(self_inclusive):
    graph = _graph_with_isolated_nodes(23, self_inclusive, seed=4)
    values = np.random.default_rng(5).random(23)
    out = np.full(23, np.nan)
    assert neighbor_sums(graph, values, out=out) is out
    assert np.array_equal(out, neighbor_sums(graph, values))
    empty = graph.degrees == 0
    assert empty.any() == (not self_inclusive)
    assert (out[empty] == 0.0).all()


def test_neighbor_sums_without_any_edge():
    graph = build_graph(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), 0.5, self_inclusive=False)
    assert np.array_equal(neighbor_sums(graph, np.array([1.0, 2.0, 3.0])), np.zeros(3))


def test_neighbor_lists_are_each_row_in_index_order():
    graph = _graph_with_isolated_nodes(23, False, seed=6)
    columns, starts = graph.neighbor_lists
    assert graph.neighbor_lists is graph.neighbor_lists  # built once per graph
    ends = np.append(starts[1:], len(columns))
    for row, start, end in zip(graph.adjacency, starts, ends):
        assert columns[start:end].tolist() == np.flatnonzero(row).tolist()


@pytest.mark.parametrize("m", [2, 23, 130, 500])
@pytest.mark.parametrize("self_inclusive", [True, False])
def test_leader_counts_are_exact_integers(m, self_inclusive):
    graph = _graph_with_isolated_nodes(m, self_inclusive, seed=m + 2)
    mask = np.random.default_rng(m + 3).random(m) < 0.3
    counts = (graph.adjacency & mask).sum(axis=1)
    assert np.array_equal(neighbor_sums(graph, mask.astype(float)), counts)
    fractions, totals = leader_fractions(graph, mask)
    own = np.diagonal(graph.adjacency) & mask
    assert np.array_equal(totals, graph.degrees - np.diagonal(graph.adjacency))
    expected = np.where(totals > 0, (counts - own) / np.maximum(totals, 1), 0.0)
    assert np.array_equal(fractions, expected)
