"""run_epoch's block stepping against the loop that steps one instant at a time."""

import numpy as np
import pytest

from uniswarm import (LEADER_CONSTANT, LEADER_DYNAMIC, LEADERLESS, ConvexityError, GraphSweep,
                      ModelParams, ReferenceSchedule, closed_form_displacement, connectivity,
                      pairwise_distances, run_epoch, sample_initial)
from uniswarm import dynamics, graphs

from conftest import held_average_oracle


def _oracle_run_epoch(state, params, steps, controller=LEADERLESS, schedule=None,
                      reference_heading=0.0, integration_check="sampled", observer=None):
    """run_epoch as it was before block stepping: one instant per iteration,
    with the averaging and integration formulas written out.  Returns the
    arrays and the (a, b, c, d) of each quadrature check, in order."""
    m, tau = state.n_agents, params.tau_n
    positions = np.empty((steps + 1, m, 2))
    headings = np.empty((steps + 1, m))
    speeds = np.empty((steps + 1, m))
    references = np.full(steps, np.nan)
    connected = np.empty(steps + 1, dtype=bool)
    checks = []
    current = state.copy()
    positions[0], headings[0], speeds[0] = current.positions, current.headings, current.speeds
    mask = state.leader_mask
    segment, switch_log = 0, []
    sweep = GraphSweep(params.r_n, params.self_inclusive)
    pairs = np.triu_indices(m, 1)
    graph = None
    for k in range(steps + 1):
        previous, (graph, _) = graph, next(sweep.runs(current.positions[None]))
        if graph is not previous:
            is_connected = connectivity(graph)
        connected[k] = is_connected
        if observer is not None:
            observer(graph, pairwise_distances(current.positions)[pairs][None])
        if k == steps:
            break
        new_h = held_average_oracle(current.headings, graph.adjacency)
        new_v = held_average_oracle(current.speeds, graph.adjacency)
        if controller == LEADERLESS:
            for label, old, new in (("heading", current.headings, new_h),
                                    ("speed", current.speeds, new_v)):
                if new.max() > old.max() + 1e-12 or new.min() < old.min() - 1e-12:
                    raise ConvexityError(f"{label} envelope expanded during a leaderless step")
        else:
            if controller == LEADER_DYNAMIC:
                if schedule.maybe_advance(current.headings[None], mask, segment) is not None:
                    segment += 1
                    switch_log.append(current.sample_index)
                theta_bar = float(schedule.headings[segment])
            else:
                theta_bar = reference_heading
            references[k] = theta_bar
            vt = params.vartheta
            new_h[mask] = vt * theta_bar + (1.0 - vt) * new_h[mask]
            new_v[mask] = vt * params.v_n + (1.0 - vt) * new_v[mask]
        a, b = current.speeds, (new_v - current.speeds) / tau
        c, d = current.headings, (new_h - current.headings) / tau
        dx, dy = closed_form_displacement(a, b, c, d, tau)
        new_positions = current.positions + np.stack([dx, dy], axis=1)
        if integration_check == "full" or (integration_check == "sampled" and k % 100 == 0):
            i = k % m
            checks.append((float(a[i]), float(new_v[i] - a[i]) / tau, float(c[i]),
                           float(new_h[i] - c[i]) / tau))
        current = dynamics.SwarmState(new_positions, new_h, new_v, mask, current.sample_index + 1)
        positions[k + 1], headings[k + 1], speeds[k + 1] = new_positions, new_h, new_v
    return {"positions": positions, "headings": headings, "speeds": speeds,
            "references": references, "connected": connected,
            "switch_log": switch_log, "checks": checks}


class _LoggedSchedule:
    """Wraps a schedule.  A consultation reads the rows of its block of
    instants up to the one it switches at, or all of them; it is logged as
    ("advance", instant, switched) in ``events``, one event per row read,
    and as the rows read, the leader mask, the segment and whether it
    switched in ``consulted``.  A row's instant counts on from the rows read
    before, from instant 0; _run_both checks that the rows are the headings
    of those instants."""

    def __init__(self, schedule, events):
        self.headings = schedule.headings
        self.schedule, self.events, self.consulted = schedule, events, []
        self.instants = 0

    def maybe_advance(self, headings, leader_mask, segment):
        row = self.schedule.maybe_advance(headings, leader_mask, segment)
        read = len(headings) if row is None else row + 1
        self.consulted.append((headings[:read].copy(), leader_mask.copy(), segment,
                               row is not None))
        for j in range(read):
            self.events.append(("advance", self.instants + j, j == row))
        self.instants += read
        return row


def _instant_log():
    """An observer that keeps a copy of what it sees at each instant: it
    unrolls the (n, P) condensed distances of a run of instants on one graph."""
    seen = []

    def observe(graph, distances):
        assert distances.ndim == 2 and len(distances) >= 1
        seen.extend((graph, graph.adjacency.copy(), d.copy()) for d in distances)
    return seen, observe


def _chunk_bytes(m, instants):
    """A chunk budget that makes a sweep's chunks hold ``instants`` instants of m agents."""
    return instants * 8 * (m * (m - 1) // 2)


def _run_both(params, steps, seed, controller=LEADERLESS, headings=None, epsilon=0.5,
              reference_heading=0.3, integration_check="sampled", chunk_bytes=None):
    """run_epoch and the oracle on the same input; asserts they agree exactly
    and returns the blocks that run_epoch stepped (see _blocks).
    ``chunk_bytes``, when given, replaces the sweep's chunk budget."""
    state = sample_initial(params, seed)
    events = []
    schedule = logged = None
    if controller == LEADER_DYNAMIC:
        # one schedule object serves both runs, run_epoch's through the log
        schedule = ReferenceSchedule(headings=list(headings), epsilon=epsilon)
        logged = _LoggedSchedule(schedule, events)

    integrate = dynamics._integrate_positions
    checks = []

    def logged_integrate(positions, *args):
        events.append(("block", len(positions) - 1))
        integrate(positions, *args)

    oracle = dynamics.integrate_position_oracle

    def logged_oracle(a, b, c, d, tau, **kw):
        checks.append((a, b, c, d))
        return oracle(a, b, c, d, tau, **kw)

    distance_chunks = graphs._distance_chunks

    def logged_chunks(positions):
        for distances in distance_chunks(positions):
            events.append(("chunk", len(distances)))
            yield distances

    seen, observe = _instant_log()

    def observe_logged(graph, distances):
        start = len(seen)
        observe(graph, distances)
        events.extend(("instant", j) for j in range(start, len(seen)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_integrate_positions", logged_integrate)
        mp.setattr(dynamics, "integrate_position_oracle", logged_oracle)
        mp.setattr(graphs, "_distance_chunks", logged_chunks)
        if chunk_bytes is not None:
            mp.setattr(graphs, "_CHUNK_BYTES", chunk_bytes)
        traj = run_epoch(state, params, steps, controller=controller, schedule=logged,
                         reference_heading=reference_heading, integration_check=integration_check,
                         observer=observe_logged)
    want_seen, want_observe = _instant_log()
    want = _oracle_run_epoch(state, params, steps, controller, schedule, reference_heading,
                             integration_check, want_observe)

    for name in ("positions", "headings", "speeds"):
        assert np.array_equal(getattr(traj, name), want[name]), name
    assert np.array_equal(traj.reference_headings, want["references"], equal_nan=True)
    assert traj.switch_log == want["switch_log"]
    assert checks == want["checks"]
    assert traj.left_unit_square == bool((want["positions"] < 0).any()
                                         or (want["positions"] > 1).any())
    # the observer saw the same graphs and distances, and the same graph reuse
    assert len(seen) == len(want_seen) == steps + 1
    for (g, adj, dist), (wg, wadj, wdist) in zip(seen, want_seen):
        assert np.array_equal(adj, wadj) and np.array_equal(dist, wdist)
    reused = [a[0] is b[0] for a, b in zip(seen[1:], seen[:-1])]
    assert reused == [a[0] is b[0] for a, b in zip(want_seen[1:], want_seen[:-1])]
    assert [connectivity(g) for g, _, _ in seen] == want["connected"].tolist()
    if logged is not None:
        # the schedule read each instant once, in order, with its headings and
        # the run's leader mask, up to the instant at which the run reached its
        # last segment, or to steps - 1; the segment started at 0, never moved
        # back, and moved on by one exactly where the schedule switched, at the
        # instants of the log
        advances = [e for e in events if e[0] == "advance"]
        consulted = logged.consulted
        rows = np.concatenate([block for block, *_ in consulted])
        last = len(schedule.headings) - 1
        reached = len(traj.switch_log) == last
        assert len(rows) == len(advances) == (traj.switch_log[-1] + 1 if reached else steps)
        assert np.array_equal(rows, traj.headings[:len(rows)])
        assert all(np.array_equal(mask, traj.leader_mask) for _, mask, _, _ in consulted)
        segments = [segment for _, _, segment, _ in consulted]
        switched = [int(s) for *_, s in consulted]
        assert segments[0] == 0 and max(segments) < last
        assert all(b == a + s for a, b, s in zip(segments, segments[1:], switched))
        assert len(traj.switch_log) == segments[-1] + switched[-1]
        assert traj.switch_log == [instant for _, instant, s in advances if s]
    return _blocks(events, seen)


def _blocks(events, seen):
    """Per block: start instant k, instants stepped n, last committed instant
    end, the instant where the graph changed (None if it did not), the
    instants among k+1..end where the schedule switched, and the (first,
    last) instants of the chunks whose distances the sweep computed."""
    blocks = []
    for event in events:
        if event[0] == "block":
            k = blocks[-1]["end"] if blocks else 0
            blocks.append({"k": k, "n": event[1], "end": k, "changed": None, "switches": [],
                           "chunks": []})
        elif not blocks:
            continue  # instant 0, before the first block
        elif event[0] == "chunk":
            chunks = blocks[-1]["chunks"]
            first = chunks[-1][1] + 1 if chunks else blocks[-1]["k"] + 1
            chunks.append((first, first + event[1] - 1))
        elif event[0] == "instant":
            j = blocks[-1]["end"] = event[1]
            if seen[j][0] is not seen[j - 1][0]:
                blocks[-1]["changed"] = j
        elif event[2]:
            blocks[-1]["switches"].append(event[1])
    return blocks


def _random_params(mode, seed):
    rng = np.random.default_rng(700 + seed)
    return rng, ModelParams(
        n=int(rng.integers(3, 40)), r_n=float(rng.uniform(0.15, 0.5)),
        v_n=float(rng.uniform(0.1, 1.0)), tau_n=float(rng.uniform(0.01, 0.05)),
        alpha_n=0.0 if mode == LEADERLESS else float(rng.uniform(0.1, 0.5)),
        vartheta=float(rng.uniform(0.2, 0.9)), self_inclusive=bool(seed % 2))


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_CONSTANT, LEADER_DYNAMIC])
@pytest.mark.parametrize("seed", range(5))
def test_block_stepping_matches_per_instant_oracle(mode, seed):
    rng, params = _random_params(mode, seed)
    _run_both(params, int(rng.integers(50, 420)), seed, mode,
              headings=rng.uniform(-np.pi, np.pi, 6).tolist(),
              epsilon=float(rng.uniform(0.3, 1.0)), reference_heading=float(rng.uniform(-1.0, 1.0)))


def test_graph_change_at_first_and_last_instant_of_a_block():
    p = ModelParams(n=30, r_n=0.2, v_n=0.6, tau_n=0.02)
    blocks = _run_both(p, 400, 2)
    multi = [b for b in blocks if b["n"] > 1 and b["changed"] is not None]
    assert any(b["changed"] == b["k"] + 1 for b in multi)
    assert any(b["changed"] == b["k"] + b["n"] for b in multi)
    assert any(b["k"] + 1 < b["changed"] < b["k"] + b["n"] for b in multi)


def test_graph_returning_to_an_earlier_adjacency():
    p = ModelParams(n=12, r_n=0.25, v_n=0.5, tau_n=0.05)
    seen, observe = _instant_log()
    run_epoch(sample_initial(p, 4), p, 30, observer=observe)
    # A -> B -> A: the graph of step 20 differs from step 19's but equals an earlier one
    assert not np.array_equal(seen[20][1], seen[19][1])
    assert any(np.array_equal(seen[20][1], seen[j][1]) for j in range(19))
    _run_both(p, 30, 4)


def test_agent_becomes_isolated_without_self_loop():
    p = ModelParams(n=20, r_n=0.25, v_n=1.0, tau_n=0.05, self_inclusive=False)
    seen, observe = _instant_log()
    run_epoch(sample_initial(p, 2), p, 30, observer=observe)
    assert [k for k, (g, _, _) in enumerate(seen) if (g.degrees == 0).any()][0] == 3
    _run_both(p, 30, 2)


def test_integration_check_full_checks_every_step():
    _, params = _random_params(LEADER_CONSTANT, 1)
    _run_both(params, 150, 1, LEADER_CONSTANT, integration_check="full")
    _run_both(params, 150, 1, LEADER_CONSTANT, integration_check="off")


SWITCHING = ModelParams(n=20, alpha_n=0.15, r_n=0.3, v_n=0.3, tau_n=0.01, vartheta=0.5)
SWITCH_HEADINGS = [0.0, np.pi / 2, 0.0, -np.pi / 2, 0.0]


def test_schedule_switch_inside_a_block():
    blocks = _run_both(SWITCHING, 1500, 5, LEADER_DYNAMIC, headings=SWITCH_HEADINGS, epsilon=0.05)
    switching = [b for b in blocks if b["switches"]]
    # some block stepped past the switch and discarded the steps after it
    assert any(b["switches"][0] < b["k"] + b["n"] for b in switching)
    # a block ends at the instant it switched, where the next one starts
    assert all(b["switches"] == [b["end"]] for b in switching)


def test_switch_at_the_change_instant_is_kept():
    # a switch reads only the headings of its instant, which the old graph determined
    rng, params = _random_params(LEADER_DYNAMIC, 9)
    blocks = _run_both(params, int(rng.integers(50, 420)), 9, LEADER_DYNAMIC,
                       headings=rng.uniform(-np.pi, np.pi, 6).tolist(),
                       epsilon=float(rng.uniform(0.3, 1.0)))
    assert [b for b in blocks if b["switches"] and b["changed"] == b["switches"][0]]


@pytest.mark.parametrize("B", [1, 7, 256])
@pytest.mark.parametrize("m", [23, 130, 500])
def test_closed_form_displacement_rows_equal_whole_block(B, m):
    rng = np.random.default_rng(B * 1000 + m)
    a, b, c = rng.normal(size=(3, B, m))
    d = rng.normal(size=(B, m)) * rng.choice([1e-4, 1e-2, 1.0, 100.0], size=(B, m))
    dx, dy = closed_form_displacement(a, b, c, d, 0.01)
    for i in range(B):
        rx, ry = closed_form_displacement(a[i], b[i], c[i], d[i], 0.01)
        assert np.array_equal(dx[i], rx) and np.array_equal(dy[i], ry)


def _expanding_average(trigger):
    """The averaging kernel, except that call number ``trigger`` pushes agent
    0 one unit above the envelope of its input."""
    original = dynamics._neighbor_average
    calls = [0]

    def average(values, graph, out=None):
        out = original(values, graph, out)
        if calls[0] == trigger:
            out[0] = values.max() + 1.0
        calls[0] += 1
        return out
    return average


# a complete graph that never changes: blocks of 8, 16, 32 cover steps 0-7, 8-23, 24-55,
# and the kernel is called for headings then speeds, once per step
@pytest.mark.parametrize("step", [0, 3, 7, 8, 15, 23, 24, 40, 55])
@pytest.mark.parametrize("label", ["heading", "speed"])
def test_convexity_guard_raises_at_any_position_in_a_block(monkeypatch, step, label):
    p = ModelParams(n=10, r_n=2.0, v_n=0.2, tau_n=0.01)
    monkeypatch.setattr(dynamics, "_neighbor_average",
                        _expanding_average(2 * step + (label == "speed")))
    seen, observe = _instant_log()
    with pytest.raises(ConvexityError, match=f"{label} envelope expanded"):
        run_epoch(sample_initial(p, 0), p, 80, observer=observe)
    # as the per-instant loop: instants 0..step were observed, then the step failed
    assert len(seen) == step + 1


@pytest.mark.parametrize("spread", [0.1, 0.05, 0.02, 0.01])
def test_convexity_guard_with_changing_graph(monkeypatch, spread):
    """The kernel expands the envelope of any input whose spread is below
    ``spread``, in steps that are later discarded too; the error comes at the
    first instant whose kept headings or speeds trigger it."""
    p = ModelParams(n=25, r_n=0.4, v_n=0.5, tau_n=0.02)
    state = sample_initial(p, 5)
    traj = run_epoch(state, p, 300)
    spread_h, spread_v = (np.ptp(x, axis=1) for x in (traj.headings, traj.speeds))
    step = int(np.flatnonzero((spread_h < spread) | (spread_v < spread))[0])
    label = "heading" if spread_h[step] < spread else "speed"
    original = dynamics._neighbor_average

    def average(values, graph, out=None):
        out = original(values, graph, out)
        if values.max() - values.min() < spread:
            out[0] = values.max() + 1.0
        return out

    monkeypatch.setattr(dynamics, "_neighbor_average", average)
    seen, observe = _instant_log()
    with pytest.raises(ConvexityError, match=f"{label} envelope expanded"):
        run_epoch(state, p, 300, observer=observe)
    assert len(seen) == step + 1


# --- committing a block in chunks of instants ---------------------------------

@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_CONSTANT, LEADER_DYNAMIC])
@pytest.mark.parametrize("seed", range(2))
def test_chunks_of_one_instant_match_per_instant_oracle(mode, seed):
    rng, params = _random_params(mode, seed)
    blocks = _run_both(params, int(rng.integers(50, 200)), seed, mode,
                       headings=rng.uniform(-np.pi, np.pi, 6).tolist(),
                       epsilon=float(rng.uniform(0.3, 1.0)),
                       reference_heading=float(rng.uniform(-1.0, 1.0)),
                       chunk_bytes=_chunk_bytes(params.total_count, 1))
    assert all(first == last for b in blocks for first, last in b["chunks"])


def test_graph_change_on_chunk_boundaries():
    p = ModelParams(n=30, r_n=0.2, v_n=0.6, tau_n=0.02)
    blocks = _run_both(p, 400, 2, chunk_bytes=_chunk_bytes(30, 3))
    chunks = [(b["changed"], c) for b in blocks for c in b["chunks"]
              if b["changed"] is not None and c[0] <= b["changed"] <= c[1]]
    assert any(changed == first for changed, (first, last) in chunks if first < last)
    assert any(changed == last for changed, (first, last) in chunks if first < last)
    assert any(first < changed < last for changed, (first, last) in chunks)


def test_schedule_switch_on_chunk_boundaries():
    blocks = _run_both(SWITCHING, 1500, 5, LEADER_DYNAMIC, headings=SWITCH_HEADINGS,
                       epsilon=0.05, chunk_bytes=_chunk_bytes(SWITCHING.total_count, 2))
    switches = [(s, c) for b in blocks for s in b["switches"] for c in b["chunks"]
                if c[0] <= s <= c[1] and c[0] < c[1]]
    assert any(s == first for s, (first, last) in switches)
    assert any(s == last for s, (first, last) in switches)


def test_single_agent_swarm():
    p = ModelParams(n=1, r_n=0.3, v_n=0.5, tau_n=0.02)
    blocks = _run_both(p, 300, 3)
    # one agent's graph never changes, so every block runs to its end and doubles
    assert [b["n"] for b in blocks] == [8, 16, 32, 64, 128, 52]
    assert all(b["changed"] is None for b in blocks)


def test_non_finite_position_inside_a_chunk_raises():
    # equal headings and speeds stay put, so the positions grow by 1e307 per
    # step and overflow to inf at step 18, in the chunk of block 9..24
    p = ModelParams(n=3, r_n=0.5, v_n=1e307, tau_n=1.0)
    state = dynamics.SwarmState(positions=np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]]),
                                headings=np.zeros(3), speeds=np.full(3, 1e307),
                                leader_mask=np.zeros(3, dtype=bool))
    seen, observe = _instant_log()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="positions must be finite") as raised:
            run_epoch(state, p, 30, integration_check="off", observer=observe)
        overflow = np.array([[0.0, 0.0], [np.inf, 0.0], [1.8e308 * 0.5, 0.1]])
        with pytest.raises(ValueError) as per_instant:
            next(GraphSweep(p.r_n).runs(overflow[None]))
    assert str(raised.value) == str(per_instant.value)
    # the chunks before the one holding the overflow were committed
    assert len(seen) == 9
