import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uniswarm import (GraphSweep, ModelParams, ReferenceSchedule, RunConfig, RunPass, build_graph,
                      connectivity, geometric_envelope_audit, metrics_baseline, recursion_audit,
                      ring_containment_check, run, run_epoch, sample_initial, step_metrics,
                      sync_detect)
from uniswarm import graphs, load_trajectory, metrics
from uniswarm.dynamics import LEADER_CONSTANT, LEADER_DYNAMIC, LEADERLESS, SwarmState
from uniswarm.graphs import (averaging_matrix, averaging_rows, leader_fractions,
                             pairwise_distances)
from uniswarm.metrics import (FAIL, PASS, REPORT, SKIP, EnvelopeAuditReport, StepMetrics,
                              _audit_block, _envelope_integral, write_metrics_csv)

from conftest import envelope_integral_oracle, make_state, matrix_deviation


def _metrics_for(state, params, reference=float("nan")):
    return step_metrics(state, metrics_baseline(state, params), reference_heading=reference,
                        reference_speed=reference)


def test_step_metrics_initial_state_all_zero(small_params):
    state = sample_initial(small_params, 0)
    m = _metrics_for(state, small_params)
    assert m.max_distance_drift == 0.0 and m.p_deviation == 0.0
    assert m.alpha_drift == 0.0
    assert np.isnan(m.tracking_theta)


def test_step_metrics_synchronized_state(small_params):
    state = sample_initial(small_params, 0)
    state.headings[:] = 0.4
    state.speeds[:] = 0.1
    m = _metrics_for(state, small_params, reference=0.4)
    assert m.delta_theta == 0.0 and m.delta_v == 0.0
    assert m.tracking_theta == 0.0


def test_step_metrics_three_agent_hand_values():
    p = ModelParams(n=3, r_n=0.3, v_n=0.2, tau_n=0.01)
    initial = SwarmState(positions=np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.0]]),
                         headings=np.array([0.1, 0.4, -0.2]),
                         speeds=np.array([0.05, 0.2, 0.1]),
                         leader_mask=np.array([False, False, True]))
    m = step_metrics(initial, metrics_baseline(initial, p), reference_heading=0.0,
                     reference_speed=0.2)
    assert m.delta_theta == pytest.approx(0.6)
    assert m.delta_v == pytest.approx(0.15)
    assert m.tracking_theta == pytest.approx(0.4)
    assert m.tracking_v == pytest.approx(0.15)
    assert not m.connected is None


def test_step_metrics_agent_count_mismatch(small_params):
    a, b = sample_initial(small_params, 0), make_state(3, seed=1)
    with pytest.raises(ValueError, match="agent count"):
        step_metrics(b, metrics_baseline(a, small_params))


def _p_deviation(positions, initial_positions, radius, self_inclusive):
    """step_metrics' p_deviation next to the dense ||P(t_k) - P(0)|| oracle."""
    m = len(positions)
    params = ModelParams(n=m, r_n=radius, v_n=0.1, tau_n=0.01, self_inclusive=self_inclusive)

    def state(x):
        return SwarmState(positions=np.asarray(x, dtype=float), headings=np.zeros(m),
                          speeds=np.zeros(m), leader_mask=np.zeros(m, dtype=bool))

    got = step_metrics(state(positions), metrics_baseline(state(initial_positions), params))
    dense = matrix_deviation(
        averaging_matrix(build_graph(positions, radius, self_inclusive)),
        averaging_matrix(build_graph(initial_positions, radius, self_inclusive)))
    return got.p_deviation, dense


@pytest.mark.parametrize("seed", range(24))
def test_p_deviation_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 40))
    radius = float(rng.uniform(0.1, 0.5))
    initial = rng.random((m, 2))
    moved = initial + rng.normal(scale=0.05, size=(m, 2))
    got, dense = _p_deviation(moved, initial, radius, self_inclusive=bool(seed % 2))
    assert abs(got - dense) <= 1e-12 * max(1.0, dense)


FAR = (5.0, 5.0)


@pytest.mark.parametrize("isolated_at", ["initial", "now", "both"])
def test_p_deviation_isolated_agent_without_self_loop(isolated_at):
    # with self_inclusive=False an isolated agent has an identity row in P
    rng = np.random.default_rng(17)
    initial = rng.random((12, 2))
    moved = initial + rng.normal(scale=0.03, size=(12, 2))
    if isolated_at in ("initial", "both"):
        initial[0] = FAR
    if isolated_at in ("now", "both"):
        moved[0] = (-FAR[0], FAR[1])
    got, dense = _p_deviation(moved, initial, 0.4, self_inclusive=False)
    assert dense > 0.0
    assert abs(got - dense) <= 1e-12 * dense


def test_p_deviation_coincident_agents():
    rng = np.random.default_rng(18)
    initial = rng.random((10, 2))
    initial[1] = initial[0]
    moved = initial + rng.normal(scale=0.05, size=(10, 2))
    moved[3] = moved[2] = moved[0]
    for self_inclusive in (True, False):
        got, dense = _p_deviation(moved, initial, 0.35, self_inclusive)
        assert abs(got - dense) <= 1e-12 * max(1.0, dense)


def test_p_deviation_exactly_zero_without_neighbor_change():
    rng = np.random.default_rng(19)
    initial = rng.random((15, 2))
    for self_inclusive in (True, False):
        got, dense = _p_deviation(initial + 1e-9, initial, 0.3, self_inclusive)
        assert got == 0.0 and dense == 0.0


def _assert_p_deviation_matches_svd(graph, initial_graph):
    """metrics._p_deviation of ``graph`` against the k = 0 graph
    ``initial_graph`` next to the dense SVD oracle, at 1e-12 relative."""
    m = initial_graph.node_count
    initial = SwarmState(positions=np.zeros((m, 2)), headings=np.zeros(m), speeds=np.zeros(m),
                         leader_mask=np.zeros(m, dtype=bool))
    got = metrics._p_deviation(graph, metrics._baseline(initial, initial_graph, None))
    dense = matrix_deviation(averaging_matrix(graph), averaging_matrix(initial_graph))
    assert dense > 0.0
    assert abs(got - dense) <= 1e-12 * dense
    return got


def test_p_deviation_of_one_changed_row():
    # a proximity graph changes rows in pairs; the norm is defined for any rows
    initial = build_graph(np.random.default_rng(20).random((30, 2)), 0.3)
    adjacency = initial.adjacency.copy()
    adjacency[4, 9] = not adjacency[4, 9]
    _assert_p_deviation_matches_svd(graphs.ProximityGraph(0.3, adjacency), initial)


@pytest.mark.parametrize("self_inclusive", [True, False])
def test_p_deviation_with_every_row_changed(self_inclusive):
    # from one cluster, a complete graph, to a ring on which each agent
    # keeps only the agents near it
    angles = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
    ring = np.column_stack((np.cos(angles), np.sin(angles)))
    initial, now = (build_graph(x, 0.5, self_inclusive) for x in (0.1 * ring, 0.3 * ring))
    assert (now.adjacency != initial.adjacency).any(axis=1).all()
    _assert_p_deviation_matches_svd(now, initial)


def test_p_deviation_is_exactly_zero_once_the_graph_returns_to_the_first():
    # A -> B -> A: the last graph is a new object with the k = 0 adjacency
    a = np.array([[0.0, 0.0], [0.2, 0.0], [0.5, 0.0]])
    b = a.copy()
    b[2, 0] = 0.45  # 2 joins 1
    instants = RunPass(SwarmState(positions=a, headings=np.zeros(3), speeds=np.zeros(3),
                                  leader_mask=np.zeros(3, dtype=bool)))
    sweep, seen = GraphSweep(0.3), []
    for x in (a, b, a):
        graph, distances = next(sweep.runs(x[None]))
        instants.observe(graph, distances)
        seen.append(graph)
    assert seen[2] is not seen[0] and np.array_equal(seen[2].adjacency, seen[0].adjacency)
    p_dev = instants._p_deviation
    assert p_dev[1] == _assert_p_deviation_matches_svd(seen[1], seen[0])
    assert [repr(p_dev[0]), repr(p_dev[2])] == ["0.0", "0.0"]


def test_envelope_integral_exact_for_linear_envelope():
    # two agents: envelope |(v1-v2)(s)| is linear when no crossing occurs
    vk = np.array([[0.0, 1.0], [0.0, 2.0]])
    vk1 = np.array([[0.0, 0.5], [0.0, 1.0]])
    got = _envelope_integral(vk, vk1, tau=2.0, substeps=16)
    assert got.shape == (2,)
    np.testing.assert_allclose(got, [2.0 * (1.0 + 0.5) / 2, 2.0 * (2.0 + 1.0) / 2], rtol=1e-12)


def test_envelope_integral_refinement_conservative():
    # the trapezoid of a convex envelope over-estimates; refinement decreases
    rng = np.random.default_rng(0)
    vk, vk1 = rng.random((5, 8)), rng.random((5, 8))
    coarse = _envelope_integral(vk, vk1, 1.0, 4)
    fine = _envelope_integral(vk, vk1, 1.0, 64)
    finest = _envelope_integral(vk, vk1, 1.0, 512)
    assert np.all(coarse >= fine - 1e-15) and np.all(fine - 1e-15 >= finest - 2e-15)


# signed zeros, subnormals and magnitudes near 1e300, next to ordinary values
EDGE_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0]),
                        st.floats(-10.0, 10.0),
                        st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _envelope_inputs(draw):
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 6)))
    return (draw(hnp.arrays(float, shape, elements=EDGE_FLOATS)),
            draw(hnp.arrays(float, shape, elements=EDGE_FLOATS)),
            draw(st.sampled_from([0.01, 1.0, 3.7])), draw(st.integers(1, 20)))


@given(_envelope_inputs())
@example((np.array([[-0.0]]), np.array([[5e-324]]), 1.0, 1))
@example((np.array([[1e300, -1e300, -0.0]]), np.array([[-1e300, 2.5e-310, 1e300]]), 0.01, 16))
@settings(max_examples=200, deadline=None)
def test_envelope_integral_matches_whole_array_oracle(inputs):
    values_k, values_k1, tau, substeps = inputs
    with np.errstate(over="ignore", invalid="ignore"):
        got = _envelope_integral(values_k, values_k1, tau, substeps)
        want = envelope_integral_oracle(values_k, values_k1, tau, substeps)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _oracle_envelope_integral(values_k, values_k1, tau, substeps):
    """The per-step envelope integral the audit used before it was vectorised."""
    s = np.linspace(0.0, 1.0, substeps + 1)
    interp = np.outer(1.0 - s, values_k) + np.outer(s, values_k1)  # (S+1, m)
    envelope = interp.max(axis=1) - interp.min(axis=1)
    return float(np.trapezoid(envelope, dx=1.0 / substeps) * tau)


def _oracle_recursion_audit(traj, substep_count=16):
    """The per-step recursion audit loop, kept as the reference for the
    vectorised one: same arithmetic, one step at a time."""
    tau = traj.params.tau_n
    verdicts, slacks = [], np.empty(traj.n_steps)
    fails, max_violation = 0, 0.0
    dist_k = pairwise_distances(traj.positions[0])
    for k in range(traj.n_steps):
        dist_k1 = pairwise_distances(traj.positions[k + 1])
        lhs = float(np.abs(dist_k1 - dist_k).max(initial=0.0))
        int_dv = _oracle_envelope_integral(traj.speeds[k], traj.speeds[k + 1], tau,
                                           substep_count)
        int_dth = _oracle_envelope_integral(traj.headings[k], traj.headings[k + 1], tau,
                                            substep_count)
        vmax = float(np.abs(traj.speeds[k]).max())
        slack = 2.0 * int_dv + 2.0 * vmax * int_dth - lhs
        slacks[k] = slack
        if slack < -1e-9:
            verdicts.append(FAIL)
            fails += 1
            max_violation = max(max_violation, -slack)
        else:
            verdicts.append(PASS)
        dist_k = dist_k1
    return verdicts, slacks, fails, max_violation


def _assert_matches_oracle(traj, substep_count=16):
    rep = recursion_audit(traj, substep_count=substep_count)
    verdicts, slacks, fails, max_violation = _oracle_recursion_audit(traj, substep_count)
    assert rep.verdicts == verdicts
    assert rep.fail_count == fails
    assert rep.max_violation == max_violation
    assert np.array_equal(rep.slacks, slacks)
    return rep


def _random_trajectory(seed, steps, m=None):
    rng = np.random.default_rng(seed)
    drawn = int(rng.integers(2, 30))
    m = drawn if m is None else m
    params = ModelParams(n=m, r_n=float(rng.uniform(0.2, 0.6)), v_n=float(rng.uniform(0.0, 0.3)),
                         tau_n=float(rng.uniform(0.005, 0.05)))
    return run_epoch(sample_initial(params, seed), params, steps)


# Elements per audit block buffer, small enough that a few hundred steps
# cross block boundaries; the library's rule needs 10^4-10^5 steps at m = 1, 2.
_SMALL_BLOCK_ELEMENTS = 2 ** 10


@pytest.mark.parametrize("steps", [1, 127, 128, 129, 441])
@pytest.mark.parametrize("seed", range(3))
def test_recursion_audit_matches_per_step_oracle(seed, steps):
    _assert_matches_oracle(_random_trajectory(seed, steps))


@pytest.mark.parametrize("m, elements", [(1, _SMALL_BLOCK_ELEMENTS), (2, _SMALL_BLOCK_ELEMENTS),
                                         (23, None), (130, None), (130, _SMALL_BLOCK_ELEMENTS)])
@pytest.mark.parametrize("substeps", [1, 16, 128])
@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 57)])
def test_recursion_audit_matches_per_step_oracle_at_block_boundaries(monkeypatch, m, elements,
                                                                     substeps, blocks, extra):
    if elements is not None:
        monkeypatch.setattr(metrics, "_AUDIT_BLOCK_ELEMENTS", elements)
    steps = blocks * _audit_block(m) + extra
    _assert_matches_oracle(_random_trajectory(m + substeps, steps, m=m), substeps)


def test_audit_block_rule():
    assert [_audit_block(m) for m in (1, 2, 23, 130, 256, 500)] == [32768, 16384, 1424, 252, 128,
                                                                   128]


@pytest.mark.parametrize("m", [1, 2, 9, 17, 23, 130])
def test_recursion_audit_signed_zero_swarm_matches_oracle(monkeypatch, m):
    # a swarm at rest whose headings and speeds are all +0 or -0: every
    # integral, and so every slack, must carry the oracle's sign
    monkeypatch.setattr(metrics, "_AUDIT_BLOCK_ELEMENTS", _SMALL_BLOCK_ELEMENTS)
    steps = 2 * _audit_block(m) + 5
    traj = _random_trajectory(m, steps, m=m)
    rng = np.random.default_rng(m)
    traj.positions[:] = traj.positions[0]
    for values in (traj.headings, traj.speeds):
        values[:] = np.where(rng.random(values.shape) < 0.5, -0.0, 0.0)
    rep = recursion_audit(traj)
    verdicts, slacks, _, _ = _oracle_recursion_audit(traj)
    assert rep.verdicts == verdicts and not slacks.any()
    assert np.array_equal(rep.slacks, slacks)
    assert np.array_equal(np.signbit(rep.slacks), np.signbit(slacks))


@pytest.mark.parametrize("substeps", [1, 3, 16, 128])
def test_recursion_audit_matches_oracle_across_substeps(substeps):
    _assert_matches_oracle(_random_trajectory(7, 40), substep_count=substeps)


def test_recursion_audit_fails_tampered_trajectory_like_oracle():
    block = _audit_block(23)
    traj = _random_trajectory(11, block + 10, m=23)
    # teleport one agent at two instants, one in each block: distances jump
    # while speeds and headings stay put, so the right-hand side cannot cover it
    for k in (5, block + 3):
        traj.positions[k, 0] += 0.5
    rep = _assert_matches_oracle(traj)
    assert rep.fail_count == 4
    assert [k for k, v in enumerate(rep.verdicts) if v == FAIL] == [4, 5, block + 2, block + 3]
    assert rep.max_violation > 0.4


def test_recursion_audit_rejects_zero_substeps():
    traj = _random_trajectory(0, 5)
    with pytest.raises(ValueError, match="substep_count"):
        recursion_audit(traj, substep_count=0)


def _first_instant(traj):
    """``traj`` cut to its first instant: a trajectory with no step to audit."""
    return dataclasses.replace(traj, times=traj.times[:1], positions=traj.positions[:1],
                               headings=traj.headings[:1], speeds=traj.speeds[:1],
                               reference_headings=traj.reference_headings[:0])


@pytest.mark.parametrize("one_instant, substeps", [(True, 16), (False, 0)])
def test_recursion_audit_checks_its_arguments_before_any_distance(monkeypatch, one_instant,
                                                                  substeps):
    calls = []

    def counting(positions, real=metrics._distance_changes):
        calls.append(len(positions))
        return real(positions)

    monkeypatch.setattr(metrics, "_distance_changes", counting)
    traj = _random_trajectory(0, 5)
    with pytest.raises(ValueError, match="instants" if one_instant else "substep_count"):
        recursion_audit(_first_instant(traj) if one_instant else traj, substep_count=substeps)
    assert calls == []
    recursion_audit(traj)
    assert calls == [6]


def test_recursion_audit_stationary_swarm():
    p = ModelParams(n=5, r_n=0.5, v_n=0.0, tau_n=0.01)
    state = sample_initial(p, 1)
    state.speeds[:] = 0.0
    traj = run_epoch(state, p, 10)
    rep = recursion_audit(traj)
    assert rep.passed and all(v == PASS for v in rep.verdicts)
    np.testing.assert_allclose(rep.slacks, 0.0, atol=1e-15)


def test_recursion_audit_synchronized_rigid_translation():
    p = ModelParams(n=5, r_n=0.5, v_n=0.2, tau_n=0.01)
    state = sample_initial(p, 2)
    state.headings[:] = 0.3
    state.speeds[:] = 0.2
    traj = run_epoch(state, p, 10)
    rep = recursion_audit(traj)
    assert rep.passed
    np.testing.assert_allclose(rep.slacks, 0.0, atol=1e-12)


def test_recursion_audit_random_run_no_violations():
    p = ModelParams(n=10, r_n=0.5, v_n=0.2, tau_n=0.01)
    traj = run_epoch(sample_initial(p, 3), p, 100)
    rep = recursion_audit(traj, substep_count=16)
    assert rep.fail_count == 0 and rep.max_violation == 0.0


def test_recursion_audit_substep_refinement_stable():
    p = ModelParams(n=8, r_n=0.5, v_n=0.3, tau_n=0.02)
    traj = run_epoch(sample_initial(p, 4), p, 50)
    for substeps in (4, 16, 128):
        assert recursion_audit(traj, substep_count=substeps).passed


# --- the recursion audit's instants split across CPUs ------------------------

_SPAN_CHANGES = metrics._span_changes


def _split_spans(monkeypatch, cpus, min_pairs=1):
    """Splits the distance steps of every swarm of ``min_pairs`` pairs and
    more (every one by default, not only those from m = 257 on) across
    ``cpus`` usable CPUs, and returns the lengths of the spans of instants
    that each call computes, in the order they start."""
    monkeypatch.setattr(metrics, "_SPLIT_MIN_PAIRS", min_pairs)
    monkeypatch.setattr(metrics, "_usable_cpus", lambda: cpus)
    spans = []

    def spy(positions, buffers=None):
        spans.append(len(positions))
        return _SPAN_CHANGES(positions, buffers)

    monkeypatch.setattr(metrics, "_span_changes", spy)
    return spans


@pytest.mark.parametrize("m", [2, 23, 64, 130])
@pytest.mark.parametrize("instants", [2, 3, 4, 5, 101])
def test_recursion_audit_split_across_cpus_matches_the_oracle(monkeypatch, instants, m):
    traj = _random_trajectory(instants + m, instants - 1, m=m)
    verdicts, slacks, _, _ = _oracle_recursion_audit(traj)
    threads = threading.active_count()
    for cpus in (1, 2, 3):
        spans = _split_spans(monkeypatch, cpus)
        rep = recursion_audit(traj)
        assert rep.verdicts == verdicts and np.array_equal(rep.slacks, slacks)
        # W = min(cpus, steps) spans that share their boundary instants
        w = min(cpus, instants - 1)
        assert len(spans) == w and sum(spans) == instants + w - 1
        assert threading.active_count() == threads


def test_recursion_audit_splits_from_257_agents_on(monkeypatch):
    assert 256 * 255 // 2 < metrics._SPLIT_MIN_PAIRS <= 257 * 256 // 2
    assert metrics._usable_cpus() >= 1
    traj = _random_trajectory(3, 5, m=257)
    spans = _split_spans(monkeypatch, 2, min_pairs=metrics._SPLIT_MIN_PAIRS)
    rep = recursion_audit(traj)
    verdicts, slacks, _, _ = _oracle_recursion_audit(traj)
    assert rep.verdicts == verdicts and np.array_equal(rep.slacks, slacks)
    assert spans == [4, 3]


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("m", [23, 130])
def test_recursion_audit_split_raises_for_a_position_that_is_not_finite(monkeypatch, cpus, m):
    traj = _random_trajectory(m, 20, m=m)
    traj.positions[19, m // 2, 1] = np.nan  # an instant of the last span only
    with pytest.raises(ValueError) as serial:
        recursion_audit(traj)
    spans = _split_spans(monkeypatch, cpus)
    threads = threading.active_count()
    with pytest.raises(ValueError) as split:
        recursion_audit(traj)
    assert str(split.value) == str(serial.value) == "positions must be finite"
    assert len(spans) == cpus and threading.active_count() == threads


def test_recursion_audit_on_one_usable_cpu_starts_no_thread(monkeypatch):
    started, start = [], threading.Thread.start

    def counting(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    spans = _split_spans(monkeypatch, 1)
    traj = _random_trajectory(1, 30, m=23)
    _assert_matches_oracle(traj)
    assert spans == [31] and started == []
    _split_spans(monkeypatch, 2)
    _assert_matches_oracle(traj)
    assert len(started) == 1


def test_envelope_audit_leaderless_is_report():
    p = ModelParams(n=20, r_n=0.4, v_n=0.1, tau_n=0.01)
    traj = run_epoch(sample_initial(p, 5), p, 50)
    rep = geometric_envelope_audit(traj)
    assert rep.verdict == REPORT
    assert 0.0 <= rep.details["fraction_within"] <= 1.0


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_CONSTANT, LEADER_DYNAMIC])
def test_envelope_audit_skips_a_one_instant_trajectory(mode):
    p = ModelParams(n=6, r_n=0.5, v_n=0.1, tau_n=0.01, alpha_n=0.0 if mode == LEADERLESS else 0.5)
    schedule = ReferenceSchedule(headings=[0.0, 0.5]) if mode == LEADER_DYNAMIC else None
    traj = run_epoch(sample_initial(p, 0), p, 3, controller=mode, schedule=schedule)
    rep = geometric_envelope_audit(_first_instant(traj))
    assert (rep.verdict, rep.reason) == (SKIP, "trajectory too short")


def test_envelope_audit_vartheta_one_trivial():
    p = ModelParams(n=10, r_n=2.0, v_n=0.1, tau_n=0.01, alpha_n=0.3, vartheta=1.0)
    traj = run_epoch(sample_initial(p, 6), p, 20, controller=LEADER_CONSTANT,
                     reference_heading=0.5)
    rep = geometric_envelope_audit(traj)
    assert rep.verdict in (PASS, SKIP)
    if rep.verdict == PASS:
        assert rep.violations == 0


def test_envelope_audit_complete_graph_leader_run():
    # radius covers the unit square: complete graph, fast contraction
    p = ModelParams(n=20, r_n=2.0, v_n=0.1, tau_n=0.01, alpha_n=0.5, vartheta=0.5)
    traj = run_epoch(sample_initial(p, 7), p, 30, controller=LEADER_CONSTANT,
                     reference_heading=0.3)
    rep = geometric_envelope_audit(traj)
    assert rep.verdict != FAIL


def test_envelope_audit_skips_nonconstant_reference():
    from uniswarm import ReferenceSchedule
    from uniswarm.dynamics import LEADER_DYNAMIC
    p = ModelParams(n=10, r_n=0.5, v_n=0.1, tau_n=0.01, alpha_n=0.3)
    sched = ReferenceSchedule(headings=[0.0, 0.5, 1.0], epsilon=1e3)  # switches every step
    traj = run_epoch(sample_initial(p, 8), p, 10, controller=LEADER_DYNAMIC, schedule=sched)
    rep = geometric_envelope_audit(traj)
    assert rep.verdict == SKIP and "constant" in rep.reason


def test_envelope_audit_skips_agent_with_empty_neighborhood():
    p = ModelParams(n=4, alpha_n=0.5, r_n=0.3, v_n=0.1, tau_n=0.01, vartheta=0.5)
    state = SwarmState(positions=np.array([[0.5, 0.5], [0.55, 0.5], [0.5, 0.55], [5.0, 5.0],
                                           [0.45, 0.5], [0.5, 0.45]]),
                       headings=np.array([0.1, -0.1, 0.2, 3.0, 0.0, 0.05]),
                       speeds=np.array([0.05, 0.08, 0.06, 0.0, 0.1, 0.09]),
                       leader_mask=np.array([False] * 4 + [True] * 2))
    traj = run_epoch(state, p, 5, controller=LEADER_CONSTANT, reference_heading=0.0)
    rep = geometric_envelope_audit(traj)
    assert rep.verdict == SKIP
    assert rep.reason == "agent with empty neighborhood at step 0"


def test_sync_detect_cases():
    p = ModelParams(n=4, r_n=0.5, v_n=0.1, tau_n=0.01)
    state = sample_initial(p, 9)
    state.headings[:] = 0.2
    state.speeds[:] = 0.05
    traj = run_epoch(state, p, 5)
    assert sync_detect(traj, 1e-9, 1e-9) == 0

    far = sample_initial(ModelParams(n=2, r_n=0.1, v_n=0.0, tau_n=0.01), 10)
    far.positions = np.array([[0.0, 0.0], [50.0, 50.0]])
    far.speeds[:] = 0.0
    far.headings = np.array([0.0, 1.0])
    traj_far = run_epoch(far, ModelParams(n=2, r_n=0.1, v_n=0.0, tau_n=0.01), 10)
    assert sync_detect(traj_far, 1e-6, 1e-6) is None

    pair = sample_initial(ModelParams(n=2, r_n=0.5, v_n=0.0, tau_n=0.01), 11)
    pair.positions = np.array([[0.4, 0.4], [0.5, 0.4]])
    pair.speeds[:] = 0.0
    traj_pair = run_epoch(pair, ModelParams(n=2, r_n=0.5, v_n=0.0, tau_n=0.01), 5)
    assert sync_detect(traj_pair, 1e-9, 1e-9) == 1

    with pytest.raises(ValueError, match="positive"):
        sync_detect(traj, 0.0, 1e-6)


def test_ring_containment_under_negligible_drift():
    p = ModelParams(n=15, r_n=0.4, v_n=1e-9, tau_n=0.01)
    state = sample_initial(p, 12)
    traj = run_epoch(state, p, 20)
    out = ring_containment_check(traj)
    assert out["drift_within_budget_up_to"] == 20
    assert out["containment_holds"]


def _oracle_ring_containment_check(traj):
    """ring_containment_check as it was before it read condensed distances:
    one dense distance matrix and adjacency per instant, and each changed
    pair looked up in the initial ring sets, the pairs whose distance at
    k = 0 lies in the closed annulus [(1-eta)r, (1+eta)r]."""
    params = traj.params
    budget, radius, eta = params.drift_budget, params.r_n, params.eta_n_effective
    dist0 = pairwise_distances(traj.positions[0])
    in_ring = (dist0 >= (1.0 - eta) * radius) & (dist0 <= (1.0 + eta) * radius)
    np.fill_diagonal(in_ring, False)
    adj0 = build_graph(traj.positions[0], params.r_n, params.self_inclusive).adjacency

    holds_up_to = -1
    contained = True
    drift = np.empty_like(dist0)
    for k in range(traj.n_steps + 1):
        dist_k = pairwise_distances(traj.positions[k])
        np.subtract(dist_k, dist0, out=drift)
        if np.abs(drift, out=drift).max() > budget:
            break
        holds_up_to = k
        adj_k = build_graph(traj.positions[k], params.r_n, params.self_inclusive).adjacency
        changed = adj_k != adj0
        for i, j in zip(*np.where(changed)):
            if not in_ring[i, j]:
                contained = False
    return {"drift_within_budget_up_to": holds_up_to, "containment_holds": contained}


def _ring_trajectory(seed):
    """A random run with eta_n log-uniform in [1e-3, 0.3], so that the drift
    budget is exceeded at step 1, mid-run or never, on one agent, below 64
    agents (numpy distances) or from 64 on (pdist)."""
    rng = np.random.default_rng(seed)
    m = 1 if seed % 50 == 0 else int(rng.integers(2, 64) if seed % 2 else rng.integers(64, 90))
    mode = LEADER_CONSTANT if m > 1 and seed % 3 == 0 else LEADERLESS
    params = ModelParams(n=m, r_n=float(rng.uniform(0.15, 0.5)), v_n=float(rng.uniform(0.02, 0.5)),
                         tau_n=0.01, alpha_n=0.2 if mode == LEADER_CONSTANT else 0.0,
                         eta_n=float(10.0 ** rng.uniform(-3.0, np.log10(0.3))),
                         self_inclusive=bool(rng.integers(2)))
    return run_epoch(sample_initial(params, seed), params, int(rng.integers(5, 40)),
                     controller=mode, reference_heading=0.3)


@pytest.mark.parametrize("one_instant_chunks", [False, True])
def test_ring_containment_matches_dense_oracle(monkeypatch, one_instant_chunks):
    if one_instant_chunks:
        monkeypatch.setattr(graphs, "_CHUNK_BYTES", 1)
    seeds = range(150 * one_instant_chunks, 150 * (one_instant_chunks + 1))
    regimes, sizes = set(), set()
    for seed in seeds:
        traj = _ring_trajectory(seed)
        got = ring_containment_check(traj)
        assert got == _oracle_ring_containment_check(traj), seed
        holds = got["drift_within_budget_up_to"]
        regimes.add("step 1" if holds == 0 else "never" if holds == traj.n_steps else "mid-run")
        m = traj.positions.shape[1]
        sizes.add("one" if m == 1 else "below 64" if m < 64 else "from 64")
    assert regimes == {"step 1", "mid-run", "never"}
    assert sizes == {"one", "below 64", "from 64"}


def _pair_trajectory(r, eta, distances):
    """A pair of agents on the x-axis at the given distances, one per
    instant, whose arithmetic is exact, and a third agent far away."""
    p = ModelParams(n=3, r_n=r, v_n=0.0, tau_n=0.01, eta_n=eta)
    traj = run_epoch(sample_initial(p, 0), p, len(distances) - 1)
    traj.positions[:] = [[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]]
    traj.positions[:, 1, 0] = distances
    return traj


@pytest.mark.parametrize("r, eta, below_edge", [
    # eta*r rounds so that a pair one ulp below the annulus, at r - eta*r,
    # reaches distance r at a drift equal to the budget: not contained
    (0.30769201868561236, 0.2491113915981527, True),
    # a pair on the annulus' closed lower edge (1-eta)r reaches r within budget
    (0.35591081235012834, 0.28518864520145465, False)])
def test_ring_containment_at_the_annulus_edge_matches_the_oracle(r, eta, below_edge):
    start = r - eta * r if below_edge else (1.0 - eta) * r
    assert (start < (1.0 - eta) * r) == below_edge and r - start <= eta * r
    traj = _pair_trajectory(r, eta, [start, start, r])
    want = {"drift_within_budget_up_to": 2, "containment_holds": not below_edge}
    assert _oracle_ring_containment_check(traj) == want
    assert ring_containment_check(traj) == want


@pytest.mark.parametrize("one_instant_chunks", [False, True])
def test_ring_containment_ends_at_the_first_instant_over_budget(monkeypatch, one_instant_chunks):
    # the pair jumps out of the budget at step 2 and back at step 3
    if one_instant_chunks:
        monkeypatch.setattr(graphs, "_CHUNK_BYTES", 1)
    traj = _pair_trajectory(0.3, 0.01, [0.2, 0.2005, 0.25, 0.2, 0.2])
    want = {"drift_within_budget_up_to": 1, "containment_holds": True}
    assert _oracle_ring_containment_check(traj) == want
    assert ring_containment_check(traj) == want


def test_ring_containment_rejects_non_finite_positions_and_no_annulus():
    p = ModelParams(n=10, r_n=0.3, v_n=0.1, tau_n=0.01, eta_n=0.1)
    for bad in (np.nan, np.inf):
        traj = run_epoch(sample_initial(p, 1), p, 5)
        traj.positions[3, 4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            ring_containment_check(traj)
    for eta_n in (0.0, -0.1):
        q = ModelParams(n=10, r_n=0.3, v_n=0.1, tau_n=0.01, eta_n=eta_n)
        with pytest.raises(ValueError, match="eta must be positive"):
            ring_containment_check(run_epoch(sample_initial(q, 1), q, 5))


def test_p_deviation_bound_when_containment_holds():
    # conditional invariant: with containment and R_max <= d_min(0)/2,
    # ||P(t_k) - P(0)|| <= 80 * eta_n * 1.25
    p = ModelParams(n=15, r_n=0.4, v_n=1e-9, tau_n=0.01)
    state = sample_initial(p, 13)
    traj = run_epoch(state, p, 20)
    check = ring_containment_check(traj)
    assert check["containment_holds"]
    baseline = metrics_baseline(traj.state_at(0), p)
    bound = 80.0 * p.eta_n_effective * 1.25
    for k in range(traj.n_steps + 1):
        m = step_metrics(traj.state_at(k), baseline)
        assert m.p_deviation <= bound + 1e-12


def test_alpha_drift_bound_under_negligible_drift():
    p = ModelParams(n=15, r_n=0.4, v_n=1e-9, tau_n=0.01, alpha_n=0.2)
    state = sample_initial(p, 14)
    traj = run_epoch(state, p, 20, controller=LEADER_CONSTANT, reference_heading=0.1)
    baseline = metrics_baseline(traj.state_at(0), p)
    bound = 256.0 * p.eta * p.alpha_n
    for k in range(traj.n_steps + 1):
        m = step_metrics(traj.state_at(k), baseline)
        assert m.alpha_drift <= bound + 1e-12


def test_write_metrics_csv(tmp_path):
    p = ModelParams(n=5, r_n=0.5, v_n=0.1, tau_n=0.01)
    state = sample_initial(p, 15)
    rows = [step_metrics(state, metrics_baseline(state, p))]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("k,delta_theta,delta_v")
    assert len(lines) == 2


# --- run()'s fused pass against the per-instant oracle ------------------------

def _oracle_step_metrics(state, baseline, reference_heading=float("nan"),
                         reference_speed=float("nan")):
    """step_metrics as run() called it once per instant before the pass was
    fused into the simulation: one distance matrix and graph per call, and
    the k = 0 matrices recomputed from the baseline's state."""
    headings, speeds = state.headings, state.speeds
    delta_theta = float(headings.max() - headings.min())
    delta_v = float(speeds.max() - speeds.min())
    tracking_theta = float(np.abs(headings - reference_heading).max()) \
        if np.isfinite(reference_heading) else float("nan")
    tracking_v = float(np.abs(speeds - reference_speed).max()) \
        if np.isfinite(reference_speed) else float("nan")
    radius, self_inclusive = baseline.graph.radius, baseline.graph.self_inclusive
    initial_distances = pairwise_distances(baseline.state.positions)
    initial_graph = build_graph(baseline.state.positions, radius, self_inclusive)
    distances = pairwise_distances(state.positions)
    graph = build_graph(state.positions, radius, self_inclusive)
    distances -= initial_distances
    drift = float(np.abs(distances, out=distances).max())
    changed = np.where((graph.adjacency != initial_graph.adjacency).any(axis=1))[0]
    p_dev = 0.0
    if len(changed):
        p_dev = float(np.linalg.norm(averaging_rows(graph, changed)
                                     - averaging_matrix(initial_graph)[changed], 2))
    alpha_drift = 0.0
    if state.leader_mask.any():
        alphas, _ = leader_fractions(graph, state.leader_mask)
        alpha_drift = float(np.abs(alphas - baseline.alphas).max())
    return StepMetrics(k=state.sample_index, delta_theta=delta_theta, delta_v=delta_v,
                       tracking_theta=tracking_theta, tracking_v=tracking_v,
                       max_distance_drift=drift, p_deviation=p_dev,
                       alpha_drift=alpha_drift, connected=connectivity(graph))


def _oracle_metrics(traj):
    """The per-instant loop run() made over step_metrics."""
    baseline = metrics_baseline(traj.state_at(0), traj.params)
    rows = []
    for k in range(traj.n_steps + 1):
        if traj.controller == LEADERLESS:
            ref_theta, ref_v = float("nan"), float("nan")
        else:
            idx = min(max(k - 1, 0), traj.n_steps - 1)
            ref_theta = float(traj.reference_headings[idx])
            ref_v = traj.reference_speed
        rows.append(_oracle_step_metrics(traj.state_at(k), baseline, ref_theta, ref_v))
    return rows


def _oracle_envelope_audit(traj, tol=1e-9):
    """geometric_envelope_audit with one build_graph per instant."""
    params = traj.params
    if not traj.leader_mask.any():
        return geometric_envelope_audit(traj)  # REPORT: no graphs involved
    refs = traj.reference_headings
    if not np.all(np.isfinite(refs)) or not np.all(refs == refs[0]):
        return EnvelopeAuditReport(verdict=SKIP, reason="reference heading is not constant")
    theta_bar, v_bar, vartheta = float(refs[0]), traj.reference_speed, params.vartheta
    followers, leaders = ~traj.leader_mask, traj.leader_mask
    theta_dev = np.abs(traj.headings - theta_bar)
    v_dev = np.abs(traj.speeds - v_bar)
    big_a = float(theta_dev[1, followers].max())
    big_b = float(v_dev[1, followers].max())
    if theta_dev[1, leaders].max() > (1.0 - vartheta) * big_a + tol:
        return EnvelopeAuditReport(verdict=SKIP,
                                   reason="leader initial heading deviation exceeds (1-vartheta)A")
    if v_dev[1, leaders].max() > (1.0 - vartheta) * big_b + tol:
        return EnvelopeAuditReport(verdict=SKIP,
                                   reason="leader initial speed deviation exceeds (1-vartheta)B")
    alphas = np.empty((traj.n_steps + 1, traj.headings.shape[1]))
    for k in range(traj.n_steps + 1):
        graph = build_graph(traj.positions[k], params.r_n, params.self_inclusive)
        alphas[k], totals = leader_fractions(graph, traj.leader_mask)
        if (totals == 0).any():
            return EnvelopeAuditReport(
                verdict=SKIP, reason=f"agent with empty neighborhood at step {k}")
    mu = float(np.abs(alphas - alphas[0]).max())
    gamma = float((1.0 - (alphas[0] - mu) * vartheta).max())
    violations, worst, power = 0, 0.0, 1.0
    for k in range(1, traj.n_steps + 1):
        for dev, amp in ((theta_dev, big_a), (v_dev, big_b)):
            excess = max(dev[k, followers].max() - power * amp,
                         dev[k, leaders].max() - (1.0 - vartheta) * power * amp)
            if excess > tol:
                violations += 1
                worst = max(worst, float(excess))
        power *= gamma
    return EnvelopeAuditReport(verdict=FAIL if violations else PASS, violations=violations,
                               details={"A": big_a, "B": big_b, "mu": mu, "gamma": gamma,
                                        "worst_excess": worst})


def _assert_fused_matches_oracle(traj, rows, recursion, envelope):
    # repr is exact for floats, tells 0.0 from -0.0 and matches nan with nan;
    # p_deviation is taken from the Gram matrix of the changed rows, whose
    # last bits differ from the oracle's SVD, and an exact 0 stays exact
    oracle = _oracle_metrics(traj)
    assert len(rows) == len(oracle)
    for got, want in zip(rows, oracle):
        assert repr(dataclasses.replace(got, p_deviation=0.0)) == \
            repr(dataclasses.replace(want, p_deviation=0.0))
        assert abs(got.p_deviation - want.p_deviation) <= 1e-12 * want.p_deviation
    verdicts, slacks, fails, max_violation = _oracle_recursion_audit(traj)
    assert recursion.verdicts == verdicts
    assert np.array_equal(recursion.slacks, slacks)
    assert (recursion.fail_count, recursion.max_violation) == (fails, max_violation)
    want = _oracle_envelope_audit(traj).to_dict()
    assert envelope.to_dict() == want
    assert geometric_envelope_audit(traj).to_dict() == want
    return want


def _run(params, steps, seed, mode=LEADERLESS, **kw):
    result = run(RunConfig(params=params, steps=steps, seed=seed, mode=mode, **kw))
    _assert_fused_matches_oracle(result.trajectory, result.metrics, result.recursion,
                                 result.envelope)
    # run() reads the sync index off its rows
    assert result.sync_index == sync_detect(result.trajectory, 1e-6, 1e-6)
    return result


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_CONSTANT, LEADER_DYNAMIC])
@pytest.mark.parametrize("seed", range(4))
def test_run_pass_matches_per_instant_oracle(mode, seed):
    rng = np.random.default_rng(100 + seed)
    params = ModelParams(n=int(rng.integers(3, 30)), r_n=float(rng.uniform(0.15, 0.6)),
                         v_n=float(rng.uniform(0.1, 1.0)), tau_n=float(rng.uniform(0.02, 0.05)),
                         alpha_n=0.0 if mode == LEADERLESS else float(rng.uniform(0.1, 0.5)),
                         vartheta=float(rng.uniform(0.2, 0.9)), self_inclusive=bool(seed % 2))
    schedule = (ReferenceSchedule(headings=rng.uniform(-np.pi, np.pi, 3).tolist(), epsilon=0.5)
                if mode == LEADER_DYNAMIC else None)
    _run(params, int(rng.integers(20, 150)), seed, mode, schedule=schedule,
         reference_heading=float(rng.uniform(-1.0, 1.0)))


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_CONSTANT])
def test_run_pass_in_chunks_of_one_instant_matches_oracle(monkeypatch, mode):
    params = ModelParams(n=15, r_n=0.3, v_n=0.4, tau_n=0.03,
                         alpha_n=0.0 if mode == LEADERLESS else 0.2, self_inclusive=False)
    monkeypatch.setattr(graphs, "_CHUNK_BYTES", 1)
    _run(params, 120, 3, mode, reference_heading=0.4)


def test_run_pass_single_agent():
    result = _run(ModelParams(n=1, r_n=0.3, v_n=0.4, tau_n=0.02), 50, 1)
    assert result.sync_index == 0
    assert all(r.max_distance_drift == 0.0 and r.p_deviation == 0.0 for r in result.metrics)
    assert result.recursion.fail_count == 0


@pytest.mark.parametrize("m", [1, 2])
def test_drift_and_distance_change_without_pairs_and_with_one_pair(tmp_path, m):
    """One agent has no pair of agents (P = 0), two have one: run(), RunPass
    and recursion_audit, in memory and from disk, take drift and distance
    change from the one distance written out, and 0.0 without it."""
    result = _run(ModelParams(n=m, r_n=0.3, v_n=0.4, tau_n=0.02), 50, 1, outputs=str(tmp_path))
    traj = result.trajectory
    distance = np.zeros(traj.n_steps + 1)
    if m == 2:
        dx, dy = (traj.positions[:, 0] - traj.positions[:, 1]).T
        distance = np.sqrt(dx * dx + dy * dy)
    assert [r.max_distance_drift for r in result.metrics] == np.abs(distance - distance[0]).tolist()
    change = np.abs(np.diff(distance))
    assert change.max() > 0.0 if m == 2 else (change == 0.0).all()
    want = metrics._recursion_audit(traj, 16, lambda: change).slacks
    for slacks in (result.recursion.slacks, recursion_audit(traj).slacks,
                   recursion_audit(load_trajectory(tmp_path)).slacks):
        assert np.array_equal(slacks, want)


def test_run_pass_envelope_pass_matches_oracle():
    p = ModelParams(n=20, r_n=2.0, v_n=0.1, tau_n=0.01, alpha_n=0.5, vartheta=0.5)
    result = _run(p, 60, 7, LEADER_CONSTANT, reference_heading=0.3)
    assert result.envelope.verdict == PASS


def test_envelope_audit_fail_matches_per_step_oracle():
    p = ModelParams(n=20, r_n=2.0, v_n=0.1, tau_n=0.01, alpha_n=0.5, vartheta=0.5)
    traj = run(RunConfig(params=p, steps=60, seed=7, mode=LEADER_CONSTANT,
                         reference_heading=0.3)).trajectory
    # follower and leader deviations beyond the envelope, headings and speeds
    traj.headings[[5, 17, 40], 0] += 0.5
    traj.headings[[9, 41], -1] -= 0.25
    traj.speeds[[30, 59], 3] += 1.0
    traj.speeds[12, -2] += 0.75
    report = geometric_envelope_audit(traj)
    assert report.verdict == FAIL and report.violations >= 5
    assert report.to_dict() == _oracle_envelope_audit(traj).to_dict()


def test_run_pass_agent_becomes_isolated_without_self_loop():
    p = ModelParams(n=20, r_n=0.25, v_n=1.0, tau_n=0.05, self_inclusive=False)
    traj = _run(p, 30, 2).trajectory
    isolated = [k for k in range(traj.n_steps + 1)
                if (build_graph(traj.positions[k], p.r_n, False).degrees == 0).any()]
    assert isolated[0] == 3


def test_run_pass_graph_returning_to_an_earlier_adjacency():
    p = ModelParams(n=12, r_n=0.25, v_n=0.5, tau_n=0.05)
    traj = _run(p, 30, 4).trajectory
    adj = [build_graph(x, p.r_n).adjacency for x in traj.positions]
    # A -> B -> A: the graph of step 20 differs from step 19's but equals an earlier one
    assert not np.array_equal(adj[20], adj[19])
    assert any(np.array_equal(adj[20], adj[j]) for j in range(19))


def test_run_pass_envelope_skip_names_the_same_step():
    p = ModelParams(n=10, alpha_n=0.3, r_n=0.25, v_n=0.3, tau_n=0.05, vartheta=0.9)
    result = _run(p, 40, 62, LEADER_CONSTANT, reference_heading=0.3)
    assert result.envelope.reason == "agent with empty neighborhood at step 2"


@pytest.mark.parametrize("self_inclusive", [True, False])
def test_run_pass_coincident_agents(self_inclusive):
    p = ModelParams(n=12, alpha_n=0.25, r_n=0.3, v_n=0.2, tau_n=0.02,
                    self_inclusive=self_inclusive)
    state = sample_initial(p, 5)
    state.positions[1] = state.positions[2] = state.positions[0]
    instants = RunPass(state)
    traj = run_epoch(state, p, 40, controller=LEADER_CONSTANT, reference_heading=0.2,
                     observer=instants.observe)
    _assert_fused_matches_oracle(traj, instants.step_metrics(traj),
                                 instants.recursion_audit(traj),
                                 instants.geometric_envelope_audit(traj))


def test_run_pass_counts_graph_changes():
    p = ModelParams(n=12, r_n=0.25, v_n=0.5, tau_n=0.05)
    state = sample_initial(p, 4)
    instants = RunPass(state)
    traj = run_epoch(state, p, 30, observer=instants.observe)
    adj = [build_graph(x, p.r_n).adjacency for x in traj.positions]
    changes = sum(not np.array_equal(a, b) for a, b in zip(adj[1:], adj[:-1]))
    assert 0 < changes < traj.n_steps
    assert instants.graph_changes == changes


def _criterion8_config(seed):
    params = ModelParams(n=100, alpha_n=0.3, r_n=0.3, v_n=0.1, tau_n=0.01, vartheta=0.5)
    return RunConfig(params=params, steps=1000, seed=seed, mode=LEADER_CONSTANT,
                     reference_heading=np.pi / 4)


def _count_leader_fractions(monkeypatch):
    graphs_seen = []

    def counting(graph, leader_mask):
        graphs_seen.append(graph)
        return leader_fractions(graph, leader_mask)

    monkeypatch.setattr(metrics, "leader_fractions", counting)
    return graphs_seen


def test_run_pass_takes_leader_fractions_once_per_graph(monkeypatch):
    # alpha_i(0) serves the baseline and the k = 0 graph's own terms
    seen = _count_leader_fractions(monkeypatch)
    result = run(_criterion8_config(1))
    assert len(seen) == len({id(g) for g in seen}) == result.meta["graph_changes"] + 1 == 11


@pytest.fixture(scope="module")
def criterion8_seed0():
    # seed 1 skips before any graph is built; seed 0 passes, so the sweep sees every graph
    return run(_criterion8_config(0))


def test_envelope_audit_takes_leader_fractions_once_per_graph(monkeypatch, criterion8_seed0):
    result = criterion8_seed0
    seen = _count_leader_fractions(monkeypatch)
    report = geometric_envelope_audit(result.trajectory)
    assert report.to_dict() == result.envelope.to_dict() and report.verdict == PASS
    assert len(seen) == len({id(g) for g in seen}) == result.meta["graph_changes"] + 1


def test_envelope_audit_computes_few_full_distance_vectors(monkeypatch, criterion8_seed0):
    # the leader shares take each instant's graph from the pairs near the
    # radius: full condensed distances only at the anchors' chunks, not at
    # all 1001 instants, as a silent fallback to every pair would
    chunks, rows = graphs._distance_chunks, []

    def counting(positions):
        for chunk in chunks(positions):
            rows.append(len(chunk))
            yield chunk

    monkeypatch.setattr(graphs, "_distance_chunks", counting)
    report = geometric_envelope_audit(criterion8_seed0.trajectory)
    assert report.to_dict() == criterion8_seed0.envelope.to_dict() and report.verdict == PASS
    assert 0 < sum(rows) <= 10


@pytest.mark.parametrize("seed", [2, 3])
def test_envelope_skip_for_an_empty_neighborhood_at_step_zero(seed):
    p = ModelParams(n=10, alpha_n=0.3, r_n=0.15, v_n=0.3, tau_n=0.05, vartheta=0.9)
    result = _run(p, 20, seed, LEADER_CONSTANT, reference_heading=0.3)
    reason = "agent with empty neighborhood at step 0"
    assert result.envelope.reason == geometric_envelope_audit(result.trajectory).reason == reason
    assert result.envelope.to_dict() == _oracle_envelope_audit(result.trajectory).to_dict()
