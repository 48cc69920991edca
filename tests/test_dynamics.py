import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uniswarm import (LEADER_CONSTANT, LEADER_DYNAMIC, LEADERLESS, ModelParams,
                      ReferenceSchedule, RunConfig, advance_positions, build_graph,
                      closed_form_displacement, dynamics, interpolate, leader_discrete_step,
                      leaderless_discrete_step, run_epoch, sample_initial)
from uniswarm.dynamics import SwarmState, integrate_position_oracle
from uniswarm.graphs import neighbor_sums

from conftest import held_average_oracle, make_state


def test_model_params_validation():
    with pytest.raises(ValueError, match="n must"):
        ModelParams(n=0, r_n=0.3, v_n=0.1, tau_n=0.01).validate()
    with pytest.raises(ValueError, match="tau_n"):
        ModelParams(n=5, r_n=0.3, v_n=0.1, tau_n=0.0).validate()
    with pytest.raises(ValueError, match="alpha_n"):
        ModelParams(n=5, r_n=0.3, v_n=0.1, tau_n=0.01, alpha_n=1.5).validate()


@pytest.mark.parametrize("field, value, rule", [
    ("eta", 0.1, "eta <= 1/512"), ("vartheta", 0.0, "0 < vartheta"),
    ("c", 1.01 / (144 * 320), "c <= 1/(144*320)"), ("c_prime", 1.01 / 144, "c_prime <= 1/144")],
    ids=["eta", "vartheta", "c", "c_prime"])
def test_model_params_strict_rules(field, value, rule):
    params = ModelParams(n=5, r_n=0.3, v_n=0.1, tau_n=0.01, **{field: value})
    params.validate()  # sensitivity studies may leave the proofs' constants
    with pytest.raises(ValueError, match=f"strict mode requires {re.escape(rule)}"):
        params.validate(strict=True)


def test_leader_count_ceiling():
    p = ModelParams(n=20, r_n=0.3, v_n=0.3, tau_n=0.01, alpha_n=3.0 / 20.0)
    assert p.leader_count == 3 and p.total_count == 23
    assert ModelParams(n=10, r_n=0.3, v_n=0.3, tau_n=0.01, alpha_n=0.11).leader_count == 2


def test_sample_initial_deterministic():
    p = ModelParams(n=30, r_n=0.3, v_n=0.2, tau_n=0.01, alpha_n=0.1)
    a, b = sample_initial(p, 42), sample_initial(p, 42)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.headings, b.headings)
    assert np.array_equal(a.speeds, b.speeds)
    assert np.array_equal(a.leader_mask, b.leader_mask)
    assert sample_initial(p, 43).positions[0, 0] != a.positions[0, 0]


def test_sample_initial_moments():
    p = ModelParams(n=100_000, r_n=0.3, v_n=0.4, tau_n=0.01)
    s = sample_initial(p, 7)
    n = p.n
    assert abs(s.speeds.mean() - p.v_n / 2) <= 3 * p.v_n / math.sqrt(12 * n)
    assert abs(s.headings.mean()) <= 3 * (2 * math.pi / math.sqrt(12)) / math.sqrt(n)
    assert s.positions.min() >= 0.0 and s.positions.max() <= 1.0
    assert -math.pi <= s.headings.min() and s.headings.max() < math.pi


def test_sample_initial_leaders_are_last_indices():
    p = ModelParams(n=10, r_n=0.3, v_n=0.2, tau_n=0.01, alpha_n=0.3)
    s = sample_initial(p, 0)
    assert list(np.where(s.leader_mask)[0]) == [10, 11, 12]


def test_leaderless_complete_graph_one_step_mean():
    state = make_state(6, seed=1, spread=0.01)
    g = build_graph(state.positions, 1.0)
    nxt = leaderless_discrete_step(state, g)
    np.testing.assert_allclose(nxt.headings, state.headings.mean(), atol=1e-14)
    np.testing.assert_allclose(nxt.speeds, state.speeds.mean(), atol=1e-14)
    assert nxt.sample_index == state.sample_index + 1


def test_leaderless_isolated_agent_holds_state():
    state = make_state(3, seed=2)
    state.positions = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    g = build_graph(state.positions, 0.3)
    nxt = leaderless_discrete_step(state, g)
    assert nxt.headings[2] == state.headings[2]
    assert nxt.speeds[2] == state.speeds[2]


def test_leaderless_three_node_path_hand_values():
    state = SwarmState(positions=np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.0]]),
                       headings=np.array([0.0, 0.3, 0.6]),
                       speeds=np.zeros(3), leader_mask=np.zeros(3, dtype=bool))
    g = build_graph(state.positions, 0.3)
    nxt = leaderless_discrete_step(state, g)
    np.testing.assert_allclose(nxt.headings, [0.15, 0.3, 0.45], atol=1e-15)


def test_synchronized_state_is_fixed_point():
    state = make_state(8, seed=3)
    # dyadic values keep the neighbor average bit-exact
    state.headings[:] = 0.5
    state.speeds[:] = 0.25
    g = build_graph(state.positions, 0.4)
    nxt = leaderless_discrete_step(state, g)
    assert np.all(nxt.headings == 0.5) and np.all(nxt.speeds == 0.25)

    state.headings[:] = 0.7
    state.speeds[:] = 0.2
    nxt = leaderless_discrete_step(state, g)
    np.testing.assert_allclose(nxt.headings, 0.7, atol=1e-15)
    np.testing.assert_allclose(nxt.speeds, 0.2, atol=1e-15)


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_leaderless_step_permutation_equivariant(seed):
    state = make_state(12, seed=seed)
    g = build_graph(state.positions, 0.4)
    nxt = leaderless_discrete_step(state, g)
    perm = np.random.default_rng(seed + 1).permutation(12)
    permuted = SwarmState(positions=state.positions[perm], headings=state.headings[perm],
                          speeds=state.speeds[perm], leader_mask=state.leader_mask[perm])
    nxt_p = leaderless_discrete_step(permuted, build_graph(permuted.positions, 0.4))
    np.testing.assert_allclose(nxt_p.headings, nxt.headings[perm], atol=1e-12)
    np.testing.assert_allclose(nxt_p.speeds, nxt.speeds[perm], atol=1e-12)


def test_leader_step_vartheta_one_jumps_to_reference():
    state = make_state(6, seed=4, leader_count=2, spread=0.01)
    g = build_graph(state.positions, 1.0)
    nxt = leader_discrete_step(state, g, reference_heading=1.3, reference_speed=0.25, vartheta=1.0)
    assert np.all(nxt.headings[state.leader_mask] == 1.3)
    assert np.all(nxt.speeds[state.leader_mask] == 0.25)


def test_leader_step_consensus_fixed_point():
    state = make_state(6, seed=5, leader_count=2)
    state.headings[:] = 0.9
    state.speeds[:] = 0.15
    g = build_graph(state.positions, 0.5)
    nxt = leader_discrete_step(state, g, 0.9, 0.15, vartheta=0.3)
    np.testing.assert_allclose(nxt.headings, 0.9, atol=1e-15)
    np.testing.assert_allclose(nxt.speeds, 0.15, atol=1e-15)


def test_leader_step_two_agent_hand_values():
    state = SwarmState(positions=np.array([[0.0, 0.0], [0.1, 0.0]]),
                       headings=np.zeros(2), speeds=np.zeros(2),
                       leader_mask=np.array([False, True]))
    g = build_graph(state.positions, 0.3)
    nxt = leader_discrete_step(state, g, reference_heading=1.0, reference_speed=0.0, vartheta=0.5)
    assert nxt.headings[0] == pytest.approx(0.0, abs=1e-15)
    assert nxt.headings[1] == pytest.approx(0.5, abs=1e-15)


def test_leader_step_requires_leaders():
    state = make_state(4, seed=6)
    g = build_graph(state.positions, 0.5)
    with pytest.raises(ValueError, match="leader"):
        leader_discrete_step(state, g, 0.0, 0.1, 0.5)


def test_interpolate_endpoints_bit_exact():
    state = make_state(5, seed=7)
    g = build_graph(state.positions, 0.5)
    nxt = leaderless_discrete_step(state, g)
    h0, v0 = interpolate(state, nxt, 0.0)
    h1, v1 = interpolate(state, nxt, 1.0)
    assert np.array_equal(h0, state.headings) and np.array_equal(v0, state.speeds)
    assert np.array_equal(h1, nxt.headings) and np.array_equal(v1, nxt.speeds)


def test_interpolate_midpoint_and_range_check():
    state = make_state(5, seed=8)
    g = build_graph(state.positions, 0.5)
    nxt = leaderless_discrete_step(state, g)
    h, v = interpolate(state, nxt, 0.5)
    np.testing.assert_allclose(h, (state.headings + nxt.headings) / 2, atol=1e-15)
    np.testing.assert_allclose(v, (state.speeds + nxt.speeds) / 2, atol=1e-15)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        interpolate(state, nxt, 1.5)


def test_displacement_constant_heading_and_speed():
    dx, dy = closed_form_displacement(0.2, 0.0, 0.7, 0.0, 0.01)
    assert dx == pytest.approx(0.2 * 0.01 * math.cos(0.7), abs=1e-16)
    assert dy == pytest.approx(0.2 * 0.01 * math.sin(0.7), abs=1e-16)


def test_displacement_zero_speed():
    dx, dy = closed_form_displacement(0.0, 0.0, 1.0, 2.0, 0.01)
    assert dx == 0.0 and dy == 0.0


def test_oracle_exact_sine_case():
    dx, _ = integrate_position_oracle(1.0, 0.0, 0.0, 1.0, math.pi)
    assert dx == pytest.approx(0.0, abs=1e-12)


def _quad_displacement(a, b, c, d, tau):
    """The displacement integrals by scipy's adaptive quadrature."""
    from scipy.integrate import quad

    dx, _ = quad(lambda s: (a + b * s) * math.cos(c + d * s), 0.0, tau,
                 epsabs=1e-12, epsrel=1e-13, limit=300)
    dy, _ = quad(lambda s: (a + b * s) * math.sin(c + d * s), 0.0, tau,
                 epsabs=1e-12, epsrel=1e-13, limit=300)
    return dx, dy


@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-4, 4), st.floats(1e-3, 0.1),
       st.one_of(st.sampled_from([0.0, 1e-12]), st.floats(0, 60)), st.sampled_from([-1, 1]))
@settings(max_examples=300, deadline=None)
def test_oracle_matches_adaptive_quadrature(a, b, c, tau, phase, sign):
    # the parameter ranges of criterion 6, with heading changes d*tau of up to 60 rad
    d = sign * phase / tau
    got, want = integrate_position_oracle(a, b, c, d, tau), _quad_displacement(a, b, c, d, tau)
    assert abs(got[0] - want[0]) <= 1e-13 and abs(got[1] - want[1]) <= 1e-13


def test_oracle_raises_when_its_two_orders_disagree(monkeypatch):
    weights = dynamics._ORACLE_WEIGHTS.copy()
    weights[:, 0] *= 1.0 + 1e-6  # the lower order's estimate, off by 1e-6 relative
    monkeypatch.setattr(dynamics, "_ORACLE_WEIGHTS", weights)
    integrate_position_oracle(0.01, 0.0, 0.3, 1.0, 0.01)  # off by 1e-10, below 1e-9
    with pytest.raises(RuntimeError, match="quadrature tolerance not reached, residual="):
        integrate_position_oracle(1.0, 0.5, 0.3, 1.0, 0.01)


@pytest.mark.parametrize("d", [30_001.0, -1e9, math.inf, math.nan])
def test_oracle_raises_past_the_panel_cap(d):
    # more than 300 panels of at most 1 rad: |d * tau| > 300 rad, or not finite
    with pytest.raises(RuntimeError, match="quadrature tolerance not reached: .* 300 panels"):
        integrate_position_oracle(0.5, 0.1, 0.2, d, 0.01)
    integrate_position_oracle(0.5, 0.1, 0.2, 29_999.0, 0.01)


def test_closed_form_matches_oracle_random_draws():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
        c, d = rng.uniform(-4, 4), rng.uniform(-10, 10)
        tau = rng.uniform(0.001, 0.1)
        dx, dy = closed_form_displacement(a, b, c, d, tau)
        ox, oy = integrate_position_oracle(a, b, c, d, tau)
        assert abs(dx - ox) < 1e-10 and abs(dy - oy) < 1e-10


def test_closed_form_near_singular_matches_limit():
    for d in (1e-15, -1e-15, 1e-8, 0.0):
        dx, dy = closed_form_displacement(0.5, 0.3, 0.9, d, 0.05)
        # d -> 0 limit: speed ramp along a fixed heading
        lim = (0.5 * 0.05 + 0.3 * 0.05 ** 2 / 2)
        assert dx == pytest.approx(lim * math.cos(0.9), abs=1e-10)
        assert dy == pytest.approx(lim * math.sin(0.9), abs=1e-10)


def test_series_branch_boundary_continuity():
    # the Taylor/exact switch at |phi| = 0.05 must be seamless
    tau = 1.0
    for phi in (0.049999, 0.050001, -0.049999, -0.050001):
        dx, dy = closed_form_displacement(0.4, 0.2, 1.1, phi / tau, tau)
        ox, oy = integrate_position_oracle(0.4, 0.2, 1.1, phi / tau, tau)
        assert abs(dx - ox) < 1e-12 and abs(dy - oy) < 1e-12


def test_advance_positions_vectorizes():
    state = make_state(10, seed=10)
    g = build_graph(state.positions, 0.5)
    nxt = leaderless_discrete_step(state, g)
    new = advance_positions(state, nxt, 0.01)
    assert new.shape == (10, 2)
    i = 3
    ox, oy = integrate_position_oracle(
        float(state.speeds[i]), float(nxt.speeds[i] - state.speeds[i]) / 0.01,
        float(state.headings[i]), float(nxt.headings[i] - state.headings[i]) / 0.01, 0.01)
    np.testing.assert_allclose(new[i] - state.positions[i], [ox, oy], atol=1e-12)


def test_run_epoch_rejects_zero_steps(small_params):
    state = sample_initial(small_params, 0)
    with pytest.raises(ValueError, match="steps"):
        run_epoch(state, small_params, 0)


def test_run_epoch_single_agent_straight_line():
    p = ModelParams(n=1, r_n=0.3, v_n=0.2, tau_n=0.01)
    state = sample_initial(p, 3)
    traj = run_epoch(state, p, 10)
    v, th = state.speeds[0], state.headings[0]
    expected = state.positions[0] + 10 * 0.01 * v * np.array([math.cos(th), math.sin(th)])
    np.testing.assert_allclose(traj.positions[-1, 0], expected, atol=1e-12)
    assert np.all(traj.headings[:, 0] == th)


def test_run_epoch_two_agents_synchronize_at_step_one():
    p = ModelParams(n=2, r_n=0.5, v_n=0.1, tau_n=0.01)
    state = sample_initial(p, 5)
    state.positions = np.array([[0.4, 0.4], [0.5, 0.4]])
    traj = run_epoch(state, p, 5)
    mean_h, mean_v = state.headings.mean(), state.speeds.mean()
    np.testing.assert_allclose(traj.headings[1], mean_h, atol=1e-14)
    np.testing.assert_allclose(traj.speeds[1], mean_v, atol=1e-14)
    np.testing.assert_allclose(traj.headings[5], mean_h, atol=1e-13)


def test_run_epoch_dynamic_requires_schedule(small_params):
    state = sample_initial(small_params, 0)
    with pytest.raises(ValueError, match="schedule"):
        run_epoch(state, small_params, 5, controller=LEADER_DYNAMIC)


@pytest.mark.parametrize("controller", [LEADERLESS, LEADER_CONSTANT])
def test_run_epoch_rejects_a_schedule_outside_leader_dynamic(controller):
    p = ModelParams(n=10, alpha_n=0.2, r_n=0.5, v_n=0.1, tau_n=0.01)
    schedule = ReferenceSchedule(headings=[1.0, 2.0], epsilon=10.0)
    with pytest.raises(ValueError) as from_config:
        RunConfig(params=p, steps=10, seed=0, mode=controller, schedule=schedule).validate()
    with pytest.raises(ValueError) as raised:
        run_epoch(sample_initial(p, 0), p, 10, controller=controller, schedule=schedule)
    assert str(raised.value) == str(from_config.value) == (
        f"schedule is read only in mode 'leader_dynamic', got mode {controller!r}")


def test_run_epoch_leaderless_convexity_holds():
    p = ModelParams(n=20, r_n=0.4, v_n=0.1, tau_n=0.01)
    traj = run_epoch(sample_initial(p, 11), p, 50)
    h_max = traj.headings.max(axis=1)
    h_min = traj.headings.min(axis=1)
    assert np.all(np.diff(h_max) <= 1e-12) and np.all(np.diff(h_min) >= -1e-12)
    assert traj.controller == LEADERLESS and math.isnan(traj.reference_speed)


@pytest.mark.parametrize("leaders", [[3, 4], [0, 3]])  # consecutive indices, and not
def test_leader_step_holds_isolated_agents_without_self_loops(leaders):
    positions = np.array([[0.0, 0.0], [2.0, 2.0], [2.1, 2.0], [2.0, 2.1], [5.0, 5.0]])
    g = build_graph(positions, 0.3, self_inclusive=False)
    assert np.flatnonzero(g.degrees == 0).tolist() == [0, 4]
    assert np.array_equal(g.divisors, np.maximum(g.degrees, 1).astype(float))
    mask = np.zeros(5, dtype=bool)
    mask[leaders] = True
    rng = np.random.default_rng(4)
    state = SwarmState(positions=positions, headings=rng.uniform(-3, 3, 5),
                       speeds=rng.uniform(0, 1, 5), leader_mask=mask)
    nxt = leader_discrete_step(state, g, 0.7, 0.2, vartheta=0.4)
    want_h = held_average_oracle(state.headings, g.adjacency)
    want_v = held_average_oracle(state.speeds, g.adjacency)
    want_h[mask] = 0.4 * 0.7 + (1.0 - 0.4) * want_h[mask]
    want_v[mask] = 0.4 * 0.2 + (1.0 - 0.4) * want_v[mask]
    assert np.array_equal(nxt.headings, want_h) and np.array_equal(nxt.speeds, want_v)
    if 0 not in leaders:
        assert nxt.headings[0] == state.headings[0] and nxt.speeds[0] == state.speeds[0]


def _two_call_step(graph, headings, speeds, pull):
    """The averaging step as it was written before headings and speeds were
    stepped together: graphs.neighbor_sums for each vector, the mean of an
    agent without neighbors its own value, then the leaders' pull through
    their indices."""
    def average(values):
        out = neighbor_sums(graph, values) / graph.divisors
        if not graph.self_inclusive:
            np.copyto(out, values, where=graph.degrees == 0)
        return out

    new_headings, new_speeds = average(headings), average(speeds)
    if pull is not None:
        mask, reference_heading, reference_speed, vartheta = pull
        leaders, keep = np.flatnonzero(mask), 1.0 - vartheta
        new_headings[leaders] = keep * new_headings[leaders] + vartheta * reference_heading
        new_speeds[leaders] = keep * new_speeds[leaders] + vartheta * reference_speed
    return new_headings, new_speeds


def _bits(values):
    """The bits of float64 ``values``: equal bits tell -0.0 from 0.0."""
    return np.ascontiguousarray(values).view(np.int64)


_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.25]),
                    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def _kernel_cases(draw):
    m = draw(st.integers(1, 24))
    positions = draw(hnp.arrays(np.float64, (m, 2), elements=st.floats(0.0, 1.0)))
    radius = draw(st.floats(0.02, 0.8))
    values = draw(hnp.arrays(np.float64, (2, m), elements=_VALUES))
    pull = None
    if draw(st.booleans()):
        mask = draw(hnp.arrays(np.bool_, m))
        pull = (mask, draw(_VALUES), draw(_VALUES), draw(st.floats(0.0, 1.0)))
    return positions, radius, draw(st.booleans()), values, pull


# agents 0 and 1 are followers next to each other with headings -0.0, so the
# mean of each is -0.0; agent 2 is a leader alone, agent 3 a follower alone
_NEGATIVE_ZERO_CASE = (np.array([[0.0, 0.0], [0.1, 0.0], [0.9, 0.9], [0.1, 0.9]]), 0.3, False,
                       np.array([[-0.0, -0.0, 1.5, -0.0], [0.25, -0.0, 0.125, 2.0]]),
                       (np.array([False, False, True, False]), 0.75, 0.5, 0.5))


@given(case=_kernel_cases())
@example(case=_NEGATIVE_ZERO_CASE)
@example(case=(*_NEGATIVE_ZERO_CASE[:2], True, *_NEGATIVE_ZERO_CASE[3:]))
@settings(max_examples=300, deadline=None)
def test_fused_step_is_the_two_call_rule(case):
    """dynamics._discrete_step steps headings and speeds in one call; every
    bit equals the old rule's, for either self-loop convention, agents
    without neighbors, leaders, and followers whose mean is -0.0."""
    positions, radius, self_inclusive, values, pull = case
    graph = build_graph(positions, radius, self_inclusive)
    want = _two_call_step(graph, values[0].copy(), values[1].copy(), pull)
    stepped = np.empty_like(values)
    kernel_pull = None if pull is None else dynamics._leader_pull(*pull)
    out = stepped.reshape(-1)
    assert dynamics._discrete_step(graph, values.reshape(-1), out, kernel_pull) is out
    # the public steps call the same kernel; without leaders, a pull changes nothing
    state = SwarmState(positions=positions, headings=values[0].copy(), speeds=values[1].copy(),
                       leader_mask=np.zeros(len(positions), dtype=bool))
    public = leaderless_discrete_step(state, graph)
    if pull is not None and pull[0].any():
        state.leader_mask = pull[0]
        public = leader_discrete_step(state, graph, *pull[1:])
    for got in (stepped, (public.headings, public.speeds)):
        assert np.array_equal(_bits(got[0]), _bits(want[0]))
        assert np.array_equal(_bits(got[1]), _bits(want[1]))


def _one_step(origin: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """A two-instant, two-agent trajectory starting at ``origin``, its
    positions advanced by the closed form as run_epoch does."""
    headings = np.array([[0.3, -1.2], [0.5, -1.0]])
    speeds = np.array([[0.2, 0.1], [0.25, 0.1]])
    tau = 0.5
    positions = np.full((2, 2, 2), origin)
    dx, dy = closed_form_displacement(speeds[0], (speeds[1] - speeds[0]) / tau, headings[0],
                                      (headings[1] - headings[0]) / tau, tau)
    positions[1] += np.stack([dx, dy], axis=1)
    return positions, headings, speeds, tau


@pytest.mark.parametrize("origin", [0.5, 1e9])
def test_integration_check_passes_the_closed_form(origin):
    # at 1e9 the running sum alone rounds by about 1e-7, past the absolute 1e-9
    positions, headings, speeds, tau = _one_step(origin)
    dynamics._verify_integration(positions, headings, speeds, 0, tau)
    positions[1, 0, 0] = np.nextafter(np.nextafter(positions[1, 0, 0], 2e9), 2e9)
    dynamics._verify_integration(positions, headings, speeds, 0, tau)


@pytest.mark.parametrize("axis", [0, 1])
def test_integration_check_raises_on_a_displacement_error_at_unit_scale(axis):
    positions, headings, speeds, tau = _one_step(0.5)
    positions[1, 0, axis] += 1e-8
    with pytest.raises(RuntimeError, match="deviates from quadrature oracle at agent 0"):
        dynamics._verify_integration(positions, headings, speeds, 0, tau)
