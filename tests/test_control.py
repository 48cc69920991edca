import numpy as np
import pytest

from uniswarm import (build_graph, follower_control, leader_control, leader_discrete_step,
                      leaderless_discrete_step)
from uniswarm.dynamics import SwarmState
from uniswarm.reference import ReferenceSchedule

from conftest import make_state

TAU = 0.01


def _clustered_state(headings, leader_mask=None):
    m = len(headings)
    return SwarmState(positions=np.random.default_rng(0).random((m, 2)) * 0.01,
                      headings=np.asarray(headings, dtype=float), speeds=np.zeros(m),
                      leader_mask=np.zeros(m, dtype=bool) if leader_mask is None
                      else np.asarray(leader_mask))


def test_follower_control_zero_at_consensus():
    state = _clustered_state([0.4, 0.4, 0.4])
    sig = follower_control(0, state, build_graph(state.positions, 1.0), TAU)
    assert sig.omega == 0.0 and sig.u == 0.0


def test_follower_control_self_only_neighborhood():
    state = make_state(2, seed=1)
    state.positions = np.array([[0.0, 0.0], [5.0, 5.0]])
    sig = follower_control(0, state, build_graph(state.positions, 0.3), TAU)
    assert sig.omega == 0.0 and sig.u == 0.0


def test_follower_control_hand_value():
    state = _clustered_state([0.0, 0.3, 0.6])
    sig = follower_control(0, state, build_graph(state.positions, 1.0), TAU)
    assert sig.omega == pytest.approx((0.3 + 0.6) / (TAU * 3), rel=1e-14)


def test_leader_control_zero_at_reference_consensus():
    state = _clustered_state([0.8, 0.8], leader_mask=[False, True])
    state.speeds = np.array([0.2, 0.2])
    sig = leader_control(1, state, build_graph(state.positions, 1.0), TAU,
                         vartheta=0.5, reference_heading=0.8, reference_speed=0.2)
    assert sig.omega == pytest.approx(0.0, abs=1e-14)
    assert sig.u == pytest.approx(0.0, abs=1e-14)


def test_leader_control_vartheta_one_ignores_neighbors():
    state = _clustered_state([0.1, 0.9], leader_mask=[False, True])
    sig = leader_control(1, state, build_graph(state.positions, 1.0), TAU,
                         vartheta=1.0, reference_heading=1.5, reference_speed=0.0)
    assert sig.omega == pytest.approx((1.5 - 0.9) / TAU, rel=1e-14)


def test_leader_control_hand_value():
    state = _clustered_state([0.0, 0.0], leader_mask=[True, False])
    sig = leader_control(0, state, build_graph(state.positions, 1.0), TAU,
                         vartheta=0.5, reference_heading=1.0, reference_speed=0.0)
    assert sig.omega == pytest.approx(50.0, rel=1e-14)


def test_leader_control_role_mismatch():
    state = _clustered_state([0.0, 0.0], leader_mask=[False, True])
    with pytest.raises(ValueError, match="role mismatch"):
        leader_control(0, state, build_graph(state.positions, 1.0), TAU,
                       0.5, 0.0, 0.0)


def test_leader_control_allows_zero_vartheta():
    # sensitivity runs may use it; ModelParams.validate(strict=True) rejects it
    state = _clustered_state([0.0, 0.0], leader_mask=[False, True])
    leader_control(1, state, build_graph(state.positions, 1.0), TAU, 0.0, 0.5, 0.1)


def test_hold_and_integrate_equivalence_followers():
    for seed in range(20):
        state = make_state(15, seed=seed)
        g = build_graph(state.positions, 0.4)
        nxt = leaderless_discrete_step(state, g)
        for i in range(15):
            sig = follower_control(i, state, g, TAU)
            assert state.headings[i] + TAU * sig.omega == pytest.approx(nxt.headings[i], abs=1e-12)
            assert state.speeds[i] + TAU * sig.u == pytest.approx(nxt.speeds[i], abs=1e-12)


def test_hold_and_integrate_equivalence_leaders():
    for seed in range(20):
        state = make_state(12, seed=seed, leader_count=4)
        g = build_graph(state.positions, 0.5)
        nxt = leader_discrete_step(state, g, 0.6, 0.2, vartheta=0.4)
        for i in np.where(state.leader_mask)[0]:
            sig = leader_control(int(i), state, g, TAU, 0.4, 0.6, 0.2)
            assert state.headings[i] + TAU * sig.omega == pytest.approx(nxt.headings[i], abs=1e-12)
            assert state.speeds[i] + TAU * sig.u == pytest.approx(nxt.speeds[i], abs=1e-12)


def test_leader_control_continuous_at_vartheta_zero():
    state = make_state(8, seed=3, leader_count=2)
    g = build_graph(state.positions, 0.6)
    i = int(np.where(state.leader_mask)[0][0])
    as_follower = follower_control(i, state, g, TAU)
    nearly = leader_control(i, state, g, TAU, 1e-9, 0.5, 0.1)
    assert nearly.omega == pytest.approx(as_follower.omega, rel=1e-6, abs=1e-6)
    assert nearly.u == pytest.approx(as_follower.u, rel=1e-6, abs=1e-6)


def test_translation_invariance():
    state = make_state(10, seed=4, leader_count=3)
    g = build_graph(state.positions, 0.5)
    shifted = state.copy()
    shifted.headings = state.headings + 2.0
    base_f = follower_control(0, state, g, TAU)
    shift_f = follower_control(0, shifted, g, TAU)
    assert shift_f.omega == pytest.approx(base_f.omega, abs=1e-10)
    i = int(np.where(state.leader_mask)[0][0])
    vartheta = 0.3
    base_l = leader_control(i, state, g, TAU, vartheta, 0.7, 0.1)
    shift_l = leader_control(i, shifted, g, TAU, vartheta, 0.7, 0.1)
    assert shift_l.omega - base_l.omega == pytest.approx(-vartheta * 2.0 / TAU, rel=1e-9)


def test_leader_control_tracks_schedule_switches():
    state = _clustered_state([0.0, 0.0], leader_mask=[False, True])
    g = build_graph(state.positions, 1.0)
    schedule = ReferenceSchedule(headings=[0.0, np.pi / 2], epsilon=0.05)
    sig0 = leader_control(1, state, g, TAU, 1.0, schedule.headings[0], 0.0)
    assert sig0.omega == 0.0
    # all headings at 0 = the segment's reference
    assert schedule.maybe_advance(state.headings[None], state.leader_mask, 0) == 0
    sig1 = leader_control(1, state, g, TAU, 1.0, schedule.headings[1], 0.0)
    assert sig1.omega == pytest.approx((np.pi / 2) / TAU, rel=1e-14)

