import dataclasses

import numpy as np
import pytest

from uniswarm import (LEADER_DYNAMIC, ModelParams, ReferenceSchedule, run, run_epoch,
                      sample_initial, scenario_fig3)

from conftest import make_state

FIG3_HEADINGS = [0.0, np.pi / 2, 0.0, -np.pi / 2, 0.0]


def _state_at(heading, m=4, k=0):
    state = make_state(m, seed=0)
    state.headings[:] = heading
    state.sample_index = k
    return state


def test_schedule_validation():
    with pytest.raises(ValueError, match="at least one"):
        ReferenceSchedule(headings=[])
    with pytest.raises(ValueError, match="epsilon"):
        ReferenceSchedule(headings=[0.0], epsilon=0.0)
    with pytest.raises(ValueError, match="finite"):
        ReferenceSchedule(headings=[0.0, np.inf])


def test_schedule_is_frozen_configuration():
    sched = ReferenceSchedule(headings=[0.0, 1.0], epsilon=0.05)
    assert [f.name for f in dataclasses.fields(sched)] == ["headings", "epsilon",
                                                           "restrict_to_followers"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        sched.epsilon = 0.1


def test_jumps_and_total_variation():
    sched = ReferenceSchedule(headings=FIG3_HEADINGS)
    np.testing.assert_allclose(sched.jumps, [np.pi / 2] * 4)
    assert sched.total_variation() == pytest.approx(2 * np.pi)


def test_total_variation_degenerate_schedules():
    assert ReferenceSchedule(headings=[0.3]).total_variation() == 0.0
    assert ReferenceSchedule(headings=[0.3, 0.3, 0.3]).total_variation() == 0.0


def test_switch_when_all_agents_on_reference():
    sched = ReferenceSchedule(headings=[0.0, 1.0, 2.0], epsilon=0.05)
    state = _state_at(0.0)
    assert sched.maybe_advance(state, 0)
    # measured against the segment's own heading, 1.0, the same state is off
    assert not sched.maybe_advance(state, 1)
    assert sched.maybe_advance(_state_at(1.0), 1)
    # a predicate: asking again gives the same answer and changes nothing
    assert sched.maybe_advance(state, 0)
    assert sched == ReferenceSchedule(headings=[0.0, 1.0, 2.0], epsilon=0.05)


def test_no_switch_when_one_agent_off():
    sched = ReferenceSchedule(headings=[0.0, 1.0], epsilon=0.05)
    state = _state_at(0.0)
    state.headings[1] = 0.1  # off by 2*epsilon
    assert not sched.maybe_advance(state, 0)


def test_exhausted_schedule_never_advances():
    assert not ReferenceSchedule(headings=[0.5], epsilon=0.05).maybe_advance(_state_at(0.5), 0)
    last = ReferenceSchedule(headings=[0.0, 0.5], epsilon=0.05)
    assert not last.maybe_advance(_state_at(0.5), 1)


def _dynamic_run(sched, steps=10, seed=8):
    p = ModelParams(n=10, r_n=0.5, v_n=0.1, tau_n=0.01, alpha_n=0.3)
    return run_epoch(sample_initial(p, seed), p, steps, controller=LEADER_DYNAMIC, schedule=sched)


def test_at_most_one_switch_per_sampling_instant():
    # every state is within the huge epsilon, so the run switches at each
    # instant until the schedule is exhausted, once per instant
    traj = _dynamic_run(ReferenceSchedule(headings=[0.0, 0.0, 0.0], epsilon=1e3))
    assert traj.switch_log == [0, 1]


def test_monotone_progress_and_increasing_log():
    headings = [0.0, 0.5, 1.0, 1.5]
    traj = _dynamic_run(ReferenceSchedule(headings=headings, epsilon=1e3), steps=6)
    assert traj.switch_log == [0, 1, 2]
    assert all(isinstance(k, int) for k in traj.switch_log)
    # a switch at instant k already applies to the interval that starts at k
    segments = np.searchsorted(traj.switch_log, np.arange(6), side="right")
    assert np.array_equal(traj.reference_headings, np.asarray(headings)[segments])


def test_trigger_uses_max_over_all_agents_by_default():
    sched = ReferenceSchedule(headings=[0.0, 1.0], epsilon=0.05)
    state = make_state(4, seed=1, leader_count=1)
    state.headings[:] = 0.0
    state.headings[-1] = 0.2  # leader far off; default trigger includes it
    assert sched.max_tracking_error(state, 0) == pytest.approx(0.2)
    assert not sched.maybe_advance(state, 0)

    restricted = ReferenceSchedule(headings=[0.0, 1.0], epsilon=0.05,
                                   restrict_to_followers=True)
    assert restricted.max_tracking_error(state, 0) == pytest.approx(0.0)
    assert restricted.maybe_advance(state, 0)


def _assert_same_trajectory(a, b):
    for name in ("positions", "headings", "speeds"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(a.reference_headings, b.reference_headings, equal_nan=True)
    assert a.switch_log == b.switch_log


def test_one_schedule_object_serves_repeated_runs():
    # the run keeps its segment and its switch log, so a second run with the
    # same schedule object and seed repeats the first one exactly
    config = scenario_fig3(seed=0, steps=1000)
    state = sample_initial(config.params, config.seed)
    first, second = (run_epoch(state, config.params, config.steps, controller=LEADER_DYNAMIC,
                               schedule=config.schedule) for _ in range(2))
    assert first.switch_log == [256, 412, 614, 796]
    _assert_same_trajectory(first, second)

    results = [run(config) for _ in range(2)]
    _assert_same_trajectory(results[0].trajectory, first)
    _assert_same_trajectory(results[1].trajectory, first)
    assert results[0].meta["switch_log"] == results[1].meta["switch_log"] == first.switch_log
    assert [r.connected for r in results[0].metrics] == [r.connected for r in results[1].metrics]
