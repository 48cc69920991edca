import numpy as np
import pytest

from uniswarm import ReferenceSchedule

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


def test_jumps_and_total_variation():
    sched = ReferenceSchedule(headings=FIG3_HEADINGS)
    np.testing.assert_allclose(sched.jumps, [np.pi / 2] * 4)
    assert sched.total_variation() == pytest.approx(2 * np.pi)


def test_total_variation_degenerate_schedules():
    assert ReferenceSchedule(headings=[0.3]).total_variation() == 0.0
    assert ReferenceSchedule(headings=[0.3, 0.3, 0.3]).total_variation() == 0.0


def test_switch_when_all_agents_on_reference():
    sched = ReferenceSchedule(headings=[0.0, 1.0], epsilon=0.05)
    assert sched.maybe_advance(_state_at(0.0))
    assert sched.current_heading == 1.0
    assert sched.switch_log == [0]


def test_no_switch_when_one_agent_off():
    sched = ReferenceSchedule(headings=[0.0, 1.0], epsilon=0.05)
    state = _state_at(0.0)
    state.headings[1] = 0.1  # off by 2*epsilon
    assert not sched.maybe_advance(state)
    assert sched.current_segment == 0


def test_exhausted_schedule_never_advances():
    sched = ReferenceSchedule(headings=[0.5], epsilon=0.05)
    assert sched.exhausted
    assert not sched.maybe_advance(_state_at(0.5))


def test_at_most_one_switch_per_sampling_instant():
    sched = ReferenceSchedule(headings=[0.0, 0.0, 0.0], epsilon=0.05)
    state = _state_at(0.0, k=3)
    assert sched.maybe_advance(state)
    assert not sched.maybe_advance(state)  # same instant: blocked
    state.sample_index = 4
    assert sched.maybe_advance(state)
    assert sched.switch_log == [3, 4]


def test_monotone_progress_and_increasing_log():
    sched = ReferenceSchedule(headings=[0.0, 0.0, 0.0, 0.0], epsilon=0.05)
    segments = []
    for k in range(6):
        state = _state_at(0.0, k=k)
        sched.maybe_advance(state)
        segments.append(sched.current_segment)
    assert segments == sorted(segments)
    assert sched.switch_log == sorted(sched.switch_log)
    assert len(set(sched.switch_log)) == len(sched.switch_log)


def test_trigger_uses_max_over_all_agents_by_default():
    sched = ReferenceSchedule(headings=[0.0, 1.0], epsilon=0.05)
    state = make_state(4, seed=1, leader_count=1)
    state.headings[:] = 0.0
    state.headings[-1] = 0.2  # leader far off; default trigger includes it
    assert sched.max_tracking_error(state) == pytest.approx(0.2)
    assert not sched.maybe_advance(state)

    restricted = ReferenceSchedule(headings=[0.0, 1.0], epsilon=0.05,
                                   restrict_to_followers=True)
    assert restricted.max_tracking_error(state) == pytest.approx(0.0)
    assert restricted.maybe_advance(state)


def test_copy_is_independent():
    sched = ReferenceSchedule(headings=[0.0, 1.0], epsilon=0.05)
    clone = sched.copy()
    sched.maybe_advance(_state_at(0.0))
    assert clone.current_segment == 0 and clone.switch_log == []
