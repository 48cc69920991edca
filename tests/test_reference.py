import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uniswarm import (LEADER_CONSTANT, LEADER_DYNAMIC, ModelParams, ReferenceSchedule, run, run_epoch,
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


def _ask(sched, state, segment):
    """The schedule's answer for the one-row block of ``state``'s headings."""
    return sched.maybe_advance(state.headings[None], state.leader_mask, segment)


def test_switch_when_all_agents_on_reference():
    sched = ReferenceSchedule(headings=[0.0, 1.0, 2.0], epsilon=0.05)
    state = _state_at(0.0)
    assert _ask(sched, state, 0) == 0
    # measured against the segment's own heading, 1.0, the same state is off
    assert _ask(sched, state, 1) is None
    assert _ask(sched, _state_at(1.0), 1) == 0
    # a predicate: asking again gives the same answer and changes nothing
    assert _ask(sched, state, 0) == 0
    assert sched == ReferenceSchedule(headings=[0.0, 1.0, 2.0], epsilon=0.05)
    # in a block of instants, the first row that is on the reference
    block = np.stack([_state_at(h).headings for h in (1.0, 0.5, 0.0, 0.0)])
    assert sched.maybe_advance(block, state.leader_mask, 0) == 2
    assert sched.maybe_advance(block, state.leader_mask, 1) == 0


def test_no_switch_when_one_agent_off():
    sched = ReferenceSchedule(headings=[0.0, 1.0], epsilon=0.05)
    state = _state_at(0.0)
    state.headings[1] = 0.1  # off by 2*epsilon
    assert _ask(sched, state, 0) is None
    assert sched.maybe_advance(np.stack([state.headings] * 3), state.leader_mask, 0) is None


def test_exhausted_schedule_never_advances():
    state = _state_at(0.5)
    assert _ask(ReferenceSchedule(headings=[0.5], epsilon=0.05), state, 0) is None
    last = ReferenceSchedule(headings=[0.0, 0.5], epsilon=0.05)
    assert _ask(last, state, 1) is None
    # nor does an empty block of instants
    assert last.maybe_advance(np.empty((0, 4)), state.leader_mask, 0) is None


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
    assert _ask(sched, state, 0) is None
    # the max error is 0.2: a run switches at epsilon 0.2, not at the float below
    assert _ask(dataclasses.replace(sched, epsilon=0.2), state, 0) == 0
    assert _ask(dataclasses.replace(sched, epsilon=np.nextafter(0.2, 0.0)), state, 0) is None

    restricted = ReferenceSchedule(headings=[0.0, 1.0], epsilon=0.05,
                                   restrict_to_followers=True)
    assert _ask(restricted, state, 0) == 0
    # the followers' max error is 0.0: the smallest epsilon switches
    assert _ask(dataclasses.replace(restricted, epsilon=5e-324), state, 0) == 0


def _per_instant_rule(sched, headings, leader_mask, segment):
    """The per-instant trigger that the block rule replaced: whether a run at
    ``segment`` switches at an instant with the (m,) ``headings``."""
    if sched.restrict_to_followers and leader_mask.any():
        headings = headings[~leader_mask]
    error = float(np.abs(headings - float(sched.headings[segment])).max())
    return segment < len(sched.headings) - 1 and error <= sched.epsilon


# dyadic values, so that an error equal to epsilon is exactly epsilon
_DYADIC = st.integers(-16, 16).map(lambda i: i / 8)


@st.composite
def _blocks(draw):
    targets = draw(st.lists(_DYADIC, min_size=1, max_size=4))
    sched = ReferenceSchedule(headings=targets,
                              epsilon=draw(st.sampled_from([0.125, 0.25, 1.0])),
                              restrict_to_followers=draw(st.booleans()))
    m = draw(st.integers(1, 6))
    leader_mask = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    leader_mask[draw(st.integers(0, m - 1))] = False  # a swarm has at least one follower
    segment = draw(st.integers(0, len(targets) - 1))
    rows = draw(st.integers(0, 6))
    # each heading is the segment's target plus a dyadic error
    errors = draw(st.lists(st.lists(_DYADIC, min_size=m, max_size=m),
                           min_size=rows, max_size=rows))
    headings = targets[segment] + np.array(errors, dtype=float).reshape(rows, m)
    return sched, headings, leader_mask, segment


@given(_blocks())
@settings(max_examples=300, deadline=None)
@example((ReferenceSchedule(headings=[0.0, 1.0], epsilon=0.25), np.array([[0.5], [0.25]]),
          np.array([False]), 0))  # an error exactly epsilon
@example((ReferenceSchedule(headings=[0.0, 1.0], epsilon=0.25), np.empty((0, 2)),
          np.array([False, True]), 0))  # an empty block
@example((ReferenceSchedule(headings=[0.0, 1.0], epsilon=0.25, restrict_to_followers=True),
          np.array([[0.5, 0.0], [0.25, 0.5]]), np.array([True, False]), 0))  # followers only
@example((ReferenceSchedule(headings=[0.0, 1.0], epsilon=0.25), np.array([[1.0]]),
          np.array([False]), 1))  # the last segment
def test_block_rule_is_the_per_instant_rule_row_by_row(case):
    sched, headings, leader_mask, segment = case
    want = next((j for j, row in enumerate(headings)
                 if _per_instant_rule(sched, row, leader_mask, segment)), None)
    assert sched.maybe_advance(headings, leader_mask, segment) == want




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


class _NeverAsked(ReferenceSchedule):
    def maybe_advance(self, headings, leader_mask, segment):
        raise AssertionError("a run at its last segment asked the schedule")


@pytest.mark.parametrize("params, steps, heading", [
    # the acceptance-criterion-8 config and the fig3 scenario's
    (ModelParams(n=100, alpha_n=0.3, r_n=0.3, v_n=0.1, tau_n=0.01, vartheta=0.5), 300, np.pi / 4),
    (scenario_fig3().params, 3000, np.pi / 2)])
def test_constant_reference_is_the_one_heading_schedule(params, steps, heading):
    state = sample_initial(params, 0)
    constant = run_epoch(state, params, steps, controller=LEADER_CONSTANT,
                         reference_heading=heading)
    one_heading = run_epoch(state, params, steps, controller=LEADER_DYNAMIC,
                            schedule=_NeverAsked(headings=[heading], epsilon=1e3))
    _assert_same_trajectory(constant, one_heading)
    assert np.array_equal(constant.reference_headings, np.full(steps, heading))
    assert constant.switch_log == one_heading.switch_log == []
