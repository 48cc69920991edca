import math

import numpy as np
import pytest

from uniswarm import (ModelParams, ReferenceSchedule, check_corollary1, check_theorem1,
                      check_theorem2, check_theorem3, initial_diagnostics,
                      leader_degree_estimates, sample_initial)
from uniswarm.dynamics import SwarmState


def _params(**kw):
    base = dict(n=200, r_n=0.3, v_n=0.3, tau_n=0.01)
    base.update(kw)
    return ModelParams(**base)


def test_theorem1_zero_speed_always_satisfied():
    rep = check_theorem1(_params(v_n=0.0))
    assert rep.satisfied and rep.lhs == 0.0


def test_theorem1_boundary_equality_satisfied():
    p = _params(v_n=1.0)
    rhs = check_theorem1(p).rhs
    boundary = _params(v_n=1.0, tau_n=rhs)
    assert check_theorem1(boundary).satisfied


def test_theorem1_needs_two_agents():
    with pytest.raises(ValueError, match="n >= 2"):
        check_theorem1(_params(), n=1)


def test_corollary1_needs_two_agents():
    with pytest.raises(ValueError, match="n >= 2"):
        check_corollary1(_params(), n=1)


@pytest.mark.parametrize("check", [check_corollary1, check_theorem2,
                                   lambda p: check_theorem3(p, ReferenceSchedule([0.0]))],
                         ids=["corollary1", "theorem2", "theorem3"])
def test_leader_checks_validate_params(check):
    with pytest.raises(ValueError, match="eta must be positive"):
        check(_params(alpha_n=0.3, eta=0.0))


def test_theorem1_report_arithmetic_self_consistent():
    rep = check_theorem1(_params())
    assert rep.satisfied == (rep.lhs <= rep.rhs)
    assert rep.margin == rep.rhs - rep.lhs


def test_theorem1_monotonicity_sweep():
    margins_v = [check_theorem1(_params(v_n=v)).margin for v in (0.1, 0.2, 0.4)]
    assert margins_v == sorted(margins_v, reverse=True)
    margins_tau = [check_theorem1(_params(tau_n=t)).margin for t in (0.005, 0.01, 0.02)]
    assert margins_tau == sorted(margins_tau, reverse=True)
    margins_r = [check_theorem1(_params(r_n=r)).margin for r in (0.2, 0.3, 0.4)]
    assert margins_r == sorted(margins_r)


def test_corollary1_zero_tau_impossible_but_tiny_satisfied():
    rep = check_corollary1(_params(tau_n=1e-12), c_tilde=1e-6)
    assert rep.satisfied
    assert rep.rhs == pytest.approx(1e-6 / math.log(200))


def test_corollary1_log_identity():
    p = _params()
    rep_n = check_corollary1(p, n=100, c_tilde=1e-6)
    rep_n2 = check_corollary1(p, n=100 ** 2, c_tilde=1e-6)
    assert rep_n2.rhs == pytest.approx(rep_n.rhs / 2)


def test_theorem2_requires_leaders():
    with pytest.raises(ValueError, match="leaders"):
        check_theorem2(_params())


def test_theorem2_all_leaders_tiny_speed_satisfied():
    p = _params(alpha_n=1.0, vartheta=1.0, v_n=1e-9)
    rep = check_theorem2(p, separation=0.0)  # force branch 1
    assert rep.satisfied


def test_theorem2_reference_magnitude_scales_requirement():
    p = _params(alpha_n=0.3)
    at_zero = check_theorem2(p, reference_heading=0.0, separation=0.0)
    at_one = check_theorem2(p, reference_heading=1.0, separation=0.0)
    assert at_one.lhs == pytest.approx(2 * at_zero.lhs)


def test_theorem2_branch_selection():
    slow = check_theorem2(_params(alpha_n=0.3, v_n=1e-4))
    assert "branch 2" in slow.notes
    fast = check_theorem2(_params(alpha_n=0.3, v_n=10.0, tau_n=1.0), separation=10)
    assert "branch 1" in fast.notes


def test_theorem3_requires_schedule():
    with pytest.raises(ValueError, match="schedule"):
        check_theorem3(_params(alpha_n=0.3), None)


def test_theorem3_constant_schedule_is_half_theorem2():
    p = _params(alpha_n=0.3)
    sched = ReferenceSchedule(headings=[0.7])
    t3 = check_theorem3(p, sched, separation=0.0)
    t2 = check_theorem2(p, reference_heading=0.7, separation=0.0)
    assert t3.lhs == pytest.approx(t2.lhs / 2)  # 4-vs-8 constant, same structure


def test_theorem3_doubling_jumps_scales_requirement():
    p = _params(alpha_n=0.3)
    base = ReferenceSchedule(headings=[0.0, 0.5, 0.0])
    double = ReferenceSchedule(headings=[0.0, 1.0, 0.0])
    rep_b = check_theorem3(p, base, separation=0.0)
    rep_d = check_theorem3(p, double, separation=0.0)
    sum_b, sum_d = 1.0, 2.0
    assert rep_d.lhs / rep_b.lhs == pytest.approx((1 + sum_d) / (1 + sum_b))


def test_initial_diagnostics_requires_time_zero():
    p = _params()
    state = sample_initial(p, 0)
    state.sample_index = 3
    with pytest.raises(ValueError, match="k = 0"):
        initial_diagnostics(state, p)


def test_initial_diagnostics_degenerate_point_cloud():
    p = ModelParams(n=10, r_n=0.3, v_n=0.1, tau_n=0.01)
    state = SwarmState(positions=np.full((10, 2), 0.5), headings=np.zeros(10),
                       speeds=np.zeros(10), leader_mask=np.zeros(10, dtype=bool))
    diag = initial_diagnostics(state, p)
    assert diag.d_max0 == diag.d_min0 == 10
    assert diag.max_cell_occupancy == 10
    assert not diag.flags["cell_occupancy_within_band"]
    assert not diag.flags["d_max_within_band"]


def test_initial_diagnostics_scales_on_sampled_state():
    p = ModelParams(n=2000, r_n=0.15, v_n=0.2, tau_n=0.01)
    diag = initial_diagnostics(sample_initial(p, 1), p)
    assert diag.d_min0 >= 1
    assert diag.kappa == pytest.approx(math.sqrt(diag.d_max0 / diag.d_min0))
    assert diag.lambda_hat == pytest.approx(1 - 0.15 ** 2 / 288)
    assert diag.f_n == pytest.approx(math.sqrt(2000 * 0.15 ** 2 * math.log(2000)))
    assert diag.theta_sum_max >= 0 and diag.v_sum_max >= 0


def test_initial_diagnostics_warns_on_bad_window():
    p = ModelParams(n=100, r_n=0.3, v_n=0.1, tau_n=0.01)
    with pytest.warns(UserWarning, match="admissible window"):
        initial_diagnostics(sample_initial(p, 0), p, a_n=1.5)


def test_leader_degree_estimates_zero_leaders():
    p = ModelParams(n=50, r_n=0.3, v_n=0.1, tau_n=0.01)
    rep = leader_degree_estimates(sample_initial(p, 2), p)
    assert rep.d12_min == rep.d12_max == 0
    assert rep.alpha_max == 0.0 and rep.expected_alpha == 0.0


def test_leader_degree_estimates_symmetric_roles():
    # alpha_n = 1: leaders and followers identically distributed
    p = ModelParams(n=2000, r_n=0.15, v_n=0.1, tau_n=0.01, alpha_n=1.0)
    rep = leader_degree_estimates(sample_initial(p, 3), p)
    assert rep.d11_max == pytest.approx(rep.d12_max, rel=0.25)
    assert rep.expected_alpha == pytest.approx(0.5)
    assert abs(rep.alpha_mean - 0.5) < 0.05


def test_leader_degree_alpha_mean_band():
    # frozen from a Monte-Carlo oracle: mean alpha_i(0) stays within 20% of
    # alpha/(1+alpha) at n=4000, alpha=0.2, r=0.15
    p = ModelParams(n=4000, r_n=0.15, v_n=0.1, tau_n=0.01, alpha_n=0.2)
    rep = leader_degree_estimates(sample_initial(p, 4), p)
    expected = 0.2 / 1.2
    assert 0.8 * expected <= rep.alpha_mean <= 1.2 * expected
    assert rep.flags["alpha_mean_within_band"]
