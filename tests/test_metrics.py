import numpy as np
import pytest

from uniswarm import (ModelParams, ReferenceSchedule, RunConfig, RunPass, build_graph,
                      connectivity, geometric_envelope_audit, metrics_baseline, recursion_audit,
                      ring_containment_check, run, run_epoch, sample_initial, step_metrics,
                      sync_detect)
from uniswarm.dynamics import LEADER_CONSTANT, LEADER_DYNAMIC, LEADERLESS, SwarmState
from uniswarm.graphs import (averaging_matrix, averaging_rows, graph_from_distances,
                             leader_fractions, pairwise_distances)
from uniswarm.metrics import (_AUDIT_BLOCK, FAIL, PASS, REPORT, SKIP, EnvelopeAuditReport,
                              StepMetrics, _envelope_integral, write_metrics_csv)

from conftest import make_state, matrix_deviation


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
    assert abs(got - dense) <= 1e-12 * max(1.0, dense)


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
        lhs = float(np.abs(dist_k1 - dist_k).max())
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


def _random_trajectory(seed, steps):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 30))
    params = ModelParams(n=m, r_n=float(rng.uniform(0.2, 0.6)), v_n=float(rng.uniform(0.0, 0.3)),
                         tau_n=float(rng.uniform(0.005, 0.05)))
    return run_epoch(sample_initial(params, seed), params, steps)


@pytest.mark.parametrize("steps", [1, _AUDIT_BLOCK - 1, _AUDIT_BLOCK, _AUDIT_BLOCK + 1,
                                   3 * _AUDIT_BLOCK + 57])
@pytest.mark.parametrize("seed", range(3))
def test_recursion_audit_matches_per_step_oracle(seed, steps):
    _assert_matches_oracle(_random_trajectory(seed, steps))


@pytest.mark.parametrize("substeps", [1, 3, 16, 128])
def test_recursion_audit_matches_oracle_across_substeps(substeps):
    _assert_matches_oracle(_random_trajectory(7, 40), substep_count=substeps)


def test_recursion_audit_fails_tampered_trajectory_like_oracle():
    traj = _random_trajectory(11, _AUDIT_BLOCK + 10)
    # teleport one agent at two instants, one in each block: distances jump
    # while speeds and headings stay put, so the right-hand side cannot cover it
    for k in (5, _AUDIT_BLOCK + 3):
        traj.positions[k, 0] += 0.5
    rep = _assert_matches_oracle(traj)
    assert rep.fail_count == 4
    assert [k for k, v in enumerate(rep.verdicts) if v == FAIL] == \
        [4, 5, _AUDIT_BLOCK + 2, _AUDIT_BLOCK + 3]
    assert rep.max_violation > 0.4


def test_recursion_audit_rejects_zero_substeps():
    traj = _random_trajectory(0, 5)
    with pytest.raises(ValueError, match="substep_count"):
        recursion_audit(traj, substep_count=0)


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


def test_envelope_audit_leaderless_is_report():
    p = ModelParams(n=20, r_n=0.4, v_n=0.1, tau_n=0.01)
    traj = run_epoch(sample_initial(p, 5), p, 50)
    rep = geometric_envelope_audit(traj)
    assert rep.verdict == REPORT
    assert 0.0 <= rep.details["fraction_within"] <= 1.0


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
    fused into the simulation: one distance matrix and graph per call."""
    headings, speeds = state.headings, state.speeds
    delta_theta = float(headings.max() - headings.min())
    delta_v = float(speeds.max() - speeds.min())
    tracking_theta = float(np.abs(headings - reference_heading).max()) \
        if np.isfinite(reference_heading) else float("nan")
    tracking_v = float(np.abs(speeds - reference_speed).max()) \
        if np.isfinite(reference_speed) else float("nan")
    distances = pairwise_distances(state.positions)
    initial_graph = baseline.graph
    graph = graph_from_distances(distances, initial_graph.radius, initial_graph.self_inclusive)
    distances -= baseline.distances
    drift = float(np.abs(distances, out=distances).max())
    changed = np.where((graph.adjacency != initial_graph.adjacency).any(axis=1))[0]
    p_dev = 0.0
    if len(changed):
        p_dev = float(np.linalg.norm(averaging_rows(graph, changed)
                                     - baseline.averaging[changed], 2))
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
    # repr is exact for floats, tells 0.0 from -0.0 and matches nan with nan
    assert [repr(r) for r in rows] == [repr(r) for r in _oracle_metrics(traj)]
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
    instants = RunPass(metrics_baseline(state, p))
    traj = run_epoch(state, p, 40, controller=LEADER_CONSTANT, reference_heading=0.2,
                     observer=instants.observe)
    _assert_fused_matches_oracle(traj, instants.step_metrics(traj),
                                 instants.recursion_audit(traj),
                                 instants.geometric_envelope_audit(traj, p))


def test_run_pass_counts_graph_changes():
    p = ModelParams(n=12, r_n=0.25, v_n=0.5, tau_n=0.05)
    state = sample_initial(p, 4)
    instants = RunPass(metrics_baseline(state, p))
    traj = run_epoch(state, p, 30, observer=instants.observe)
    adj = [build_graph(x, p.r_n).adjacency for x in traj.positions]
    changes = sum(not np.array_equal(a, b) for a, b in zip(adj[1:], adj[:-1]))
    assert 0 < changes < traj.n_steps
    assert instants.graph_changes == changes
