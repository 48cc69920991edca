"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria reproduce campaign-level behavior; exact criteria audit
unconditional inequalities and closed forms against independent oracles.
"""

import math

import numpy as np
import pytest

from uniswarm import (ModelParams, RunConfig, build_graph, campaign, check_theorem1,
                      check_theorem2, check_theorem3, closed_form_displacement,
                      connectivity, follower_control, leader_control,
                      leader_discrete_step, leaderless_discrete_step, run,
                      scenario_fig3, spectral_summary)
from uniswarm.dynamics import LEADER_CONSTANT, integrate_position_oracle
from uniswarm.graphs import averaging_matrix, normalized_laplacian
from uniswarm.metrics import FAIL
from uniswarm.reference import ReferenceSchedule

from conftest import make_state


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[acceptance {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def leaderless_campaign():
    params = ModelParams(n=50, r_n=0.4, v_n=0.05, tau_n=0.01)
    base = RunConfig(params=params, steps=500, seed=0, audit_level="sampled")
    summary, results = campaign(base, list(range(50)), keep_results=True)
    return summary, results


def test_criterion_1_recursion_audit_zero_fails(leaderless_campaign, capsys):
    summary, results = leaderless_campaign
    fails = sum(r.recursion.fail_count for r in results)
    _report(capsys, 1, fails == 0 and len(results) == 50,
            f"recursion audit FAILs over 50 leaderless runs: {fails}")


def test_criterion_2_convexity_monotone(leaderless_campaign, capsys):
    _, results = leaderless_campaign
    violations = 0
    for r in results:
        for arr in (r.trajectory.headings, r.trajectory.speeds):
            violations += int(np.any(np.diff(arr.max(axis=1)) > 1e-12))
            violations += int(np.any(np.diff(arr.min(axis=1)) < -1e-12))
    _report(capsys, 2, violations == 0,
            f"max/min envelope monotonicity violations (tol 1e-12): {violations}")


def test_criterion_3_leaderless_synchronization(leaderless_campaign, capsys):
    summary, _ = leaderless_campaign
    good = sum(1 for rec in summary.per_run
               if rec["sync_index"] is not None and rec["connected_all"])
    _report(capsys, 3, good >= 0.95 * 50,
            f"runs synchronized (delta < 1e-6) with connectivity preserved: {good}/50")


def test_criterion_4_initial_degree_bands(capsys):
    n, r = 5000, 0.1
    expected = n * math.pi * r * r
    good = 0
    for seed in range(50):
        g = build_graph(np.random.default_rng(seed).random((n, 2)), r)
        d_max, d_min = int(g.degrees.max()), int(g.degrees.min())
        if (0.8 * expected <= d_max <= 1.2 * expected
                and 0.75 * expected / 4 <= d_min <= 1.25 * expected / 4):
            good += 1
    _report(capsys, 4, good >= 45,
            f"seeds with d_max in [0.8,1.2]*n*pi*r^2 and d_min in "
            f"[0.75,1.25]*n*pi*r^2/4: {good}/50 (need 45)")


def test_criterion_5_spectral_consistency(capsys):
    worst_gap, worst_eig = 0.0, 0.0
    count = 0
    seed = 0
    while count < 100:
        rng = np.random.default_rng(seed)
        seed += 1
        m = int(rng.integers(2, 31))
        g = build_graph(rng.random((m, 2)), float(rng.uniform(0.3, 0.9)))
        if not connectivity(g):
            continue
        count += 1
        s = spectral_summary(g)
        # independent dense oracle on the symmetric similarity transform
        lam = np.sort(np.linalg.eigvalsh(normalized_laplacian(g)))
        gap = max(abs(1 - lam[1]), abs(1 - lam[-1]))
        worst_gap = max(worst_gap, abs(s.spectral_gap - gap))
        mu = np.sort(np.linalg.eigvals(averaging_matrix(g)).real)
        worst_eig = max(worst_eig, float(np.abs(np.sort(1 - lam) - mu).max()))
    complete = spectral_summary(build_graph(np.random.default_rng(1).random((10, 2)) * 0.01, 1.0))
    ok = worst_gap <= 1e-9 and worst_eig <= 1e-9 and abs(complete.spectral_gap) <= 1e-12
    _report(capsys, 5, ok,
            f"gap oracle diff {worst_gap:.2e}, eig(P)=1-eig(L) diff {worst_eig:.2e}, "
            f"complete-graph gap {complete.spectral_gap:.2e}")


def test_criterion_6_exact_position_integration(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(10_000):
        a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
        c = rng.uniform(-4, 4)
        if i % 10 == 0:
            d = rng.uniform(-1e-8, 1e-8)  # near-singular branch
        else:
            d = rng.uniform(-10, 10)
        tau = rng.uniform(1e-3, 0.1)
        dx, dy = closed_form_displacement(a, b, c, d, tau)
        ox, oy = integrate_position_oracle(a, b, c, d, tau)
        worst = max(worst, abs(dx - ox), abs(dy - oy))
    _report(capsys, 6, worst < 1e-10,
            f"max |closed-form - quadrature| over 1e4 draws: {worst:.2e}")


def test_criterion_7_hold_and_integrate_equivalence(capsys):
    worst = 0.0
    for seed in range(500):
        state = make_state(12, seed=seed)
        g = build_graph(state.positions, 0.4)
        nxt = leaderless_discrete_step(state, g)
        for i in range(12):
            sig = follower_control(i, state, g, 0.01)
            worst = max(worst,
                        abs(state.headings[i] + 0.01 * sig.omega - nxt.headings[i]),
                        abs(state.speeds[i] + 0.01 * sig.u - nxt.speeds[i]))
    for seed in range(500):
        state = make_state(12, seed=seed, leader_count=4)
        g = build_graph(state.positions, 0.4)
        nxt = leader_discrete_step(state, g, 0.6, 0.2, vartheta=0.4)
        for i in np.where(state.leader_mask)[0]:
            sig = leader_control(int(i), state, g, 0.01, 0.4, 0.6, 0.2)
            worst = max(worst,
                        abs(state.headings[i] + 0.01 * sig.omega - nxt.headings[i]),
                        abs(state.speeds[i] + 0.01 * sig.u - nxt.speeds[i]))
    _report(capsys, 7, worst <= 1e-12,
            f"max |held control integral - discrete update| over 1e3 states: {worst:.2e}")


def test_criterion_8_leader_follower_tracking(capsys):
    params = ModelParams(n=100, alpha_n=0.3, r_n=0.3, v_n=0.1, tau_n=0.01, vartheta=0.5)
    base = RunConfig(params=params, steps=1000, seed=0, mode=LEADER_CONSTANT,
                     reference_heading=np.pi / 4, audit_level="sampled")
    summary, results = campaign(base, list(range(20)), keep_results=True)
    tracked = sum(1 for r in results
                  if r.metrics[-1].tracking_theta < 1e-3 and r.metrics[-1].tracking_v < 1e-3)
    envelope_fails = sum(1 for r in results if r.envelope.verdict == FAIL)
    skips = sum(1 for r in results if r.envelope.verdict == "SKIP")
    ok = tracked >= 18 and envelope_fails == 0
    _report(capsys, 8, ok,
            f"tracking < 1e-3 in {tracked}/20 seeds (need 18); envelope audit "
            f"FAILs {envelope_fails}, SKIPs {skips}")


def _fig3_run_passes(seed: int) -> bool:
    cfg = scenario_fig3(seed=seed)
    cfg.audit_level = "off"
    result = run(cfg)
    traj = result.trajectory
    switches = traj.switch_log
    if len(switches) != 4:  # all 5 segments visited
        return False
    # trigger soundness: re-check the logged error condition from the record
    headings = [0.0, np.pi / 2, 0.0, -np.pi / 2, 0.0]
    for seg, k in enumerate(switches):
        if np.abs(traj.headings[k] - headings[seg]).max() > 0.05 + 1e-12:
            return False
    if np.abs(traj.speeds[-1] - cfg.params.v_n).max() >= 1e-3:
        return False
    # qualitative right-up-right-down-right displacement of the swarm center
    bounds = [0] + switches + [traj.n_steps]
    center = traj.positions.mean(axis=1)
    want_x = [1, None, 1, None, 1]
    want_y = [None, 1, None, -1, None]
    for seg, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        d = center[hi] - center[lo]
        if want_x[seg] is not None and np.sign(d[0]) != want_x[seg]:
            return False
        if want_y[seg] is not None and np.sign(d[1]) != want_y[seg]:
            return False
    return True


def test_criterion_9_obstacle_scenario(capsys):
    passes = sum(_fig3_run_passes(seed) for seed in range(20))
    _report(capsys, 9, passes >= 16,
            f"obstacle-scenario seeds passing all checks: {passes}/20 (need 16)")


def test_criterion_10_theorem_arithmetic(capsys):
    params = ModelParams(n=200, r_n=0.3, v_n=0.3, tau_n=0.01, alpha_n=0.3, vartheta=0.5)
    # independent recomputation of the three hand-derived strict-mode bounds
    t1_rhs = (1 / 144) * ((1 / 46080) * 0.3 ** 2) * 0.3 ** 3 / math.log(200)
    t2_req_alpha = 8 * 0.3 * 0.01 * (1 + 0.0) / (0.5 * (1 / 512) * 0.3)
    t3_req = 4 * 0.3 * 0.01 * (1 + 2 * math.pi + 0.0) / ((1 / 512) * 0.3)

    rep1 = check_theorem1(params)
    rep2 = check_theorem2(params, reference_heading=0.0, separation=0.0)
    sched = ReferenceSchedule(headings=[0.0, np.pi / 2, 0.0, -np.pi / 2, 0.0])
    rep3 = check_theorem3(params, sched, separation=0.0)

    errs = (abs(rep1.rhs - t1_rhs) / t1_rhs,
            abs(rep2.lhs / params.vartheta - t2_req_alpha) / t2_req_alpha,
            abs(rep3.lhs - t3_req) / t3_req)
    ok = all(e <= 1e-12 for e in errs) and not rep1.satisfied and not rep2.satisfied
    _report(capsys, 10, ok,
            f"relative errors vs hand arithmetic: T1 {errs[0]:.1e}, "
            f"T2 {errs[1]:.1e}, T3 {errs[2]:.1e}")


def test_criterion_11_determinism(tmp_path, capsys):
    params = ModelParams(n=30, r_n=0.4, v_n=0.05, tau_n=0.01)
    cfg = RunConfig(params=params, steps=50, seed=13, audit_level="sampled")
    run(cfg, out_dir=tmp_path / "a")
    run(cfg, out_dir=tmp_path / "b")
    # run_meta.json is left out: it records the wall-clock time of the run
    names = ("metrics.csv", "trajectory.csv", "audits.json")
    differing = [name for name in names
                 if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()]
    _report(capsys, 11, not differing,
            f"repeated run produces byte-identical {', '.join(names)}; differing: {differing}")
