"""Parameter-bound checks for the synchronization and tracking guarantees.

Each check evaluates one inequality from the analysis and reports both
sides.  Asymptotic separation requirements (a_n << b_n) are reported as
ratios against a configurable separation factor (default 10) and are never
hard-asserted: they are almost-sure limit statements, not finite-n claims.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import ModelParams, SwarmState
from .graphs import build_graph, leader_fractions, neighbor_sums

DEFAULT_SEPARATION = 10.0


@dataclass(frozen=True)
class ConditionReport:
    """One evaluated inequality: satisfied iff lhs <= rhs."""

    name: str
    satisfied: bool
    lhs: float
    rhs: float
    margin: float  # rhs - lhs
    notes: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "satisfied": self.satisfied, "lhs": self.lhs,
                "rhs": self.rhs, "margin": self.margin, "notes": self.notes}


def _report(name: str, lhs: float, rhs: float, notes: str = "") -> ConditionReport:
    return ConditionReport(name=name, satisfied=bool(lhs <= rhs), lhs=float(lhs),
                           rhs=float(rhs), margin=float(rhs - lhs), notes=notes)


def radius_regime_ratios(params: ModelParams, n: int) -> dict:
    """Ratios r / (log n / n)^(1/6) and 1 / r for the admissible radius window."""
    lower = (math.log(n) / n) ** (1.0 / 6.0)
    return {"lower_ratio": params.r_n / lower, "upper_ratio": 1.0 / params.r_n}


def check_theorem1(params: ModelParams, n: int | None = None) -> ConditionReport:
    """Leaderless synchronization condition: v*tau <= c' * eta_n * r^3 / log n."""
    n = params.n if n is None else n
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    params.validate()
    lhs = params.v_n * params.tau_n
    rhs = params.c_prime * params.eta_n_effective * params.r_n ** 3 / math.log(n)
    ratios = radius_regime_ratios(params, n)
    notes = (f"eta_n={params.eta_n_effective:.6e}; radius regime ratios "
             f"lower={ratios['lower_ratio']:.3f}, upper={ratios['upper_ratio']:.3f} "
             "(asymptotic, reported only)")
    return _report("theorem1_leaderless_sync", lhs, rhs, notes)


def check_corollary1(params: ModelParams, n: int | None = None,
                     c_tilde: float | None = None) -> ConditionReport:
    """Constant-radius variant: tau <= c_tilde / log n.

    The default c_tilde = c' * c * r^5 / v follows from the unit-square
    rescaling of the theorem-1 chain with constant r and v.
    """
    n = params.n if n is None else n
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    params.validate()
    if c_tilde is None:
        c_tilde = (params.c_prime * params.c * params.r_n ** 5 / params.v_n
                   if params.v_n > 0 else math.inf)
    rhs = c_tilde / math.log(n)
    return _report("corollary1_dwell_time", params.tau_n, rhs, f"c_tilde={c_tilde:.6e}")


def _branch_for_speed(params: ModelParams, n: int, separation: float) -> tuple[int, float]:
    """Branch 1 when v*tau >> log n / (n r); otherwise branch 2."""
    scale = math.log(n) / (n * params.r_n)
    ratio = params.v_n * params.tau_n / scale if scale > 0 else math.inf
    return (1 if ratio >= separation else 2), ratio


def check_theorem2(params: ModelParams, n: int | None = None, reference_heading: float = 0.0,
                   separation: float = DEFAULT_SEPARATION) -> ConditionReport:
    """Leader-ratio condition for tracking a constant reference."""
    n = params.n if n is None else n
    if params.leader_count == 0:
        raise ValueError("theorem 2 applies to runs with leaders")
    params.validate()
    branch, ratio = _branch_for_speed(params, n, separation)
    if branch == 1:
        required = (8.0 * params.v_n * params.tau_n * (1.0 + abs(reference_heading))
                    / (params.eta * params.r_n))
        return _report("theorem2_leader_ratio", required, params.vartheta * params.alpha_n,
                       f"branch 1 (v*tau / (log n / (n r)) = {ratio:.3f} >= {separation}); "
                       f"lhs is the required vartheta*alpha")
    required = separation * math.log(n) / (n * params.r_n ** 2)
    return _report("theorem2_leader_ratio", required, params.alpha_n,
                   f"branch 2 (v*tau ratio {ratio:.3f} < {separation}); alpha must exceed "
                   f"{separation} x log n/(n r^2); asymptotic, factor configurable")


def check_theorem3(params: ModelParams, schedule, n: int | None = None,
                   separation: float = DEFAULT_SEPARATION) -> ConditionReport:
    """Leader-ratio condition for tracking a piecewise-constant reference."""
    n = params.n if n is None else n
    if schedule is None:
        raise ValueError("theorem 3 needs a reference schedule")
    params.validate()
    branch, ratio = _branch_for_speed(params, n, separation)
    total_jump = schedule.total_variation()
    theta0 = abs(schedule.headings[0])
    if branch == 1:
        required = (4.0 * params.v_n * params.tau_n * (1.0 + total_jump + theta0)
                    / (params.eta * params.r_n))
        return _report("theorem3_dynamic_tracking", required, params.vartheta * params.alpha_n,
                       f"branch 1 (ratio {ratio:.3f}); sum of jumps = {total_jump:.6g}; "
                       f"lhs is the required vartheta*alpha")
    required = separation * math.log(n) / (n * params.r_n ** 2)
    return _report("theorem3_dynamic_tracking", required, params.alpha_n,
                   f"branch 2 (ratio {ratio:.3f}); asymptotic, factor configurable")


@dataclass
class InitialDiagnostics:
    """Statistics of the initial configuration used by the proof machinery."""

    a_n: float
    grid_cells: int
    max_cell_occupancy: int
    max_cell_followers: int
    max_cell_leaders: int
    f_n: float
    theta_sum_max: float
    v_sum_max: float
    d_max0: int
    d_min0: int
    kappa: float
    lambda_hat: float
    flags: dict = field(default_factory=dict)


def initial_diagnostics(state: SwarmState, params: ModelParams, a_n: float | None = None,
                        sum_bound: float = 5.0) -> InitialDiagnostics:
    """Grid occupancy, neighbor-sum statistics and extremal initial degrees.

    Flags compare against the expected scales: cell counts near n*a_n^2,
    neighbor sums below sum_bound * f_n, and d_max/d_min near n*pi*r^2 and
    n*pi*r^2/4.  They are diagnostics, not assertions.
    """
    if state.sample_index != 0:
        raise ValueError("initial diagnostics require the state at k = 0")
    n = params.n
    if a_n is None:
        # geometric mean of the admissible window (sqrt(log n / n), 1)
        a_n = (math.log(n) / n) ** 0.25
    window_lo = math.sqrt(math.log(n) / n)
    if not window_lo < a_n < 1.0:
        warnings.warn(f"a_n={a_n:.4g} outside the admissible window ({window_lo:.4g}, 1)",
                      stacklevel=2)

    cells_per_side = math.ceil(1.0 / a_n)
    cell_idx = np.minimum((state.positions / a_n).astype(int), cells_per_side - 1)
    flat = cell_idx[:, 0] * cells_per_side + cell_idx[:, 1]
    n_cells = cells_per_side ** 2
    occupancy = np.bincount(flat, minlength=n_cells)
    follower_occ = np.bincount(flat[~state.leader_mask], minlength=n_cells)
    leader_occ = np.bincount(flat[state.leader_mask], minlength=n_cells)

    rho = int(state.leader_mask.sum())
    f_n = math.sqrt((n + rho) * params.r_n ** 2 * math.log(n)) if rho else \
        math.sqrt(n * params.r_n ** 2 * math.log(n))

    graph = build_graph(state.positions, params.r_n, params.self_inclusive)
    theta_sums = neighbor_sums(graph, state.headings)
    v_sums = neighbor_sums(graph, state.speeds - params.v_n / 2.0)
    theta_sum_max = float(np.abs(theta_sums).max())
    v_sum_max = float(np.abs(v_sums).max())

    d_max0 = int(graph.degrees.max())
    d_min0 = int(graph.degrees.min())
    expected_degree = n * math.pi * params.r_n ** 2

    flags = {
        "cell_occupancy_within_band": bool(
            0.8 * n * a_n ** 2 <= occupancy.max() <= 1.2 * n * a_n ** 2),
        "theta_sum_bounded": bool(theta_sum_max <= sum_bound * f_n),
        "v_sum_bounded": bool(v_sum_max <= sum_bound * params.v_n * f_n),
        "d_max_within_band": bool(0.8 * expected_degree <= d_max0 <= 1.2 * expected_degree),
        "d_min_within_band": bool(
            0.8 * expected_degree / 4 <= d_min0 <= 1.2 * expected_degree / 4),
    }
    return InitialDiagnostics(
        a_n=float(a_n), grid_cells=n_cells,
        max_cell_occupancy=int(occupancy.max()),
        max_cell_followers=int(follower_occ.max()),
        max_cell_leaders=int(leader_occ.max()),
        f_n=float(f_n), theta_sum_max=theta_sum_max, v_sum_max=v_sum_max,
        d_max0=d_max0, d_min0=d_min0,
        kappa=math.sqrt(d_max0 / max(d_min0, 1)),
        lambda_hat=1.0 - params.r_n ** 2 / 288.0,
        flags=flags)


@dataclass
class LeaderDegreeReport:
    """Initial per-role neighbor counts against their expected scales."""

    d11_min: int
    d11_max: int
    d12_min: int
    d12_max: int
    alpha_min: float
    alpha_mean: float
    alpha_max: float
    expected_alpha: float
    flags: dict = field(default_factory=dict)


def leader_degree_estimates(state: SwarmState, params: ModelParams,
                            band: float = 0.25) -> LeaderDegreeReport:
    """Min/max of the follower- and leader-neighbor counts at k = 0.

    alpha_i excludes the agent itself from both counts; zero leaders give
    d_i2 = 0 and alpha_i = 0 identically.
    """
    if state.sample_index != 0:
        raise ValueError("leader degree estimates require the state at k = 0")
    graph = build_graph(state.positions, params.r_n, params.self_inclusive)
    # leader neighbors (self counted when a leader), exact integers as floats
    d2 = neighbor_sums(graph, state.leader_mask.astype(float))
    d1 = graph.degrees - d2

    alpha, _ = leader_fractions(graph, state.leader_mask)

    n = params.n
    alpha_n = params.alpha_n
    base = n * math.pi * params.r_n ** 2
    expected_alpha = alpha_n / (1.0 + alpha_n) if alpha_n > 0 else 0.0

    flags = {}
    if alpha_n > 0:
        flags = {
            "d11_max_within_band": bool((1 - band) * base <= d1.max() <= (1 + band) * base),
            "d11_min_within_band": bool(
                (1 - band) * base / 4 <= d1.min() <= (1 + band) * base / 4),
            "d12_max_within_band": bool(
                (1 - band) * base * alpha_n <= d2.max() <= (1 + band) * base * alpha_n),
            "d12_min_within_band": bool(
                (1 - band) * base * alpha_n / 4 <= d2.min() <= (1 + band) * base * alpha_n / 4),
            "alpha_mean_within_band": bool(
                (1 - band) * expected_alpha <= alpha.mean() <= (1 + band) * expected_alpha),
        }
    return LeaderDegreeReport(
        d11_min=int(d1.min()), d11_max=int(d1.max()),
        d12_min=int(d2.min()), d12_max=int(d2.max()),
        alpha_min=float(alpha.min()), alpha_mean=float(alpha.mean()),
        alpha_max=float(alpha.max()),
        expected_alpha=float(expected_alpha), flags=flags)
