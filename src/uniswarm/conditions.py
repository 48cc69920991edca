"""Parameter-bound checks for the synchronization and tracking guarantees.

Each check evaluates one inequality from the analysis and reports both
sides.  Asymptotic separation requirements (a_n << b_n) are reported as
ratios against a configurable separation factor (default 10) and are never
hard-asserted: they are almost-sure limit statements, not finite-n claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import ModelParams

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
