"""Explicit zero-order-hold control signals.

The discrete averaging map is what the simulator iterates, but the
underlying control signals (rotational speed, acceleration) are exposed
here so the hold-and-integrate equivalence -- heading(t_k) + tau*omega
equals the discrete update -- is a tested property of the code rather
than an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SwarmState
from .graphs import ProximityGraph


@dataclass(frozen=True)
class ControlSignal:
    """Constant control over one dwell interval [t_k, t_{k+1})."""

    omega: float  # rotational speed, rad per time unit
    u: float  # acceleration, speed change per time unit


def follower_control(agent: int, state: SwarmState, graph: ProximityGraph, tau: float) -> ControlSignal:
    """Nearest-neighbor rule: average state differences over current neighbors,
    scaled by 1/tau so one hold interval lands exactly on the neighbor mean."""
    columns, starts = graph.neighbor_lists
    neighbors = columns[starts[agent]:starts[agent] + graph.degrees[agent]]
    degree = float(graph.divisors[agent])
    d_theta = float(np.sum(state.headings[neighbors] - state.headings[agent]))
    d_speed = float(np.sum(state.speeds[neighbors] - state.speeds[agent]))
    return ControlSignal(omega=d_theta / (tau * degree), u=d_speed / (tau * degree))


def leader_control(agent: int, state: SwarmState, graph: ProximityGraph, tau: float,
                   vartheta: float, reference_heading: float,
                   reference_speed: float) -> ControlSignal:
    """Leader control: blend the reference pull with the neighbor average.

    vartheta = 0 degenerates the leader to a follower; sensitivity runs may
    use it, and ``ModelParams.validate(strict=True)`` rejects it.
    """
    if not state.leader_mask[agent]:
        raise ValueError(f"role mismatch: agent {agent} is a follower")
    local = follower_control(agent, state, graph, tau)
    omega = (vartheta * (reference_heading - float(state.headings[agent]))
             + (1.0 - vartheta) * local.omega * tau) / tau
    u = (vartheta * (reference_speed - float(state.speeds[agent]))
         + (1.0 - vartheta) * local.u * tau) / tau
    return ControlSignal(omega=omega, u=u)
