"""Hybrid closed-loop evolution of a sampled-data unicycle swarm.

Headings and speeds are updated by neighbor averaging at sampling instants
t_k = k*tau and vary linearly in between (the zero-order-hold control makes
the within-interval signals exactly linear).  Positions integrate the
unicycle kinematics in closed form over each dwell interval.

Headings are unwrapped real consensus variables; no mod-2*pi wrapping is
applied, since wrapping would break the convexity of the averaging update.
Agents may leave the unit square: there are no walls, and excursions are
flagged by a diagnostic rather than clamped.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .graphs import STRICT_ETA_MAX, GraphSweep, ProximityGraph, connectivity
from .graphs import build_graph  # noqa: F401  (a layer boundary that perfbench/tracing.py wraps)

STRICT_C_MAX = 1.0 / (144.0 * 320.0)
STRICT_C_PRIME_MAX = 1.0 / 144.0

_FLOAT_FIELDS = ("r_n", "v_n", "tau_n", "alpha_n", "vartheta", "eta", "eta_n", "c", "c_prime",
                 "epsilon")


def _require_integer(name: str, value) -> None:
    """Raises ValueError unless ``value`` is an integer (``operator.index``), not a bool."""
    try:
        operator.index(value)
        integer = not isinstance(value, bool)
    except TypeError:
        integer = False
    if not integer:
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_finite(name: str, value) -> None:
    """Raises ValueError unless ``value`` is a finite real number, not a bool
    and not a string."""
    try:
        finite = not isinstance(value, (bool, np.bool_)) and math.isfinite(value)
    except TypeError:
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _require_bool(name: str, value) -> None:
    """Raises ValueError unless ``value`` is true or false."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be true or false, got {value!r}")


# the largest dwell time whose square, which the closed-form positions
# multiply by, is finite: about 1.34e154
_TAU_N_MAX = math.sqrt(np.finfo(float).max)


@dataclass
class ModelParams:
    """All model parameters.

    ``eta_n`` is the drift budget constant; when left as None it defaults
    to c * r_n**2.  The strict-mode constants (c, c_prime, eta) default to
    their most conservative admissible values.
    """

    n: int
    r_n: float
    v_n: float
    tau_n: float
    alpha_n: float = 0.0
    vartheta: float = 0.5
    eta: float = STRICT_ETA_MAX
    eta_n: float | None = None
    c: float = STRICT_C_MAX
    c_prime: float = STRICT_C_PRIME_MAX
    epsilon: float = 0.05
    self_inclusive: bool = True

    @property
    def leader_count(self) -> int:
        return int(math.ceil(self.n * self.alpha_n)) if self.alpha_n > 0 else 0

    @property
    def total_count(self) -> int:
        return self.n + self.leader_count

    @property
    def eta_n_effective(self) -> float:
        return self.eta_n if self.eta_n is not None else self.c * self.r_n ** 2

    @property
    def drift_budget(self) -> float:
        """Maximum allowed change of any pairwise distance: eta_n * r_n."""
        return self.eta_n_effective * self.r_n

    def validate(self, strict: bool = False) -> None:
        _require_integer("n", self.n)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if name != "eta_n" or value is not None:
                _require_finite(name, value)
        _require_bool("self_inclusive", self.self_inclusive)
        for name in ("r_n", "v_n", "tau_n"):
            value = getattr(self, name)
            if not value >= 0 or (name in ("r_n", "tau_n") and value == 0):
                raise ValueError(f"{name} must be positive, got {value}")
        if self.tau_n > _TAU_N_MAX:
            raise ValueError(f"tau_n must be at most {_TAU_N_MAX:.4g}, above which its square "
                             f"overflows, got {self.tau_n}")
        if not 0 <= self.alpha_n <= 1:
            raise ValueError(f"alpha_n must be in [0, 1], got {self.alpha_n}")
        if not 0 <= self.vartheta <= 1:
            raise ValueError(f"vartheta must be in [0, 1], got {self.vartheta}")
        if strict:
            if not 0 < self.vartheta:
                raise ValueError("strict mode requires 0 < vartheta <= 1")
            if self.c > STRICT_C_MAX:
                raise ValueError(f"strict mode requires c <= 1/(144*320), got {self.c}")
            if self.c_prime > STRICT_C_PRIME_MAX:
                raise ValueError(f"strict mode requires c_prime <= 1/144, got {self.c_prime}")
            if self.eta > STRICT_ETA_MAX:
                raise ValueError(f"strict mode requires eta <= 1/512, got {self.eta}")


@dataclass
class SwarmState:
    """All agent states plus role labels at one sampling instant."""

    positions: np.ndarray  # (m, 2)
    headings: np.ndarray  # (m,) radians, unwrapped
    speeds: np.ndarray  # (m,)
    leader_mask: np.ndarray  # (m,) bool; followers are V_1, leaders V_2
    sample_index: int = 0

    @property
    def n_agents(self) -> int:
        return len(self.headings)

    def copy(self) -> "SwarmState":
        return SwarmState(positions=self.positions.copy(), headings=self.headings.copy(),
                          speeds=self.speeds.copy(), leader_mask=self.leader_mask.copy(),
                          sample_index=self.sample_index)


# RNG streams: one PCG64 generator per quantity, derived from the run seed
# via SeedSequence spawn keys 0 (positions), 1 (headings), 2 (speeds).
# Cross-language ports can match statistics via the documented streams;
# bit-exactness is promised only within this implementation.
_STREAM_POSITIONS, _STREAM_HEADINGS, _STREAM_SPEEDS = 0, 1, 2


def _stream(seed: int, key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(key,))))


def sample_initial(params: ModelParams, seed: int) -> SwarmState:
    """Initial states: positions u.i.d. on [0,1]^2, headings on [-pi, pi),
    speeds on [0, v_n].  Leaders are the last ceil(n*alpha_n) indices and
    follow the same distribution as followers."""
    m = params.total_count
    positions = _stream(seed, _STREAM_POSITIONS).random((m, 2))
    headings = _stream(seed, _STREAM_HEADINGS).uniform(-np.pi, np.pi, m)
    speeds = _stream(seed, _STREAM_SPEEDS).uniform(0.0, params.v_n, m)
    leader_mask = np.zeros(m, dtype=bool)
    if params.leader_count:
        leader_mask[params.n:] = True
    return SwarmState(positions=positions, headings=headings, speeds=speeds,
                      leader_mask=leader_mask, sample_index=0)


def _neighbor_average(values: np.ndarray, graph: ProximityGraph,
                      out: np.ndarray | None = None) -> np.ndarray:
    """The neighbor mean of ``values`` per agent, written to ``out`` when given."""
    out = np.matmul(graph.float_adjacency, values, out=out)
    out /= graph.divisors
    if not graph.self_inclusive:
        # only without self loops can an agent be isolated; it holds its state
        np.copyto(out, values, where=graph.degrees == 0)
    return out


def _leader_pull(leader_mask: np.ndarray, reference_heading: float, reference_speed: float,
                 vartheta: float) -> tuple:
    """The ``pull`` of :func:`_discrete_step`: the leaders' indices, the
    reference terms vartheta * reference, and the weight 1 - vartheta."""
    return (np.flatnonzero(leader_mask), vartheta * reference_heading,
            vartheta * reference_speed, 1.0 - vartheta)


def _discrete_step(graph: ProximityGraph, headings: np.ndarray, speeds: np.ndarray,
                   new_headings: np.ndarray | None = None, new_speeds: np.ndarray | None = None,
                   pull: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One step of the averaging map on ``graph``, written to ``new_headings``
    and ``new_speeds`` when given.  ``pull``, for leader runs, comes from
    :func:`_leader_pull`: leaders mix the reference with their neighbor mean
    via weight vartheta."""
    new_headings = _neighbor_average(headings, graph, new_headings)
    new_speeds = _neighbor_average(speeds, graph, new_speeds)
    if pull is not None:
        leaders, heading_term, speed_term, keep = pull
        new_headings[leaders] = keep * new_headings[leaders] + heading_term
        new_speeds[leaders] = keep * new_speeds[leaders] + speed_term
    return new_headings, new_speeds


def _require_leaders(leader_mask: np.ndarray) -> None:
    if not leader_mask.any():
        raise ValueError("a leader controller requires at least one leader")


def leaderless_discrete_step(state: SwarmState, graph: ProximityGraph) -> SwarmState:
    """theta(t_{k+1}) = P theta(t_k), v(t_{k+1}) = P v(t_k).

    Positions are not advanced here; see :func:`advance_positions`.
    """
    headings, speeds = _discrete_step(graph, state.headings, state.speeds)
    return SwarmState(positions=state.positions, headings=headings, speeds=speeds,
                      leader_mask=state.leader_mask, sample_index=state.sample_index + 1)


def leader_discrete_step(state: SwarmState, graph: ProximityGraph, reference_heading: float,
                         reference_speed: float, vartheta: float) -> SwarmState:
    """Followers average neighbors; leaders mix the reference with the
    neighbor average via weight vartheta."""
    mask = state.leader_mask
    _require_leaders(mask)
    headings, speeds = _discrete_step(graph, state.headings, state.speeds,
                                      pull=_leader_pull(mask, reference_heading, reference_speed,
                                                        vartheta))
    return SwarmState(positions=state.positions, headings=headings, speeds=speeds,
                      leader_mask=mask, sample_index=state.sample_index + 1)


def interpolate(state_k: SwarmState, state_k1: SwarmState, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Headings and speeds at t_k + s*tau: linear between sampling instants."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    if s == 0.0:
        return state_k.headings.copy(), state_k.speeds.copy()
    if s == 1.0:
        return state_k1.headings.copy(), state_k1.speeds.copy()
    headings = (1.0 - s) * state_k.headings + s * state_k1.headings
    speeds = (1.0 - s) * state_k.speeds + s * state_k1.speeds
    return headings, speeds


# --- exact position integration -------------------------------------------
#
# Over one dwell interval the speed is a + b*s and the heading c + d*s, so
# displacement_x = integral_0^tau (a + b s) cos(c + d s) ds and the sine
# analogue for y.  With phi = d*tau and u = s/tau:
#   dx = a tau I0 + b tau^2 I1,  I0 = int_0^1 cos(c + phi u) du, etc.
# I0/J0 reduce to a stable sinc form; the u-weighted pieces switch to a
# Taylor series below |phi| = 0.05, where the exact expression loses digits
# to cancellation.

_PHI_SERIES_CUTOFF = 0.05


def _weighted_trig_integrals(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = int_0^1 u cos(phi u) du, B = int_0^1 u sin(phi u) du."""
    phi = np.asarray(phi, dtype=float)
    small = np.abs(phi) < _PHI_SERIES_CUTOFF
    safe = np.where(small, 1.0, phi)
    p2 = phi * phi
    a_series = 0.5 - p2 / 8.0 + p2 * p2 / 144.0 - p2 * p2 * p2 / 5760.0
    b_series = phi * (1.0 / 3.0 - p2 / 30.0 + p2 * p2 / 840.0 - p2 * p2 * p2 / 45360.0)
    a_exact = np.sin(safe) / safe + (np.cos(safe) - 1.0) / (safe * safe)
    b_exact = -np.cos(safe) / safe + np.sin(safe) / (safe * safe)
    return np.where(small, a_series, a_exact), np.where(small, b_series, b_exact)


def closed_form_displacement(a, b, c, d, tau):
    """Displacement (dx, dy) for speed a+b*s, heading c+d*s over s in [0, tau]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    phi = d * tau
    half = c + phi / 2.0
    sinc_half = np.sinc(phi / (2.0 * np.pi))
    i0 = np.cos(half) * sinc_half
    j0 = np.sin(half) * sinc_half
    wa, wb = _weighted_trig_integrals(phi)
    i1 = np.cos(c) * wa - np.sin(c) * wb
    j1 = np.sin(c) * wa + np.cos(c) * wb
    tau2 = tau * tau
    return a * tau * i0 + b * tau2 * i1, a * tau * j0 + b * tau2 * j1


def _integrate_positions(positions: np.ndarray, headings: np.ndarray, speeds: np.ndarray,
                        tau: float) -> None:
    """Fills rows 1..B of the (B+1, m, 2) ``positions`` from row 0 and the
    (B+1, m) headings and speeds of the same instants: one closed-form
    integral per agent and interval, then a running sum that adds the
    displacements one interval after the other."""
    a = speeds[:-1]
    b = (speeds[1:] - speeds[:-1]) / tau
    c = headings[:-1]
    d = (headings[1:] - headings[:-1]) / tau
    positions[1:, :, 0], positions[1:, :, 1] = closed_form_displacement(a, b, c, d, tau)
    np.cumsum(positions, axis=0, out=positions)


def advance_positions(state_k: SwarmState, state_k1: SwarmState, tau: float) -> np.ndarray:
    """Positions at t_{k+1} from the closed-form kinematic integral."""
    positions = np.empty((2, *state_k.positions.shape))
    positions[0] = state_k.positions
    _integrate_positions(positions, np.stack([state_k.headings, state_k1.headings]),
                         np.stack([state_k.speeds, state_k1.speeds]), tau)
    return positions[1]


# The oracle's composite Gauss-Legendre rule takes the nodes of two orders
# on each panel; a panel spans at most 1 rad of the heading's change d*s.
_ORACLE_ORDERS = (8, 10)
_ORACLE_MAX_PANELS = 300


def _oracle_rule() -> tuple[np.ndarray, np.ndarray]:
    """The nodes on [0, 1] of each order in :data:`_ORACLE_ORDERS`, one order
    after the other, and the matrix whose column j maps the values at those
    nodes to order j's estimate of the integral over [0, 1]."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = [], np.zeros((sum(_ORACLE_ORDERS), len(_ORACLE_ORDERS)))
    for column, order in enumerate(_ORACLE_ORDERS):
        x, w = leggauss(order)
        weights[len(nodes):len(nodes) + order, column] = w / 2.0
        nodes += ((x + 1.0) / 2.0).tolist()
    return np.array(nodes), weights


_ORACLE_NODES, _ORACLE_WEIGHTS = _oracle_rule()


def integrate_position_oracle(a: float, b: float, c: float, d: float, tau: float,
                              abs_tol: float = 1e-12) -> tuple[float, float]:
    """Quadrature oracle for the same displacement integrals: the integrals
    over s in [0, tau] of (a + b s) cos(c + d s) and (a + b s) sin(c + d s),
    independent of :func:`closed_form_displacement`.

    The rule is composite Gauss-Legendre on ceil(|d tau|) equal panels, at
    least one, so that the heading turns by at most 1 rad across a panel;
    there the 8-point rule is accurate to about 1e-16 relative.  Each panel
    takes the nodes of the 8- and the 10-point rule, and one vectorised
    pass evaluates (a + b s) exp(i (c + d s)) at all of them, x the real
    part and y the imaginary part; the 10-point sums are returned.  The
    difference between the two orders is the error estimate:
    RuntimeError("quadrature tolerance not reached ...") when it exceeds
    1e3 * abs_tol in x or y, and also when more than 300 panels would be
    needed (|d tau| > 300 rad, or not finite).
    """
    phase = abs(d * tau)
    if not phase <= _ORACLE_MAX_PANELS:
        raise RuntimeError(f"quadrature tolerance not reached: a heading change of {phase:.3e} "
                           f"rad needs more than {_ORACLE_MAX_PANELS} panels")
    panels = max(1, math.ceil(phase))
    width = tau / panels
    # u = s / width at the nodes of every panel; the scalar factors are
    # folded into Python numbers, as each numpy operation costs about a
    # microsecond on arrays this small
    u = np.arange(panels)[:, None] + _ORACLE_NODES
    values = (a + (b * width) * u) * np.exp(u * complex(0.0, d * width) + complex(0.0, c))
    low, high = (values.sum(axis=0) @ _ORACLE_WEIGHTS).tolist()
    achieved = width * max(abs(high.real - low.real), abs(high.imag - low.imag))
    if achieved > 1e3 * abs_tol:
        raise RuntimeError(f"quadrature tolerance not reached, residual={achieved:.3e}")
    return width * high.real, width * high.imag


# --- simulation loop --------------------------------------------------------

LEADERLESS, LEADER_CONSTANT, LEADER_DYNAMIC = "leaderless", "leader_constant", "leader_dynamic"
CONTROLLERS = (LEADERLESS, LEADER_CONSTANT, LEADER_DYNAMIC)

_CONVEXITY_TOL = 1e-12
_INTEGRATION_TOL = 1e-9

# Block stepping (see run_epoch): the first block steps this many instants
# ahead of the graph sweep.  A block that ran to its end doubles the next
# one, up to the cap, which keeps the (B, m) integration temporaries a few
# MB; a block that ended early, at a graph change or a schedule switch,
# halves the next one.
_BLOCK_START = 8
_BLOCK_MAX = 256


class ConvexityError(RuntimeError):
    """Leaderless max/min monotonicity violated; indicates a bug."""


@dataclass
class Trajectory:
    """Sampled trajectory record of one run."""

    times: np.ndarray  # (K+1,)
    positions: np.ndarray  # (K+1, m, 2)
    headings: np.ndarray  # (K+1, m)
    speeds: np.ndarray  # (K+1, m)
    leader_mask: np.ndarray  # (m,)
    params: ModelParams
    controller: str
    reference_headings: np.ndarray  # (K,) theta-bar used on each interval (nan if leaderless)
    reference_speed: float
    connected: np.ndarray  # (K+1,) connectivity of the graph at each instant
    switch_log: list = field(default_factory=list)
    left_unit_square: bool = False

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def state_at(self, k: int) -> SwarmState:
        return SwarmState(positions=self.positions[k].copy(), headings=self.headings[k].copy(),
                          speeds=self.speeds[k].copy(), leader_mask=self.leader_mask.copy(),
                          sample_index=k)


def _first_expansion(headings: np.ndarray, speeds: np.ndarray) -> tuple[int, str] | None:
    """The first step of a (B+1, m) block of instants after which the heading
    or the speed envelope is wider, and which of the two; None if there is none."""
    def expanded(values):
        top, bottom = values.max(axis=1), values.min(axis=1)
        return (top[1:] > top[:-1] + _CONVEXITY_TOL) | (bottom[1:] < bottom[:-1] - _CONVEXITY_TOL)

    heading, speed = expanded(headings), expanded(speeds)
    steps = np.flatnonzero(heading | speed)
    if not len(steps):
        return None
    step = int(steps[0])
    return step, "heading" if heading[step] else "speed"


def run_epoch(state: SwarmState, params: ModelParams, steps: int,
              controller: str = LEADERLESS, schedule=None, reference_heading: float = 0.0,
              integration_check: str = "sampled", observer=None) -> Trajectory:
    """Run the hybrid loop: neighbor graph, discrete step, exact position advance.

    Graphs change at sampling instants only; neighbor relations are frozen
    within dwell intervals, and most instants do not change them.  So the
    loop steps in blocks: it applies the discrete map on the graph and the
    reference heading of the block's first instant to a block of instants
    ahead, integrates the block's positions with one closed-form call and a
    running sum, and then commits the block's instants in order.  One
    :class:`GraphSweep` takes them a chunk at a time (its ``runs``): the
    chunk's condensed distances, each pair's once, one finiteness check, and
    one comparison that finds the first instant whose graph differs.  In
    ``leader_dynamic`` runs the schedule is consulted once per committed
    instant, in order, with the instant's state.  At the first instant
    whose graph differs or at which the schedule switched, the loop keeps
    that instant, whose state the previous graph and reference determine,
    discards the rest of the block and continues from there.  So the
    schedule sees each instant 0..steps-1 once, in order, and no switch is
    ever undone.  The numbers are those of a loop that steps one instant at
    a time.  Connectivity is searched only when the graph changed.

    The convexity check (leaderless runs) and the integration oracle cover
    the kept steps only.  ``integration_check`` is one of off/sampled/full and
    validates the closed-form position update against the quadrature oracle
    (one agent per checked step).  ``observer``, when given, is called as
    ``observer(graph, distances)`` with every instant k = 0..steps, in
    order and once each, in runs of n >= 1 consecutive instants on one
    graph: ``distances`` holds their (n, P) condensed pairwise distances,
    one row of the P = m(m-1)/2 pairs i < j per instant in the order of
    ``scipy.spatial.distance.pdist``.  The loop does not use those rows
    again, so the observer may keep or overwrite them.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown controller {controller!r}")
    if controller == LEADER_DYNAMIC and schedule is None:
        raise ValueError("dynamic controller requires a reference schedule")
    if integration_check not in ("off", "sampled", "full"):
        raise ValueError(f"unknown integration_check {integration_check!r}")

    m = state.n_agents
    tau = params.tau_n
    mask = state.leader_mask.copy()
    if controller != LEADERLESS:
        _require_leaders(mask)
    positions = np.empty((steps + 1, m, 2))
    headings = np.empty((steps + 1, m))
    speeds = np.empty((steps + 1, m))
    references = np.full(steps, reference_heading if controller == LEADER_CONSTANT else np.nan)
    connected = np.empty(steps + 1, dtype=bool)
    positions[0] = state.positions
    headings[0] = state.headings
    speeds[0] = state.speeds

    def switched(j: int) -> bool:
        """Consults the schedule at the committed instant j."""
        return schedule.maybe_advance(SwarmState(positions[j], headings[j], speeds[j], mask,
                                                 state.sample_index + j))

    sweep = GraphSweep(params.r_n, params.self_inclusive)
    graph, distances = next(sweep.runs(positions[:1]))
    connected[0] = is_connected = connectivity(graph)
    if observer is not None:
        observer(graph, distances)
    if controller == LEADER_DYNAMIC:
        switched(0)

    k, block = 0, _BLOCK_START
    while k < steps:
        # step instants k+1..stop on the graph and the reference of instant k
        stop = min(k + block, steps)
        pull = None
        if controller != LEADERLESS:
            if controller == LEADER_DYNAMIC:
                references[k:stop] = schedule.current_heading
            pull = _leader_pull(mask, references[k], params.v_n, params.vartheta)
        for s in range(k, stop):
            _discrete_step(graph, headings[s], speeds[s], headings[s + 1], speeds[s + 1], pull)
        expansion = (_first_expansion(headings[k:stop + 1], speeds[k:stop + 1])
                     if controller == LEADERLESS else None)
        if expansion is not None:
            stop = k + expansion[0]  # sweep up to the instant the step leaves
        _integrate_positions(positions[k:stop + 1], headings[k:stop + 1], speeds[k:stop + 1], tau)

        # commit instants in order, a run of instants on one graph at a time,
        # up to the first whose graph or reference differs; kept is the last
        ended, kept = False, k
        for run_graph, distances in sweep.runs(positions[k + 1:stop + 1]):
            n = len(distances)
            if run_graph is not graph:
                # the graph changed at the run's first instant, the last that
                # the previous graph determines
                graph, ended, n = run_graph, True, 1
                is_connected = connectivity(graph)
            if controller == LEADER_DYNAMIC:
                for j in range(kept + 1, min(kept + n + 1, steps)):
                    if switched(j):
                        n, ended = j - kept, True
                        break
            connected[kept + 1:kept + n + 1] = is_connected
            if observer is not None:
                observer(graph, distances[:n])
            kept += n
            if ended:
                break
        for s in range(k, kept):
            if integration_check == "full" or (integration_check == "sampled" and s % 100 == 0):
                _verify_integration(positions, headings, speeds, s, tau)
        # a leaderless block ends only where the graph changed
        if expansion is not None and not ended:
            raise ConvexityError(f"{expansion[1]} envelope expanded during a leaderless step")
        k = kept
        block = max(block // 2, 1) if ended else min(2 * block, _BLOCK_MAX)

    return Trajectory(times=np.arange(steps + 1) * tau, positions=positions,
                      headings=headings, speeds=speeds, leader_mask=mask,
                      params=params, controller=controller, reference_headings=references,
                      reference_speed=params.v_n if controller != LEADERLESS else float("nan"),
                      connected=connected,
                      switch_log=list(schedule.switch_log) if schedule is not None else [],
                      left_unit_square=bool((positions < 0).any() or (positions > 1).any()))


def _verify_integration(positions: np.ndarray, headings: np.ndarray, speeds: np.ndarray,
                        k: int, tau: float) -> None:
    """Step k of the trajectory arrays against the quadrature oracle, for agent k mod m."""
    i = k % headings.shape[1]
    a = float(speeds[k, i])
    b = float(speeds[k + 1, i] - speeds[k, i]) / tau
    c = float(headings[k, i])
    d = float(headings[k + 1, i] - headings[k, i]) / tau
    ox, oy = integrate_position_oracle(a, b, c, d, tau)
    got = positions[k + 1, i] - positions[k, i]
    if abs(got[0] - ox) > _INTEGRATION_TOL or abs(got[1] - oy) > _INTEGRATION_TOL:
        raise RuntimeError(
            f"closed-form position update deviates from quadrature oracle at agent {i}: "
            f"({got[0] - ox:.3e}, {got[1] - oy:.3e})")
