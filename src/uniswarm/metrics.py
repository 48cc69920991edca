"""Per-step synchronization/tracking diagnostics and proof-inequality audits.

Audits carry one of three verdicts: PASS (inequality holds), SKIP (its
premise is unmet on this trajectory) or FAIL (an unconditional inequality
was violated, which can only mean an implementation bug).  Asymptotic
envelopes are reported (verdict REPORT) but never failed.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import ModelParams, SwarmState, Trajectory
from .graphs import (_CHUNK_BYTES, GraphSweep, ProximityGraph, _distance_buffers,
                     _distance_chunks, averaging_rows, connectivity, leader_fractions)
# layer boundaries that perfbench/tracing.py wraps
from .graphs import averaging_matrix, build_graph, pairwise_distances  # noqa: F401

PASS, SKIP, FAIL, REPORT = "PASS", "SKIP", "FAIL", "REPORT"

_AUDIT_TOL = 1e-9


@dataclass(frozen=True)
class StepMetrics:
    k: int
    delta_theta: float  # max pairwise heading dissimilarity
    delta_v: float
    tracking_theta: float  # max |theta_i - theta_bar|; nan without a reference
    tracking_v: float
    max_distance_drift: float  # max |Delta_ij(t_k) - Delta_ij(0)|
    p_deviation: float  # ||P(t_k) - P(0)||
    alpha_drift: float  # max |alpha_i(t_k) - alpha_i(0)|; 0 without leaders
    connected: bool


class StepMetricsTable(Sequence):
    """The :class:`StepMetrics` rows of a run's instants, held as columns:
    ``columns`` maps each field name, in field order, to a (K+1,) array.

    The table is a sequence of rows, each built only when read, with the
    field types of a row (``k`` an int, ``connected`` a bool and the other
    fields floats); a slice is a list of rows, and ``repr`` and ``==`` are
    those of the list of all rows."""

    _FIELDS = tuple(f.name for f in fields(StepMetrics))

    def __init__(self, columns: dict[str, np.ndarray]):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns["k"])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]  # negative from the end; IndexError out of range
        return StepMetrics(*(self.columns[name][i].item() for name in self._FIELDS))

    def __iter__(self):
        return map(StepMetrics, *(self.columns[name].tolist() for name in self._FIELDS))

    def __eq__(self, other):
        if not isinstance(other, (StepMetricsTable, list)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass(frozen=True)
class MetricsBaseline:
    """The k = 0 quantities that the metrics of every instant compare against."""

    state: SwarmState
    graph: ProximityGraph
    # condensed pairwise distances at k = 0 (see GraphSweep.runs); None in the
    # baseline of the re-audit's leader shares, which takes only graph terms
    distances: np.ndarray | None
    alphas: np.ndarray  # alpha_i(0); 0 without leaders
    # some agent's k = 0 neighborhood, the agent itself excluded, is empty;
    # read in leader runs only
    empty_neighborhood: bool


def metrics_baseline(initial: SwarmState, params: ModelParams) -> MetricsBaseline:
    """Computes the k = 0 quantities once per run."""
    sweep = GraphSweep(params.r_n, params.self_inclusive)
    graph, distances = next(sweep.runs(initial.positions[None]))
    return _baseline(initial, graph, distances[0])


def _baseline(initial: SwarmState, graph: ProximityGraph,
              distances: np.ndarray | None) -> MetricsBaseline:
    """The baseline of ``initial`` from its graph and condensed distances."""
    alphas, totals = leader_fractions(graph, initial.leader_mask)
    return MetricsBaseline(state=initial, graph=graph, distances=distances, alphas=alphas,
                           empty_neighborhood=bool((totals == 0).any()))


def step_metrics(state: SwarmState, baseline: MetricsBaseline,
                 reference_heading: float = float("nan"),
                 reference_speed: float = float("nan")) -> StepMetrics:
    """Metrics of ``state``, whose neighbor graph is built from the same
    distances that give the distance drift."""
    if state.n_agents != baseline.state.n_agents:
        raise ValueError("state and initial must have the same agent count")
    columns = _sync_columns(state.headings[None], state.speeds[None],
                            np.array([reference_heading]), np.array([reference_speed]))
    delta_theta, delta_v, tracking_theta, tracking_v = (float(c[0]) for c in columns)
    sweep = GraphSweep(baseline.graph.radius, baseline.graph.self_inclusive)
    graph, distances = next(sweep.runs(state.positions[None]))
    distances = distances[0]
    drift = float(_max_abs_difference(distances, baseline.distances, out=distances))
    alpha_drift, _ = _leader_terms(graph, baseline)
    return StepMetrics(k=state.sample_index, delta_theta=delta_theta, delta_v=delta_v,
                       tracking_theta=tracking_theta, tracking_v=tracking_v,
                       max_distance_drift=drift, p_deviation=_p_deviation(graph, baseline),
                       alpha_drift=alpha_drift, connected=connectivity(graph))


# --- per-instant terms, shared by the public functions and RunPass ----------

def _sync_columns(headings: np.ndarray, speeds: np.ndarray, reference_headings: np.ndarray,
                  reference_speeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """delta_theta, delta_v, tracking_theta and tracking_v of each row of the
    (K, m) headings and speeds; tracking is nan where the reference is not finite."""
    def tracking(values, references):
        error = np.abs(values - references[:, None]).max(axis=1)
        return np.where(np.isfinite(references), error, np.nan)

    return (headings.max(axis=1) - headings.min(axis=1), speeds.max(axis=1) - speeds.min(axis=1),
            tracking(headings, reference_headings), tracking(speeds, reference_speeds))


def _max_abs_difference(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """max |a - b| over the last axis, the pairs of condensed distances, one
    value per leading index, taken in ``out``, which may be ``a`` or ``b``:
    fresh temporaries cost more than the arithmetic.  0 without pairs."""
    np.subtract(a, b, out=out)
    return np.abs(out, out=out).max(axis=-1, initial=0.0)


def _distance_steps(distances: np.ndarray,
                    last: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """max |Delta(t_j) - Delta(t_{j-1})| for the instants j of the (n, P)
    chunk ``distances`` of successive condensed distances, and the (n, P)
    scratch array they were taken in.  ``last`` is the chunk before, or None
    at the first instant, which then has no value.  Once the step to the
    first instant is taken, ``last`` is scratch space: its rows are
    overwritten when there are enough of them, as a fresh array would add
    one more to the memory that each step reads."""
    n = len(distances)
    out = last[:n] if last is not None and len(last) >= n else np.empty_like(distances)
    if last is not None:
        np.subtract(distances[0], last[-1], out=out[0])
    np.subtract(distances[1:], distances[:-1], out=out[1:])
    taken = out if last is not None else out[1:]
    return np.abs(taken, out=taken).max(axis=-1, initial=0.0), out


def _p_deviation(graph: ProximityGraph, baseline: MetricsBaseline) -> float:
    """||P(t_k) - P(0)||.  Row i of P depends only on the neighbor set of agent
    i, so the difference is zero outside the rows whose neighbor set changed
    since k = 0.  The norm of those c rows M is sqrt(lambda_max(M M^T))
    (Golub and Van Loan, Matrix Computations, 2.3): an eigenvalue of the
    c x c Gram matrix costs less than the singular values of the c x m rows."""
    initial = baseline.graph
    changed = np.where((graph.adjacency != initial.adjacency).any(axis=1))[0]
    if not len(changed):
        return 0.0
    rows = averaging_rows(graph, changed) - averaging_rows(initial, changed)
    return float(np.sqrt(np.linalg.eigvalsh(rows @ rows.T)[-1]))


def _leader_terms(graph: ProximityGraph, baseline: MetricsBaseline) -> tuple[float, bool]:
    """max_i |alpha_i - alpha_i(0)| on ``graph``, and whether some agent's
    neighborhood, the agent itself excluded, is empty: (0, False) without
    leaders, and on the k = 0 graph the baseline's own terms."""
    leader_mask = baseline.state.leader_mask
    if not leader_mask.any():
        return 0.0, False
    if graph is baseline.graph:
        return 0.0, baseline.empty_neighborhood
    alphas, totals = leader_fractions(graph, leader_mask)
    return float(np.abs(alphas - baseline.alphas).max()), bool((totals == 0).any())


# The steps of _distance_changes are split across the usable CPUs from this
# many pairs on, where one instant's condensed distances alone exceed the
# chunk budget (m >= 257).  Below it, the part of each pdist call that holds
# the GIL outweighs the arithmetic that threads can share.
_SPLIT_MIN_PAIRS = _CHUNK_BYTES // 8 + 1


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _distance_changes(positions: np.ndarray) -> np.ndarray:
    """max over pairs of |Delta_ij(t_{k+1}) - Delta_ij(t_k)| for each step k.

    From ``_SPLIT_MIN_PAIRS`` pairs on, the N instants are cut into W
    contiguous spans, W the usable CPUs, that share their boundary instants.
    Each step depends only on its own two instants, so every span is
    computed on its own, the first here and the others on threads of a pool
    that lives for this call only (pdist releases the GIL), and the values
    are those of one pass over all instants.  A position that is not finite
    raises once every span has ended."""
    n, m = positions.shape[:2]
    spans = min(_usable_cpus(), n - 1) if m * (m - 1) // 2 >= _SPLIT_MIN_PAIRS else 1
    if spans <= 1:
        return np.array(_span_changes(positions))
    from concurrent.futures import ThreadPoolExecutor

    bounds = [s * (n - 1) // spans for s in range(spans + 1)]
    parts = [positions[a:b + 1] for a, b in zip(bounds, bounds[1:])]
    # allocated here: memory that a worker thread allocates stays in its own heap
    buffers = [_distance_buffers(part) for part in parts]
    with ThreadPoolExecutor(spans - 1) as pool:
        futures = [pool.submit(_span_changes, *args) for args in zip(parts[1:], buffers[1:])]
        changes = _span_changes(parts[0], buffers[0])
        for future in futures:
            changes += future.result()
    return np.array(changes)


def _span_changes(positions: np.ndarray, buffers: np.ndarray | None = None) -> list[float]:
    """The values of :func:`_distance_changes` one chunk at a time, the
    chunks in ``buffers`` when given (see :func:`graphs._distance_chunks`)."""
    changes, last = [], None
    for distances in _distance_chunks(positions, buffers):
        changes += _distance_steps(distances, last)[0].tolist()
        last = distances
    return changes


def _leader_shares(traj: Trajectory) -> tuple[np.ndarray, float, int | None]:
    """alpha_i(0), the alpha-drift mu, and the first instant with an empty
    neighborhood or None; when there is such an instant, the sweep stops
    there and mu covers only the instants before it.

    The graphs come from :meth:`GraphSweep.graphs`, which evaluates only
    the pairs that can have changed neighbor relation.  This is the paper's
    ring-set argument with the drift measured instead of budgeted: between
    an anchor instant and t, a pair's distance moves by at most 2 rho_t,
    rho_t the largest distance of an agent's displacement since the anchor
    from the centre of the displacements' bounding box.  So only the pairs
    whose anchor distance is within 2 rho_t of the radius, plus the rounding
    allowance ``graphs._BAND_ROUNDING`` (2^-47 of rho_t, of the largest
    displacement coordinate and of r) and ``graphs._BAND_UNDERFLOW``
    (2^-530), are evaluated at t.  Where that band would hold more than
    ``graphs._BAND_SHARE`` of the pairs, the sweep falls back to a full
    chunk of distances, whose last instant becomes the new anchor.  The
    graphs are exact, so the shares are those that every distance gives."""
    sweep = GraphSweep(traj.params.r_n, traj.params.self_inclusive)
    baseline = graph = None
    mu, k = 0.0, 0
    for run_graph, n in sweep.graphs(traj.positions):
        if baseline is None:
            baseline = _baseline(traj.state_at(0), run_graph, distances=None)
        if run_graph is not graph:
            graph = run_graph
            drift, empty = _leader_terms(graph, baseline)
            if empty:
                return baseline.alphas, mu, k
            mu = max(mu, drift)
        k += n
    return baseline.alphas, mu, None


def _envelope_integral(values_k: np.ndarray, values_k1: np.ndarray, tau: float,
                       substeps: int) -> np.ndarray:
    """Per row b, the integral over the dwell interval of
    max_i x_bi(t) - min_i x_bi(t), for values_k, values_k1 of shape (B, m).

    Per-agent signals are linear in t, so the envelope is piecewise linear
    and convex; the trapezoid rule on the substep grid over-estimates it,
    which keeps the audit's right-hand side conservative.  The rows are laid
    out agents-major, (m, B), so that each substep's max and min are
    elementwise reductions over the m agents, vectorised across the B rows.
    The (S+1, B) envelope is made contiguous as (B, S+1) before the
    trapezoid, whose summation order, and so its last bits, follows the
    layout of the axis it sums.
    """
    s = np.linspace(0.0, 1.0, substeps + 1)
    a, b = np.ascontiguousarray(values_k.T), np.ascontiguousarray(values_k1.T)
    envelope = np.empty((substeps + 1, len(values_k)))
    interp, term = np.empty(a.shape), np.empty(a.shape)
    low = np.empty(len(values_k))
    for i in range(substeps + 1):
        np.multiply(1.0 - s[i], a, out=interp)
        interp += np.multiply(s[i], b, out=term)
        np.maximum.reduce(interp, axis=0, out=envelope[i])
        envelope[i] -= np.minimum.reduce(interp, axis=0, out=low)
    return np.trapezoid(np.ascontiguousarray(envelope.T), dx=1.0 / substeps, axis=1) * tau


@dataclass
class RecursionAuditReport:
    """Audit of the distance-change recursion between contiguous instants."""

    verdicts: list[str]
    slacks: np.ndarray  # rhs - lhs per step
    fail_count: int
    max_violation: float

    @property
    def passed(self) -> bool:
        return self.fail_count == 0

    def to_dict(self) -> dict:
        return {"verdicts": self.verdicts, "slacks": self.slacks.tolist(),
                "fail_count": self.fail_count, "max_violation": self.max_violation}


# Elements of one (m, block) buffer of the envelope integrals: blocks of
# about 2**15 values (256 kB) keep the buffers in cache, and at least 128
# rows keep the per-substep overhead small where m is large.
_AUDIT_BLOCK_ELEMENTS = 2 ** 15


def _audit_block(agents: int) -> int:
    """Instants per block of the envelope integrals of an m-agent trajectory."""
    return max(128, _AUDIT_BLOCK_ELEMENTS // max(agents, 1))


def recursion_audit(traj: Trajectory, substep_count: int = 16) -> RecursionAuditReport:
    """Checks, for every step and the maximizing pair,
    |Delta_ij(t_{k+1}) - Delta_ij(t_k)|
        <= 2 int delta_v dt + 2 max_i |v_i(t_k)| int delta_theta dt.

    The inequality follows from the triangle inequality and |sin x| <= |x|,
    so any violation beyond tolerance is an implementation bug.
    """
    return _recursion_audit(traj, substep_count, lambda: _distance_changes(traj.positions))


def _recursion_audit(traj: Trajectory, substep_count: int,
                     distance_changes) -> RecursionAuditReport:
    """The audit with the left-hand sides from ``distance_changes()``, one
    per step, called once the arguments are checked."""
    if traj.n_steps < 1:
        raise ValueError("trajectory needs at least 2 sampling instants")
    if substep_count < 1:
        raise ValueError(f"substep_count must be >= 1, got {substep_count}")
    changes = distance_changes()
    steps, tau = traj.n_steps, traj.params.tau_n
    speeds, headings = traj.speeds, traj.headings
    int_dv = np.empty(steps)
    int_dth = np.empty(steps)
    block = _audit_block(speeds.shape[1])
    for start in range(0, steps, block):
        stop = min(start + block, steps)
        k, k1 = slice(start, stop), slice(start + 1, stop + 1)
        int_dv[k] = _envelope_integral(speeds[k], speeds[k1], tau, substep_count)
        int_dth[k] = _envelope_integral(headings[k], headings[k1], tau, substep_count)
    vmax = np.abs(speeds[:-1]).max(axis=1)
    rhs = 2.0 * int_dv + 2.0 * vmax * int_dth

    slacks = rhs - changes
    failed = slacks < -_AUDIT_TOL
    verdicts = np.where(failed, FAIL, PASS).tolist()
    max_violation = float(-slacks[failed].min()) if failed.any() else 0.0
    return RecursionAuditReport(verdicts=verdicts, slacks=slacks,
                                fail_count=int(failed.sum()), max_violation=max_violation)


@dataclass
class EnvelopeAuditReport:
    verdict: str
    reason: str = ""
    violations: int = 0
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "reason": self.reason,
                "violations": self.violations, "details": self.details}


def geometric_envelope_audit(traj: Trajectory) -> EnvelopeAuditReport:
    """Leader runs: geometric decay of heading/speed deviations with rate
    gamma = max_i(1 - (alpha_i(0) - mu) * vartheta), mu the observed
    alpha-drift.  Valid whenever the observed premises hold; otherwise the
    audit is skipped.  Leaderless runs: the speed dissimilarity is compared
    against the (1 - r^2/288)^k envelope and reported, never failed, since
    that rate rests on an almost-sure spectral bound.

    The leader shares need each instant's graph but no distances, so the
    audit takes them from the pairs near the radius (see
    :func:`_leader_shares`): a pair whose distance at the last anchor
    instant is farther from r than twice the swarm's measured drift since,
    plus a rounding allowance, cannot have changed neighbor relation, and a
    band too wide for that to save work falls back to every pair.  On the
    criterion-8 config (m = 130, 1000 steps) full distance vectors are
    computed at a few instants instead of all 1001.
    """
    return _envelope_audit(traj, lambda: _leader_shares(traj))


def _envelope_audit(traj: Trajectory, leader_shares) -> EnvelopeAuditReport:
    """The audit with alpha_i(0), mu and the first instant with an empty
    neighborhood from ``leader_shares()``, called once the premises that
    need no graph hold."""
    if traj.n_steps < 1:
        return EnvelopeAuditReport(verdict=SKIP, reason="trajectory too short")
    if not traj.leader_mask.any():
        return _leaderless_envelope_report(traj)

    refs = traj.reference_headings
    if not np.all(np.isfinite(refs)) or not np.all(refs == refs[0]):
        return EnvelopeAuditReport(verdict=SKIP, reason="reference heading is not constant")
    theta_bar = float(refs[0])
    v_bar = traj.reference_speed
    vartheta = traj.params.vartheta

    mask = traj.leader_mask
    followers, leaders = ~mask, mask
    theta_dev = np.abs(traj.headings - theta_bar)
    v_dev = np.abs(traj.speeds - v_bar)
    big_a = float(theta_dev[1, followers].max())
    big_b = float(v_dev[1, followers].max())
    if theta_dev[1, leaders].max() > (1.0 - vartheta) * big_a + _AUDIT_TOL:
        return EnvelopeAuditReport(verdict=SKIP,
                                   reason="leader initial heading deviation exceeds (1-vartheta)A")
    if v_dev[1, leaders].max() > (1.0 - vartheta) * big_b + _AUDIT_TOL:
        return EnvelopeAuditReport(verdict=SKIP,
                                   reason="leader initial speed deviation exceeds (1-vartheta)B")

    initial_alphas, mu, first_empty = leader_shares()
    if first_empty is not None:
        return EnvelopeAuditReport(
            verdict=SKIP, reason=f"agent with empty neighborhood at step {first_empty}")
    gamma = float((1.0 - (initial_alphas - mu) * vartheta).max())

    # gamma^{k-1} for k = 1..K, multiplied up in order
    power = np.cumprod(np.concatenate(([1.0], np.full(traj.n_steps - 1, gamma))))
    violations = 0
    worst = 0.0
    for dev, amp in ((theta_dev, big_a), (v_dev, big_b)):
        follower_excess = dev[1:, followers].max(axis=1) - power * amp
        leader_excess = dev[1:, leaders].max(axis=1) - (1.0 - vartheta) * power * amp
        # the larger of the two, the follower term on ties and nan, as max() takes it
        excess = np.where(leader_excess > follower_excess, leader_excess, follower_excess)
        over = excess[excess > _AUDIT_TOL]
        violations += len(over)
        if len(over):
            worst = max(worst, float(over.max()))
    verdict = FAIL if violations else PASS
    return EnvelopeAuditReport(verdict=verdict, violations=violations,
                               details={"A": big_a, "B": big_b, "mu": mu, "gamma": gamma,
                                        "worst_excess": worst})


def _leaderless_envelope_report(traj: Trajectory) -> EnvelopeAuditReport:
    lambda_hat = 1.0 - traj.params.r_n ** 2 / 288.0
    delta_v = traj.speeds.max(axis=1) - traj.speeds.min(axis=1)
    # |v(1)| as the correctly rounded sum of squares, which no BLAS kernel reorders
    v = traj.speeds[1]
    scale = 2.0 * np.sqrt(2.0) * math.sqrt(math.fsum(v * v))
    ks = np.arange(1, traj.n_steps + 1)
    envelope = scale * lambda_hat ** (ks - 1)
    within = delta_v[1:] <= envelope + _AUDIT_TOL
    return EnvelopeAuditReport(
        verdict=REPORT,
        reason="leaderless decay envelope relies on the almost-sure spectral bound",
        details={"lambda_hat": lambda_hat, "fraction_within": float(within.mean()),
                 "scale": scale})


class RunPass:
    """The distance- and graph-derived metrics and audit terms of one run,
    computed in the simulation's own pass over the sampling instants.

    Give :meth:`observe` to :func:`run_epoch` of the state ``initial`` as
    its ``observer``: it then sees each instant's graph and condensed
    distances once, in runs of instants on one graph, and computes the terms
    of a graph, its connectivity among them, only when the graph object
    differs from the previous run's (see :class:`GraphSweep`).  The first
    call's first instant is k = 0, whose graph and distances make
    :attr:`baseline`, so they are computed once per run.  After the run,
    :meth:`step_metrics`, :meth:`recursion_audit` and :meth:`geometric_envelope_audit`
    give what the public functions of the same names give on the trajectory.
    """

    def __init__(self, initial: SwarmState):
        self.initial = initial
        self.baseline: MetricsBaseline | None = None  # set by the first observe()
        self.graph_changes = 0  # instants whose graph differs from the previous instant's
        self.connected: list[bool] = []  # whether each instant's graph is connected
        self._drift: list[float] = []  # max |Delta(t_k) - Delta(0)|
        self._distance_change: list[float] = []  # max |Delta(t_{k+1}) - Delta(t_k)|
        self._p_deviation: list[float] = []
        self._alpha_drift: list[float] = []
        self._first_empty: int | None = None
        self._graph: ProximityGraph | None = None
        self._graph_terms = (0.0, 0.0, False, False)
        self._last: np.ndarray | None = None  # the distances of the last run seen

    def observe(self, graph: ProximityGraph, distances: np.ndarray) -> None:
        """Takes the next n instants, which share ``graph``, with their
        (n, P) condensed pairwise distances, and keeps them as scratch space
        for the next call.  Per-instant terms are taken as reductions over
        the pairs; those of the graph once."""
        if self.baseline is None:
            # a copy, as the rows of this run become scratch space
            self.baseline = _baseline(self.initial, graph, distances[0].copy())
        k, n = len(self._drift), len(distances)
        steps, scratch = _distance_steps(distances, self._last)
        self._distance_change += steps.tolist()
        self._drift += _max_abs_difference(distances, self.baseline.distances,
                                           out=scratch).tolist()
        self._last = distances
        if graph is not self._graph:
            self.graph_changes += self._graph is not None
            self._graph = graph
            self._graph_terms = (_p_deviation(graph, self.baseline),
                                 *_leader_terms(graph, self.baseline), connectivity(graph))
        p_dev, alpha_drift, empty, connected = self._graph_terms
        if empty and self._first_empty is None:
            self._first_empty = k
        self._p_deviation += [p_dev] * n
        self._alpha_drift += [alpha_drift] * n
        self.connected += [connected] * n

    def step_metrics(self, traj: Trajectory) -> StepMetricsTable:
        """One row per instant; instant k > 0 is tracked against the reference
        used over the interval before it, instant 0 against the first."""
        steps = traj.n_steps
        previous = np.clip(np.arange(steps + 1) - 1, 0, steps - 1)
        columns = (np.arange(steps + 1),
                   *_sync_columns(traj.headings, traj.speeds, traj.reference_headings[previous],
                                  np.full(steps + 1, traj.reference_speed)),
                   np.array(self._drift), np.array(self._p_deviation),
                   np.array(self._alpha_drift), np.array(self.connected, dtype=bool))
        return StepMetricsTable(dict(zip(StepMetricsTable._FIELDS, columns)))

    def recursion_audit(self, traj: Trajectory, substep_count: int = 16) -> RecursionAuditReport:
        return _recursion_audit(traj, substep_count, lambda: np.array(self._distance_change))

    def geometric_envelope_audit(self, traj: Trajectory) -> EnvelopeAuditReport:
        shares = (self.baseline.alphas, max(self._alpha_drift), self._first_empty)
        return _envelope_audit(traj, lambda: shares)


def sync_detect(traj: Trajectory, tol_theta: float, tol_v: float) -> int | None:
    """First sampling index with both dissimilarities below tolerance."""
    if not (tol_theta > 0 and tol_v > 0):
        raise ValueError("tolerances must be positive")
    d_theta = traj.headings.max(axis=1) - traj.headings.min(axis=1)
    d_v = traj.speeds.max(axis=1) - traj.speeds.min(axis=1)
    hits = np.where((d_theta <= tol_theta) & (d_v <= tol_v))[0]
    return int(hits[0]) if len(hits) else None


def ring_containment_check(traj: Trajectory) -> dict:
    """If every pairwise distance stayed within the drift budget up to step K,
    the neighbor-set change at each instant must be contained in the initial
    ring sets.  Exact cross-check against the annulus membership: every pair
    whose neighbor relation differs from k = 0's at an instant within the
    budget must have its initial distance in the closed annulus
    [(1-eta)r, (1+eta)r], eta = ``eta_n_effective``, which must be positive.
    The condensed distances are taken a chunk of instants at a time."""
    params = traj.params
    radius, eta, budget = params.r_n, params.eta_n_effective, params.drift_budget
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    holds_up_to, contained = -1, True
    initial = None
    for distances in _distance_chunks(traj.positions):
        if initial is None:
            initial = distances[0].copy()
            pairs0 = initial < radius
            outside = ~((initial >= (1.0 - eta) * radius) & (initial <= (1.0 + eta) * radius))
        changed = (distances < radius) != pairs0
        over = np.flatnonzero(_max_abs_difference(distances, initial, out=distances) > budget)
        within = int(over[0]) if len(over) else len(distances)
        contained = contained and not (changed[:within] & outside).any()
        holds_up_to += within
        if len(over):
            break
    return {"drift_within_budget_up_to": holds_up_to, "containment_holds": contained}


_CSV_COLUMNS = ("k", "delta_theta", "delta_v", "tracking_theta", "tracking_v",
                "max_distance_drift", "p_deviation", "alpha_drift", "connected")


def write_metrics_csv(rows: Sequence[StepMetrics], path) -> None:
    """Writes ``rows``, a :class:`StepMetricsTable` or any sequence of
    :class:`StepMetrics`, one line per row; a table's columns are read as
    they are."""
    from ._csvtext import csv_blocks, text_fields

    # every column is written as a float: the '%.17g' of k is k's own text,
    # and that of connected is 0 or 1.  Filled a column at a time, as a list
    # of row tuples would hold about twice the array's memory in objects.
    values = np.empty((len(rows), 1, len(_CSV_COLUMNS)))
    for j, name in enumerate(_CSV_COLUMNS):
        values[:, 0, j] = (rows.columns[name] if isinstance(rows, StepMetricsTable) else
                           np.fromiter((getattr(r, name) for r in rows), float, len(rows)))
    with open(path, "wb") as fh:
        fh.write(b"k,delta_theta,delta_v,tracking_theta,tracking_v,drift,p_dev,alpha_drift,"
                 b"connected\n")
        for data in csv_blocks([], text_fields([""]), [values]):
            fh.write(data)
