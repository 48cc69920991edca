"""Seeded runs, Monte-Carlo campaigns, named scenarios, and file I/O.

A run is deterministic given (config, seed): repeating it produces
byte-identical output files.  Campaigns execute runs independently per
seed and aggregate.  All JSON outputs carry a ``schema_version`` field.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .dynamics import (CONTROLLERS, LEADER_CONSTANT, LEADER_DYNAMIC, LEADERLESS,
                       ModelParams, Trajectory, _require_finite, _require_integer,
                       _require_no_schedule, run_epoch, sample_initial)
from .metrics import (FAIL, EnvelopeAuditReport, RecursionAuditReport, RunPass,
                      StepMetricsTable, sync_detect, write_metrics_csv)
# layer boundaries that perfbench/tracing.py wraps; run() computes their
# results in its one pass over the instants
from .graphs import build_graph  # noqa: F401
from .metrics import geometric_envelope_audit, recursion_audit, step_metrics  # noqa: F401
from .reference import ReferenceSchedule

SCHEMA_VERSION = 1

AUDIT_LEVELS = ("off", "sampled", "full")


@dataclass(frozen=True)
class Obstacle:
    """Axis-aligned ellipse recorded for a post-hoc intersection diagnostic.

    The controller never senses it; the geometry only feeds the
    ``obstacle_hit_fraction`` entry of the run metadata.
    """

    center: tuple[float, float] = (1.5, 0.5)
    semi_axes: tuple[float, float] = (0.4, 0.25)

    def __post_init__(self) -> None:
        # a list, as JSON gives, becomes a tuple, so that obstacles compare by value
        for name in ("center", "semi_axes"):
            if isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))

    def validate(self) -> None:
        for name in ("center", "semi_axes"):
            value = getattr(self, name)
            if not (isinstance(value, tuple) and len(value) == 2):
                raise ValueError(f"obstacle {name} must be two finite numbers, got {value!r}")
            for x in value:
                _require_finite(f"obstacle {name}", x)
        if not min(self.semi_axes) > 0:
            raise ValueError(f"obstacle semi_axes must be positive, got {self.semi_axes!r}")

    def contains(self, points: np.ndarray) -> np.ndarray:
        rel = (np.asarray(points, dtype=float) - np.asarray(self.center)) / np.asarray(self.semi_axes)
        return (rel ** 2).sum(axis=-1) < 1.0


@dataclass
class RunConfig:
    params: ModelParams
    steps: int
    seed: int
    mode: str = LEADERLESS
    schedule: ReferenceSchedule | None = None
    reference_heading: float = 0.0
    outputs: str | None = None
    audit_level: str = "sampled"
    substeps: int = 16
    obstacle: Obstacle | None = None

    def validate(self) -> None:
        if self.mode == LEADER_DYNAMIC and self.schedule is None:
            raise ValueError("dynamic mode requires a schedule")
        _validate_run_fields(self.params, self.steps, self.mode, self.reference_heading)
        _require_no_schedule(self.mode, self.schedule)
        if self.audit_level not in AUDIT_LEVELS:
            raise ValueError(f"audit_level must be one of {AUDIT_LEVELS}")
        _require_seed(self.seed)
        _require_integer("substeps", self.substeps)
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        if self.outputs is not None and not isinstance(self.outputs, (str, Path)):
            raise ValueError(f"outputs must be a directory path, got {self.outputs!r}")
        if self.obstacle is not None:
            self.obstacle.validate()

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "params": asdict(self.params),
            "steps": self.steps,
            "seed": self.seed,
            "mode": self.mode,
            "reference_heading": self.reference_heading,
            "audit_level": self.audit_level,
            "substeps": self.substeps,
        }
        if self.schedule is not None:
            out["schedule"] = {"headings": list(self.schedule.headings),
                               "epsilon": self.schedule.epsilon,
                               "restrict_to_followers": self.schedule.restrict_to_followers}
        if self.obstacle is not None:
            out["obstacle"] = {"center": list(self.obstacle.center),
                               "semi_axes": list(self.obstacle.semi_axes)}
        if self.outputs is not None:
            out["outputs"] = self.outputs
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """The config that the JSON object ``data`` describes, validated; a
        value of the wrong type is an error, never converted."""
        try:
            schedule = obstacle = None
            if (sched := _section(data, "schedule", required=False)) is not None:
                schedule = ReferenceSchedule(
                    headings=sched.get("headings"), epsilon=sched.get("epsilon", 0.05),
                    restrict_to_followers=sched.get("restrict_to_followers", False))
            if (obs := _section(data, "obstacle", required=False)) is not None:
                obstacle = Obstacle(obs.get("center"), obs.get("semi_axes"))
            config = cls(params=_params(data), steps=data.get("steps"), seed=data.get("seed", 0),
                         mode=data.get("mode", LEADERLESS), schedule=schedule,
                         reference_heading=data.get("reference_heading", 0.0),
                         outputs=data.get("outputs"),
                         audit_level=data.get("audit_level", "sampled"),
                         substeps=data.get("substeps", 16), obstacle=obstacle)
            config.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return config

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)


class ConfigError(ValueError):
    """Config file is malformed or inconsistent."""


def _section(data: dict, name: str, required: bool = True) -> dict | None:
    """``data[name]``, which must be a JSON object, or None when it is not
    ``required`` and missing or null; ValueError naming ``name`` otherwise."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    section = data.get(name)
    if section is None and not required:
        return None
    if not isinstance(section, dict):
        raise ValueError(f"{name} must be a JSON object, got {section!r}")
    return section


def _params(data: dict) -> ModelParams:
    """The model parameters of a run config or a stored run's metadata."""
    try:
        return ModelParams(**_section(data, "params"))
    except TypeError as exc:  # a parameter missing or unknown
        raise ValueError(f"params: {exc}") from None


def _require_seed(seed) -> None:
    """Raises ValueError unless ``seed`` is a non-negative integer, as SeedSequence takes it."""
    _require_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _validate_run_fields(params: ModelParams, steps, mode, reference_heading) -> None:
    """Checks the fields that a run config shares with a stored run's
    ``run_meta.json``: ValueError naming the first that is invalid."""
    params.validate()
    if mode not in CONTROLLERS:
        raise ValueError(f"unknown mode {mode!r}")
    if mode != LEADERLESS and params.leader_count == 0:
        raise ValueError(f"mode {mode!r} requires alpha_n > 0")
    _require_integer("steps", steps)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _require_finite("reference_heading", reference_heading)


def _validate_switch_log(switch_log, steps: int, mode: str) -> None:
    """Checks a stored run's ``switch_log``: the instants at which the
    schedule switched, strictly increasing in 0..steps - 1, and none unless
    ``mode`` is leader_dynamic.  ValueError naming it otherwise."""
    if not isinstance(switch_log, list):
        raise ValueError(f"switch_log must be a list of instants, got {switch_log!r}")
    for i, k in enumerate(switch_log):
        _require_integer(f"switch_log[{i}]", k)
        if not 0 <= k < steps:
            raise ValueError(f"switch_log must hold instants in 0..{steps - 1}, got {k}")
    if any(a >= b for a, b in zip(switch_log, switch_log[1:])):
        raise ValueError(f"switch_log must be strictly increasing, got {switch_log}")
    if switch_log and mode != LEADER_DYNAMIC:
        raise ValueError(f"switch_log must be empty in mode {mode!r}, got {switch_log}")


@dataclass
class RunResult:
    config: RunConfig
    trajectory: Trajectory
    metrics: StepMetricsTable
    recursion: RecursionAuditReport | None
    envelope: EnvelopeAuditReport | None
    sync_index: int | None
    meta: dict

    @property
    def audit_failed(self) -> bool:
        if self.recursion is not None and not self.recursion.passed:
            return True
        return self.envelope is not None and self.envelope.verdict == FAIL


# glibc's mallopt() parameters, and the range of mmap thresholds
# _raise_heap_thresholds() sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MIN, _MMAP_THRESHOLD_MAX = 4 << 20, 32 << 20
_mmap_threshold = 0  # the mmap threshold last set; 0 before the first run


def _raise_heap_thresholds(agents: int) -> None:
    """Fixes glibc's malloc thresholds for the process to suit runs of
    ``agents`` agents, raising them, never lowering them.

    By default glibc raises its mmap threshold to the size of the largest
    block freed so far, up to 32 MiB.  Once a block of a few MB has come
    and gone, such as a run's exported CSV read back whole (about 6 MB at
    m = 500), every smaller block comes from one heap, and how far that
    heap grows depends on where each block happens to land.  Repeated
    m = 500 runs in one process then peaked at one of three resident sizes
    about 5 MB apart, the one taken differing from process to process.
    Here the mmap threshold is 16 m^2 bytes, twice an m x m float64 array,
    so that the per-instant arrays stay in the heap, but at least 4 MiB and
    at most glibc's 32 MiB; blocks above it are mapped and unmapped on
    their own.  The heap keeps up to twice the threshold free at its top,
    the trim threshold glibc's own rule gives.  Where the C library has no
    ``mallopt``, nothing changes.
    """
    global _mmap_threshold
    threshold = min(max(_MMAP_THRESHOLD_MIN, 16 * agents * agents), _MMAP_THRESHOLD_MAX)
    if threshold <= _mmap_threshold:
        return
    _mmap_threshold = threshold
    import ctypes  # numpy has imported it already

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, threshold)
    mallopt(_M_TRIM_THRESHOLD, 2 * threshold)


def run(config: RunConfig, out_dir: str | Path | None = None) -> RunResult:
    """Execute one run and (optionally) write all exports.

    The first run in a process fixes glibc's malloc thresholds, and a run
    of more agents may raise them (see :func:`_raise_heap_thresholds`), so
    that the memory of repeated runs depends less on where earlier blocks
    landed."""
    config.validate()
    _raise_heap_thresholds(config.params.total_count)
    target = out_dir if out_dir is not None else config.outputs
    if target is not None:
        # the CSV formatter's long-lived tables go below the run's arrays in
        # the heap: imported later, by the export, they sat above them, and
        # repeated m=500 runs with export never reached the lower of their
        # two peak-RSS groups
        from . import _csvtext  # noqa: F401
    started = time.time()
    params = config.params
    state = sample_initial(params, config.seed)

    instants = RunPass(state)
    traj = run_epoch(state, params, config.steps, controller=config.mode,
                     schedule=config.schedule, reference_heading=config.reference_heading,
                     integration_check=config.audit_level, observer=instants.observe)

    rows = instants.step_metrics(traj)
    recursion = envelope = None
    if config.audit_level != "off":
        recursion = instants.recursion_audit(traj, substep_count=config.substeps)
        envelope = instants.geometric_envelope_audit(traj)
    sync_index = sync_detect(traj, 1e-6, 1e-6)
    disconnected = np.flatnonzero(np.logical_not(instants.connected))

    meta = {
        "schema_version": SCHEMA_VERSION,
        "seed": config.seed,
        "params": asdict(params),
        "mode": config.mode,
        "steps": config.steps,
        "reference_heading": config.reference_heading,
        "switch_log": traj.switch_log,
        "left_unit_square": traj.left_unit_square,
        "sync_index": sync_index,
        "graph_changes": instants.graph_changes,
        "connected_fraction": float(np.mean(instants.connected)),
        "first_disconnected_step": int(disconnected[0]) if len(disconnected) else None,
        "wallclock": time.time() - started,
    }
    if config.obstacle is not None:
        hits = config.obstacle.contains(traj.positions.reshape(-1, 2))
        meta["obstacle"] = {"center": list(config.obstacle.center),
                            "semi_axes": list(config.obstacle.semi_axes),
                            "hit_fraction": float(hits.mean())}

    result = RunResult(config=config, trajectory=traj, metrics=rows,
                       recursion=recursion, envelope=envelope,
                       sync_index=sync_index, meta=meta)
    if target is not None:
        write_run_outputs(result, target)
    return result


def write_run_outputs(result: RunResult, out_dir) -> dict:
    """Writes ``trajectory.csv``, ``trajectory.npy``, ``metrics.csv``,
    ``audits.json`` and ``run_meta.json`` into ``out_dir``; returns their paths.

    ``trajectory.csv`` is the exact text export of the trajectory.
    ``trajectory.npy`` holds the same values as one C-order float64 array of
    shape (K+1, m, 4), columns x, y, theta and v, in the bytes that
    ``np.save`` writes, which are deterministic.  It caches the CSV's parse for
    :func:`load_trajectory`.  The ``run_meta.json`` written is ``result.meta``
    plus ``trajectory_sha256``, the sha256 of both files, which
    :func:`load_trajectory` checks before it reads the cache.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "trajectory": out / "trajectory.csv",
        "trajectory_npy": out / "trajectory.npy",
        "metrics": out / "metrics.csv",
        "audits": out / "audits.json",
        "meta": out / "run_meta.json",
    }
    traj = result.trajectory
    digests = {"trajectory.csv": write_trajectory_csv(traj, paths["trajectory"])}
    values = np.empty(traj.headings.shape + (4,))
    values[..., :2] = traj.positions
    values[..., 2] = traj.headings
    values[..., 3] = traj.speeds
    digests["trajectory.npy"] = _write_npy(values, paths["trajectory_npy"])
    write_metrics_csv(result.metrics, paths["metrics"])
    audits = {"schema_version": SCHEMA_VERSION}
    if result.recursion is not None:
        audits["recursion"] = result.recursion.to_dict()
    if result.envelope is not None:
        audits["envelope"] = result.envelope.to_dict()
    with open(paths["audits"], "w") as fh:
        json.dump(audits, fh, indent=1)
    with open(paths["meta"], "w") as fh:
        json.dump({**result.meta, "trajectory_sha256": digests}, fh, indent=1)
    return paths


ROLE_LABELS = ("follower", "leader")
TRAJECTORY_HEADER = "k,t,agent,role,x,y,theta,v"


def _file_sha256(path) -> str:
    """sha256 of the file at ``path``, read 1 MiB at a time."""
    # not imported at module level: runs that write nothing never need it
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while piece := fh.read(1 << 20):
            digest.update(piece)
    return digest.hexdigest()


def _write_npy(values: np.ndarray, path) -> str:
    """Writes the C-contiguous ``values`` as ``np.save`` does and returns the
    sha256 of the file's bytes, hashed as they are written."""
    import hashlib

    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(values))
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for data in (header.getvalue(), values.data):
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def write_trajectory_csv(traj: Trajectory, path) -> str:
    """Writes one row per (k, agent) and returns the sha256 of the file's bytes."""
    import hashlib

    from ._csvtext import csv_blocks, text_fields

    # numpy formats the rows in blocks of instants (see _csvtext), and each
    # block is hashed as it is written, which costs less than reading the
    # file back; k is written as the float k, whose '%.17g' is the same text
    instants = [np.arange(len(traj.times), dtype=float), traj.times]
    agents = text_fields([f"{i},{ROLE_LABELS[int(x)]}," for i, x in enumerate(traj.leader_mask)])
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        data = (TRAJECTORY_HEADER + "\n").encode("ascii")
        digest.update(data)
        fh.write(data)
        for data in csv_blocks(instants, agents, [traj.positions, traj.headings, traj.speeds]):
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def load_trajectory(run_dir) -> Trajectory:
    """Rebuild a trajectory record from a stored run directory.

    The ``params``, ``steps``, ``mode`` and ``reference_heading`` read from
    ``run_meta.json`` are checked as a run config's are, and its
    ``switch_log`` as :func:`_validate_switch_log` says; an invalid one
    raises ``ValueError`` naming it.  When ``run_meta.json`` holds ``trajectory_sha256`` and both
    ``trajectory.csv`` and ``trajectory.npy`` still hash to it, the values
    are read from ``trajectory.npy``, which must then be float64 of shape
    (steps + 1, n + leader_count, 4) or ``ValueError`` is raised; the
    leaders are the last ``leader_count`` agents, as ``sample_initial``
    places them.  In every other case (no such key, no ``.npy``, either file
    changed since it was written) ``trajectory.csv`` is parsed: it must carry
    exactly the header ``write_trajectory_csv`` writes and one row per
    (k, agent) for k in 0..steps and agent in 0..m-1, in any order, with
    as many agents and leaders as the params give; anything else raises
    ``ValueError``.
    """
    run_dir = Path(run_dir)
    path = run_dir / "run_meta.json"
    with open(path) as fh:
        meta = json.load(fh)
    try:
        params = _params(meta)
        mode = meta.get("mode", LEADERLESS)
        reference_heading = meta.get("reference_heading", 0.0)
        _validate_run_fields(params, meta.get("steps"), mode, reference_heading)
        switch_log = meta.get("switch_log", [])
        _validate_switch_log(switch_log, meta["steps"], mode)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    cached = _cached_values(run_dir, meta, params)
    if cached is not None:
        positions = np.ascontiguousarray(cached[..., :2])
        headings = np.ascontiguousarray(cached[..., 2])
        speeds = np.ascontiguousarray(cached[..., 3])
        leader_mask = np.arange(params.total_count) >= params.n
    else:
        positions, headings, speeds, leader_mask = _parse_trajectory_csv(run_dir, meta)
        counts = (len(leader_mask), int(leader_mask.sum()))
        if counts != (params.total_count, params.leader_count):
            raise ValueError(f"{run_dir / 'trajectory.csv'}: {counts[0]} agents, {counts[1]} of "
                             f"them leaders, where {path} gives {params.total_count} and "
                             f"{params.leader_count}")
    n_instants = len(positions)

    steps = n_instants - 1
    refs = np.full(steps, np.nan)
    if mode == LEADER_CONSTANT:
        refs[:] = reference_heading
    return Trajectory(times=np.arange(n_instants) * params.tau_n, positions=positions,
                      headings=headings, speeds=speeds, leader_mask=leader_mask,
                      params=params, controller=mode, reference_headings=refs,
                      switch_log=switch_log)


def _cached_values(run_dir: Path, meta: dict, params: ModelParams) -> np.ndarray | None:
    """The (K+1, m, 4) array of ``trajectory.npy`` when both trajectory files
    match the digests in ``meta``, else None.  ``trajectory.npy`` is read
    once, and the array is a read-only view of the very bytes hashed."""
    import hashlib

    digests = meta.get("trajectory_sha256")
    npy = run_dir / "trajectory.npy"
    if not isinstance(digests, dict) or not npy.is_file():
        return None
    if digests.get("trajectory.csv") != _file_sha256(run_dir / "trajectory.csv"):
        return None
    data = npy.read_bytes()
    if digests.get("trajectory.npy") != hashlib.sha256(data).hexdigest():
        return None
    stream = io.BytesIO(data)
    version = np.lib.format.read_magic(stream)
    read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                   else np.lib.format.read_array_header_2_0)
    found, fortran_order, dtype = read_header(stream)
    shape = (meta["steps"] + 1, params.total_count, 4)
    if dtype != np.float64 or found != shape:
        raise ValueError(f"{npy}: {dtype} array of shape {found}, "
                         f"expected float64 of shape {shape}")
    values = np.frombuffer(data, dtype, count=math.prod(shape), offset=stream.tell())
    return values.reshape(shape, order="F" if fortran_order else "C")


def _parse_trajectory_csv(run_dir: Path, meta: dict) -> tuple[np.ndarray, ...]:
    """Positions, headings, speeds and the leader mask from ``trajectory.csv``."""
    path = run_dir / "trajectory.csv"
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n")
        empty = not fh.readline()
    if header != TRAJECTORY_HEADER:
        raise ValueError(f"{path}: header {header!r} is not {TRAJECTORY_HEADER!r}")
    if empty:
        raise ValueError(f"{path}: no rows")
    # numpy's C parser; columns by position: k, agent, x, y, theta, v
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 2, 4, 5, 6, 7), ndmin=2)
    ks, agents = data[:, 0].astype(int), data[:, 1].astype(int)
    n_instants = meta["steps"] + 1
    m = int(agents.max()) + 1
    in_grid = ((ks == data[:, 0]) & (agents == data[:, 1]) & (ks >= 0) & (ks < n_instants)
               & (agents >= 0))
    if (not in_grid.all() or len(ks) != n_instants * m
            or (np.bincount(ks * m + agents) != 1).any()):
        raise ValueError(f"{path}: rows are not exactly one per (k, agent) for "
                         f"k in 0..{n_instants - 1} and agent in 0..{m - 1}")
    positions = np.empty((n_instants, m, 2))
    headings = np.empty((n_instants, m))
    speeds = np.empty((n_instants, m))
    positions[ks, agents, 0] = data[:, 2]
    positions[ks, agents, 1] = data[:, 3]
    headings[ks, agents] = data[:, 4]
    speeds[ks, agents] = data[:, 5]
    # roles are read from the rows of k = 0 only
    first = np.flatnonzero(ks == 0)
    roles = np.loadtxt(path, delimiter=",", skiprows=1, usecols=3, dtype=str,
                       max_rows=int(first[-1]) + 1, ndmin=1)[first]
    if not np.isin(roles, ROLE_LABELS).all():
        raise ValueError(f"{path}: role is not one of {ROLE_LABELS}")
    leader_mask = np.zeros(m, dtype=bool)
    leader_mask[agents[first]] = roles == "leader"
    return positions, headings, speeds, leader_mask


@dataclass
class CampaignSummary:
    per_run: list[dict]
    sync_fraction: float
    connectivity_fraction: float
    audit_verdicts: dict
    quantiles: dict
    errors: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "per_run": self.per_run,
                "sync_fraction": self.sync_fraction,
                "connectivity_fraction": self.connectivity_fraction,
                "audit_verdicts": self.audit_verdicts, "quantiles": self.quantiles,
                "errors": self.errors}


def campaign(base: RunConfig, seeds: list[int], out_dir: str | Path | None = None,
             keep_results: bool = False) -> CampaignSummary | tuple:
    """Run the base config once per seed and aggregate.

    Seeds are checked before the first run; per-run failures are recorded, not fatal.
    Aggregation is invariant to the order of the seed list (records are sorted by seed).
    """
    if not seeds:
        raise ValueError("campaign needs at least one seed")
    for seed in seeds:
        _require_seed(seed)
    per_run: list[dict] = []
    errors: list[dict] = []
    results = []
    verdicts = {"recursion_fail": 0, "envelope_pass": 0, "envelope_skip": 0,
                "envelope_fail": 0, "envelope_report": 0}
    for seed in sorted(set(int(s) for s in seeds)):
        cfg = replace(base, seed=seed, outputs=None)
        try:
            result = run(cfg)
        except Exception as exc:  # recorded per run, campaign continues
            errors.append({"seed": seed, "error": str(exc)})
            continue
        final = result.metrics[-1]
        record = {
            "seed": seed,
            "sync_index": result.sync_index,
            "final_delta_theta": final.delta_theta,
            "final_delta_v": final.delta_v,
            "final_tracking_theta": None if np.isnan(final.tracking_theta)
            else final.tracking_theta,
            "final_tracking_v": None if np.isnan(final.tracking_v) else final.tracking_v,
            "connected_all": bool(result.metrics.columns["connected"].all()),
            "switch_log": result.trajectory.switch_log,
        }
        if result.recursion is not None:
            record["recursion_fails"] = result.recursion.fail_count
            verdicts["recursion_fail"] += result.recursion.fail_count
        if result.envelope is not None:
            record["envelope_verdict"] = result.envelope.verdict
            verdicts[f"envelope_{result.envelope.verdict.lower()}"] += 1
        per_run.append(record)
        if keep_results:
            results.append(result)

    synced = [r["sync_index"] is not None for r in per_run]
    connected = [r["connected_all"] for r in per_run]
    final_dtheta = np.array([r["final_delta_theta"] for r in per_run]) if per_run else np.array([])
    quantiles = {}
    if len(final_dtheta):
        qs = np.quantile(final_dtheta, [0.0, 0.5, 0.9, 1.0])
        quantiles["final_delta_theta"] = {"min": qs[0], "median": qs[1],
                                          "q90": qs[2], "max": qs[3]}
    summary = CampaignSummary(per_run=per_run,
                              sync_fraction=float(np.mean(synced)) if synced else 0.0,
                              connectivity_fraction=float(np.mean(connected)) if connected else 0.0,
                              audit_verdicts=verdicts, quantiles=quantiles, errors=errors)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "campaign_summary.json", "w") as fh:
            json.dump(summary.to_dict(), fh, indent=1)
    return (summary, results) if keep_results else summary


def scenario_fig3(vartheta: float = 0.5, epsilon: float = 0.05, steps: int = 3000,
                  seed: int = 0) -> RunConfig:
    """Guide 20 followers with 3 leaders across an oval obstacle: the desired
    heading steps through {0, pi/2, 0, -pi/2, 0} as tracking is achieved.

    The obstacle is decorative (recorded for the intersection diagnostic
    only).  vartheta and epsilon default to 0.5 and 0.05.
    """
    params = ModelParams(n=20, alpha_n=3.0 / 20.0, r_n=0.3, v_n=0.3, tau_n=0.01,
                         vartheta=vartheta, epsilon=epsilon)
    schedule = ReferenceSchedule(headings=[0.0, np.pi / 2, 0.0, -np.pi / 2, 0.0],
                                 epsilon=epsilon)
    return RunConfig(params=params, steps=steps, seed=seed, mode=LEADER_DYNAMIC,
                     schedule=schedule, audit_level="sampled", obstacle=Obstacle())
