"""The benchmark's three workloads and the correctness check of their outputs.

Each workload is a family of inputs: a pool of ``POOL_SIZE`` simulation
seeds whose reference outcomes ``record.py`` stored in ``reference.json``.
The benchmark seed fixes the order in which one process visits the pool, so
the same seed gives the same inputs.  The pool is small enough that one run
visits about all of it: the cost of a call depends on its input (an
envelope audit that passes rebuilds the graph at every instant, one that
skips returns at once), and a run that sees the whole pool reports a median
that moves with the code rather than with the seed.  The library is driven
only through its public API and receives only the generated configs.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from uniswarm import LEADER_CONSTANT, ModelParams, RunConfig, harness, metrics
from uniswarm.graphs import build_graph

POOL_SIZE = 8
# Each stored run is re-audited this many times, each timed on its own, so
# that reaudit_s, which is short next to run_s, gets more samples per run.
REAUDIT_REPEATS = 2

# Floats of the final StepMetrics row are compared, not byte-matched, so
# that a refactor that moves results in the last bits still passes.
REL_TOL = 1e-9
ABS_TOL = 1e-12

CHECKED = ("recursion_fail_count", "envelope_verdict", "switch_log", "sync_index",
           "final_row", "reaudit_recursion_fail_count", "reaudit_envelope_verdict")
DIGESTED = ("trajectory.csv", "metrics.csv", "audits.json")


@dataclass
class CallOutput:
    """What one top-level workload call produced, and how long it took."""

    run_s: float
    reaudit_s: list[float]  # REAUDIT_REPEATS re-audit times per stored run
    results: list  # RunResult per simulation seed
    outcomes: dict[int, dict] = field(default_factory=dict)
    digests: dict[int, dict] = field(default_factory=dict)
    output_bytes: int = 0
    errors: list = field(default_factory=list)
    properties: dict[int, dict] = field(default_factory=dict)  # see input_properties


@dataclass(frozen=True)
class Workload:
    name: str
    agents: int
    steps: int
    runs_per_call: int
    call: Callable[[list[int], Path, Callable], CallOutput]

    @property
    def instants_per_call(self) -> int:
        return self.runs_per_call * (self.steps + 1)

    def inputs(self, seed: int):
        """Endless stream of pool-seed lists, one per call, fixed by ``seed``:
        passes over the whole pool, each in a fresh order."""
        rng = random.Random(seed)
        k = self.runs_per_call
        while True:
            order = rng.sample(range(POOL_SIZE), POOL_SIZE)
            for i in range(0, POOL_SIZE - k + 1, k):
                yield order[i:i + k]


def _outcome(result) -> dict:
    final = result.metrics[-1]
    return {
        "recursion_fail_count": result.recursion.fail_count,
        "envelope_verdict": result.envelope.verdict,
        "switch_log": [int(k) for k in result.trajectory.switch_log],
        "sync_index": result.sync_index,
        "final_row": {name: _plain(getattr(final, name)) for name in final.__dataclass_fields__},
    }


def _plain(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    value = float(value)
    return None if math.isnan(value) else value


def _export_roundtrip(config: RunConfig, out: Path, span) -> CallOutput:
    """run() with export, then the stored directory re-audited the way
    ``uniswarm audit`` does it."""
    t0 = time.perf_counter()
    with span("bench.run"):
        result = harness.run(config, out_dir=out)
    t1 = time.perf_counter()
    reaudit_s = []
    with span("bench.reaudit"):
        for _ in range(REAUDIT_REPEATS):
            start = time.perf_counter()
            traj = harness.load_trajectory(out)
            recursion = metrics.recursion_audit(traj, substep_count=config.substeps)
            envelope = metrics.geometric_envelope_audit(traj)
            reaudit_s.append(time.perf_counter() - start)
    outcome = _outcome(result)
    outcome["reaudit_recursion_fail_count"] = recursion.fail_count
    outcome["reaudit_envelope_verdict"] = envelope.verdict
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in DIGESTED}
    size = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return CallOutput(run_s=t1 - t0, reaudit_s=reaudit_s, results=[result],
                      outcomes={config.seed: outcome}, digests={config.seed: digests},
                      output_bytes=size)


def _leaderless_m500(seeds, out, span) -> CallOutput:
    (seed,) = seeds
    params = ModelParams(n=500, r_n=0.15, v_n=0.05, tau_n=0.01)
    return _export_roundtrip(RunConfig(params=params, steps=100, seed=seed,
                                       audit_level="sampled"), out, span)


def _fig3_roundtrip(seeds, out, span) -> CallOutput:
    (seed,) = seeds
    return _export_roundtrip(harness.scenario_fig3(seed=seed), out, span)


def _leader_constant_campaign(seeds, out, span) -> CallOutput:
    """The acceptance-criterion-8 config over a few seeds.  A campaign writes
    no per-run files, so its re-audit runs on the kept in-memory trajectories."""
    params = ModelParams(n=100, alpha_n=0.3, r_n=0.3, v_n=0.1, tau_n=0.01, vartheta=0.5)
    base = RunConfig(params=params, steps=1000, seed=seeds[0], mode=LEADER_CONSTANT,
                     reference_heading=np.pi / 4, audit_level="sampled")
    t0 = time.perf_counter()
    with span("bench.run"):
        summary, results = harness.campaign(base, seeds, keep_results=True)
    t1 = time.perf_counter()
    reaudits, reaudit_s = [], []
    with span("bench.reaudit"):
        for result in results:
            for _ in range(REAUDIT_REPEATS):
                start = time.perf_counter()
                audits = (metrics.recursion_audit(result.trajectory, substep_count=base.substeps),
                          metrics.geometric_envelope_audit(result.trajectory))
                reaudit_s.append(time.perf_counter() - start)
            reaudits.append(audits)
    outcomes = {}
    for result, (recursion, envelope) in zip(results, reaudits):
        outcome = _outcome(result)
        outcome["reaudit_recursion_fail_count"] = recursion.fail_count
        outcome["reaudit_envelope_verdict"] = envelope.verdict
        outcomes[result.config.seed] = outcome
    return CallOutput(run_s=t1 - t0, reaudit_s=reaudit_s, results=results,
                      outcomes=outcomes, errors=summary.errors)


WORKLOADS = {w.name: w for w in (
    Workload("leaderless_m500", agents=500, steps=100, runs_per_call=1, call=_leaderless_m500),
    Workload("leader_constant_campaign", agents=130, steps=1000, runs_per_call=2,
             call=_leader_constant_campaign),
    Workload("fig3_roundtrip", agents=23, steps=3000, runs_per_call=1, call=_fig3_roundtrip),
)}


# --- correctness ------------------------------------------------------------

def mismatches(got, want, path: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got} != {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if abs(got - want) <= ABS_TOL + REL_TOL * abs(want):
            return []
        return [f"{path}: {got!r} != {want!r} (rel {REL_TOL:g}, abs {ABS_TOL:g})"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def check(workload: Workload, seeds: list[int], output: CallOutput, reference: dict) -> list[str]:
    """Differences between a call's outcomes and the recorded reference.

    Empty when the call is correct.  Digests are not checked here: they are
    reported for information only.
    """
    problems = [f"seed {e.get('seed')}: raised {e.get('error')}" for e in output.errors]
    for seed in seeds:
        got = output.outcomes.get(seed)
        if got is None:
            problems.append(f"seed {seed}: no outcome")
            continue
        got = {**got, **output.properties.get(seed, {})}
        want = reference["seeds"][str(seed)]
        for key in CHECKED + tuple(output.properties.get(seed, ())):
            problems += mismatches(got[key], want[key], f"{workload.name}[{seed}].{key}")
    return problems


# --- exact input properties -----------------------------------------------------

def input_properties(output: CallOutput) -> dict[int, dict]:
    """Per seed, two exact shares: ``changed_rows_frac``, the agent-instants
    whose neighbour set differs from k=0 over all sampling instants, and
    ``p_dev_zero_frac``, the metrics rows with ``p_deviation == 0``."""
    properties = {}
    for result in output.results:
        traj, params = result.trajectory, result.config.params
        initial = build_graph(traj.positions[0], params.r_n, params.self_inclusive).adjacency
        changed = 0
        for k in range(traj.n_steps + 1):
            adjacency = build_graph(traj.positions[k], params.r_n, params.self_inclusive).adjacency
            changed += int((adjacency != initial).any(axis=1).sum())
        zero_rows = sum(1 for row in result.metrics if row.p_deviation == 0.0)
        properties[result.config.seed] = {
            "changed_rows_frac": changed / ((traj.n_steps + 1) * traj.headings.shape[1]),
            "p_dev_zero_frac": zero_rows / len(result.metrics)}
    return properties
