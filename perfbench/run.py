"""Benchmark of the uniswarm simulator, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads are defined in
``workloads.py``.  One process runs one workload for ``--seconds`` seconds:
it times ``setup_s`` in fresh interpreters, makes one warm-up call that is
checked but not timed, then calls the workload until the time is up (at
least three calls) and reports medians.  Every call is checked against
``reference.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` skips the
set-up timing, spends half the remaining time untraced, then repeats the
same inputs with span wrappers installed on the library's module
attributes, and prints the per-layer metrics and the tracing overhead.
Per-layer seconds and counts are per workload call, re-audits included.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Exit
code 0 when every call was correct, 1 when a call failed, 2 when the
checkout holds no library to measure.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import benchenv

REFERENCE = Path(__file__).resolve().parent / "reference.json"
MIN_CALLS = 3
MIN_TRACE_CALLS = 2
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120
MAX_PROBLEMS_SHOWN = 10

# A fresh interpreter imports the library and makes one tiny run; the run's
# sampled integration check pulls in the lazy scipy.integrate import.  It
# prints the system-wide monotonic clock when done, so that set-up time
# ends there rather than at interpreter exit, and is not rounded up to the
# 50 ms polling step of ``subprocess.run`` with a timeout.
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "from uniswarm import ModelParams, RunConfig, run; "
              "run(RunConfig(params=ModelParams(n=8, r_n=0.5, v_n=0.05, tau_n=0.01), "
              "steps=2, seed=0)); "
              "print(time.clock_gettime(time.CLOCK_MONOTONIC))")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def setup_seconds(root: Path) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(benchenv.SRC)], cwd=root,
                              check=True, timeout=SETUP_TIMEOUT_S, capture_output=True,
                              text=True)
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


class Session:
    """Makes checked workload calls and counts the ones that fail."""

    def __init__(self, workloads, workload, reference: dict, out: Path):
        self.workloads = workloads
        self.workload = workload
        self.reference = reference
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, seeds: list[int], span, properties: bool = False):
        self.attempted += 1
        try:
            output = self.workload.call(seeds, self.out, span)
        except Exception:  # a raising call is a failed call; the run goes on
            self.failed += 1
            self.problems.append(f"seeds {seeds}: {traceback.format_exc().strip()}")
            return None
        if properties:
            output.properties = self.workloads.input_properties(output)
        self.fail_if(self.workloads.check(self.workload, seeds, output, self.reference))
        output.results = []  # keep no trajectories, so peak RSS is that of one call
        return output

    def fail_if(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems += problems

    def timed_calls(self, inputs, deadline: float, span, min_calls: int,
                    properties: bool = False) -> tuple[list, list]:
        """Calls until the ``time.perf_counter()`` deadline has passed and at
        least ``min_calls`` were made; returns the completed outputs and the
        inputs of every call."""
        outputs, used = [], []
        while len(used) < min_calls or time.perf_counter() < deadline:
            used.append(next(inputs))
            output = self.call(used[-1], span, properties)
            if output is not None:
                outputs.append(output)
        return outputs, used


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(workload, outputs, setup: list[float]) -> dict:
    run_s = _median([o.run_s for o in outputs])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": (run_s, "s"),
        "agent_steps_per_s": (workload.agents * workload.steps * workload.runs_per_call / run_s,
                              "1/s"),
        "reaudit_s": (_median([s for o in outputs for s in o.reaudit_s]), "s"),
        "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
        "setup_s": (_median(setup), "s"),
    }


# Per-layer metrics read from the spans, per workload call: the metric name
# is the span name plus the total (s), self time (self_s) or call count.
PER_CALL = ("graphs.build_graph.s", "graphs.pairwise_distances.s", "graphs.averaging_matrix.s",
            "graphs.connectivity.s", "metrics.step_metrics.self_s", "metrics.step_metrics.calls",
            "metrics.recursion_audit.self_s", "metrics.geometric_envelope_audit.self_s",
            "dynamics.run_epoch.self_s", "dynamics.discrete_step.s",
            "dynamics.advance_positions.s", "dynamics.integrate_position_oracle.calls",
            "dynamics.integrate_position_oracle.s", "reference.maybe_advance.s",
            "harness.run.self_s", "harness.write_run_outputs.s", "harness.load_trajectory.s")
# Calls per sampling instant on the run() path, re-audit excluded.
PER_INSTANT = ("graphs.build_graph", "graphs.pairwise_distances")


def per_layer(workload, tracer, traced, untraced) -> dict:
    calls = max(len(traced), 1)
    everywhere = tracer.totals()
    on_run = tracer.totals(root="bench.run")
    out = {}
    for metric in PER_CALL:
        span, key = metric.rsplit(".", 1)
        out[metric] = (everywhere.get(span, {}).get(key, 0) / calls,
                       "count" if key == "calls" else "s")
    for span in PER_INSTANT:
        out[f"{span}.calls_per_instant"] = (on_run.get(span, {}).get("calls", 0)
                                            / (calls * workload.instants_per_call), "count/instant")
    # exact input properties, computed on the untraced calls of the same inputs
    properties = [p for o in untraced for p in o.properties.values()]
    for key, layer in (("changed_rows_frac", "graphs"), ("p_dev_zero_frac", "metrics")):
        out[f"{layer}.{key}"] = (sum(p[key] for p in properties) / max(len(properties), 1),
                                 "ratio")
    out["harness.output_bytes"] = (_median([o.output_bytes for o in traced]), "B")
    out["trace.overhead_s"] = (_median([t.run_s - u.run_s for t, u in zip(traced, untraced)]),
                               "s")
    return out


def digest_line(outputs, reference: dict) -> str | None:
    stored = [(seed, d) for o in outputs for seed, d in o.digests.items()]
    if not stored:
        return None
    same = sum(1 for seed, d in stored if d == reference["seeds"][str(seed)]["sha256"])
    seed, last = stored[-1]
    names = " ".join(f"{name}={value[:16]}" for name, value in last.items())
    return (f"sha256 (information only): {same} of {len(stored)} stored runs byte-identical "
            f"to the recorded files; seed {seed}: {names}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        root = benchenv.bootstrap()
    except benchenv.MissingLibrary as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())["workloads"][workload.name]
    scratch = root / ".perfbench_out"
    out = scratch / workload.name
    session = Session(workloads, workload, reference, out)
    inputs = workload.inputs(args.seed)

    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(benchenv.environment(), sort_keys=True))
    deadline = time.perf_counter() + args.seconds
    try:
        setup = [] if args.trace else setup_seconds(root)
        traced = []
        session.call(next(inputs), tracing.no_span)  # warm-up: checked, not timed
        if not args.trace:
            outputs, _ = session.timed_calls(inputs, deadline, tracing.no_span, MIN_CALLS)
            metrics = end_to_end(workload, outputs, setup)
        else:
            # half the time untraced, then the same inputs again traced, so
            # that the overhead compares like with like
            halfway = (time.perf_counter() + deadline) / 2
            untraced, used = session.timed_calls(inputs, halfway, tracing.no_span,
                                                 MIN_TRACE_CALLS, properties=True)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, _ = session.timed_calls(iter(used), 0.0, tracer.span, len(used))
            finally:
                tracer.uninstall()
            outputs = untraced
            metrics = per_layer(workload, tracer, traced, untraced)
            scratch.mkdir(exist_ok=True)  # a campaign writes no run files
            tracer.write_csv(scratch / f"spans-{workload.name}-seed{args.seed}.csv")
    finally:
        shutil.rmtree(out, ignore_errors=True)

    calls = len(outputs)
    print(f"{calls} timed calls of {workload.runs_per_call} run(s) each; m={workload.agents}, "
          f"{workload.steps} steps; medians over the calls")
    samples = {"run_s": [o.run_s for o in outputs],
               "reaudit_s": [s for o in outputs for s in o.reaudit_s],
               "setup_s": setup, "traced run_s": [o.run_s for o in traced]}
    for name, values in samples.items():
        if values:
            print(f"{name} samples: {' '.join(f'{v:.3f}' for v in values)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':44s} {session.failed / session.attempted:14.6g} ratio "
          f"({session.failed} of {session.attempted} calls)")
    line = digest_line(outputs, reference)
    if line:
        print(line)
    for problem in session.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"INCORRECT {problem}")

    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
