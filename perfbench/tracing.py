"""Span tracing of the library's layers from outside the library.

``Tracer.install()`` replaces the module attributes that callers look up
(for example ``uniswarm.dynamics.build_graph``, which ``run_epoch`` calls)
with wrappers that record a span per call; ``uninstall()`` puts the
originals back.  Only the traced run installs them.  Spans are single
threaded and strictly nested, so a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext

from uniswarm import dynamics, graphs, harness, metrics, reference

# (owner, attribute looked up by callers, span name).  A function reached
# through several modules gets one wrapper per module under one span name.
LAYERS = (
    (harness, "run", "harness.run"),
    (harness, "write_run_outputs", "harness.write_run_outputs"),
    (harness, "load_trajectory", "harness.load_trajectory"),
    (harness, "run_epoch", "dynamics.run_epoch"),
    (harness, "step_metrics", "metrics.step_metrics"),
    (harness, "recursion_audit", "metrics.recursion_audit"),
    (harness, "geometric_envelope_audit", "metrics.geometric_envelope_audit"),
    (harness, "build_graph", "graphs.build_graph"),
    (metrics, "recursion_audit", "metrics.recursion_audit"),
    (metrics, "geometric_envelope_audit", "metrics.geometric_envelope_audit"),
    (metrics, "build_graph", "graphs.build_graph"),
    (metrics, "pairwise_distances", "graphs.pairwise_distances"),
    (metrics, "averaging_matrix", "graphs.averaging_matrix"),
    (metrics, "connectivity", "graphs.connectivity"),
    (dynamics, "build_graph", "graphs.build_graph"),
    (dynamics, "connectivity", "graphs.connectivity"),
    (dynamics, "leaderless_discrete_step", "dynamics.discrete_step"),
    (dynamics, "leader_discrete_step", "dynamics.discrete_step"),
    (dynamics, "advance_positions", "dynamics.advance_positions"),
    (dynamics, "integrate_position_oracle", "dynamics.integrate_position_oracle"),
    (graphs, "pairwise_distances", "graphs.pairwise_distances"),
    (reference.ReferenceSchedule, "maybe_advance", "reference.maybe_advance"),
)


def no_span(name: str):
    """Stand-in for ``Tracer.span`` in untraced calls."""
    return nullcontext()


class Tracer:
    def __init__(self):
        # one record per span: [name, parent index, root name, start, end, self seconds]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[self._stack[0]][0] if self._stack else name
        self.spans.append([name, parent, root, time.perf_counter(), 0.0, 0.0])
        self._stack.append(index)
        self._child_time.append(0.0)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        record = self.spans[index]
        duration = end - record[3]
        record[4] = end
        record[5] = duration - self._child_time.pop()
        self._stack.pop()
        if self._child_time:
            self._child_time[-1] += duration

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, function, name: str):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return function(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    def install(self) -> None:
        for owner, attr, name in LAYERS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self, root: str | None = None) -> dict[str, dict]:
        """Per span name: call count, total and self seconds, optionally only
        for spans under the top-level span named ``root``."""
        out: dict[str, dict] = {}
        for name, _parent, span_root, start, end, self_s in self.spans:
            if root is not None and span_root != root:
                continue
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += self_s
        return out

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,parent,start,end,self_s\n")
            for i, (name, parent, _root, start, end, self_s) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{start:.9f},{end:.9f},{self_s:.9f}\n")
