"""The benchmark's span tracer wraps library attributes by name.

``perfbench/tracing.py`` replaces every ``(owner, attribute)`` pair of its
``LAYERS`` table with ``vars(owner)[attribute]``; a refactor that drops one
of those names makes ``perfbench/run.py --trace 1`` fail with ``KeyError``.
A wrapped name that callers no longer look up, or call, reads 0 instead,
so a traced run must also record spans of the layers it passes through.
"""

import importlib.util
from pathlib import Path

import pytest

from uniswarm import run, scenario_fig3

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
LAYERS = tracing.LAYERS


@pytest.mark.parametrize("owner, attr, span", LAYERS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in LAYERS])
def test_traced_layer_resolves(owner, attr, span):
    assert callable(vars(owner).get(attr)), f"{span}: {owner.__name__}.{attr} is gone"


def test_traced_fig3_run_records_schedule_consults():
    # seed 0 switches at instant 256, so a 300-step run asks the schedule
    # both before and after its first switch
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run(scenario_fig3(seed=0, steps=300))
    finally:
        tracer.uninstall()
    assert result.trajectory.switch_log == [256]
    totals = tracer.totals()
    assert totals["reference.maybe_advance"]["calls"] >= 1
    assert totals["dynamics.run_epoch"]["calls"] == 1
