"""The benchmark's span tracer wraps library attributes by name.

``perfbench/tracing.py`` replaces every ``(owner, attribute)`` pair of its
``LAYERS`` table with ``vars(owner)[attribute]``; a refactor that drops one
of those names makes ``perfbench/run.py --trace 1`` fail with ``KeyError``.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("owner, attr, span", LAYERS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in LAYERS])
def test_traced_layer_resolves(owner, attr, span):
    assert callable(vars(owner).get(attr)), f"{span}: {owner.__name__}.{attr} is gone"
