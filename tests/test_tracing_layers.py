"""Every package function the benchmark tracer wraps must still exist.

The tracer in ``benchmarks/tracing.py`` looks each layer up by name with
``vars(owner)[attr]``; a rename or deletion inside the package would only
show when the benchmark runs with tracing on.  This test loads the tracer
from its file, unchanged, and resolves every layer it names.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "layer",
    tracing.SETUP_LAYERS + tracing.PHASE_LAYERS,
    ids=lambda layer: layer.name,
)
def test_layer_resolves_in_package(layer):
    owner = tracing._resolve(layer.owner)
    assert callable(vars(owner).get(layer.attr)), f"{layer.owner}.{layer.attr} is gone"
