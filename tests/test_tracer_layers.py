"""The benchmark tracer wraps package functions by name: every layer it
lists must still resolve, or its trace mode breaks without a word."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("span, module, path", [
    layer[:3] for layer in tracer_layers()
])
def test_traced_layer_resolves(span, module, path):
    obj = importlib.import_module(f"cayleycss.{module}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj), f"{span}: cayleycss.{module}.{path}"
