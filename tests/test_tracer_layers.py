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


# The tracer replaces a function in every module namespace that holds
# it; the benchmark's self-test reads these ``from ... import`` bindings
# by name, so each must stay the cayley function itself.
@pytest.mark.parametrize("module, name", [
    ("css", "adjacency_matrix"), ("cli", "adjacency_matrix"),
    ("verify", "adjacency_matrix"), ("repetition", "adjacency_matrix"),
    ("repetition", "halved_matrix"), ("cover", "ball"),
])
def test_traced_function_is_bound_where_it_is_imported(module, name):
    cayley = importlib.import_module("cayleycss.cayley")
    obj = importlib.import_module(f"cayleycss.{module}")
    assert getattr(obj, name, None) is getattr(cayley, name)
