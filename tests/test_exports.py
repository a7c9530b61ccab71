"""Every name a bvn module exports resolves, and every function the traced
benchmark wraps (``perfbench/tracer.py`` ``LAYERS``) is still bound in its
module, so deleting one fails here rather than in a benchmark run.  No query
takes tolerances of its own: they come from the interpretation."""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import bvn

MODULES = ["bvn"] + [f"bvn.{m.name}" for m in pkgutil.iter_modules(bvn.__path__)]
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("_bvn_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {layer: names for layer, names in tracer.LAYERS.items() if layer != "lapack"}


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("layer, names", sorted(_layers().items()))
def test_traced_functions_are_bound(layer, names):
    module = importlib.import_module(f"bvn.{layer}")
    assert [n for n in names if not callable(getattr(module, n, None))] == []


@pytest.mark.parametrize("name", ["bvn.terms", "bvn.formulas", "bvn.programs", "bvn.hoare"])
def test_queries_take_tolerances_from_the_interpretation(name):
    module = importlib.import_module(name)
    functions = [f for f in map(module.__getattribute__, module.__all__) if inspect.isfunction(f)]
    assert [f.__name__ for f in functions if "tol" in inspect.signature(f).parameters] == []
