"""The benchmark (perfbench/) reaches poqlab by name: its tracer wraps the
functions that spans.TARGETS lists, and its workloads and self-test call
poqlab's modules.  A rename that drops one of those names would only show up
in a benchmark run, so every one is resolved here: the traced names the way
Tracer.install resolves them, and each `module.name` that workloads.py and
selftest.py reference, found by walking their syntax trees."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
BENCH_SCRIPTS = ("workloads.py", "selftest.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(layer, target) for layer, targets in module.TARGETS.items()
            for target in targets]


@pytest.mark.parametrize("layer, target", _targets())
def test_traced_name_resolves(layer, target):
    module = importlib.import_module(f"poqlab.{layer}")
    owner_name, _, attr = target.rpartition(".")
    if owner_name:
        # methods are wrapped on the class that defines them
        owner = getattr(module, owner_name)
        assert callable(owner.__dict__.get(attr)), f"{target} not defined here"
    else:
        assert callable(getattr(module, attr, None)), f"poqlab.{layer}.{attr}"


def _benchmark_references(script):
    """(module, name) for every `module.name` in the script whose module was
    imported by `from poqlab import module`."""
    tree = ast.parse((PERFBENCH / script).read_text())
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "poqlab"
               for alias in node.names}
    return sorted({(modules[node.value.id], node.attr)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


@pytest.mark.parametrize("script, module, name", [
    (script, module, name) for script in BENCH_SCRIPTS
    for module, name in _benchmark_references(script)])
def test_benchmark_name_resolves(script, module, name):
    assert hasattr(importlib.import_module(f"poqlab.{module}"), name), \
        f"{script} uses poqlab.{module}.{name}"


@pytest.mark.parametrize("script", BENCH_SCRIPTS)
def test_benchmark_scripts_reference_poqlab(script):
    # the walk must see the scripts' calls, or the test above checks nothing
    assert {module for module, _ in _benchmark_references(script)} >= \
        {"core", "fourier", "games", "protocol"}
