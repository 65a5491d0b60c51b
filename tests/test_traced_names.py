"""The benchmark's tracer (perfbench/spans.py) wraps poqlab functions by name.
A rename that drops one of them would only show up in a traced benchmark run,
so every name it lists is resolved here the way Tracer.install resolves it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
