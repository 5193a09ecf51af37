"""The benchmark tracer's wrap targets must all exist in the package.

perfbench/tracing.py wraps edgeplace callables by (module, attribute path).
A target that no longer resolves is only listed under trace.missing_targets
in a traced run, and its layer silently drops out of the per-layer report,
so a rename or deletion under src/ fails here instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrap_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAP_TARGETS


@pytest.mark.parametrize("module_name, attr_path, span", _wrap_targets())
def test_wrap_target_resolves(module_name, attr_path, span):
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # the tracer patches methods on the class that defines them, so an
    # inherited method would not be wrapped where its callers look it up
    target = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(target), f"{module_name}.{attr_path} (span {span}) does not resolve"
