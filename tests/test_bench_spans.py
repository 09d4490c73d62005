"""Every layer the benchmark's tracer wraps still names a function in dcl.

The tracer in perfbench/spans.py patches these targets only on a traced
pass; a renamed or moved function would otherwise surface only there.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

_TARGETS = [(layer, module, path) for layer, targets in spans.LAYERS.items() for module, path in targets]


@pytest.mark.parametrize("layer,module_name,path", _TARGETS)
def test_span_target_resolves(layer, module_name, path):
    owner = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(owner, cls_name)
        # The tracer wraps cls.__dict__[attr]: an inherited method would not be there.
        assert callable(cls.__dict__.get(attr)), f"{layer}: {path} is not defined on {cls_name} itself"
    else:
        assert callable(getattr(owner, path, None)), f"{layer}: {module_name}.{path} does not exist"
