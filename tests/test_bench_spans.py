"""Every layer the benchmark's tracer wraps still names a function in dcl.

The tracer in perfbench/spans.py patches these targets only on a traced
pass; a renamed or moved function would otherwise surface only there.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPANS_PATH = _ROOT / "perfbench" / "spans.py"
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


def test_cli_import_loads_every_traced_module():
    # The benchmark's worker imports dcl.cli and then installs the tracer,
    # which reads sys.modules[name] for each layer's module: a module that
    # the CLI imports only on first use would fail every traced run. This
    # test's own imports above would hide that, so a fresh interpreter checks.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    names = sorted({module for _, module, _ in _TARGETS})
    code = f"import sys, dcl.cli; print(' '.join(n for n in {names!r} if n not in sys.modules))"
    missing = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout.split()
    assert missing == []
