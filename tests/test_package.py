"""The package's public names and the README's library quick start."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import dcl

_ROOT = Path(__file__).resolve().parents[1]
_README = _ROOT / "README.md"


def test_every_exported_name_resolves_once():
    assert len(dcl.__all__) == len(set(dcl.__all__))
    missing = [name for name in dcl.__all__ if not hasattr(dcl, name)]
    assert missing == []


def _loaded_names(path: Path) -> set[str]:
    """Every name and attribute that the module at path reads."""
    loaded = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    return loaded


def test_every_exported_name_is_used_by_the_package():
    # A name only tests call belongs in the tests. The benchmark's tracer
    # wraps its targets by name, so those stay exported while it does.
    spec = importlib.util.spec_from_file_location("perfbench_spans", _ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = {path.split(".")[0] for targets in spans.LAYERS.values() for _, path in targets}
    package = Path(dcl.__file__).resolve().parent
    used = set().union(*(_loaded_names(p) for p in package.glob("*.py") if p.name != "__init__.py"))
    assert sorted(set(dcl.__all__) - used - traced) == []


def test_readme_quick_start_runs_as_written(capsys):
    section = _README.read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(_README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "True"
