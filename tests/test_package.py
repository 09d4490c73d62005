"""The package's public names and the README's library quick start."""

from __future__ import annotations

from pathlib import Path

import dcl

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_once():
    assert len(dcl.__all__) == len(set(dcl.__all__))
    missing = [name for name in dcl.__all__ if not hasattr(dcl, name)]
    assert missing == []


def test_readme_quick_start_runs_as_written(capsys):
    section = _README.read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(_README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "True"
