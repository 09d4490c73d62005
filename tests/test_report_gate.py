"""The report gate's invocation list stays valid CLI input."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from dcl.cli import parse_invocation

_GATE_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_gate.py"
_spec = importlib.util.spec_from_file_location("report_gate", _GATE_PATH)
report_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_gate)


@pytest.mark.parametrize("name", sorted(report_gate.INVOCATIONS))
@pytest.mark.parametrize("out_format", report_gate.FORMATS)
def test_gate_invocation_parses(name, out_format, tmp_path):
    out = tmp_path / "report.json"
    argv = report_gate.gate_argv(report_gate.INVOCATIONS[name], out, out_format)
    invocation = parse_invocation(argv)
    assert invocation.out_path == out
    assert invocation.out_format == out_format
    seed = invocation.config.master_seed if invocation.config else invocation.options["master_seed"]
    assert seed == int(report_gate.SEED)


def test_gate_names_are_directory_safe():
    for name in report_gate.INVOCATIONS:
        assert name and all(c.isalnum() or c in "-._" for c in name)
