"""The report gate's invocation list stays valid CLI input."""

from __future__ import annotations

import importlib.util
import re
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


def _split_workers(argv: list[str]) -> tuple[list[str], str | None]:
    """argv without its --workers pair, and that pair's value (None without one)."""
    if "--workers" not in argv:
        return argv, None
    i = argv.index("--workers")
    return argv[:i] + argv[i + 2 :], argv[i + 1]


def test_twins_differ_from_their_base_only_in_workers():
    twins = report_gate.twins()
    assert set(twins) >= {
        "lln-annealed-w2",
        "clt-annealed-mixture-w2",
        "clt-quenched-alpha03-w2",
        "bench-tiny-p0.7-w2",
        "bench-annealed-d2-w2",
        "bench-quenched-colors-w2",
        "clt-quenched-gaussian-w3",
    }
    for twin, base in twins.items():
        twin_argv, twin_workers = _split_workers(report_gate.INVOCATIONS[twin])
        base_argv, base_workers = _split_workers(report_gate.INVOCATIONS[base])
        assert twin_argv == base_argv, twin
        assert twin == f"{base}-w{twin_workers}" and int(twin_workers) >= 2, twin
        assert base_workers in (None, "1"), twin


def test_every_w2_invocation_has_a_base():
    # Every -w<k> entry, whatever its worker count k, is the twin of a listed base.
    twins = report_gate.twins()
    suffixed = [name for name in report_gate.INVOCATIONS if re.search(r"-w\d+$", name)]
    assert "clt-quenched-gaussian-w3" in suffixed
    assert [name for name in suffixed if name not in twins] == []


def test_twins_take_any_worker_count_suffix(monkeypatch):
    argv = ["estimate", "--radius", "1"]
    invocations = {
        "a": argv,
        "a-w2": argv + ["--workers", "2"],
        "a-w12": argv + ["--workers", "12"],
        "a-wide": argv,
        "b-w3": argv + ["--workers", "3"],
    }
    monkeypatch.setattr(report_gate, "INVOCATIONS", invocations)
    assert report_gate.twins() == {"a-w2": "a", "a-w12": "a"}
