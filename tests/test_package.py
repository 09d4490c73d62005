"""The package's public names."""

from __future__ import annotations

import dcl


def test_every_exported_name_resolves_once():
    assert len(dcl.__all__) == len(set(dcl.__all__))
    missing = [name for name in dcl.__all__ if not hasattr(dcl, name)]
    assert missing == []
