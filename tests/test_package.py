"""Tests for the package's public names."""

from __future__ import annotations

import qclique


def test_every_exported_name_exists_once():
    names = qclique.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(qclique, name)] == []
