"""Tests for the package's public namespace."""

import clusterperm


def test_every_export_resolves():
    missing = [name for name in clusterperm.__all__ if not hasattr(clusterperm, name)]
    assert missing == []
    assert len(set(clusterperm.__all__)) == len(clusterperm.__all__)
