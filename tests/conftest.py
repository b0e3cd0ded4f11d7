"""Fixtures shared by the test modules."""

import sys

import pytest


def _clear_padem_caches() -> None:
    """Empty every functools cache of a padem module."""
    for name, module in list(sys.modules.items()):
        if name == "padem" or name.startswith("padem."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture
def planted_fault(monkeypatch):
    """monkeypatch for planting a fault in a kernel.  At teardown the
    fault is undone and then padem's functools caches are emptied: a value
    computed while the fault was planted (margolis_d reads the planted
    _adem_pair) would otherwise outlive the test."""
    yield monkeypatch
    monkeypatch.undo()
    _clear_padem_caches()
