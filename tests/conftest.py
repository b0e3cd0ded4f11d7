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
    """monkeypatch for planting a fault in a kernel.  padem's functools
    caches are emptied at setup, and again at teardown once the fault is
    undone: a value computed before the fault was planted would hide it
    (the Adem and Cartan rows an earlier test cached hold the right
    binomials), and one computed while it was planted (margolis_d reads
    the planted _adem_pair) would otherwise outlive the test."""
    _clear_padem_caches()
    yield monkeypatch
    monkeypatch.undo()
    _clear_padem_caches()
