"""Fixtures shared by the test modules."""

import signal

import numpy as np
import pytest


@pytest.fixture
def fail_fast():
    """Fail a test whose call never returns after 10 s, where SIGALRM exists."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def hang(signum, frame):
        raise TimeoutError("the call did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def no_table_arrays(monkeypatch):
    """Make the numpy calls that build a lattice table raise, so that a
    refused table is seen to be refused before any array is built."""

    def boom(*args, **kwargs):
        raise AssertionError("a refused lattice table built an array")

    for name in ("arange", "linspace", "triu_indices"):
        monkeypatch.setattr(np, name, boom)
