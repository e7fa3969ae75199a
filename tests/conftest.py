"""Fixtures shared by the test modules."""

import signal

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
