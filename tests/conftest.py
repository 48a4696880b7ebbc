"""Suite-wide checks."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test after which a thread runs that did not run before it.

    The lane streams' refill helpers are started and joined within one
    call, and the CLI forks its workers; a thread left behind would break both.
    """
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running after the test: {left}"
