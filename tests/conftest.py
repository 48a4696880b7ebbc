"""Suite-wide checks."""

import multiprocessing
import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_or_process_left_running():
    """Fail a test after which a thread or child process runs that did not run before it.

    The lane streams' refill helpers are started and joined within one
    call, and the CLI forks its workers and joins them; a thread left behind
    would break both, and a worker left behind outlives its command.
    """
    threads = set(threading.enumerate())
    children = set(multiprocessing.active_children())
    yield
    left = [t.name for t in threading.enumerate() if t not in threads]
    assert not left, f"threads left running after the test: {left}"
    left = [p.name for p in multiprocessing.active_children() if p not in children]
    assert not left, f"child processes left running after the test: {left}"
