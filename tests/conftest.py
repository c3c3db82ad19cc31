"""Suite-wide fixtures."""

import multiprocessing
import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left_behind():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    assert multiprocessing.active_children() == [], "a child process is still running"
    try:
        # returns, rather than raising, while any child runs or is a zombie
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process is still running or was never reaped")
