"""Suite-wide fixtures."""

import multiprocessing
import os

import pytest


def pytest_configure(config):
    """Make numpy's ComplexWarning an error in every test.

    The folded grid sums take real parts of complex projections, and a
    dropped `np.real` would silently discard an imaginary part.  The class
    lives in `numpy.exceptions` from numpy 1.25 and in `numpy` before, so
    it is resolved here, not named in the ini file.
    """
    try:
        from numpy.exceptions import ComplexWarning
    except ImportError:  # numpy < 1.25
        from numpy import ComplexWarning
    config.addinivalue_line(
        "filterwarnings", f"error::{ComplexWarning.__module__}.{ComplexWarning.__qualname__}")


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
