import os
import time

import pytest


def _children_left() -> bool:
    """Whether this process has a child, running or not yet reaped (a pool not closed)."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind (a worker not reaped)."""
    yield
    if _children_left():
        deadline = time.monotonic() + 10  # reap what ends, so later tests start clean
        while _children_left() and time.monotonic() < deadline:
            time.sleep(0.05)
        pytest.fail("test left a child process behind")


@pytest.fixture
def children_left():
    """_children_left, for a test that checks between its own maps."""
    return _children_left


@pytest.fixture
def pools_made(monkeypatch):
    """The worker count of every pool forked during the test, in order."""
    from fragaudit import workers

    made = []
    real = workers._Pool.fork

    def spy(pool, fn, shared, count):
        made.append(count)
        return real(pool, fn, shared, count)

    monkeypatch.setattr(workers._Pool, "fork", spy)
    return made
