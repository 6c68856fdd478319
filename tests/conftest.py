import sys

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a live child process behind (a pool not joined)."""
    yield
    mp = sys.modules.get("multiprocessing")
    if mp is None:
        return
    left = mp.active_children()
    for child in left:
        child.terminate()
        child.join(timeout=10)
    if left:
        pytest.fail(f"test left {len(left)} live child process(es)")


@pytest.fixture
def pools_made(monkeypatch):
    """The worker count of every process pool made during the test, in order."""
    import multiprocessing.context

    made = []
    real = multiprocessing.context.BaseContext.Pool

    def spy(ctx, processes, *args, **kwargs):
        made.append(processes)
        return real(ctx, processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", spy)
    return made
