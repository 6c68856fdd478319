import multiprocessing.context

import pytest


@pytest.fixture
def pools_made(monkeypatch):
    """The worker count of every process pool made during the test, in order."""
    made = []
    real = multiprocessing.context.BaseContext.Pool

    def spy(ctx, processes, *args, **kwargs):
        made.append(processes)
        return real(ctx, processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", spy)
    return made
