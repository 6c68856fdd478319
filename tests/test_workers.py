"""The forked worker pool: every worker runs with fixed malloc thresholds, a map
inside a worker runs in-process, a failing map shuts its pool down without
terminating it, and ordered_map is the pool's only entry."""

import ast
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from fragaudit import workers

# Each of two forked workers allocates, writes and frees four 3 MiB blocks 20
# times and returns the page faults this took; the most is printed. In a fresh
# interpreter the parent has freed no large block, so its mmap threshold and
# the worker's start at glibc's defaults.
CHURN = """
import resource
import numpy as np
from fragaudit import workers
workers.cpu_count = lambda: 2

def churn(_):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        blocks = [np.ones(3 << 17) for _ in range(4)]
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

with workers.ordered_map(churn, (), range(2), 2) as faults:
    print(max(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_a_worker_keeps_freed_large_blocks_in_its_heap():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", CHURN], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    # at most 8 blocks of 768 pages are live at once, so kept in the heap they
    # fault 6,144 times; returned to the OS after each round, about 36,000 times
    assert int(out.stdout) < 2 * 6144


def test_a_worker_without_mallopt_still_runs_the_initializer(monkeypatch):
    import ctypes

    def no_libc(name):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    monkeypatch.setattr(workers, "_bound", None)  # this process is no worker after the test
    workers._start_worker(divmod, (17,))
    assert workers._call_bound(5) == (3, 2)


def _pid_square(x):
    return os.getpid(), x * x


def _squares(n):
    """A map of n tasks made inside a task; its results, tagged with process ids."""
    with workers.ordered_map(_pid_square, (), range(n), n) as inner:
        return os.getpid(), list(inner)


def test_a_map_inside_a_worker_runs_in_process(monkeypatch, pools_made):
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    with workers.ordered_map(_squares, (), [2, 3, 4], 3) as results:
        pooled = list(results)
    assert pools_made == [2]
    for pid, inner in pooled:
        assert pid != os.getpid() and {p for p, _ in inner} == {pid}
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    with workers.ordered_map(_squares, (), [2, 3, 4], 3) as results:
        direct = list(results)
    assert pools_made == [2]
    squares = [[x for _, x in inner] for _, inner in direct]
    assert [[x for _, x in inner] for _, inner in pooled] == squares
    assert squares == [[0, 1], [0, 1, 4], [0, 1, 4, 9]]


def _fail_on_odd(x):
    if x % 2:
        raise ValueError(f"task {x}")
    return x


def test_a_failing_map_closes_its_pool_and_every_worker_exits_cleanly(monkeypatch):
    # terminate() can kill a worker holding the result queue's lock, and the
    # pool's shutdown then waits for that lock forever
    import multiprocessing.context
    import multiprocessing.pool

    workers_made, terminated = [], []
    real_pool = multiprocessing.context.BaseContext.Pool

    def spy(ctx, *args, **kwargs):
        pool = real_pool(ctx, *args, **kwargs)
        workers_made.extend(pool._pool)
        return pool

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", spy)

    def terminate(pool):
        terminated.append(pool)
        pool.close()  # the safe shutdown, so a failing run of this test ends

    monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", terminate)
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    with pytest.raises(ValueError, match="task 1"):
        with workers.ordered_map(_fail_on_odd, (), range(6), 2) as results:
            list(results)
    assert terminated == []
    assert len(workers_made) == 2
    assert [w.exitcode for w in workers_made] == [0, 0]


def _imports(path):
    """(module, name) per imported name in path: name is None for `import module`,
    and `from . import m` gives ('.m', None)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                if module.lstrip(".") in ("", "fragaudit"):
                    yield f".{alias.name}", None
                else:
                    yield module, alias.name


def test_ordered_map_is_the_only_way_into_the_pool():
    # a second pool API, or a caller reaching past ordered_map, fails here
    src = Path(workers.__file__).parent
    users = set()
    for path in sorted(src.glob("*.py")):
        for module, name in _imports(path):
            if module.split(".")[0] == "multiprocessing":
                assert path.name == "workers.py", (path.name, module)
            if module.rsplit(".", 1)[-1] == "workers":
                assert name == "ordered_map", (path.name, module, name)
                users.add(path.stem)
    assert ("multiprocessing", None) in set(_imports(src / "workers.py"))
    assert {"cli", "evidence", "optim"} <= users
