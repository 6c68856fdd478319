"""The forked worker pool: every worker runs with fixed malloc thresholds and one
BLAS thread, a map inside a worker runs in-process, a failing map shuts its pool
down without signalling it, a lost worker or an unpicklable error raises instead
of hanging, and ordered_map is the pool's only entry."""

import ast
import contextlib
import json
import os
import pickle
import platform
import signal
import subprocess
import sys
import threading
import time
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


def test_a_worker_without_mallopt_still_runs_the_initializer(monkeypatch, pools_made):
    import ctypes

    def no_libc(name):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)  # no mallopt and no BLAS symbol either
    monkeypatch.setattr(workers, "_in_worker", False)  # no worker once the test ends
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    workers._start_worker()
    with workers.ordered_map(divmod, (17,), [5], 2) as results:  # a worker's: in-process
        assert list(results) == [(3, 2)]
    assert pools_made == []


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


def _statuses(monkeypatch):
    """The wait status of every process reaped during the test, in order."""
    statuses, real = [], os.waitpid

    def waitpid(pid, options):
        pid, status = real(pid, options)
        statuses.append(status)
        return pid, status

    monkeypatch.setattr(os, "waitpid", waitpid)
    return statuses


def _pools(monkeypatch):
    """Every pool forked during the test, and the pools it was told to signal."""
    pools, signalled = [], []
    real_fork, real_kill = workers._Pool.fork, workers._Pool.kill

    def fork(pool, *args):
        pools.append(pool)
        return real_fork(pool, *args)

    def kill(pool):
        signalled.append(pool)
        return real_kill(pool)

    monkeypatch.setattr(workers._Pool, "fork", fork)
    monkeypatch.setattr(workers._Pool, "kill", kill)
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    return pools, signalled


def _closed(pool) -> bool:
    return all(w.inbox is None and w.outbox is None and w.pid is None for w in pool.workers)


@contextlib.contextmanager
def _within(seconds):
    """Raise TimeoutError in the block once it has run for seconds, instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_failing_map_closes_its_pool_and_every_worker_exits_cleanly(monkeypatch):
    # an error lets each worker end its running task and exit; only an interrupt
    # signals the workers
    pools, signalled = _pools(monkeypatch)
    statuses = _statuses(monkeypatch)
    with pytest.raises(ValueError, match="task 1"):
        with workers.ordered_map(_fail_on_odd, (), range(6), 2) as results:
            list(results)
    assert signalled == []
    assert len(pools) == 1 and len(pools[0].workers) == 2 and _closed(pools[0])
    assert len(statuses) == 2
    # exited with status 0, so none was signalled
    assert all(os.WIFEXITED(s) and os.WEXITSTATUS(s) == 0 for s in statuses)


def _jittered(x):
    time.sleep((x * 7919 % 13) / 4000)  # uneven task times, so results arrive out of order
    return x, os.getpid()


def test_more_workers_than_cpus_return_every_result_in_task_order(monkeypatch, pools_made):
    monkeypatch.setattr(workers, "cpu_count", lambda: 4 * (os.cpu_count() or 1))
    with _within(60), workers.ordered_map(_jittered, (), range(300), 300) as results:
        got = list(results)
    assert pools_made == [4 * (os.cpu_count() or 1)]
    assert [x for x, _ in got] == list(range(300))
    assert len({pid for _, pid in got}) > 1 and os.getpid() not in {pid for _, pid in got}


def _end_own_worker(how, x):
    if x == 1:
        if how == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(3)
    return x


@pytest.mark.parametrize("how, status", [("kill", "killed by signal 9"),
                                          ("exit", "exit status 3")])
def test_a_worker_that_ends_inside_a_task_raises_instead_of_hanging(monkeypatch, how,
                                                                    status):
    pools, signalled = _pools(monkeypatch)
    read = []
    with _within(20), pytest.raises(ChildProcessError, match=f"task 1 .*{status}"):
        with workers.ordered_map(_end_own_worker, (how,), range(4), 2) as results:
            read.extend(results)
    assert read == [0]
    assert signalled == [] and len(pools) == 1 and _closed(pools[0])


class _HoldsLock(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def _raise_unpicklable(x):
    if x == 1:
        raise _HoldsLock(f"task {x} holds a lock")
    return x


def test_an_unpicklable_task_error_arrives_naming_its_type_and_message(monkeypatch):
    pools, signalled = _pools(monkeypatch)
    with _within(20), pytest.raises(pickle.PicklingError,
                                    match="^_HoldsLock: task 1 holds a lock "):
        with workers.ordered_map(_raise_unpicklable, (), range(4), 2) as results:
            list(results)
    assert signalled == [] and len(pools) == 1 and _closed(pools[0])


def test_an_interrupt_in_the_block_signals_the_workers_and_reaps_them(monkeypatch):
    pools, signalled = _pools(monkeypatch)
    statuses = _statuses(monkeypatch)
    with _within(20), pytest.raises(KeyboardInterrupt):  # the workers sleep for 60 s
        with workers.ordered_map(time.sleep, (), [60, 60, 60], 2):
            raise KeyboardInterrupt
    assert signalled == pools and len(pools) == 1 and _closed(pools[0])
    assert len(statuses) == 2
    assert all(os.WIFSIGNALED(s) and os.WTERMSIG(s) == signal.SIGTERM for s in statuses)


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


def _forks(path):
    """The lines of path that name os.fork."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "fork"
            and isinstance(node.value, ast.Name) and node.value.id == "os"]


def test_ordered_map_is_the_only_way_into_the_pool():
    # a second pool, a fork outside it, or a caller reaching past ordered_map fails here
    src = Path(workers.__file__).parent
    users = set()
    for path in sorted(src.glob("*.py")):
        for module, name in _imports(path):
            assert module.split(".")[0] != "multiprocessing", (path.name, module)
            assert (module, name) != ("os", "fork"), path.name
            if module.rsplit(".", 1)[-1] == "workers":
                assert name == "ordered_map", (path.name, module, name)
                users.add(path.stem)
        if path.name != "workers.py":
            assert _forks(path) == [], path.name
    assert len(_forks(src / "workers.py")) == 1
    assert {"cli", "evidence", "optim"} <= users


def _blas_run(tmp_path, name, blas_threads):
    """Every output file of a two-stack images sweep (one stack per optimizer) and an
    exppp demo of two alphas, each run in a fresh interpreter with
    OPENBLAS_NUM_THREADS as given (None: unset)."""
    out = tmp_path / name
    cfg = {"out_dir": "out",  # in the config hash, so the same for both runs
           "net": {"layer_dims": [196, 32, 32, 10], "normalize_hidden": True,
                   "frozen_readout": True, "bias_enabled": False, "tag": "si"},
           "data": {"source": {"kind": "images", "n": 192, "num_classes": 10, "side": 14,
                               "active_pixels": 24, "seed": 3},
                    "split": {"n_train": 128, "seed": 4}, "tag": "images"},
           "sweep": {"lrs": [0.1, 0.3], "optimizers": ["sgdm", "adam"], "seeds": [0],
                     "batch_size": 32, "max_epochs": 4},
           "exppp": {"eta0": 0.01, "gamma": 0.9, "lambda": 0.0, "alphas": [0.8, 0.9],
                     "steps": 5, "seed": 5}}
    cp = tmp_path / f"{name}.json"
    cp.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    for cmd in (["sweep"], ["exppp", "--mode", "demo"]):
        subprocess.run([sys.executable, "-m", "fragaudit.cli", *cmd, "--config", str(cp),
                        "--out", str(out)], capture_output=True, env=env, check=True,
                       timeout=120)
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file()}


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    default = _blas_run(tmp_path, "default", None)
    assert len(default) == 15  # four runs' three files, records.jsonl, two demo reports
    assert _blas_run(tmp_path, "one", "1") == default
