"""The one forked worker pool, shared by the sweep, the measure stage, the
evidence experiment and mass estimate, and the exppp alphas.

Every caller maps a pure function over independent tasks and consumes the
results in task order, so where a task runs never changes an output.
"""

import contextlib
import functools
import os
import threading


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextlib.contextmanager
def ordered_map(fn, shared, tasks, limit: int):
    """An iterator of fn(*shared, task) for each task, in task order.

    The tasks run on a forked pool of min(limit, CPUs) workers, which inherit
    shared through the pool initializer, so only a task and its result are
    pickled. Fork is used because a worker then needs no fresh interpreter or
    imports. The tasks run in-process, as the iterator is read, below two
    workers, where the platform lacks fork, while another thread runs (it
    could hold a lock across the fork), and inside a pool worker, which may
    not have children. An exception raised by task i is raised, with its
    type, when result i is read. The pool is closed and joined before the
    block exits, after the tasks already queued; it is terminated only on an
    interrupt such as Ctrl-C, since terminating can kill a worker holding the
    result queue's lock and then wait for that lock forever.
    """
    workers = min(limit, cpu_count())
    # _bound is set only in a pool worker
    if _bound is None and workers >= 2 and threading.active_count() == 1:
        import multiprocessing  # only here: the import costs 20-50 ms
        if "fork" in multiprocessing.get_all_start_methods():
            pool = multiprocessing.get_context("fork").Pool(workers, _start_worker,
                                                            (fn, shared))
            try:
                yield pool.imap(_call_bound, tasks)
            except BaseException as exc:
                if not isinstance(exc, Exception):  # an interrupt: drop the queue
                    pool.terminate()
                raise
            finally:
                pool.close()  # after terminate() a no-op
                pool.join()
            return
    yield map(functools.partial(fn, *shared), tasks)


# glibc's mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3

_bound = None  # in a pool worker: the mapped function bound to its shared arguments


def _start_worker(fn, shared) -> None:
    """Pool initializer: fix the worker's malloc thresholds, then bind fn to shared.

    glibc maps a block at or above its mmap threshold afresh on every
    allocation and returns free memory at the top of its heap to the OS past
    twice that threshold; it raises the threshold only when a larger mapped
    block is freed. A forked worker starts from the parent's threshold, so
    whether each task faulted its large temporaries in again depended on what
    the parent had freed before the fork. Fixed thresholds serve blocks up to
    32 MiB from the heap and keep freed memory there for the worker's life,
    which ends with its pool. Without glibc's mallopt nothing is set.
    """
    global _bound
    import ctypes  # numpy has already imported it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        pass
    else:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    _bound = functools.partial(fn, *shared)


def _call_bound(task):
    return _bound(task)
