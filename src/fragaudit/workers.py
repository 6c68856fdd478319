"""The one forked worker pool, shared by the sweep, the measure stage, the
evidence experiment and mass estimate, and the exppp alphas.

Every caller maps a pure function over independent tasks and consumes the
results in task order, so where a task runs never changes an output. The
workers are forked with os.fork, each with two pipes of its own: the parent
sends task indices down one and reads pickled results from the other. It reads
them on its main thread, so it runs no helper thread and unpickles every
result in its own malloc arena. A worker that ends without sending its result
raises errors.WorkerLost, a ChildProcessError, when that result is read,
instead of leaving the map waiting. Each worker runs BLAS on one thread, since
the workers already share the CPUs.
"""

import contextlib
import functools
import os
import pickle
import threading


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_size(limit=None) -> int:
    """The workers ordered_map starts for this limit (None: no limit): at most one per CPU."""
    cpus = cpu_count()
    return cpus if limit is None else min(limit, cpus)


@contextlib.contextmanager
def ordered_map(fn, shared, tasks, limit: int):
    """An iterator of fn(*shared, task) for each task, in task order; from a
    worker, a list result comes as an iterator of its items.

    The tasks run on min(limit, CPUs) forked workers, which inherit fn, shared
    and the tasks through the fork, so only a task's index and its result cross
    a pipe. Fork is used because a worker then needs no fresh interpreter or
    imports. The tasks run in-process, as the iterator is read, below two
    workers, where the platform lacks fork, while another thread runs (it
    could hold a lock across the fork), and inside a worker, which may not have
    children. A worker takes its next task when the parent reads its previous
    result. An exception raised by task i is raised, with its type, when result
    i is read; a worker that ends without sending result i raises WorkerLost,
    a ChildProcessError, there. When the block exits, the parent sends no
    further task, closes the pipes and reaps every worker, after the tasks
    already running; on an interrupt such as Ctrl-C it signals the workers first.
    """
    count = pool_size(limit)
    if not _in_worker and count >= 2 and hasattr(os, "fork") \
            and threading.active_count() == 1:
        pool = _Pool(list(tasks))
        try:
            pool.fork(fn, shared, count)
            yield pool.results()
        except BaseException as exc:
            if not isinstance(exc, Exception):  # an interrupt: stop the running tasks
                pool.kill()
            raise
        finally:
            pool.close()
        return
    yield map(functools.partial(fn, *shared), tasks)


_PIPE_SIZE = 1 << 20  # a result pipe's buffer: a worker then writes a large result at once


class _Traceback(Exception):
    """A task's traceback in its worker, chained as the cause of the error it raised."""


class _Worker:
    def __init__(self, pid, inbox, outbox):
        self.pid = pid  # None once reaped
        self.inbox = inbox  # the task pipe's write end; None once closed
        self.outbox = outbox  # the result pipe's read end; None once closed
        self.task = None  # the index of the task it was last sent


class _Pool:
    """Forked workers that run tasks by index and whose results are read in order."""

    def __init__(self, tasks):
        self.tasks, self.workers, self.sent = tasks, [], 0
        self.busy = {}  # result pipe -> its worker, while a result is due

    def fork(self, fn, shared, count):
        """Fork count workers and send each its first task."""
        import fcntl
        import select

        self.poller = select.poll()
        for _ in range(count):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            # a worker holding an earlier worker's task pipe would keep it from EOF
            parent_ends = [task_w, result_r] + [fd for w in self.workers
                                                for fd in (w.inbox, w.outbox)]
            pid = os.fork()
            if pid == 0:
                _serve(fn, shared, self.tasks, task_r, result_w, parent_ends)
            os.close(task_r)
            os.close(result_w)
            with contextlib.suppress(AttributeError, OSError):  # Linux only, up to its max
                fcntl.fcntl(result_r, fcntl.F_SETPIPE_SZ, _PIPE_SIZE)
            self.workers.append(_Worker(pid, task_w, result_r))
        for w in self.workers:
            self._send_next(w)

    def _send_next(self, w):
        """Send worker w the next task, or close its task pipe if none is left."""
        if self.sent == len(self.tasks):
            os.close(w.inbox)
            w.inbox = None
            return
        w.task, self.sent = self.sent, self.sent + 1
        with contextlib.suppress(BrokenPipeError):  # w has ended: its result pipe reads EOF
            os.write(w.inbox, w.task.to_bytes(8, "little"))
        self.busy[w.outbox] = w
        self.poller.register(w.outbox)

    def results(self):
        """The results in task order; a task's error is raised at its turn.

        A list result comes as an iterator that unpickles its items as they
        are taken, so the parent never holds all of them unpickled at once."""
        done = {}  # task index -> (ok, value), read ahead of its turn
        for i in range(len(self.tasks)):
            self._receive(done, 0)  # hand the idle workers their next tasks
            while i not in done:
                self._receive(done, None)
            ok, value = done.pop(i)
            if not ok:
                exc, tb = value
                raise exc from (tb and _Traceback(tb))
            yield _unpickled(value) if type(value) is _Items else value

    def _receive(self, done, timeout):
        """Read every result that is ready into done, waiting up to timeout ms for one."""
        for fd, _ in self.poller.poll(timeout):
            w = self.busy.pop(fd)
            self.poller.unregister(fd)
            head = _read(fd, 8)
            size = int.from_bytes(head, "little")
            data = _read(fd, size) if len(head) == 8 else b""
            if len(head) < 8 or len(data) < size:
                done[w.task] = False, (self._lost(w), None)
                continue
            i, ok, value = pickle.loads(data)
            done[i] = ok, value
            self._send_next(w)

    def _lost(self, w):
        """The error for worker w's task, whose result pipe reached EOF: w has ended."""
        from .errors import WorkerLost

        self._close_pipes(w)
        _, status = os.waitpid(w.pid, 0)
        w.pid = None
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        return WorkerLost(f"the worker running task {w.task} ended without its "
                          f"result ({how}, wait status {status})")

    def kill(self):
        """Signal every live worker to end now, without its running task."""
        import signal

        for w in self.workers:
            if w.pid is not None:
                os.kill(w.pid, signal.SIGTERM)

    def close(self):
        """Send no further task, close every pipe and reap every worker."""
        for w in self.workers:
            self._close_pipes(w)
        for w in self.workers:
            if w.pid is not None:
                os.waitpid(w.pid, 0)
                w.pid = None

    @staticmethod
    def _close_pipes(w):
        for fd in (w.inbox, w.outbox):
            if fd is not None:
                os.close(fd)
        w.inbox = w.outbox = None


class _Items(list):
    """A task's list result as its items' pickles."""


def _unpickled(items):
    """The items of an _Items list, unpickled one at a time as they are taken."""
    items.reverse()
    while items:
        yield pickle.loads(items.pop())


def _read(fd, size) -> bytes:
    """size bytes from fd, or fewer where it reaches EOF first."""
    parts = []
    while size:
        part = os.read(fd, size)
        if not part:
            break
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _write(fd, data) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(fn, shared, tasks, inbox, outbox, parent_ends):
    """A worker's whole life: run each task whose index arrives on inbox and
    send (index, ok, value) back on outbox, until inbox closes. It ends with
    os._exit, so it never runs the parent's finally blocks or exit handlers and
    never flushes the stdio buffers it inherited."""
    code = 1
    try:
        for fd in parent_ends:
            os.close(fd)
        _start_worker()
        call = functools.partial(fn, *shared)
        while index := os.read(inbox, 8):
            i = int.from_bytes(index, "little")
            try:
                value = call(tasks[i])
                if type(value) is list:  # its items cross one by one (see _Pool.results)
                    value = _Items(pickle.dumps(x, pickle.HIGHEST_PROTOCOL) for x in value)
                data = pickle.dumps((i, True, value), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                data = _failure(i, exc)
            _write(outbox, len(data).to_bytes(8, "little"))
            _write(outbox, data)
        code = 0
    except BrokenPipeError:  # the parent closed the map before reading this result
        code = 0
    finally:
        os._exit(code)


def _failure(i, exc) -> bytes:
    """Task i's pickled failure: its exception and traceback, or, where the
    exception does not survive pickling, a PicklingError naming its type and
    message."""
    import traceback

    tb = traceback.format_exc()
    try:
        data = pickle.dumps((i, False, (exc, tb)), pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
    except Exception as why:
        exc = pickle.PicklingError(f"{type(exc).__qualname__}: {exc} "
                                   f"(cannot be sent from its worker: {why})")
        data = pickle.dumps((i, False, (exc, tb)), pickle.HIGHEST_PROTOCOL)
    return data


# glibc's mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3

_in_worker = False  # set in a forked worker, whose own maps then run in-process


def _start_worker() -> None:
    """Mark this process as a worker, fix its malloc thresholds and run its
    BLAS on one thread.

    glibc maps a block at or above its mmap threshold afresh on every
    allocation and returns free memory at the top of its heap to the OS past
    twice that threshold; it raises the threshold only when a larger mapped
    block is freed. A forked worker starts from the parent's threshold, so
    whether each task faulted its large temporaries in again depended on what
    the parent had freed before the fork. Fixed thresholds serve blocks up to
    32 MiB from the heap and keep freed memory there for the worker's life,
    which ends with its map. Without glibc's mallopt nothing is set.

    OpenBLAS would give every worker as many threads as the parent has, and
    the workers would then oversubscribe the CPUs. numpy's extension links the
    OpenBLAS it bundles, so the symbol is found through it; where that library
    or symbol is missing, nothing is set.
    """
    global _in_worker
    import ctypes  # numpy has already imported it

    import numpy

    _in_worker = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        pass
    else:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    try:
        blas = ctypes.CDLL(numpy._core._multiarray_umath.__file__)
        set_threads = blas.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        pass
    else:
        set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
        set_threads(1)
