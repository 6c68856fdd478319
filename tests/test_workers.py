"""The forked worker pool: every worker runs with fixed malloc thresholds."""

import os
import platform
import subprocess
import sys

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
    seen = []
    workers._start_worker(seen.append, ("bound",))
    assert seen == ["bound"]
