"""Host-speed probe: a fixed mix of the kinds of work fragaudit does.

On a shared host the same work runs up to about 40% slower for tens of seconds
at a time, and a slow period slows all code on that core alike. round.py times
this probe in the round's own process just before and after every stage, and
run.py rescales the stage's wall time by NOMINAL_S / (mean of those two
probes): the time the stage would have taken on a host where the probe takes
NOMINAL_S. The probe calls no fragaudit code and runs with the garbage
collector off, so objects fragaudit keeps alive cannot slow it.
"""

import gc
import time

import numpy as np

# The probe's time in a round process on the 2-core development host
# (Python 3.11, numpy 2.4, OpenBLAS on one thread) in a quiet period, so
# rescaled times read close to the wall times seen there when it is quiet.
# Changing it rescales every stored baseline: keep it fixed.
NOMINAL_S = 0.046

_rng = np.random.default_rng(12345)
_BIG_A = _rng.random((512, 256))
_BIG_B = _rng.random((256, 64))
_SMALL_X = _rng.random((128, 8))
_SMALL_W = _rng.random((8, 16))


def _work() -> int:
    acc = 0
    # Interpreter-bound integer arithmetic, like the pure-Python RNG kernel.
    for i in range(70000):
        acc = (acc * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
    # Tiny-array numpy calls: per-call overhead, like the [8,16,2] nets.
    for _ in range(2800):
        acc += int(np.maximum(_SMALL_X @ _SMALL_W, 0.0).argmax())
    # Larger products: BLAS and memory traffic, like the image nets and evidence.
    for _ in range(80):
        acc += int((_BIG_A @ _BIG_B).argmax())
    return acc


def probe() -> float:
    """Wall time of one pass of the fixed work, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    print(" ".join(f"{probe():.4f}" for _ in range(10)))
