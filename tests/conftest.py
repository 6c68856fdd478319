import os
import time

import numpy as np
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


def _write_idx(images_path, labels_path, features01, labels, rows: int, cols: int) -> None:
    """Quantize [0,1] features to bytes and write them and labels as an IDX pair."""
    from fragaudit.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC

    n, d = features01.shape
    assert d == rows * cols, f"dim {d} != {rows}x{cols}"
    pixels = np.clip(np.rint(features01 * 255.0), 0, 255).astype(np.uint8)
    for path, magic, dims, payload in (
            (images_path, IDX_IMAGES_MAGIC, (n, rows, cols), pixels),
            (labels_path, IDX_LABELS_MAGIC, (n,), np.asarray(labels, dtype=np.uint8))):
        with open(path, "wb") as fh:
            for v in (magic, *dims):
                fh.write(int(v).to_bytes(4, "big"))
            fh.write(payload.tobytes())


@pytest.fixture
def write_idx():
    """A writer of IDX fixture files: (images path, labels path, [0,1] features,
    labels, rows, cols)."""
    return _write_idx
