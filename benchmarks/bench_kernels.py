"""Benchmark the compiled stream kernels against the pure-python fallback.

Run:  python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from fragaudit import _kernels_py
from fragaudit import net as net_mod
from fragaudit import rng as rng_mod
from fragaudit.data import synth_blobs, split_train_test
from fragaudit.evidence import estimate_consistency_mass
from fragaudit.net import NetSpec
from fragaudit.rng import Rng, child_seeds, gaussian_matrix, states_from_seeds

try:
    from fragaudit import _kernels as _kernels_c
except ImportError:
    _kernels_c = None


def _time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_single_stream(backend, n):
    state = states_from_seeds(np.array([42], dtype=np.uint64))[0].copy()
    out = np.empty(n, dtype=np.uint64)

    def run():
        backend.fill_u64(state, out)

    secs = _time(run)
    return secs, n / secs


def bench_multi_stream(backend, K, m):
    seeds = child_seeds(7, 0, K)

    def run():
        states = states_from_seeds(seeds)
        out = np.empty((K, m), dtype=np.uint64)
        backend.fill_u64_multi(states, out)

    secs = _time(run)
    return secs, K * m / secs


def bench_gaussian_rows(K, m, per_row):
    """K gaussian rows of m variates: one gaussian_matrix call, or one
    single-stream Rng.gaussians call per row (the same variates)."""
    seeds = child_seeds(7, 0, K)

    def run():
        if per_row:
            for seed in seeds.tolist():
                Rng(seed).gaussians(m)
        else:
            gaussian_matrix(seeds, m)

    secs = _time(run)
    return secs, K * m / secs


def bench_box_muller(K, cols, block):
    """_box_muller on a (K, cols) word buffer in blocks of `block` words."""
    words = np.empty((K, cols), dtype=np.uint64)
    _kernels_py.fill_u64_multi(states_from_seeds(child_seeds(5, 0, K)), words)
    bufs = [words.copy() for _ in range(3)]  # one fresh buffer per repeat
    saved = rng_mod._BOX_MULLER_BLOCK
    rng_mod._BOX_MULLER_BLOCK = block
    try:
        secs = _time(lambda: rng_mod._box_muller(bufs.pop()))
    finally:
        rng_mod._BOX_MULLER_BLOCK = saved
    return secs, K * cols / secs


def bench_class_reduction(shape, name, columns):
    """A class-axis reduction over logits of `shape`: numpy's own, or the
    column pass that net uses below _COLUMN_CLASSES classes."""
    E = np.random.default_rng(0).standard_normal(shape)
    reduce = (getattr(net_mod, "_class_" + name) if columns
              else lambda E: getattr(E, name)(axis=-1))
    reps = max(1, 200_000 // E.size)

    def run():
        for _ in range(reps):
            reduce(E)

    return _time(run) / reps


def bench_estimator(draws):
    full = synth_blobs(516, 3, 2, 6.0, seed=1)
    tr, _ = split_train_test(full, 16, seed=2)
    spec = NetSpec((3, 6, 2))

    def run():
        estimate_consistency_mass(spec, tr, draws=draws, seed=3)

    secs = _time(run, repeats=2)
    return secs, draws / secs


def main():
    backends = [("python", _kernels_py)]
    if _kernels_c is not None:
        backends.insert(0, ("cython", _kernels_c))
    else:
        print("compiled kernels unavailable; benchmarking the fallback only")

    print(f"{'kernel':<34}{'backend':<10}{'time':>10}{'throughput':>18}")
    # a short request runs the python backend's serial loop, a long one its
    # jump-ahead lanes (see _kernels_py.LANE_CUTOFF)
    for n in (512, 1_000_000):
        for name, mod in backends:
            secs, rate = bench_single_stream(mod, n)
            print(f"{'single stream fill (' + str(n) + ')':<34}{name:<10}"
                  f"{secs * 1e3:>8.2f}ms{rate / 1e6:>12.2f} Mword/s")
    for name, mod in backends:
        secs, rate = bench_multi_stream(mod, 8192, 32)
        print(f"{'multi stream fill (8192x32)':<34}{name:<10}"
              f"{secs * 1e3:>8.2f}ms{rate / 1e6:>12.2f} Mword/s")
    # the sigma-search noise shapes of measure: 15 draws of P = 178 (one
    # search of the blobs_audit net), the rows of 3 and 6 such runs' searches
    # (90 and 180 rows, the 2^14- and 2^15-word blocks of cli.NOISE_BUDGET),
    # and 4 draws of P = 26,112 (one images_si search, always drawn alone)
    for K, m in ((15, 178), (90, 178), (180, 178), (4, 26_112)):
        for per_row in (True, False):
            secs, rate = bench_gaussian_rows(K, m, per_row)
            how = f"{K} x gaussians({m})" if per_row else f"gaussian_matrix {K}x{m}"
            print(f"{how:<34}{'active':<10}"
                  f"{secs * 1e3:>8.2f}ms{rate / 1e6:>12.2f} Mvar/s")
    # Box-Muller over the prior shard of the evidence_prior net (4096 draws of
    # 30 words), the images_si sigma noise and one images_si image draw, in
    # one pass and in the blocks _box_muller uses
    for K, cols in ((4096, 30), (4, 26_112), (1, 301_056)):
        for block in (K * cols, rng_mod._BOX_MULLER_BLOCK):
            secs, rate = bench_box_muller(K, cols, block)
            how = "one pass" if block == K * cols else "blocks"
            label = f"box-muller {K}x{cols} {how}"
            print(f"{label:<34}{'active':<10}"
                  f"{secs * 1e3:>8.2f}ms{rate / 1e6:>12.2f} Mvar/s")
    # class-axis reductions on the blobs_audit sweep logits (8 runs x 128 rows)
    # and on one evidence_prior shard (4096 draws x 16 points), 2 classes
    for shape in ((8, 128, 2), (4096, 16, 2)):
        for name in ("max", "sum", "argmax"):
            for columns in (False, True):
                secs = bench_class_reduction(shape, name, columns)
                how = "columns" if columns else "numpy"
                label = f"{name} {shape} {how}"
                print(f"{label:<34}{'active':<10}{secs * 1e6:>8.1f}us")
    secs, rate = bench_estimator(100_000)
    print(f"{'consistency estimator (1e5 draws)':<34}{'active':<10}"
          f"{secs:>9.2f}s{rate / 1e3:>12.1f} kdraw/s")

    # cross-check: identical streams from both backends
    if _kernels_c is not None:
        state_a = states_from_seeds(np.array([9], dtype=np.uint64))[0].copy()
        state_b = state_a.copy()
        a = np.empty(4096, dtype=np.uint64)
        b = np.empty(4096, dtype=np.uint64)
        _kernels_c.fill_u64(state_a, a)
        _kernels_py.fill_u64(state_b, b)
        assert np.array_equal(a, b), "backend outputs diverged"
        print("bit-exact backend agreement: OK")


if __name__ == "__main__":
    main()
